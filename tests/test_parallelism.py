"""Parallelism: config algebra, TP/PP enumeration, 1F1B simulation, splits and baselines."""

import pytest

from repro.interconnect.alphabeta import AlphaBetaLink
from repro.parallelism.cerebras import CerebrasWeightStreaming
from repro.parallelism.fsdp import fsdp_cost, fsdp_traffic_bytes
from repro.parallelism.megatron import megatron_parallelism
from repro.parallelism.partition import (
    TPSplitStrategy,
    best_mesh_shape,
    factor_shapes,
    split_communication,
)
from repro.parallelism.pipeline import (
    PipelineCostInputs,
    analytic_1f1b_time,
    simulate_1f1b,
)
from repro.parallelism.strategies import ParallelismConfig, enumerate_tp_pp
from repro.units import GB
from repro.workloads.models import get_model
from repro.workloads.workload import TrainingWorkload


class TestParallelismConfig:
    def test_sizes(self):
        cfg = ParallelismConfig(dp=2, tp=4, pp=8)
        assert cfg.model_parallel_size == 32
        assert cfg.world_size == 64
        assert cfg.fits(64) and not cfg.fits(63)

    def test_label_format(self):
        assert ParallelismConfig(dp=1, tp=4, pp=14).label() == "D(1)T(4)P(14)"

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelismConfig(dp=0)

    def test_with_dp(self):
        assert ParallelismConfig(tp=2).with_dp(4).dp == 4


class TestEnumerateTpPp:
    def test_products_cover_model_parallel_dies(self):
        pairs = list(enumerate_tp_pp(32, num_layers=64))
        assert all(tp * pp == 32 for tp, pp in pairs)

    def test_even_tp_requirement(self):
        pairs = list(enumerate_tp_pp(12, num_layers=64))
        assert all(tp == 1 or tp % 2 == 0 for tp, pp in pairs)
        assert (3, 4) not in pairs

    def test_pp_capped_by_layer_count(self):
        pairs = list(enumerate_tp_pp(64, num_layers=8))
        assert all(pp <= 8 for _, pp in pairs)

    def test_max_tp_filter(self):
        pairs = list(enumerate_tp_pp(32, num_layers=64, max_tp=8))
        assert all(tp <= 8 for tp, _ in pairs)

    def test_invalid_die_count(self):
        with pytest.raises(ValueError):
            list(enumerate_tp_pp(0, 8))


class TestPipelineSimulation:
    def test_homogeneous_matches_analytic_formula(self):
        pp, n, fwd, bwd = 4, 8, 1.0, 2.0
        result = simulate_1f1b(
            PipelineCostInputs([fwd] * pp, [bwd] * pp, [0.0] * (pp - 1), n)
        )
        assert result.iteration_time == pytest.approx(analytic_1f1b_time(fwd, bwd, pp, n))

    def test_single_stage_has_no_bubble(self):
        result = simulate_1f1b(PipelineCostInputs([1.0], [2.0], [], 8))
        assert result.iteration_time == pytest.approx(24.0)
        assert result.bubble_fraction == pytest.approx(0.0)

    def test_more_microbatches_reduce_bubble_fraction(self):
        few = simulate_1f1b(PipelineCostInputs([1.0] * 4, [2.0] * 4, [0.0] * 3, 4))
        many = simulate_1f1b(PipelineCostInputs([1.0] * 4, [2.0] * 4, [0.0] * 3, 64))
        assert many.bubble_fraction < few.bubble_fraction

    def test_slowest_stage_gates_iteration(self):
        balanced = simulate_1f1b(PipelineCostInputs([1.0] * 4, [2.0] * 4, [0.0] * 3, 16))
        skewed = simulate_1f1b(
            PipelineCostInputs([1.0, 1.0, 1.5, 1.0], [2.0, 2.0, 3.0, 2.0], [0.0] * 3, 16)
        )
        assert skewed.iteration_time > balanced.iteration_time

    def test_inter_stage_comm_increases_time(self):
        free = simulate_1f1b(PipelineCostInputs([1.0] * 4, [2.0] * 4, [0.0] * 3, 8))
        slow = simulate_1f1b(PipelineCostInputs([1.0] * 4, [2.0] * 4, [0.5] * 3, 8))
        assert slow.iteration_time > free.iteration_time

    def test_stage_busy_time_equals_work(self):
        pp, n = 3, 5
        result = simulate_1f1b(PipelineCostInputs([1.0] * pp, [2.0] * pp, [0.0] * (pp - 1), n))
        for busy in result.stage_busy_time:
            assert busy == pytest.approx(n * 3.0)

    def test_stage_utilization_below_one(self):
        result = simulate_1f1b(PipelineCostInputs([1.0] * 4, [2.0] * 4, [0.1] * 3, 8))
        for stage in range(4):
            assert 0.0 < result.stage_utilization(stage) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineCostInputs([1.0, 1.0], [1.0], [0.0], 4)
        with pytest.raises(ValueError):
            PipelineCostInputs([1.0], [1.0], [], 0)
        with pytest.raises(ValueError):
            PipelineCostInputs([1.0, -1.0], [1.0, 1.0], [0.0], 2)
        with pytest.raises(ValueError):
            analytic_1f1b_time(1.0, 2.0, 0, 4)

    def test_nan_inputs_are_rejected(self):
        nan = float("nan")
        for inputs in (
            ([1.0, nan], [2.0, 2.0], [0.1], 4),
            ([1.0, 1.0], [nan, 2.0], [0.1], 4),
            ([1.0, 1.0], [2.0, 2.0], [nan], 4),
            ([1.0, 1.0], [2.0, 2.0], [0.1], nan),
        ):
            with pytest.raises(ValueError):
                PipelineCostInputs(*inputs)


class TestPartition:
    def test_factor_shapes(self):
        assert (2, 4) in factor_shapes(8)
        assert (8, 1) in factor_shapes(8)
        assert all(a * b == 8 for a, b in factor_shapes(8))

    def test_best_mesh_shape_prefers_square(self):
        assert best_mesh_shape(16, 8, 8) == (4, 4)
        assert best_mesh_shape(8, 8, 8) in ((2, 4), (4, 2))

    def test_best_mesh_shape_respects_mesh_bounds(self):
        shape = best_mesh_shape(14, 7, 8)
        assert shape[0] <= 7 and shape[1] <= 8

    def test_best_mesh_shape_rejects_impossible_group(self):
        with pytest.raises(ValueError):
            best_mesh_shape(64, 4, 4)

    def test_hidden_split_allreduces_activations(self):
        cost = split_communication(TPSplitStrategy.HIDDEN, 2, 512, 1024, tp=4)
        assert cost.allreduce_bytes == pytest.approx(2 * 2 * 512 * 1024 * 2)
        assert cost.allgather_bytes == 0.0

    def test_batch_split_needs_no_activation_comm(self):
        cost = split_communication(TPSplitStrategy.BATCH, 2, 512, 1024, tp=4)
        assert cost.allreduce_bytes == 0.0 and cost.allgather_bytes == 0.0

    def test_tp_one_is_free(self):
        cost = split_communication(TPSplitStrategy.HIDDEN, 2, 512, 1024, tp=1)
        assert cost.allreduce_bytes == 0.0


class TestMegatronHeuristic:
    def test_large_models_use_tp8(self):
        cfg = megatron_parallelism(get_model("llama3-70b"), 64, 96 * GB)
        assert cfg.tp == 8

    def test_small_models_use_smaller_tp(self):
        cfg = megatron_parallelism(get_model("llama2-7b"), 8, 96 * GB)
        assert cfg.tp <= 4

    def test_world_size_fits_devices(self):
        for name in ("llama2-30b", "gpt-175b"):
            cfg = megatron_parallelism(get_model(name), 56, 70 * GB)
            assert cfg.world_size <= 56

    def test_pp_grows_until_model_fits(self):
        tight = megatron_parallelism(get_model("gpt-175b"), 64, 48 * GB)
        roomy = megatron_parallelism(get_model("gpt-175b"), 64, 288 * GB)
        assert tight.pp >= roomy.pp

    def test_validation(self):
        with pytest.raises(ValueError):
            megatron_parallelism(get_model("llama2-30b"), 0, GB)


class TestCerebrasAndFsdp:
    def test_weight_streaming_costs_scale_with_model(self, small_wafer):
        streaming = CerebrasWeightStreaming(small_wafer)
        small = streaming.evaluate(TrainingWorkload(get_model("llama2-30b"), 16, 1, 1024))
        large = streaming.evaluate(TrainingWorkload(get_model("llama3-70b"), 16, 1, 1024))
        assert large.weight_stream_time > small.weight_stream_time
        assert large.iteration_time > small.compute_time

    def test_exposed_comm_nonnegative(self, small_wafer):
        streaming = CerebrasWeightStreaming(small_wafer)
        outcome = streaming.evaluate(TrainingWorkload(get_model("llama2-30b"), 16, 1, 1024))
        assert outcome.exposed_comm_time >= 0.0

    def test_streaming_validation(self, small_wafer):
        with pytest.raises(ValueError):
            CerebrasWeightStreaming(small_wafer, compute_efficiency=0.0)

    def test_fsdp_traffic_is_three_passes_over_params(self):
        model = get_model("llama2-30b")
        assert fsdp_traffic_bytes(model) == pytest.approx(3 * 2.0 * model.num_parameters)

    def test_fsdp_comm_time_grows_with_group(self):
        model = get_model("llama2-30b")
        link = AlphaBetaLink(1e12, 1e-7)
        assert fsdp_cost(model, 16, link).comm_time > fsdp_cost(model, 4, link).comm_time

    def test_fsdp_moves_more_bytes_than_tp_activations(self):
        # Fig. 6a rationale: FSDP traffic is parameter-sized, TP traffic activation-sized.
        model = get_model("llama2-30b")
        workload = TrainingWorkload(model, 16, 1, 4096)
        tp_bytes_per_layer = 2 * 2 * workload.micro_batch_size * workload.seq_len * model.hidden_size
        tp_total = tp_bytes_per_layer * model.num_layers * 16
        assert fsdp_traffic_bytes(model) > tp_total
