"""Core plan data structures, TP engine, PP engine and placement."""

import itertools
from dataclasses import replace

import pytest

from repro.core.placement import (
    PlacementOptimizer,
    global_cost,
    mesh_blocks,
    serpentine_placement,
)
from repro.core.plan import MemPair, RecomputeConfig, StagePlacement, TrainingPlan
from repro.core.pp_engine import PPEngine
from repro.core.tp_engine import TPEngine
from repro.interconnect.topology import MeshTopology
from repro.parallelism.strategies import ParallelismConfig


class TestRecomputeConfig:
    def test_none_has_empty_stages(self):
        cfg = RecomputeConfig.none(4)
        assert cfg.num_stages == 4
        assert all(not stage for stage in cfg.stages)

    def test_full_includes_all_recomputable(self, tiny_workload):
        ops = tiny_workload.layer_operators()
        cfg = RecomputeConfig.full(3, ops)
        assert cfg.stage(0) == frozenset(op.name for op in ops if op.recomputable)

    def test_fraction_between_zero_and_one(self, tiny_workload):
        ops = tiny_workload.layer_operators()
        none = RecomputeConfig.none(2)
        full = RecomputeConfig.full(2, ops)
        assert none.recompute_fraction(0, ops) == 0.0
        assert 0.0 < full.recompute_fraction(0, ops) <= 1.0

    def test_extra_flops_counts_recomputed_ops(self, tiny_workload):
        ops = tiny_workload.layer_operators()
        cfg = RecomputeConfig.uniform(2, ["mlp_up_proj"])
        expected = next(op.flops for op in ops if op.name == "mlp_up_proj")
        assert cfg.extra_forward_flops(0, ops) == pytest.approx(expected)

    def test_with_stage_replaces_one_entry(self):
        cfg = RecomputeConfig.none(3).with_stage(1, frozenset({"attn_norm"}))
        assert cfg.stage(1) == frozenset({"attn_norm"})
        assert cfg.stage(0) == frozenset()


class TestStagePlacement:
    def test_duplicate_die_rejected(self):
        with pytest.raises(ValueError):
            StagePlacement(stage_dies=(((0, 0),), ((0, 0),)))

    def test_center_and_distance(self):
        placement = StagePlacement(stage_dies=(((0, 0), (1, 0)), ((3, 0), (3, 1))))
        assert placement.center(0) == (0.5, 0.0)
        assert placement.stage_distance(0, 1) == pytest.approx(2.5 + 0.5)

    def test_boundary_dies_are_closest_pair(self):
        placement = StagePlacement(stage_dies=(((0, 0), (1, 0)), ((2, 0), (3, 3))))
        assert placement.boundary_dies(0, 1) == ((1, 0), (2, 0))

    def test_permuted_swaps_blocks(self):
        placement = StagePlacement(stage_dies=(((0, 0),), ((1, 0),), ((2, 0),)))
        swapped = placement.permuted([2, 1, 0])
        assert swapped.dies(0) == ((2, 0),)
        assert swapped.dies(2) == ((0, 0),)

    def test_permuted_requires_valid_permutation(self):
        placement = StagePlacement(stage_dies=(((0, 0),), ((1, 0),)))
        with pytest.raises(ValueError):
            placement.permuted([0, 0])


class TestTrainingPlan:
    def test_shape_must_match_tp(self):
        with pytest.raises(ValueError):
            TrainingPlan(parallelism=ParallelismConfig(tp=4, pp=2), tp_shape=(1, 2),
                         recompute=RecomputeConfig.none(2))

    def test_recompute_must_match_pp(self):
        with pytest.raises(ValueError):
            TrainingPlan(parallelism=ParallelismConfig(tp=1, pp=4), tp_shape=(1, 1),
                         recompute=RecomputeConfig.none(2))

    def test_builders_return_new_plans(self, tiny_workload):
        plan = TrainingPlan(parallelism=ParallelismConfig(tp=1, pp=2), tp_shape=(1, 1),
                            recompute=RecomputeConfig.none(2))
        updated = plan.with_mem_pairs([MemPair(0, 1, 10.0)])
        assert updated.mem_pairs and not plan.mem_pairs

    def test_mem_pair_validation(self):
        with pytest.raises(ValueError):
            MemPair(1, 1, 5.0)
        with pytest.raises(ValueError):
            MemPair(0, 1, -1.0)
        with pytest.raises(ValueError):
            MemPair(0, 1, float("nan"))
        with pytest.raises(ValueError):
            replace(MemPair(0, 1, 5.0), bytes_moved=float("nan"))

    def test_label_mentions_parallelism(self):
        plan = TrainingPlan(parallelism=ParallelismConfig(tp=2, pp=2), tp_shape=(1, 2),
                            recompute=RecomputeConfig.none(2))
        assert "T(2)" in plan.label()


class TestMeshBlocksAndSerpentine:
    def test_blocks_tile_without_overlap(self):
        blocks = mesh_blocks(4, 4, (2, 2), 4)
        dies = [d for block in blocks for d in block]
        assert len(dies) == len(set(dies)) == 16

    def test_consecutive_blocks_are_adjacent(self):
        placement = serpentine_placement(4, 4, (2, 2), 4)
        for stage in range(3):
            assert placement.stage_distance(stage, stage + 1) <= 2.5

    def test_fallback_for_non_tiling_shapes(self):
        # 14 blocks of 2×2 dies on a 7×8 mesh cannot tile as rectangles but must still
        # produce a valid (serpentine-chopped) placement.
        blocks = mesh_blocks(7, 8, (2, 2), 14)
        assert len(blocks) == 14
        dies = [d for block in blocks for d in block]
        assert len(dies) == len(set(dies)) == 56

    def test_impossible_request_rejected(self):
        with pytest.raises(ValueError):
            mesh_blocks(4, 4, (2, 2), 5)
        with pytest.raises(ValueError):
            mesh_blocks(4, 4, (8, 1), 1)


class TestGlobalCostAndOptimizer:
    def test_colocated_pairs_cost_less(self):
        base = serpentine_placement(4, 4, (1, 1), 8)
        # Stage 4 sits far from stage 0 in the serpentine order; give their Mem_pair a
        # heavy weight so the placement that co-locates them wins despite a slightly
        # longer pipeline path (the Fig. 11 trade-off).
        pairs = [MemPair(0, 4, 10.0)]
        naive_cost = global_cost(base, pairs)
        order = list(range(8))
        order[4], order[7] = order[7], order[4]
        better_cost = global_cost(base.permuted(order), pairs)
        assert better_cost < naive_cost

    def test_pipeline_cost_counts_adjacent_stage_distance(self):
        placement = serpentine_placement(4, 4, (1, 1), 4)
        assert global_cost(placement, []) > 0.0

    def test_optimizer_never_worse_than_serpentine(self, small_wafer):
        mesh = MeshTopology.from_wafer(small_wafer)
        optimizer = PlacementOptimizer(mesh)
        pairs = [MemPair(0, 5, 4.0), MemPair(1, 4, 2.0)]
        base = serpentine_placement(4, 4, (1, 2), 6)
        optimized = optimizer.optimize((1, 2), 6, pairs)
        assert global_cost(optimized, pairs) <= global_cost(base, pairs)

    def test_optimizer_without_pairs_returns_serpentine(self, small_wafer):
        mesh = MeshTopology.from_wafer(small_wafer)
        optimized = PlacementOptimizer(mesh).optimize((2, 2), 4, ())
        assert optimized.stage_dies == serpentine_placement(4, 4, (2, 2), 4).stage_dies

    def test_local_search_path_used_for_deep_pipelines(self, small_wafer):
        mesh = MeshTopology.from_wafer(small_wafer)
        optimizer = PlacementOptimizer(mesh, exhaustive_limit=4, local_search_iterations=50)
        pairs = [MemPair(0, 7, 3.0)]
        placement = optimizer.optimize((1, 2), 8, pairs)
        assert placement.num_stages == 8


class TestTPEngine:
    @pytest.fixture
    def engine(self, small_wafer):
        return TPEngine(small_wafer)

    def test_stage_times_positive(self, engine, tiny_workload):
        times = engine.stage_times(tiny_workload, 0, 2, tp=2, pp=4)
        assert times.forward > 0 and times.backward > times.forward

    def test_tp_comm_zero_without_tensor_parallelism(self, engine, tiny_workload):
        times = engine.stage_times(tiny_workload, 1, 2, tp=1, pp=4)
        assert times.tp_comm == 0.0

    def test_tp_comm_grows_with_group_size(self, engine, tiny_workload):
        ops = tiny_workload.layer_operators()
        assert engine.layer_tp_comm_time(ops, 8) > engine.layer_tp_comm_time(ops, 2)

    def test_recomputation_adds_backward_time(self, engine, tiny_workload):
        plain = engine.stage_times(tiny_workload, 1, 2, tp=2, pp=4)
        recomputed = engine.stage_times(
            tiny_workload, 1, 2, tp=2, pp=4,
            recomputed_ops=frozenset({"mlp_up_proj", "qkv_proj"}),
        )
        assert recomputed.recompute > 0
        assert recomputed.backward_total > plain.backward_total
        assert recomputed.forward == pytest.approx(plain.forward)

    def test_edge_stages_pay_for_embeddings(self, engine, tiny_workload):
        first = engine.stage_times(tiny_workload, 0, 2, tp=2, pp=4)
        middle = engine.stage_times(tiny_workload, 1, 2, tp=2, pp=4)
        assert first.forward > middle.forward

    def test_degraded_compute_slows_stage(self, engine, tiny_workload):
        healthy = engine.stage_times(tiny_workload, 1, 2, tp=2, pp=4)
        degraded = engine.stage_times(tiny_workload, 1, 2, tp=2, pp=4, compute_throughput=0.5)
        assert degraded.forward > healthy.forward

    def test_degraded_links_slow_comm(self, engine, tiny_workload):
        ops = tiny_workload.layer_operators()
        assert engine.layer_tp_comm_time(ops, 4, link_quality=0.5) > engine.layer_tp_comm_time(ops, 4)

    def test_memoized_stage_times_match_the_raw_path(self, small_wafer, tiny_workload):
        # One memoized engine prices every signature, interleaving TP degrees and link
        # and compute quality, so a memo keyed on too little would answer one
        # signature with another's value; the raw engine prices each from scratch.
        memoized = TPEngine(small_wafer)
        raw = TPEngine(small_wafer, memoize=False)
        recompute = frozenset({"mlp_up_proj", "qkv_proj"})
        for _ in range(2):  # the second round is served from the memos
            for tp, link, compute, stage, ops in itertools.product(
                (1, 2, 4), (1.0, 0.5), (1.0, 0.7), (0, 1), (frozenset(), recompute)
            ):
                args = (tiny_workload, stage, 2, tp, 4, ops, link, compute)
                assert memoized.stage_times(*args) == raw.stage_times(*args), args

    def test_stage_forward_flops_counts_layers(self, engine, tiny_workload):
        one = engine.stage_forward_flops(tiny_workload, 1, 1, pp=4)
        two = engine.stage_forward_flops(tiny_workload, 1, 2, pp=4)
        assert two == pytest.approx(2.0 * one)

    def test_validation(self, engine, tiny_workload):
        with pytest.raises(ValueError):
            engine.stage_times(tiny_workload, 0, -1, tp=1, pp=2)
        with pytest.raises(ValueError):
            engine.stage_times(tiny_workload, 0, 1, tp=1, pp=2, compute_throughput=0.0)


class TestPPEngine:
    @pytest.fixture
    def mesh(self, small_wafer):
        return MeshTopology.from_wafer(small_wafer)

    def test_plan_has_one_boundary_per_stage_pair(self, mesh):
        placement = serpentine_placement(4, 4, (1, 1), 6)
        plan = PPEngine(mesh).plan(placement, activation_bytes=1e6)
        assert len(plan.boundary_times) == 5
        assert all(t > 0 for t in plan.boundary_times)

    def test_balance_traffic_adds_tasks_and_exposure(self, mesh):
        placement = serpentine_placement(4, 4, (1, 1), 8)
        pairs = [MemPair(0, 7, 5e9)]
        plan = PPEngine(mesh).plan(placement, 1e6, mem_pairs=pairs)
        kinds = {task.kind for task in plan.tasks}
        assert "balance" in kinds
        assert plan.balance_exposed_time > 0.0

    def test_no_balance_traffic_means_no_exposure(self, mesh):
        placement = serpentine_placement(4, 4, (1, 1), 4)
        plan = PPEngine(mesh).plan(placement, 1e6)
        assert plan.balance_exposed_time == 0.0

    def test_adjacent_stages_one_hop(self, mesh):
        placement = serpentine_placement(4, 4, (1, 1), 4)
        plan = PPEngine(mesh).plan(placement, 1e6)
        assert all(task.hops == 1 for task in plan.tasks if task.kind == "pipeline")

    def test_link_utilization_grows_with_more_stages(self, mesh):
        short = PPEngine(mesh).plan(serpentine_placement(4, 4, (1, 1), 3), 1e6)
        long = PPEngine(mesh).plan(serpentine_placement(4, 4, (1, 1), 12), 1e6)
        assert long.link_utilization > short.link_utilization

    def test_activation_bytes_helper(self, tiny_workload):
        expected = (
            tiny_workload.micro_batch_size * tiny_workload.seq_len
            * tiny_workload.model.hidden_size * 2
        )
        assert PPEngine.activation_bytes(tiny_workload) == pytest.approx(expected)

    def test_negative_activation_rejected(self, mesh):
        placement = serpentine_placement(4, 4, (1, 1), 2)
        with pytest.raises(ValueError):
            PPEngine(mesh).plan(placement, -1.0)
