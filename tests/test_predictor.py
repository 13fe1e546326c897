"""Operator predictors: analytical roofline, DNN correction and the lookup table."""

import pytest

from repro.predictor.analytical import AnalyticalPredictor
from repro.predictor.lookup import OperatorProfileTable
from repro.workloads.operators import OperatorKind
from repro.workloads.transformer import build_layer_graph

from repro_testlib import make_small_wafer, make_tiny_model


@pytest.fixture
def die():
    return make_small_wafer().die


@pytest.fixture
def predictor(die):
    return AnalyticalPredictor(die)


@pytest.fixture
def layer_ops(tiny_model):
    return build_layer_graph(tiny_model, 2, 512)


@pytest.fixture(scope="module")
def np():
    """numpy, which only the Fig. 10b DNN needs (the ``dnn`` extra): its tests skip without it."""
    return pytest.importorskip("numpy")


@pytest.fixture(scope="module")
def dnn(np):
    from repro.predictor import dnn

    return dnn


class TestAnalyticalPredictor:
    def test_latency_positive_for_every_operator(self, predictor, layer_ops):
        for op in layer_ops:
            assert predictor.latency(op) > 0.0

    def test_gemms_are_compute_bound_on_wafer_dies(self, predictor, layer_ops):
        gemms = [op for op in layer_ops if op.kind is OperatorKind.GEMM]
        assert gemms
        for op in gemms:
            assert not predictor.estimate(op).is_memory_bound

    def test_norms_are_memory_bound(self, predictor, layer_ops):
        norms = [op for op in layer_ops if op.kind is OperatorKind.NORM]
        for op in norms:
            assert predictor.estimate(op).is_memory_bound

    def test_latency_scales_down_with_tp_sharding(self, predictor, layer_ops):
        gemm = next(op for op in layer_ops if op.name == "mlp_up_proj")
        assert predictor.latency(gemm.sharded(4)) < predictor.latency(gemm)

    def test_memory_reports_checkpoint_bytes(self, predictor, layer_ops):
        for op in layer_ops:
            assert predictor.memory(op) == pytest.approx(op.checkpoint_bytes)

    def test_faster_die_gives_lower_latency(self, layer_ops):
        slow = AnalyticalPredictor(make_small_wafer().die)
        fast_wafer = make_small_wafer()
        from dataclasses import replace
        fast_core = replace(fast_wafer.die.compute.core, flops_fp16=fast_wafer.die.compute.core.flops_fp16 * 4)
        fast_die = replace(fast_wafer.die, compute=replace(fast_wafer.die.compute, core=fast_core))
        fast = AnalyticalPredictor(fast_die)
        gemm = next(op for op in layer_ops if op.kind is OperatorKind.GEMM)
        assert fast.latency(gemm) < slow.latency(gemm)

    def test_ema_at_least_one_pass_over_operands(self, predictor, layer_ops):
        gemm = next(op for op in layer_ops if op.name == "qkv_proj")
        estimate = predictor.estimate(gemm)
        assert estimate.ema_bytes >= gemm.weight_bytes


class TestMlpRegressor:
    def test_learns_a_smooth_function(self, np, dnn):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(400, 3))
        y = x[:, 0] * 1.5 - 0.5 * x[:, 1] + 0.2 * np.sin(x[:, 2])
        model = dnn.MlpRegressor(input_dim=3, hidden_dim=24, seed=1)
        losses = model.fit(x, y, epochs=300)
        assert losses[-1] < losses[0] * 0.1
        pred = model.predict(x)
        rel_err = np.mean(np.abs(pred - y)) / (np.std(y) + 1e-9)
        assert rel_err < 0.2

    def test_shape_validation(self, np, dnn):
        model = dnn.MlpRegressor(input_dim=2)
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 2)), np.zeros(3))

    def test_invalid_dims_rejected(self, dnn):
        with pytest.raises(ValueError):
            dnn.MlpRegressor(input_dim=0)


class TestDnnOperatorPredictor:
    @pytest.fixture(scope="class")
    def trained(self, dnn):
        die = make_small_wafer().die
        model = make_tiny_model()
        ops = []
        for batch in (1, 2, 4):
            for seq in (256, 512, 1024):
                ops.extend(build_layer_graph(model, batch, seq))
        predictor = dnn.DnnOperatorPredictor(die, seed=0)
        accuracy = predictor.train(ops, epochs=250)
        return predictor, accuracy

    def test_dnn_beats_analytical_accuracy(self, trained):
        # Fig. 10b: the learned predictor captures alignment/memory effects the
        # analytical model misses.
        _, accuracy = trained
        assert accuracy.dnn_error < accuracy.analytical_error

    def test_dnn_error_is_small(self, trained):
        _, accuracy = trained
        assert accuracy.dnn_error < 0.10

    def test_trained_predictions_positive(self, trained, tiny_model):
        predictor, _ = trained
        for op in build_layer_graph(tiny_model, 2, 512):
            assert predictor.latency(op) > 0.0
            assert predictor.memory(op) >= 0.0

    def test_untrained_predictor_falls_back_to_analytical(self, dnn, tiny_model):
        die = make_small_wafer().die
        predictor = dnn.DnnOperatorPredictor(die)
        analytical = AnalyticalPredictor(die)
        op = build_layer_graph(tiny_model, 1, 512)[1]
        assert predictor.latency(op) == pytest.approx(analytical.latency(op))

    def test_training_requires_enough_samples(self, dnn, tiny_model):
        predictor = dnn.DnnOperatorPredictor(make_small_wafer().die)
        with pytest.raises(ValueError):
            predictor.train(build_layer_graph(tiny_model, 1, 512)[:4])


class TestLookupTable:
    def test_cache_hit_after_first_lookup(self, die, layer_ops):
        table = OperatorProfileTable(AnalyticalPredictor(die), die)
        op = layer_ops[0]
        first = table.lookup(op)
        second = table.lookup(op)
        assert first == second
        assert table.hits == 1 and table.misses == 1
        assert table.hit_rate == pytest.approx(0.5)

    def test_distinct_operators_get_distinct_entries(self, die, layer_ops):
        table = OperatorProfileTable(AnalyticalPredictor(die), die)
        for op in layer_ops:
            table.lookup(op)
        assert len(table) == len(layer_ops)

    def test_latency_and_memory_match_predictor(self, die, layer_ops):
        predictor = AnalyticalPredictor(die)
        table = OperatorProfileTable(predictor, die)
        op = layer_ops[3]
        assert table.latency(op) == pytest.approx(predictor.latency(op))
        assert table.memory(op) == pytest.approx(predictor.memory(op))

    def test_roofline_runs_once_per_distinct_operator(self, die, layer_ops):
        class CountingPredictor(AnalyticalPredictor):
            rooflines = 0

            def _ema_bytes(self, op):
                self.rooflines += 1
                return super()._ema_bytes(op)

        ops = layer_ops * 2  # every shape twice: one miss, then a hit
        by_lookup = OperatorProfileTable(CountingPredictor(die), die)
        for op in ops:
            by_lookup.lookup(op)
        by_latencies = OperatorProfileTable(CountingPredictor(die), die)
        by_latencies.latencies(ops)
        for table in (by_lookup, by_latencies):
            assert len(table) == table.misses == table.hits == len(layer_ops)
            assert table.predictor.rooflines == len(layer_ops)

    def test_clear_resets_statistics(self, die, layer_ops):
        table = OperatorProfileTable(AnalyticalPredictor(die), die)
        table.lookup(layer_ops[0])
        table.clear()
        assert len(table) == 0 and table.hits == 0 and table.misses == 0
