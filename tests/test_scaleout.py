"""Tests for the scale-out DSE subsystem: parallel-vs-serial bit-identity of the
multi-wafer GA and ``Watos.explore``, per-wafer RNG streams, shared-cache routing in
the hardware DSE, and the profile table's per-operator latencies.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.evalcache import EvaluationCache
from repro.core.framework import Watos
from repro.core.genetic import GAConfig
from repro.core.hardware_dse import DieGranularityDse
from repro.core.parallel_map import PoolConfig, WorkerPool
from repro.core.runtime import SessionHandle
from repro.predictor.analytical import AnalyticalPredictor
from repro.predictor.lookup import OperatorProfileTable
from repro.workloads.transformer import build_layer_graph
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model

# The multi-wafer GA driver lives with the figure benchmarks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from bench_fig24_multiwafer_ga import (  # noqa: E402
    run_multiwafer_ga,
    wafer_slice_workloads,
)


@pytest.fixture
def wafer():
    return make_small_wafer(dram_gb=1.0)


@pytest.fixture
def pool():
    """A 2-worker pool the point-level loops fan out over."""
    with WorkerPool(config=PoolConfig(max_workers=2)) as workers:
        yield workers


@pytest.fixture
def workload():
    return TrainingWorkload(
        make_tiny_model(), global_batch_size=32, micro_batch_size=8,
        sequence_length=2048,
    )


# ------------------------------------------------------------------ RNG streams
class TestGaStreams:
    def test_stream_zero_is_base(self):
        config = GAConfig(seed=7)
        assert config.stream(0) == config

    def test_streams_are_distinct_and_deterministic(self):
        config = GAConfig(seed=7)
        seeds = [config.stream(i).seed for i in range(6)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [config.stream(i).seed for i in range(6)]

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            GAConfig().stream(-1)


# ------------------------------------------------------------------ multi-wafer GA
class TestMultiWaferGa:
    def test_slices_cover_all_layers(self, workload):
        slices = wafer_slice_workloads(workload, 3)
        assert sum(s.model.num_layers for s in slices) == workload.model.num_layers
        # Equal-sized slices share a model name (and hence cache fingerprints).
        names = [s.model.name for s in slices]
        assert names[0] == names[1] and slices[0].model == slices[1].model

    def test_more_wafers_than_layers_rejected(self, workload):
        with pytest.raises(ValueError):
            wafer_slice_workloads(workload, workload.model.num_layers + 1)

    def test_parallel_matches_serial_bitforbit(self, wafer, workload, pool):
        config = GAConfig(population_size=4, generations=3, seed=5)
        serial = run_multiwafer_ga(wafer, workload, 3, config, EvaluationCache())
        parallel = run_multiwafer_ga(
            wafer, workload, 3, config, EvaluationCache(), parallel=pool
        )
        assert parallel == serial

    @pytest.mark.perf_smoke
    def test_warm_start_from_persisted_store(self, wafer, workload, tmp_path, pool):
        config = GAConfig(population_size=4, generations=3, seed=5)
        path = str(tmp_path / "multiwafer.jsonl")

        cold = EvaluationCache(store=path)
        cold_rows = run_multiwafer_ga(wafer, workload, 3, config, cold)
        assert cold.stats.misses > 0
        cold.close()

        warm = EvaluationCache(store=path)
        loaded = warm.stats.loaded
        assert loaded > 0
        warm_rows = run_multiwafer_ga(wafer, workload, 3, config, warm, parallel=pool)
        # The whole matrix is answered from the persisted store: identical results,
        # nothing re-priced, hit rate far above the ≥50 % acceptance bar.
        assert warm_rows == cold_rows
        assert warm.stats.misses == 0
        assert warm.stats.hit_rate >= 0.5
        warm.close()

    def test_wafer_streams_decorrelate(self, workload):
        # Wafer index enters the GA seed, so two equal slices still run
        # different trajectories (same best is allowed, same stream is not).
        config = GAConfig(seed=3)
        assert config.stream(1).seed != config.stream(2).seed


# ------------------------------------------------------------------ Watos explore
class TestWatosParallel:
    def _watos(self, wafers, config):
        return Watos(candidates=wafers, ga_config=config)

    def test_explore_parallel_matches_serial(self, wafer, pool):
        other = replace(make_small_wafer(dram_gb=2.0), name="wafer-2g")
        workloads = [
            TrainingWorkload(make_tiny_model(), 16, 4, 1024),
            TrainingWorkload(make_tiny_model(), 32, 8, 2048),
        ]
        config = GAConfig(population_size=4, generations=2, seed=3)

        serial = self._watos([wafer, other], config).explore(workloads)
        parallel = self._watos([wafer, other], config).explore(
            workloads, session=SessionHandle(parallel=pool)
        )

        assert len(serial.outcomes) == len(parallel.outcomes) > 0
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.plan == b.plan
            assert a.result == b.result
            assert a.ga_history == b.ga_history
        assert serial.exploration_records.keys() == parallel.exploration_records.keys()
        for key in serial.exploration_records:
            assert serial.exploration_records[key] == parallel.exploration_records[key]

    def test_explore_merges_worker_deltas(self, wafer, pool):
        workloads = [TrainingWorkload(make_tiny_model(), 16, 4, 1024)]
        watos = self._watos([wafer], GAConfig(population_size=4, generations=2, seed=3))
        watos.explore(workloads, session=SessionHandle(parallel=pool))
        # The shared cache absorbed the worker's pricing: a re-exploration of the
        # same point re-prices nothing.
        misses_before = watos.cache.stats.misses
        watos.explore(workloads, session=SessionHandle(parallel=pool))
        assert watos.cache.stats.misses == misses_before

    def test_explore_persists_across_instances(self, wafer, tmp_path, pool):
        workloads = [TrainingWorkload(make_tiny_model(), 16, 4, 1024)]
        config = GAConfig(population_size=4, generations=2, seed=3)
        path = str(tmp_path / "watos.sqlite")

        first = Watos(candidates=[wafer], ga_config=config,
                      session=SessionHandle(cache=EvaluationCache(store=path)))
        outcome_first = first.explore(workloads, session=SessionHandle(parallel=pool))
        first.cache.close()

        second = Watos(candidates=[wafer], ga_config=config,
                       session=SessionHandle(cache=EvaluationCache(store=path)))
        assert second.cache.stats.loaded > 0
        outcome_second = second.explore(workloads)
        assert second.cache.stats.misses == 0
        assert [o.result for o in outcome_second.outcomes] == [
            o.result for o in outcome_first.outcomes
        ]
        second.cache.close()

    def test_parallel_explore_with_warm_sqlite_store(self, wafer, tmp_path, pool):
        # Regression: a warm sqlite store holds an open connection; shipping the
        # shared cache to pool workers must drop the store, not fail to pickle it.
        workloads = [
            TrainingWorkload(make_tiny_model(), 16, 4, 1024),
            TrainingWorkload(make_tiny_model(), 32, 8, 2048),
        ]
        config = GAConfig(population_size=4, generations=2, seed=3)
        path = str(tmp_path / "warm.sqlite")

        first = Watos(candidates=[wafer], ga_config=config,
                      session=SessionHandle(cache=EvaluationCache(store=path)))
        cold = first.explore(workloads, session=SessionHandle(parallel=pool))
        first.cache.close()

        second = Watos(candidates=[wafer], ga_config=config,
                       session=SessionHandle(cache=EvaluationCache(store=path)))
        assert second.cache.stats.loaded > 0
        # This used to raise TypeError.
        warm = second.explore(workloads, session=SessionHandle(parallel=pool))
        assert [o.result for o in warm.outcomes] == [o.result for o in cold.outcomes]
        assert second.cache.stats.misses == 0
        second.cache.close()


# ------------------------------------------------------------------ hardware DSE
class TestDseSharedCache:
    def test_sweep_with_shared_cache_matches_plain(self, workload, pool):
        plain = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,)
        ).sweep(max_tp=4)
        cached_dse = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,),
            session=SessionHandle(cache=EvaluationCache()),
        )
        assert cached_dse.sweep(max_tp=4) == plain
        # Parallel sweep with the shared cache also matches.
        assert cached_dse.sweep(max_tp=4, session=SessionHandle(parallel=pool)) == plain

    def test_repeat_sweep_is_all_hits(self, workload, pool):
        # max_tp=16 so the 48-die (500 mm²) design point enumerates real splits
        # (tp=8/pp=6, tp=16/pp=3) — with max_tp=4 the grid prices nothing.
        dse = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,),
            session=SessionHandle(cache=EvaluationCache()),
        )
        dse.sweep(max_tp=16, session=SessionHandle(parallel=pool))
        assert dse.cache.stats.misses > 0
        misses_before = dse.cache.stats.misses
        dse.sweep(max_tp=16, session=SessionHandle(parallel=pool))
        assert dse.cache.stats.misses == misses_before

    def test_sweep_persists_to_store(self, workload, tmp_path, pool):
        path = str(tmp_path / "dse.jsonl")
        dse = DieGranularityDse(
            workload, areas_mm2=(500.0,), aspect_ratios=(1.0, 1.6),
            session=SessionHandle(cache=EvaluationCache(store=path)),
        )
        points = dse.sweep(max_tp=16, session=SessionHandle(parallel=pool))
        dse.cache.close()

        warm = DieGranularityDse(
            workload, areas_mm2=(500.0,), aspect_ratios=(1.0, 1.6),
            session=SessionHandle(cache=EvaluationCache(store=path)),
        )
        assert warm.cache.stats.loaded > 0
        assert warm.sweep(max_tp=16) == points
        assert warm.cache.stats.misses == 0
        warm.cache.close()


# ---------------------------------------------------- profile table over a layer graph
class TestVectorizedPredictor:
    def _sharded_ops(self, tp=4):
        model = make_tiny_model()
        return [op.sharded(tp) for op in build_layer_graph(model, 4, 1024)]

    def test_latencies_match_sequential_lookups(self, wafer):
        predictor = AnalyticalPredictor(wafer.die)
        ops = self._sharded_ops() * 2  # duplicates: a shape seen twice is a miss, then a hit
        sequential = OperatorProfileTable(predictor, wafer.die)
        expected = [sequential.lookup(op).latency for op in ops]
        batched = OperatorProfileTable(predictor, wafer.die)
        assert batched.latencies(ops) == expected
        # Counter semantics match a sequence of scalar lookups exactly.
        assert (batched.hits, batched.misses) == (sequential.hits, sequential.misses)
        assert len(batched) == len(sequential)

    def test_latencies_batch_api(self, wafer):
        predictor = AnalyticalPredictor(wafer.die)
        ops = self._sharded_ops()
        table = OperatorProfileTable(predictor, wafer.die)
        assert table.latencies(ops) == [predictor.latency(op) for op in ops]

    def test_latencies_with_latency_memory_only_predictor(self, wafer):
        class PlainPredictor:
            def __init__(self, inner):
                self.inner = inner

            def latency(self, op):
                return self.inner.latency(op)

            def memory(self, op):
                return self.inner.memory(op)

        inner = AnalyticalPredictor(wafer.die)
        table = OperatorProfileTable(PlainPredictor(inner), wafer.die)
        ops = self._sharded_ops()
        assert table.latencies(ops) == [inner.latency(op) for op in ops]
