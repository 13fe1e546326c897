"""Tests for the persistent worker runtime: watermarked incremental cache export
(no entry shipped twice, none missed), incremental worker carries, store
compaction, and — the invariant the whole design hangs on — serial == fresh-pool ==
reused-``WorkerPool`` bit-identity across all four search loops (GA,
CentralScheduler, DieGranularityDse, Watos).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import Evaluator
from repro.core.framework import Watos
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.parallel_map import (
    PoolConfig,
    WorkerCrashError,
    WorkerPool,
    parallel_map,
    resolve_workers,
)
from repro.core.runtime import SessionHandle
from repro.hardware.faults import FaultModel
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from bench_fig24_multiwafer_ga import run_multiwafer_ga  # noqa: E402


@pytest.fixture
def wafer():
    return make_small_wafer(dram_gb=1.0)


@pytest.fixture
def workload():
    return TrainingWorkload(
        make_tiny_model(), global_batch_size=32, micro_batch_size=8,
        sequence_length=2048,
    )


@pytest.fixture
def ga_config():
    return GAConfig(population_size=4, generations=3, seed=5)


# ------------------------------------------------------------------ watermark export
class TestWatermarkExport:
    def test_export_since_zero_ships_everything_once(self):
        cache = EvaluationCache()
        for i in range(5):
            cache.put(f"k{i}", i)
        entries, watermark = cache.export_since(0)
        assert entries == {f"k{i}": i for i in range(5)}
        again, _ = cache.export_since(watermark)
        assert again == {}

    def test_monotone_watermarks_partition_the_stream(self):
        # Interleave pricing and export: the union of increments covers every entry
        # exactly once — nothing shipped twice, nothing missed.
        cache = EvaluationCache()
        shipped = {}
        watermark = 0
        for round_index in range(4):
            for i in range(3):
                cache.put(f"k{round_index}:{i}", (round_index, i))
            entries, watermark = cache.export_since(watermark)
            assert not set(entries) & set(shipped)
            shipped.update(entries)
        assert shipped == cache.export()

    def test_repriced_key_ships_latest_value_once(self):
        cache = EvaluationCache()
        cache.put("k", "old")
        cache.put("k", "new")
        entries, watermark = cache.export_since(0)
        assert entries == {"k": "new"}
        # Already-shipped key is not re-shipped until it is priced again.
        assert cache.export_since(watermark)[0] == {}
        cache.put("k", "newer")
        assert cache.export_since(watermark)[0] == {"k": "newer"}

    def test_evicted_entries_are_not_shipped(self):
        cache = EvaluationCache(max_entries=2)
        for i in range(5):
            cache.put(f"k{i}", i)
        entries, _ = cache.export_since(0)
        assert entries == {"k3": 3, "k4": 4}

    def test_seeded_entries_are_exportable(self):
        cache = EvaluationCache()
        cache.seed({"warm": 1})
        assert cache.export_since(0)[0] == {"warm": 1}

    def test_clear_keeps_sequence_monotonic(self):
        cache = EvaluationCache()
        cache.put("a", 1)
        _, watermark = cache.export_since(0)
        cache.clear()
        cache.put("b", 2)
        entries, new_watermark = cache.export_since(watermark)
        assert entries == {"b": 2}
        assert new_watermark > watermark


# ------------------------------------------------------------------ incremental carry
class TestTakeCarry:
    def test_delta_ships_once(self):
        shard = EvaluationCache(max_entries=None)
        shard.seed({"warm": 0})
        shard.put("fresh", 1)
        carry = shard.take_carry()
        assert carry["delta"] == {"fresh": 1}
        assert shard.take_carry()["delta"] == {}
        shard.put("later", 2)
        assert shard.take_carry()["delta"] == {"later": 2}

    def test_stat_increments_sum_to_totals(self):
        shard = EvaluationCache()
        increments = []
        for i in range(3):
            shard.put(f"k{i}", i)
            shard.get(f"k{i}")
            shard.get("absent")
            increments.append(shard.take_carry()["stats"])
        assert sum(inc["hits"] for inc in increments) == shard.stats.hits
        assert sum(inc["misses"] for inc in increments) == shard.stats.misses


# ------------------------------------------------------------------ store compaction
class TestCompaction:
    def _rows(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            return [line for line in handle if line.strip()]

    def test_compaction_folds_duplicate_rows(self, tmp_path):
        path = str(tmp_path / "grown.jsonl")
        cache = EvaluationCache(store=path)
        for value in (1.0, 2.0, 3.0):
            cache.put("k", value)
            cache.put("stable", 7.0)
            cache.flush()
        assert len(self._rows(path)) == 1 + 6  # header + one row per flush per key
        written = cache.compact()
        assert written == 2
        assert len(self._rows(path)) == 1 + 2
        cache.close()
        reload = EvaluationCache(store=path)
        assert reload.peek("k") == 3.0 and reload.peek("stable") == 7.0
        reload.close()

    def test_compaction_eviction_keeps_newest(self, tmp_path):
        path = str(tmp_path / "big.jsonl")
        cache = EvaluationCache(store=path)
        for i in range(6):
            cache.put(f"k{i}", float(i))
        cache.flush()
        assert cache.compact(max_entries=2) == 2
        cache.close()
        reload = EvaluationCache(store=path)
        assert reload.stats.loaded == 2
        assert reload.peek("k4") == 4.0 and reload.peek("k5") == 5.0
        reload.close()

    def test_compaction_preserves_unflushed_entries(self, tmp_path):
        path = str(tmp_path / "dirty.jsonl")
        cache = EvaluationCache(store=path)
        cache.put("pending", 9.0)
        assert cache.compact() == 1  # flushes first, loses nothing
        cache.close()
        reload = EvaluationCache(store=path)
        assert reload.peek("pending") == 9.0
        reload.close()


# ------------------------------------------------------------------ pool mechanics
def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom on {value}")


class _UnpicklableError(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.handle = lambda: None  # lambdas cannot be pickled


def _boom_unpicklable(value):
    raise _UnpicklableError()


def _unpicklable_result(value):
    return lambda: value


def _exit_hard(value):
    os._exit(17)


def _exit_once(token_path, value):
    try:
        fd = os.open(token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value * value
    os.close(fd)
    os._exit(17)


def _wedge(token_path, value):
    # Simulate a worker stuck in non-interruptible work: SIGTERM is shrugged off,
    # so only close()'s SIGKILL escalation can reap it.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    with open(token_path, "w", encoding="utf-8") as handle:
        handle.write("wedged")
    while True:
        time.sleep(60)


class TestWorkerPoolMechanics:
    def test_map_preserves_order(self):
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            assert pool.map(_square, list(range(7))) == [i * i for i in range(7)]
            # The same long-lived workers serve follow-up submissions.
            assert pool.map(_square, [9, 3]) == [81, 9]

    def test_single_item_and_empty(self):
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            assert pool.map(_square, []) == []
            assert pool.map(_square, [4]) == [16]

    def test_exceptions_propagate_and_pool_survives(self):
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.map(_boom, [1, 2, 3])
            assert pool.map(_square, [2, 3]) == [4, 9]

    def test_unpicklable_exception_does_not_hang(self):
        # Pipe sends pickle in the worker thread, so the fallback ("err", text,
        # None) path runs; a queue feeder would drop the message and hang the pool.
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with pytest.raises(RuntimeError, match="_UnpicklableError"):
                pool.map(_boom_unpicklable, [1, 2, 3])
            assert pool.map(_square, [2, 3]) == [4, 9]

    def test_unpicklable_result_does_not_hang(self):
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with pytest.raises(Exception, match="[Pp]ickle"):
                pool.map(_unpicklable_result, [1, 2, 3])
            assert pool.map(_square, [2, 3]) == [4, 9]

    def test_poison_chunk_exhausts_respawn_budget_and_pool_survives(self):
        # Every chunk kills its worker on the first task, twice in a row (the
        # dispatch plus one respawned re-dispatch): the supervisor gives up on the
        # chunks, raises, but leaves the pool whole — both deaths were concurrent,
        # so this also regresses the multi-death drain hang.
        pool = WorkerPool(config=PoolConfig(max_workers=2))
        try:
            with pytest.raises(WorkerCrashError, match="died mid-task"):
                pool.map(_exit_hard, [1, 2, 3])
            assert pool.crashes >= 2 and pool.respawns >= 2
            # The respawned workers serve follow-up submissions normally.
            assert pool.map(_square, [1, 2]) == [1, 4]
        finally:
            pool.close()

    def test_transient_crash_is_survived_with_complete_results(self, tmp_path):
        # A worker killed once mid-task is respawned and its chunk re-dispatched:
        # map returns complete, order-preserving results, identical to a crash-free
        # run.  The kill token makes the crash strike exactly once.
        token = tmp_path / "die-once"
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            values = list(range(8))
            out = pool.map(partial(_exit_once, str(token)), values)
            assert out == [v * v for v in values]
            assert pool.crashes == 1 and pool.respawns == 1

    def test_close_reaps_wedged_worker_with_bounded_escalation(self, tmp_path):
        # A worker that ignores SIGTERM must not hang interpreter exit: close()
        # escalates join -> terminate -> kill, each bounded.
        token = tmp_path / "wedged"
        pool = WorkerPool(config=PoolConfig(max_workers=1))
        pool._ensure_started()
        pool._task_conns[0].send(("map", partial(_wedge, str(token)), [1], False, ""))
        deadline = time.monotonic() + 10
        while not token.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert token.exists(), "worker never reached its wedge"
        start = time.monotonic()
        pool.close(join_timeout=0.3)
        assert time.monotonic() - start < 8
        assert all(p is None or not p.is_alive() for p in pool._procs)

    def test_pool_refuses_to_pickle(self):
        with WorkerPool(config=PoolConfig(max_workers=1)) as pool:
            with pytest.raises(TypeError):
                pickle.dumps(pool)

    def test_map_after_close_raises(self):
        pool = WorkerPool(config=PoolConfig(max_workers=1))
        pool.map(_square, [1, 2])
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.map(_square, [1, 2])

    def test_resolve_workers_accepts_pools(self):
        with WorkerPool(config=PoolConfig(max_workers=3)) as pool:
            assert resolve_workers(pool) == 3

    def test_parallel_map_accepts_pools(self):
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            assert parallel_map(_square, [1, 2, 3], parallel=pool) == [1, 4, 9]


# ------------------------------------------------------------ pool reuse determinism
class TestPoolReuseDeterminism:
    """Serial == fresh pool == reused pool, bit for bit, for every search loop."""

    def _ga(self, wafer, workload, ga_config, parallel=None, cache=None):
        evaluator = Evaluator(wafer, cache=cache) if cache is not None else Evaluator(wafer)
        seed_plan = CentralScheduler(wafer, evaluator=evaluator).best(workload).plan
        ga = GeneticOptimizer(evaluator, workload, ga_config)
        return ga.optimize(seed_plan, session=SessionHandle(parallel=parallel))

    def test_ga_fresh_and_reused_pool_match_serial(self, wafer, workload, ga_config):
        serial = self._ga(wafer, workload, ga_config)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            fresh = self._ga(wafer, workload, ga_config, parallel=pool)
            reused = self._ga(wafer, workload, ga_config, parallel=pool)
        for outcome in (fresh, reused):
            assert outcome.best_fitness == serial.best_fitness
            assert outcome.history == serial.history
            assert outcome.best_plan == serial.best_plan
            assert outcome.best_result == serial.best_result

    def test_whole_matrix_on_one_pool_matches_serial(self, wafer, workload, ga_config):
        """One pool carries a GA, a scheduler exploration, a hardware DSE sweep, a
        multi-wafer GA and a Watos co-exploration back to back."""
        other = replace(make_small_wafer(dram_gb=2.0), name="wafer-2g")
        small = TrainingWorkload(make_tiny_model(), 16, 4, 1024)

        serial_ga = self._ga(wafer, workload, ga_config)
        serial_records = CentralScheduler(wafer).explore(workload)
        serial_sweep = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,),
            session=SessionHandle(cache=EvaluationCache()),
        ).sweep(max_tp=4)
        serial_rows = run_multiwafer_ga(wafer, workload, 3, ga_config, EvaluationCache())
        serial_watos = Watos(candidates=[wafer, other], ga_config=ga_config).explore(
            [small]
        )

        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            pool_ga = self._ga(wafer, workload, ga_config, parallel=pool)
            on_pool = SessionHandle(parallel=pool)
            pool_records = CentralScheduler(wafer).explore(workload, session=on_pool)
            pool_sweep = DieGranularityDse(
                workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,),
                session=SessionHandle(cache=EvaluationCache()),
            ).sweep(max_tp=4, session=on_pool)
            pool_rows = run_multiwafer_ga(
                wafer, workload, 3, ga_config, EvaluationCache(), parallel=pool
            )
            pool_watos = Watos(candidates=[wafer, other], ga_config=ga_config).explore(
                [small], session=on_pool
            )

        assert pool_ga.best_fitness == serial_ga.best_fitness
        assert pool_ga.history == serial_ga.history
        assert pool_records == serial_records
        assert pool_sweep == serial_sweep
        assert pool_rows == serial_rows
        assert pool_watos.outcomes == serial_watos.outcomes
        assert pool_watos.exploration_records == serial_watos.exploration_records

    def test_in_place_fault_mutation_reaches_pool_workers(self, wafer, workload):
        # Fault models are mutated in place (robustness study); the worker-resident
        # evaluator twin must be replaced, not reused, once the hardware changed —
        # a stale twin would cache pre-fault results under post-fault fingerprints.
        faults = FaultModel()
        evaluator = Evaluator(wafer, faults=faults)
        scheduler = CentralScheduler(wafer, evaluator=evaluator)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            on_pool = SessionHandle(parallel=pool)
            healthy = scheduler.explore(workload, session=on_pool)
            faults.add_die_fault((0, 0), 0.2)
            degraded = scheduler.explore(workload, session=on_pool)

        reference_faults = FaultModel()
        reference_faults.add_die_fault((0, 0), 0.2)
        serial = CentralScheduler(
            wafer, evaluator=Evaluator(wafer, faults=reference_faults)
        ).explore(workload)
        assert [r.result for r in degraded] == [r.result for r in serial]
        assert [r.result for r in degraded] != [r.result for r in healthy]

    def test_watos_explore_on_pool_matches_serial(self, wafer, ga_config):
        workloads = [TrainingWorkload(make_tiny_model(), 16, 4, 1024)]
        serial = Watos(candidates=[wafer], ga_config=ga_config).explore(workloads)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            pooled = Watos(candidates=[wafer], ga_config=ga_config).explore(
                workloads, session=SessionHandle(parallel=pool)
            )
        assert pooled.outcomes == serial.outcomes
        assert pooled.exploration_records == serial.exploration_records


# ------------------------------------------------------------ delta-only sync counter
class TestDeltaOnlySync:
    @pytest.mark.perf_smoke
    def test_fanout_ships_only_fresh_entries(self, wafer, ga_config):
        """Acceptance guard: the per-submission sync ships entries priced since each
        worker's watermark — never a full snapshot per fan-out point."""
        workloads = [
            TrainingWorkload(make_tiny_model(), 16, 4, 1024),
            TrainingWorkload(make_tiny_model(), 32, 8, 2048),
        ]
        watos = Watos(candidates=[wafer], ga_config=ga_config)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            on_pool = SessionHandle(parallel=pool)
            watos.explore(workloads, session=on_pool)
            entries_after_first = len(watos.cache)
            shipped_first = watos.cache.stats.shipped
            # First pass: shards start empty, so only cross-worker deltas ship.
            assert shipped_first <= entries_after_first

            watos.explore(workloads, session=on_pool)
            shipped_second = watos.cache.stats.shipped
            # Second pass re-prices nothing, so each worker receives at most the
            # other workers' first-pass entries — bounded by the cache size, far
            # below points × snapshot, and nothing the worker itself priced.
            assert shipped_second - shipped_first <= entries_after_first

            watos.explore(workloads, session=on_pool)
            # Watermarks are caught up: a third pass ships nothing at all.
            assert watos.cache.stats.shipped == shipped_second

    @pytest.mark.perf_smoke
    def test_warm_ga_rerun_ships_nothing(self, wafer, workload, ga_config):
        cache = EvaluationCache()
        evaluator = Evaluator(wafer, cache=cache)
        seed_plan = CentralScheduler(wafer, evaluator=evaluator).best(workload).plan
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            on_pool = SessionHandle(parallel=pool)
            GeneticOptimizer(evaluator, workload, ga_config).optimize(
                seed_plan, session=on_pool
            )
            shipped_cold = cache.stats.shipped
            # Every generation ships only that generation's freshly priced plans.
            assert 0 < shipped_cold <= evaluator.raw_evaluations * pool.workers
            GeneticOptimizer(evaluator, workload, ga_config).optimize(
                seed_plan, session=on_pool
            )
        assert cache.stats.shipped == shipped_cold
