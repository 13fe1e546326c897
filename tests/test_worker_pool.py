"""Tests for the persistent worker runtime: each worker reads the cache its map
names as it was at the fork (never through that cache's lock), each chunk carries
back only what it priced, store compaction, and — the invariant the whole design
hangs on — serial == fresh-pool == reused-``WorkerPool`` bit-identity across all
four search loops (GA, CentralScheduler, DieGranularityDse, Watos).  Only whole
points reach the pool: the GA and the scheduler price their plans in-process and
never start a worker.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session, open_result_store
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
    parallel_map_merge,
    task_cache,
)
from repro.core.runtime import SessionHandle, set_deadline
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


# ------------------------------------------------------------------ incremental carry
class _RecordingCache(EvaluationCache):
    """A parent cache that keeps every worker carry the pool folds into it."""

    def __init__(self) -> None:
        super().__init__()
        self.carries = []

    def absorb_carry(self, carry) -> None:
        self.carries.append(carry)
        super().absorb_carry(carry)


def _price_key(key):
    cache = task_cache()
    if cache.get(key) is None:
        cache.put(key, f"value of {key}")
    return key


def _hit_and_miss(key):
    cache = task_cache()
    cache.put(key, key)
    cache.get(key)
    cache.get("absent")
    return key


def _cached_value(key):
    return task_cache().get(key)


class TestTakeCarry:
    """The carry a worker takes back from each chunk, observed through the pool."""

    def test_delta_ships_once(self):
        parent = _RecordingCache()
        parent.put("warm", "value of warm")
        with WorkerPool(config=PoolConfig(max_workers=1)) as pool:
            pool.map(_price_key, ["warm", "fresh"], cache=parent)
            assert [carry["delta"] for carry in parent.carries] == [
                {"fresh": "value of fresh"}
            ]
            pool.map(_price_key, ["warm", "fresh"], cache=parent)
            assert parent.carries[-1]["delta"] == {}
            pool.map(_price_key, ["later"], cache=parent)
            assert parent.carries[-1]["delta"] == {"later": "value of later"}

    def test_stat_increments_sum_to_totals(self):
        parent = _RecordingCache()
        with WorkerPool(config=PoolConfig(max_workers=1)) as pool:
            for i in range(3):
                pool.map(_hit_and_miss, [f"k{i}"], cache=parent)
        increments = [carry["stats"] for carry in parent.carries]
        assert len(increments) == 3
        # Each chunk's cache served one hit and one miss; the parent looked up
        # nothing itself, so its counters are exactly the folded increments.
        assert sum(inc["hits"] for inc in increments) == parent.stats.hits == 3
        assert sum(inc["misses"] for inc in increments) == parent.stats.misses == 3


class TestForkTimeCache:
    """Each worker reads the cache its map names, as it was when the worker forked."""

    def test_worker_reads_the_cache_the_map_names(self):
        first = EvaluationCache()
        second = _RecordingCache()
        second.put("y", "value of y")
        with WorkerPool(config=PoolConfig(max_workers=1)) as pool:
            pool.map(_price_key, ["x"], cache=first)
            assert first.peek("x") == "value of x"
            # A fresh cache re-forks the worker: it hits ``y``, which only
            # ``second`` holds, and misses ``x``, which it priced for ``first``.
            pool.map(_price_key, ["y", "x"], cache=second)
        assert [carry["delta"] for carry in second.carries] == [{"x": "value of x"}]
        assert second.stats.hits == 1 and second.stats.misses == 1

    def test_fork_under_a_held_cache_lock_does_not_hang(self):
        # Another parent thread holds the cache's lock while the map forks the
        # pool.  A worker that took the lock it inherited would wait forever; the
        # armed deadline turns that into CellTimeout instead of a hung test.
        cache = EvaluationCache()
        cache.put("x", "value of x")
        cache.put("y", "value of y")
        pool = WorkerPool(config=PoolConfig(max_workers=2))
        held = threading.Event()

        def hold_until_forked():
            with cache._lock:
                held.set()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    procs = list(pool._procs)
                    if len(procs) == pool.workers and all(procs):
                        break
                    time.sleep(0.005)

        holder = threading.Thread(target=hold_until_forked)
        holder.start()
        try:
            assert held.wait(timeout=10)
            set_deadline(time.monotonic() + 10)
            try:
                out = pool.map(_cached_value, ["x", "y"], cache=cache)
            finally:
                set_deadline(None)
            assert out == ["value of x", "value of y"]
            assert cache.stats.hits == 2
        finally:
            holder.join(timeout=40)
            pool.close()
        assert not holder.is_alive()


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
        pool._task_conns[0].send(("map", partial(_wedge, str(token)), [1], False, "", False))
        deadline = time.monotonic() + 10
        while not token.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert token.exists(), "worker never reached its wedge"
        start = time.monotonic()
        pool.close(join_timeout=0.3)
        assert time.monotonic() - start < 8
        assert all(p is None or not p.is_alive() for p in pool._procs)

    def test_an_int_where_a_pool_is_expected_names_session_pool(self, wafer, workload):
        # A pool comes from Session(pool=N) or a WorkerPool the caller builds; a bare
        # worker count no longer forks a throwaway pool per call.
        config = GAConfig(population_size=4, generations=2)
        with pytest.raises(TypeError, match=r"Session\(pool=N\)"):
            SessionHandle(parallel=2)
        with pytest.raises(TypeError, match=r"Session\(pool=N\)"):
            parallel_map_merge(_square, [1, 2], parallel=2)
        with pytest.raises(TypeError, match=r"Session\(pool=N\)"):
            run_multiwafer_ga(wafer, workload, 2, config, EvaluationCache(), parallel=2)

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
            assert not pool._started  # the GA prices in-process
        for outcome in (fresh, reused):
            assert outcome.best_fitness == serial.best_fitness
            assert outcome.history == serial.history
            assert outcome.best_plan == serial.best_plan
            assert outcome.best_result == serial.best_result

    def test_whole_matrix_on_one_pool_matches_serial(self, wafer, workload, ga_config):
        """One pool carries a hardware DSE sweep, a multi-wafer GA and a Watos
        co-exploration back to back; a GA and a scheduler exploration handed the
        same pool price in-process between them."""
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
            with Session(pool=pool):
                pool_records = CentralScheduler(wafer).explore(workload)
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

    def test_watos_explore_on_pool_matches_serial(self, wafer, ga_config):
        workloads = [TrainingWorkload(make_tiny_model(), 16, 4, 1024)]
        serial = Watos(candidates=[wafer], ga_config=ga_config).explore(workloads)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            pooled = Watos(candidates=[wafer], ga_config=ga_config).explore(
                workloads, session=SessionHandle(parallel=pool)
            )
        assert pooled.outcomes == serial.outcomes
        assert pooled.exploration_records == serial.exploration_records


# ------------------------------------------------------------ what the chunks ship
class TestDeltaOnlySync:
    @pytest.mark.perf_smoke
    def test_fanout_ships_back_what_workers_priced(self, wafer, ga_config):
        """Acceptance guard: a chunk ships back exactly what it priced, and nothing
        flows to a worker: a warm second pass misses nothing and ships nothing."""
        workloads = [
            TrainingWorkload(make_tiny_model(), 16, 4, 1024),
            TrainingWorkload(make_tiny_model(), 32, 8, 2048),
        ]
        watos = Watos(candidates=[wafer], ga_config=ga_config)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            on_pool = SessionHandle(parallel=pool)
            watos.explore(workloads, session=on_pool)
            stats = watos.cache.stats
            # Cold pass: every entry the parent holds crossed back from a worker once.
            assert len(watos.cache) > 0 and stats.shipped == len(watos.cache)
            shipped, misses = stats.shipped, stats.misses

            # Each point returns to the worker that priced it, which reads its own
            # earlier pricing: nothing is priced again, so nothing ships.
            watos.explore(workloads, session=on_pool)
            assert stats.misses == misses and stats.shipped == shipped

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
            # The GA prices its generations in-process: nothing crosses to a worker.
            assert shipped_cold == 0 and evaluator.raw_evaluations > 0
            GeneticOptimizer(evaluator, workload, ga_config).optimize(
                seed_plan, session=on_pool
            )
            assert not pool._started
        assert cache.stats.shipped == shipped_cold


# ------------------------------------------------------------ what reaches the pool
#: A DSE cell with four whole design points to fan out.
DSE_CELL = {"kind": "dse", "workload": "tiny", "areas_mm2": [300, 400, 500, 600],
            "aspect_ratios": [1.0]}


def _rows(path):
    with open_result_store(path) as store:
        return {cell_id: record["result"] for cell_id, record in store.load().items()}


@pytest.mark.perf_smoke
class TestPoolRunsWholePoints:
    """Count guards: plan-level cells never start a worker; point-level cells do."""

    @pytest.mark.parametrize("kind", ["scheduler", "ga"])
    def test_plan_level_cells_start_no_worker(self, tmp_path, kind):
        spec = {"kind": kind, "wafer": "tiny", "workload": "tiny",
                "population": 4, "generations": 2}
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with Session(pool=pool) as session:
                assert session.run(ExperimentSpec.from_dict(spec)).status == "ok"
                runs = list(
                    session.sweep({"base": spec, "seeds": 2},
                                  results=str(tmp_path / "rows.jsonl"), jobs=2)
                )
            assert len(runs) == 2 and all(run.status == "ok" for run in runs)
            assert not pool._started
            assert session.cache.stats.shipped == 0

    def test_dse_cell_starts_the_pool_and_stores_serial_rows(self, tmp_path):
        sweep = {"base": DSE_CELL, "seeds": 2}
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(sweep, results=serial))
        pooled = str(tmp_path / "pooled.jsonl")
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with Session(pool=pool) as session:
                runs = list(session.sweep(sweep, results=pooled, jobs=2))
            assert pool._started
        assert len(runs) == 2 and all(run.status == "ok" for run in runs)
        assert _rows(pooled) == _rows(serial)
