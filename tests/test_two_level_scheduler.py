"""Elastic two-level sweep scheduler (ISSUE 7).

The contract under test:

* ``Session.sweep(jobs=N)`` dispatches whole cells concurrently while each cell's
  search loop fans out over the shared :class:`WorkerPool`; results, yield order,
  resume bookkeeping and quarantine decisions are **bit-identical** to a serial
  walk for every spec kind and both store backends.
* The pool is *elastic*: ``PoolConfig(min_workers, max_workers, idle_shrink_s)``
  grows slots under queue pressure and reaps idle slots back to ``min_workers``.
* Chaos (worker kills, poison cells) behaves under concurrency exactly as it does
  serially: kills respawn, poison cells quarantine while siblings stay in flight.
* The API cleanup keeps old spellings working behind one deprecation warning:
  ``WorkerPool(2)`` / ``Session(workers=...)`` shim onto ``config=``/``pool=``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import (
    ExperimentSpec,
    PoolConfig,
    ScheduleConfig,
    Session,
    SweepSpec,
    close_default_session,
    open_result_store,
    open_store,
)
from repro.api.cli import main as repro_main
from repro.api.results import ResultStore
from repro.api.session import SweepCellError
from repro.core.chaos import ChaosMonkey
from repro.core.evalcache import EvaluationCache
from repro.core.parallel_map import WorkerPool
from repro.core.retry import RetryPolicy
from repro.core.runtime import reset_legacy_warnings


@pytest.fixture(autouse=True)
def _clean_runtime():
    close_default_session()
    yield
    close_default_session()


def _square(x):
    return x * x


def _rows(path):
    """The deterministic result rows of a store, as canonical JSON per cell."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


#: One cell of every experiment kind the session knows how to run.
ALL_KINDS_SPECS = [
    {"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
    {"kind": "ga", "wafer": "tiny", "workload": "tiny",
     "population": 4, "generations": 2},
    {"kind": "dse", "workload": "tiny", "areas_mm2": [300.0, 500.0],
     "aspect_ratios": [1.0], "max_tp": 16},
    {"kind": "watos", "wafers": ["tiny"], "workloads": ["tiny"],
     "population": 4, "generations": 2, "seed": 3},
]

GA_SWEEP = {
    "base": {"kind": "ga", "wafer": "tiny", "workload": "tiny",
             "population": 4, "generations": 2},
    "seeds": 4,
}


# ------------------------------------------------------------------- bit identity
class TestJobsBitIdentity:
    @pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
    def test_jobs_matches_serial_for_every_kind_and_backend(self, tmp_path, suffix):
        sweep = SweepSpec.from_specs(
            [ExperimentSpec.from_dict(spec) for spec in ALL_KINDS_SPECS]
        )
        serial = str(tmp_path / f"serial.{suffix}")
        with Session(store=str(tmp_path / f"serial-cache.{suffix}")) as session:
            serial_runs = list(session.sweep(sweep, results=serial))
        assert len(serial_runs) == len(ALL_KINDS_SPECS)

        # The cache store on the same backend: cell threads look entries up in it
        # (read-through on sqlite) and flush to it, and the session closes it.
        threaded = str(tmp_path / f"threaded.{suffix}")
        cache = str(tmp_path / f"threaded-cache.{suffix}")
        with Session(store=cache, read_through=True) as session:
            runs = list(session.sweep(sweep, results=threaded, jobs=3))
        # Streamed yield order is preserved even though cells finish out of order.
        assert [run.cell_id for run in runs] == [run.cell_id for run in serial_runs]
        assert all(run.status == "ok" for run in runs)
        assert _rows(threaded) == _rows(serial)

    def test_jobs_over_a_shared_pool_matches_serial(self, tmp_path):
        sweep = SweepSpec.from_payload(GA_SWEEP)
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(sweep, results=serial))

        pooled = str(tmp_path / "pooled.jsonl")
        with Session(pool=2) as session:
            runs = list(session.sweep(sweep, results=pooled, jobs=2))
        assert all(run.status == "ok" for run in runs)
        assert _rows(pooled) == _rows(serial)

    def test_schedule_config_and_spec_jobs_spellings(self, tmp_path):
        sweep = dict(GA_SWEEP, jobs=2)  # sweep-file default concurrency
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(GA_SWEEP, results=serial))

        via_spec = str(tmp_path / "spec.jsonl")
        with Session() as session:
            list(session.sweep(sweep, results=via_spec))
        assert _rows(via_spec) == _rows(serial)

        via_schedule = str(tmp_path / "schedule.jsonl")
        with Session() as session:
            list(
                session.sweep(
                    GA_SWEEP,
                    results=via_schedule,
                    schedule=ScheduleConfig(jobs=3, max_buffered=2),
                )
            )
        assert _rows(via_schedule) == _rows(serial)


# ------------------------------------------------------------------------- resume
class TestResumeUnderJobs:
    def test_interrupted_sweep_resumes_only_missing_cells(self, tmp_path):
        sweep = SweepSpec.from_payload(GA_SWEEP)
        path = str(tmp_path / "results.jsonl")

        # Simulate a killed run: consume two of four cells, then abandon the
        # iterator mid-flight (the generator's cleanup drains what finished).
        with Session() as session:
            stream = session.sweep(sweep, results=path, jobs=4)
            first = [next(stream), next(stream)]
            stream.close()
        assert all(run.status == "ok" for run in first)
        with open_result_store(path) as store:
            survivors = store.completed_ids()
        assert len(survivors) >= 2  # in-flight cells may have landed too

        missing = {cell.cell_id for cell in sweep.expand()} - survivors
        with Session() as session:
            reran = list(session.sweep(sweep, results=path, jobs=4))
        assert {run.cell_id for run in reran} == missing

        fresh = str(tmp_path / "fresh.jsonl")
        with Session() as session:
            list(session.sweep(sweep, results=fresh))
        assert _rows(path) == _rows(fresh)


# ---------------------------------------------------------------- chaos under jobs
class TestChaosUnderJobs:
    def test_worker_kill_with_concurrent_cells_is_bit_identical(self, tmp_path):
        sweep = SweepSpec.from_payload(GA_SWEEP)
        fresh = str(tmp_path / "fresh.jsonl")
        with Session() as session:  # fault-free serial reference
            list(session.sweep(sweep, results=fresh))

        chaotic = str(tmp_path / "chaotic.jsonl")
        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.kill(worker=1, at_task=2, times=1)
            with Session(pool=2) as session:
                runs = list(session.sweep(sweep, results=chaotic, jobs=2))
                assert session.pool.crashes == 1
                assert session.pool.respawns == 1
        assert chaos.claimed("kill") == 1
        assert all(run.status == "ok" for run in runs)
        assert _rows(chaotic) == _rows(fresh)

    def test_poison_cell_quarantines_while_siblings_run(self, tmp_path):
        # Cells must be cache-disjoint (distinct sequence lengths, not seed fans):
        # concurrent siblings sharing plan fingerprints would warm the session
        # cache until the poison cell's retries stop needing the pool at all —
        # and an inline cache hit is out of the chaos hook's reach.
        sweep = SweepSpec.from_payload(
            {
                "base": {
                    "kind": "ga", "wafer": "tiny",
                    "workload": {"model": "tiny", "global_batch_size": 32},
                    "population": 4, "generations": 2,
                },
                "grid": {"workload.sequence_length": [128, 256, 512, 1024]},
            }
        )
        cells = sweep.expand()
        poison = cells[0].cell_id
        results = str(tmp_path / "results.sqlite")
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)

        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.kill(tag=poison, times=None)
            pool = WorkerPool(config=PoolConfig(max_workers=2, chunk_retries=0))
            with Session(pool=pool) as session:
                runs = {
                    run.cell_id: run
                    for run in session.sweep(
                        sweep, results=results, retry=retry, jobs=2
                    )
                }
            # Every poison attempt kills at least one worker; the count is not
            # exact under concurrency (the cell may lease one slot or two).
            assert pool.crashes >= 3 and pool.respawns >= 3
            pool.close()

        assert len(runs) == len(cells)
        failed = runs[poison]
        assert failed.failed and failed.status == "failed"
        assert failed.attempts == 3
        for cell in cells[1:]:
            assert runs[cell.cell_id].status == "ok"
        with open_result_store(results) as store:
            assert store.stats()["statuses"] == {"failed": 1, "ok": len(cells) - 1}

    def test_fail_fast_records_then_raises_under_jobs(self, tmp_path, monkeypatch):
        def _boom(self, spec):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(Session, "_run_ga", _boom)
        sweep = SweepSpec.from_payload(GA_SWEEP)
        path = str(tmp_path / "results.jsonl")
        with Session(retry=RetryPolicy(max_attempts=1)) as session:
            with pytest.raises(SweepCellError, match="synthetic failure"):
                list(session.sweep(sweep, results=path, keep_going=False, jobs=4))
        # The aborting cell was recorded before the raise (crash-safe bookkeeping).
        with open_result_store(path) as store:
            assert store.stats()["failed"] >= 1


# ------------------------------------------------------------------- elastic pool
class TestElasticPool:
    def test_grows_under_pressure_and_shrinks_back_to_min(self):
        pool = WorkerPool(
            config=PoolConfig(min_workers=1, max_workers=3, idle_shrink_s=0.05)
        )
        try:
            pool._ensure_started()
            assert len(pool._live_slots()) == 1  # only min_workers fork up front
            items = list(range(9))
            assert pool.map(_square, items) == [x * x for x in items]
            assert pool.grows == 2  # a 9-item map wants its full fair share
            assert len(pool._live_slots()) == 3

            time.sleep(0.1)
            assert pool.maybe_shrink() == 2  # reaped back down, never below min
            assert len(pool._live_slots()) == 1
            assert pool.shrinks == 2
            # The shrunken pool still serves maps (and may grow again).
            assert pool.map(_square, [5]) == [25]
        finally:
            pool.close()

    def test_fixed_pool_never_shrinks(self):
        pool = WorkerPool(config=PoolConfig(max_workers=2, idle_shrink_s=0.01))
        try:
            pool._ensure_started()
            assert len(pool._live_slots()) == 2
            time.sleep(0.05)
            assert pool.maybe_shrink() == 0  # min == max: nothing is reapable
            assert len(pool._live_slots()) == 2
        finally:
            pool.close()

    def test_small_map_on_elastic_pool_stays_small(self):
        pool = WorkerPool(config=PoolConfig(min_workers=1, max_workers=4))
        try:
            assert pool.map(_square, [3]) == [9]
            assert pool.grows == 0  # one item never asks for more than one slot
            assert len(pool._live_slots()) == 1
        finally:
            pool.close()


# -------------------------------------------------------------------- API cleanup
class TestPoolConfigApi:
    def test_resolved_bounds(self):
        assert PoolConfig(max_workers=4).resolved() == (4, 4)
        assert PoolConfig(min_workers=1, max_workers=3).resolved() == (1, 3)
        # min is clamped into [1, max].
        assert PoolConfig(min_workers=9, max_workers=2).resolved() == (2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(chunk_retries=-1)
        with pytest.raises(ValueError):
            PoolConfig(idle_shrink_s=-0.5)

    def test_legacy_int_form_warns_once(self):
        reset_legacy_warnings()
        with pytest.warns(DeprecationWarning, match="PoolConfig"):
            pool = WorkerPool(2)
        try:
            assert pool.workers == 2 and pool.min_workers == 2
        finally:
            pool.close()

    def test_config_conflicts_with_legacy_kwargs(self):
        with pytest.raises(ValueError):
            WorkerPool(2, config=PoolConfig(max_workers=2))

    def test_session_workers_alias_warns_and_conflicts(self):
        reset_legacy_warnings()
        with pytest.warns(DeprecationWarning, match="pool="):
            with Session(workers=2) as session:
                assert session.workers == 2
        with pytest.raises(ValueError):
            Session(workers=2, pool=2)

    def test_session_accepts_pool_config(self):
        with Session(pool=PoolConfig(min_workers=1, max_workers=2)) as session:
            assert session.workers == 2
            assert session.pool.min_workers == 1


class TestScheduleConfigApi:
    def test_validation(self):
        assert ScheduleConfig(jobs=4).jobs == 4
        with pytest.raises(ValueError):
            ScheduleConfig(jobs=0)
        with pytest.raises(ValueError):
            ScheduleConfig(jobs=2, max_buffered=0)

    def test_sweep_rejects_conflicting_and_bad_jobs(self, tmp_path):
        with Session() as session:
            with pytest.raises(ValueError, match="schedule"):
                list(session.sweep(GA_SWEEP, jobs=2, schedule=ScheduleConfig(jobs=2)))
            with pytest.raises(ValueError):
                list(session.sweep(GA_SWEEP, jobs=0))

    def test_sweep_spec_jobs_round_trip_and_suggestion(self):
        spec = SweepSpec.from_payload(dict(GA_SWEEP, jobs=2))
        assert spec.jobs == 2
        assert SweepSpec.from_dict(spec.to_dict()).jobs == 2
        with pytest.raises(ValueError, match="jobs"):
            SweepSpec.from_dict(dict(GA_SWEEP, jbos=2))
        with pytest.raises(ValueError):
            SweepSpec.from_payload(dict(GA_SWEEP, jobs=0))


class TestOpenStoreDispatcher:
    def test_results_kind(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        with open_store(path, kind="results") as store:
            assert isinstance(store, ResultStore)
            store.put("a", {"result": {"status": "ok"}})
        with open_result_store(path) as store:
            assert store.completed_ids() == {"a"}

    def test_cache_kind(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        store = open_store(path, kind="cache")
        try:
            assert not isinstance(store, ResultStore)
            cache = EvaluationCache(store=store)
            cache.put("k", 1.5)
            cache.flush()
        finally:
            store.close()

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            open_store(str(tmp_path / "x.jsonl"), kind="bogus")


# -------------------------------------------------------------------------- CLI
class TestCliJobs:
    def test_sweep_jobs_flag_matches_serial(self, tmp_path, capsys):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(GA_SWEEP))
        serial = str(tmp_path / "serial.jsonl")
        assert repro_main(["sweep", "--spec", str(spec), "--results", serial]) == 0
        threaded = str(tmp_path / "threaded.jsonl")
        assert (
            repro_main(
                ["sweep", "--spec", str(spec), "--results", threaded, "--jobs", "3"]
            )
            == 0
        )
        capsys.readouterr()
        assert _rows(threaded) == _rows(serial)
