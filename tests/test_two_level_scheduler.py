"""Two-level sweep scheduler.

The contract under test:

* ``Session.sweep(jobs=N)`` dispatches whole cells concurrently while each cell's
  point-level loop fans out over the shared :class:`WorkerPool`; results, yield order,
  resume bookkeeping and quarantine decisions are **bit-identical** to a serial
  walk for every spec kind and both store backends.
* Chaos (worker kills, poison cells) behaves under concurrency exactly as it does
  serially: kills respawn, poison cells quarantine while siblings stay in flight.
* ``PoolConfig`` sizes the pool; ``jobs`` is the one cell-concurrency knob.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import (
    ExperimentSpec,
    PoolConfig,
    Session,
    SweepSpec,
    close_default_session,
    open_result_store,
)
from repro.api.cli import main as repro_main
from repro.api.results import ResultStore
from repro.api.session import SweepCellError
from repro.core.chaos import ChaosMonkey
from repro.core.parallel_map import WorkerPool
from repro.core.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _clean_runtime():
    close_default_session()
    yield
    close_default_session()


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

#: Four DSE cells of four whole design points each: every cell maps onto the pool.
DSE_SWEEP = {
    "base": {"kind": "dse", "workload": "tiny", "areas_mm2": [300, 400, 500, 600],
             "aspect_ratios": [1.0]},
    "seeds": 4,
}


# ------------------------------------------------------------------- bit identity
class TestJobsBitIdentity:
    @pytest.mark.parametrize("suffix", ["jsonl"])
    def test_jobs_matches_serial_for_every_kind_and_backend(self, tmp_path, suffix):
        sweep = SweepSpec.from_specs(
            [ExperimentSpec.from_dict(spec) for spec in ALL_KINDS_SPECS]
        )
        serial = str(tmp_path / f"serial.{suffix}")
        with Session(store=str(tmp_path / f"serial-cache.{suffix}")) as session:
            serial_runs = list(session.sweep(sweep, results=serial))
        assert len(serial_runs) == len(ALL_KINDS_SPECS)

        # Cell threads flush to the cache store, and the session closes it.
        threaded = str(tmp_path / f"threaded.{suffix}")
        cache = str(tmp_path / f"threaded-cache.{suffix}")
        with Session(store=cache) as session:
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
        sweep = SweepSpec.from_payload(DSE_SWEEP)
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
        # Every attempt of a DSE cell ships its design points to the pool, warm
        # session cache or not, so each poison attempt reaches the chaos hook.
        sweep = SweepSpec.from_payload(DSE_SWEEP)
        cells = sweep.expand()
        poison = cells[0].cell_id
        results = str(tmp_path / "results.jsonl")
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


# --------------------------------------------------------------- loop contract
class TestCellLoopContract:
    def test_early_close_leaves_at_most_one_plus_jobs_rows(self, tmp_path):
        # Cells are admitted only while the consumer pulls: one that takes a
        # run, dawdles and closes leaves the yielded cell plus those in flight.
        jobs = 2
        sweep = SweepSpec.from_payload(dict(GA_SWEEP, seeds=6))
        path = str(tmp_path / "results.jsonl")
        with Session() as session:
            stream = session.sweep(sweep, results=path, jobs=jobs)
            assert next(stream).status == "ok"
            time.sleep(1.0)
            stream.close()
        with open_result_store(path) as store:
            assert 1 <= len(store) <= 1 + jobs

    def test_early_close_closes_the_owned_store_when_a_row_write_fails(
        self, tmp_path, monkeypatch
    ):
        # The second cell is still in flight when the consumer closes, and its row
        # write fails: the close raises that error and still closes the store the
        # sweep opened from its path.
        cells = SweepSpec.from_payload(GA_SWEEP).expand()
        put, close = ResultStore.put, ResultStore.close
        closed = []

        def failing_put(self, cell_id, record):
            if cell_id == cells[1].cell_id:
                raise OSError("disk full")
            put(self, cell_id, record)

        def recording_close(self):
            closed.append(self.path)
            close(self)

        monkeypatch.setattr(ResultStore, "put", failing_put)
        monkeypatch.setattr(ResultStore, "close", recording_close)
        path = str(tmp_path / "results.jsonl")
        with Session() as session:
            stream = session.sweep(GA_SWEEP, results=path, jobs=2)
            assert next(stream).cell_id == cells[0].cell_id
            with pytest.raises(OSError, match="disk full"):
                stream.close()
        assert closed == [path]

    def test_a_failed_resume_lookup_closes_the_owned_store(self, tmp_path, monkeypatch):
        close = ResultStore.close
        closed = []

        def failing_lookup(self, include_failed=False):
            raise OSError("store unreadable")

        def recording_close(self):
            closed.append(self.path)
            close(self)

        monkeypatch.setattr(ResultStore, "completed_ids", failing_lookup)
        monkeypatch.setattr(ResultStore, "close", recording_close)
        path = str(tmp_path / "results.jsonl")
        with Session() as session:
            with pytest.raises(OSError, match="store unreadable"):
                next(session.sweep(GA_SWEEP, results=path))
        assert closed == [path]

    def test_serial_cells_run_on_the_calling_thread(self, monkeypatch):
        seen = []
        run_ga = Session._run_ga

        def spy(self, spec):
            seen.append(threading.get_ident())
            return run_ga(self, spec)

        monkeypatch.setattr(Session, "_run_ga", spy)
        with Session() as session:
            runs = list(session.sweep(GA_SWEEP, jobs=1))
        assert len(runs) == 4
        assert seen == [threading.get_ident()] * 4


# -------------------------------------------------------------------- API cleanup
class TestPoolConfigApi:
    def test_resolved_bounds(self):
        assert PoolConfig(max_workers=4).resolved() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(chunk_retries=-1)

    def test_session_accepts_pool_config(self):
        with Session(pool=PoolConfig(max_workers=2)) as session:
            assert session.workers == 2

    def test_pool_and_session_arguments_are_keyword_only(self):
        # A bare count binds to no other parameter: it fails at construction.
        with pytest.raises(TypeError):
            WorkerPool(2)
        with pytest.raises(TypeError):
            Session(2)


class TestSweepJobsApi:
    def test_sweep_rejects_conflicting_and_bad_jobs(self, tmp_path):
        with Session() as session:
            with pytest.raises(ValueError):
                list(session.sweep(GA_SWEEP, jobs=0))

    def test_sweep_spec_jobs_round_trip_and_suggestion(self):
        # Cell concurrency has one spelling: a "jobs" key in a sweep payload —
        # sweep-shaped or a single spec — fails and points at jobs= / --jobs
        # instead of landing in ExperimentSpec extras under a new cell id.
        for payload in (dict(GA_SWEEP, jobs=2), dict(GA_SWEEP["base"], jobs=2)):
            with pytest.raises(ValueError, match="pass jobs= to Session.sweep or --jobs"):
                SweepSpec.from_payload(payload)
        assert "jobs" not in SweepSpec.from_payload(GA_SWEEP).to_dict()
        with pytest.raises(ValueError, match="jbos: unknown SweepSpec field"):
            SweepSpec.from_dict(dict(GA_SWEEP, jbos=2))


    def test_workers_key_points_at_the_session_pool(self):
        # The pool belongs to the session: a "workers" key in a spec or a sweep's
        # base fails instead of forking a throwaway pool per fan-out.
        for payload in (dict(GA_SWEEP["base"], workers=2),
                        dict(GA_SWEEP, base=dict(GA_SWEEP["base"], workers=2))):
            with pytest.raises(ValueError, match=r"Session\(pool=N\) or --workers N"):
                SweepSpec.from_payload(payload).expand()
        with pytest.raises(ValueError, match="workers: a spec does not size the worker pool"):
            ExperimentSpec.from_dict(dict(GA_SWEEP["base"], workers=2))


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
