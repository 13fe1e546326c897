"""Two-level sweep scheduler.

The contract under test:

* ``Session.sweep(jobs=N)`` dispatches whole cells concurrently while each cell's
  search loop fans out over the shared :class:`WorkerPool`; results, yield order,
  resume bookkeeping and quarantine decisions are **bit-identical** to a serial
  walk for every spec kind and both store backends.
* Chaos (worker kills, poison cells) behaves under concurrency exactly as it does
  serially: kills respawn, poison cells quarantine while siblings stay in flight.
* ``PoolConfig`` sizes the pool; ``jobs`` is the one cell-concurrency knob.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExperimentSpec,
    PoolConfig,
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

        # The cache store on the same backend: cell threads flush to it, and the
        # session closes it.
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

    def test_schedule_config_and_spec_jobs_spellings(self, tmp_path):
        sweep = dict(GA_SWEEP, jobs=2)  # sweep-file default concurrency
        serial = str(tmp_path / "serial.jsonl")
        with Session() as session:
            list(session.sweep(GA_SWEEP, results=serial))

        via_spec = str(tmp_path / "spec.jsonl")
        with Session() as session:
            list(session.sweep(sweep, results=via_spec))
        assert _rows(via_spec) == _rows(serial)


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
