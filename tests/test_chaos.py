"""Fault-tolerant sweep runtime under deterministic chaos (ISSUE 6).

The contract under test:

* :class:`ChaosMonkey` injects worker kills, delays and spawn denials at
  deterministic points (Nth task, tagged cell, token-bounded firings).
* A 2-worker pool with one worker killed mid-cell completes
  ``Session.sweep`` with a store **bit-identical** to a fault-free serial run.
* A poison cell that crashes its worker on every attempt is quarantined as a
  ``status="failed"`` row (traceback captured) while every other cell succeeds,
  and ``repro results stats`` / ``tail --status failed`` surface it.
* Resume re-attempts failed cells (``--skip-failed`` leaves them alone); once the
  fault clears, the healed store is byte-identical to a never-faulted run.
* A straggler past its :class:`RetryPolicy` ``timeout_s`` is killed, respawned
  and retried; total pool collapse degrades to in-process serial with one warning.
* ``tear_last_append`` (torn mid-append write) heals on the next load for both
  store backends: resume re-prices exactly the torn cell.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.api import (
    ExperimentSpec,
    Session,
    SweepSpec,
    close_default_session,
    open_result_store,
)
from repro.api.cli import main as repro_main
from repro.api.session import SweepCellError
from repro.core.chaos import ChaosMonkey, tear_last_append
from repro.core.evalcache import EvaluationCache
from repro.core.parallel_map import PoolConfig, WorkerPool, task_cache
from repro.core.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _clean_runtime():
    close_default_session()
    yield
    close_default_session()


def _square(x):
    return x * x


def _price(key):
    task_cache().put(key, key.upper())
    return key


def _rows(path):
    """The deterministic result rows of a store, as canonical JSON per cell."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


#: Two DSE cells of four whole design points each: every cell fans out on the pool.
DSE_SWEEP = {
    "base": {"kind": "dse", "workload": "tiny", "areas_mm2": [300, 400, 500, 600],
             "aspect_ratios": [1.0]},
    "seeds": 2,
}


# ------------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_delay_is_deterministic_and_grows(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=1.0, backoff_factor=2.0,
                             jitter=0.1, seed=42)
        again = RetryPolicy(max_attempts=5, backoff_s=1.0, backoff_factor=2.0,
                            jitter=0.1, seed=42)
        delays = [policy.delay_s(n, "cell") for n in (1, 2, 3)]
        assert delays == [again.delay_s(n, "cell") for n in (1, 2, 3)]
        # Base progression 1, 2, 4 with at most ±10% jitter each.
        for base, got in zip([1.0, 2.0, 4.0], delays):
            assert base * 0.9 <= got <= base * 1.1
        # A different key draws different jitter from the same seed.
        assert policy.delay_s(1, "other") != delays[0]

    def test_backoff_is_capped(self):
        policy = RetryPolicy(max_attempts=10, backoff_s=1.0, backoff_factor=10.0,
                             max_backoff_s=5.0, jitter=0.0)
        assert policy.delay_s(4) == 5.0

    def test_should_retry_counts_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)

    @pytest.mark.parametrize(
        "name", ["max_attempts", "backoff_s", "backoff_factor", "max_backoff_s", "timeout_s"]
    )
    def test_nan_is_rejected(self, name):
        # Every comparison with NaN is false: a NaN timeout would never fire.
        with pytest.raises(ValueError, match=name):
            RetryPolicy(**{name: float("nan")})


# -------------------------------------------------------------- monkey mechanics
class TestChaosMonkeyMechanics:
    def test_token_budget_is_bounded(self, tmp_path):
        chaos = ChaosMonkey(tmp_path).delay(0.0, times=2)
        for _ in range(5):
            chaos._on_task(0, 1, "")
        assert chaos.claimed("delay") == 2

    def test_tag_and_worker_matching(self, tmp_path):
        chaos = ChaosMonkey(tmp_path).delay(0.0, tag="cell-a", worker=1, times=None)
        chaos._on_task(0, 1, "cell-a")  # wrong worker
        chaos._on_task(1, 1, "cell-b")  # wrong tag
        injection = chaos._injections[0]
        assert injection.seen == {}  # neither counted as a matching task
        chaos._on_task(1, 1, "sweep/cell-a/0")  # substring match fires
        assert injection.seen == {1: 1}

    def test_at_task_counts_matching_tasks_per_worker(self, tmp_path):
        chaos = ChaosMonkey(tmp_path).delay(0.0, at_task=3, times=1)
        assert chaos.claimed("delay") == 0
        chaos._on_task(0, 1, "")
        chaos._on_task(0, 2, "")
        assert chaos.claimed("delay") == 0
        chaos._on_task(0, 3, "")
        assert chaos.claimed("delay") == 1


# ------------------------------------------------------------- pool supervision
class TestPoolUnderChaos:
    def test_kill_one_worker_map_completes(self, tmp_path):
        with ChaosMonkey(tmp_path) as chaos:
            chaos.kill(worker=1, at_task=1, times=1)
            pool = WorkerPool(config=PoolConfig(max_workers=2))
            try:
                assert pool.map(_square, list(range(8))) == [x * x for x in range(8)]
                assert pool.crashes == 1 and pool.respawns == 1
                # The respawned worker serves the next map; the kill is spent.
                assert pool.map(_square, [9, 10]) == [81, 100]
            finally:
                pool.close()
        assert chaos.claimed("kill") == 1

    def test_total_collapse_degrades_to_serial(self, tmp_path):
        with ChaosMonkey(tmp_path) as chaos:
            chaos.kill(times=None)
            pool = WorkerPool(config=PoolConfig(max_workers=2))
            try:
                # Fork the (doomed) workers first, then make every respawn fail:
                # both die at their first task and no replacement can be had.
                pool._ensure_started()
                chaos.deny_spawns()
                with pytest.warns(RuntimeWarning, match="serial"):
                    assert pool.map(_square, list(range(6))) == [
                        x * x for x in range(6)
                    ]
                assert pool.crashes == 2
                # Every slot is dead and unspawnable: later maps are serial (and
                # the warning does not repeat).
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert pool.map(_square, [7]) == [49]
            finally:
                pool.close()

    def test_denied_refork_prices_the_chunks_in_process(self, tmp_path):
        # A map naming another cache re-forks the slots it leases; when no worker
        # can be forked, its chunks price in-process straight into that cache.
        first, second = EvaluationCache(), EvaluationCache()
        with ChaosMonkey(tmp_path) as chaos:
            pool = WorkerPool(config=PoolConfig(max_workers=2))
            try:
                assert pool.map(_price, ["a", "b"], cache=first) == ["a", "b"]
                assert first.stats.shipped == 2
                chaos.deny_spawns()
                with pytest.warns(RuntimeWarning, match="serial"):
                    assert pool.map(_price, ["c", "d"], cache=second) == ["c", "d"]
                assert second.peek("c") == "C" and second.stats.shipped == 0
            finally:
                pool.close()

    def test_spawn_denied_from_the_start_runs_serial(self, tmp_path):
        with ChaosMonkey(tmp_path) as chaos:
            chaos.deny_spawns()
            pool = WorkerPool(config=PoolConfig(max_workers=2))
            try:
                with pytest.warns(RuntimeWarning, match="serial"):
                    assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            finally:
                pool.close()


# ----------------------------------------------------------- sweeps under chaos
class TestSweepUnderChaos:
    def test_worker_kill_mid_sweep_is_bit_identical_to_serial(self, tmp_path):
        sweep = SweepSpec.from_payload(DSE_SWEEP)
        fresh = str(tmp_path / "fresh.jsonl")
        with Session() as session:  # fault-free serial reference
            assert len(list(session.sweep(sweep, results=fresh))) == 2

        chaotic = str(tmp_path / "chaotic.jsonl")
        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.kill(worker=1, at_task=2, times=1)
            with Session(pool=2) as session:
                runs = list(session.sweep(sweep, results=chaotic))
                assert session.pool.crashes == 1
                assert session.pool.respawns == 1
        assert chaos.claimed("kill") == 1
        assert all(run.status == "ok" for run in runs)
        assert _rows(chaotic) == _rows(fresh)

    def test_poison_cell_is_quarantined_and_surfaced(self, tmp_path, capsys):
        sweep = SweepSpec.from_payload(DSE_SWEEP)
        cells = sweep.expand()
        poison = cells[0].cell_id
        results = str(tmp_path / "results.jsonl")
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0)

        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.kill(tag=poison, worker=1, times=None)
            # chunk_retries=0 makes every worker crash fatal to its attempt, so
            # 3 retry attempts mean exactly 3 crashes (of worker 1, every time).
            pool = WorkerPool(config=PoolConfig(max_workers=2, chunk_retries=0))
            with Session(pool=pool) as session:
                runs = {
                    run.cell_id: run
                    for run in session.sweep(sweep, results=results, retry=retry)
                }
            assert pool.crashes == 3 and pool.respawns == 3
            pool.close()

        assert len(runs) == 2
        failed = runs[poison]
        assert failed.failed and failed.status == "failed"
        assert failed.attempts == 3
        assert "died mid-task" in failed.error
        healthy = runs[cells[1].cell_id]
        assert healthy.status == "ok" and len(healthy.details) == 4  # design points

        with open_result_store(results) as store:
            stats = store.stats()
            assert stats["failed"] == 1
            assert stats["statuses"] == {"failed": 1, "ok": 1}

        # The CLI surfaces the quarantine: stats counts it, tail filters to it.
        assert repro_main(["results", "stats", results]) == 0
        stats_out = json.loads(capsys.readouterr().out)
        assert stats_out["failed"] == 1 and stats_out["statuses"]["failed"] == 1
        assert repro_main(["results", "tail", results, "--status", "failed"]) == 0
        tail_out = capsys.readouterr().out
        assert poison in tail_out and "FAILED" in tail_out

    def test_resume_reattempts_failed_cells_and_heals(self, tmp_path):
        sweep = SweepSpec.from_payload(DSE_SWEEP)
        cells = sweep.expand()
        poison = cells[0].cell_id
        results = str(tmp_path / "results.jsonl")
        retry = RetryPolicy(max_attempts=2, backoff_s=0.0)

        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.kill(tag=poison, times=None)
            pool = WorkerPool(config=PoolConfig(max_workers=2, chunk_retries=0))
            with Session(pool=pool) as session:
                list(session.sweep(sweep, results=results, retry=retry))
            pool.close()

        # Fault cleared (monkey uninstalled): a plain resume re-attempts exactly
        # the quarantined cell and the store heals to the fault-free reference.
        with Session() as session:
            reran = list(session.sweep(sweep, results=results))
        assert [run.cell_id for run in reran] == [poison]
        assert reran[0].status == "ok"

        fresh = str(tmp_path / "fresh.jsonl")
        with Session() as session:
            list(session.sweep(sweep, results=fresh))
        assert _rows(results) == _rows(fresh)

    def test_skip_failed_leaves_quarantined_cells_alone(self, tmp_path):
        sweep = SweepSpec.from_payload(DSE_SWEEP)
        poison = sweep.expand()[0].cell_id
        results = str(tmp_path / "results.jsonl")

        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.kill(tag=poison, times=None)
            pool = WorkerPool(config=PoolConfig(max_workers=2, chunk_retries=0))
            with Session(pool=pool) as session:
                list(
                    session.sweep(
                        sweep,
                        results=results,
                        retry=RetryPolicy(max_attempts=1),
                    )
                )
            pool.close()

        with Session() as session:
            assert list(session.sweep(sweep, results=results, skip_failed=True)) == []
        with open_result_store(results) as store:
            assert store.stats()["failed"] == 1

    def test_straggler_is_killed_and_retried_within_budget(self, tmp_path):
        sweep = SweepSpec.from_payload({"base": DSE_SWEEP["base"]})
        cell = sweep.expand()[0].cell_id
        retry = RetryPolicy(max_attempts=2, backoff_s=0.0, timeout_s=0.6)

        with ChaosMonkey(tmp_path / "chaos") as chaos:
            chaos.delay(30.0, tag=cell, times=1)
            with Session(pool=2) as session:
                runs = list(session.sweep(sweep, retry=retry))
                assert session.pool.crashes >= 1  # the straggler was killed
        assert chaos.claimed("delay") == 1
        assert len(runs) == 1
        assert runs[0].status == "ok"
        assert runs[0].attempts == 2  # timeout on attempt 1, clean on attempt 2


# ------------------------------------------------------- quarantine (serial path)
class TestQuarantineSerial:
    """Retry/quarantine semantics isolated from the pool: a runner that raises."""

    @pytest.fixture()
    def flaky_ga(self, monkeypatch):
        calls = {"n": 0}

        def _boom(self, spec):
            calls["n"] += 1
            raise ValueError(f"synthetic failure #{calls['n']}")

        monkeypatch.setattr(Session, "_run_ga", _boom)
        return calls

    def test_keep_going_quarantines_and_finishes_the_matrix(self, tmp_path, flaky_ga):
        specs = [
            {"kind": "ga", "wafer": "tiny", "workload": "tiny", "name": "bad"},
            {"kind": "scheduler", "wafer": "tiny", "workload": "tiny", "name": "good"},
        ]
        sweep = SweepSpec.from_specs([ExperimentSpec.from_dict(s) for s in specs])
        path = str(tmp_path / "results.jsonl")
        with Session(retry=RetryPolicy(max_attempts=2, backoff_s=0.0)) as session:
            runs = list(session.sweep(sweep, results=path))
        assert [run.status for run in runs] == ["failed", "ok"]
        assert runs[0].attempts == 2 and flaky_ga["n"] == 2
        assert "synthetic failure #2" in runs[0].error
        with open_result_store(path) as store:
            record = store.get(runs[0].cell_id)
            assert record["result"]["status"] == "failed"
            assert record["attempts"] == 2
            assert "ValueError" in record["result"]["error"]

    def test_fail_fast_records_then_raises(self, tmp_path, flaky_ga):
        sweep = SweepSpec.from_payload(
            {"base": {"kind": "ga", "wafer": "tiny", "workload": "tiny"}, "seeds": 3}
        )
        path = str(tmp_path / "results.jsonl")
        with Session(retry=RetryPolicy(max_attempts=1)) as session:
            with pytest.raises(SweepCellError, match="synthetic failure"):
                list(session.sweep(sweep, results=path, keep_going=False))
        # The poison cell was recorded before the abort; nothing after it ran.
        with open_result_store(path) as store:
            assert store.stats()["statuses"] == {"failed": 1}

    def test_legacy_run_path_still_raises(self, flaky_ga):
        # Session.run is untouched by quarantine: callers see the exception.
        with Session() as session:
            with pytest.raises(ValueError, match="synthetic failure"):
                session.run({"kind": "ga", "wafer": "tiny", "workload": "tiny"})


# ----------------------------------------------------------------- store healing
class TestTornAppendHealing:
    @pytest.mark.parametrize("suffix", ["jsonl"])
    def test_torn_append_heals_and_resume_reprices_only_that_cell(
        self, tmp_path, suffix
    ):
        sweep = SweepSpec.from_payload(
            {
                "base": {"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
                "grid": {"max_tp": [2, 4]},
            }
        )
        path = str(tmp_path / f"results.{suffix}")
        with Session() as session:
            fresh_runs = list(session.sweep(sweep, results=path))
        assert len(fresh_runs) == 2
        reference = _rows(path)

        assert tear_last_append(path)
        with open_result_store(path) as store:
            survivors = store.completed_ids()
        assert len(survivors) == 1
        torn = set(reference) - survivors

        with Session() as session:
            reran = list(session.sweep(sweep, results=path))
        assert {run.cell_id for run in reran} == torn
        assert _rows(path) == reference

    def test_tearing_an_empty_store_is_a_noop(self, tmp_path):
        assert not tear_last_append(str(tmp_path / "absent.jsonl"))
        path = str(tmp_path / "empty.jsonl")
        open_result_store(path).close()
        assert not tear_last_append(path)
