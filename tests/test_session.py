"""Session runtime API: lifecycle, direct-call equivalence, ambient sessions.

The contract under test:

* ``Session`` owns the pool and the cache; context-manager exit joins the pool and
  flushes the store.
* ``Session.run(spec)`` is bit-identical to calling the search loops directly for
  all four of them (GA, CentralScheduler, DieGranularityDse, Watos), serial or
  pooled.
* An ambient session (``with Session(...):`` or ``default_session()``) supplies its
  cache to bare loop calls, and its pool to the point-level ones (``Watos.explore``,
  ``DieGranularityDse.sweep``), so nested sweeps share workers.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ExperimentSpec,
    Session,
    close_default_session,
    default_session,
    open_result_store,
    tiny_wafer,
    tiny_workload,
)
from repro.core import runtime
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import Evaluator
from repro.core.framework import Watos
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.parallel_map import PoolConfig, WorkerPool


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Each test starts with no ambient/default session."""
    close_default_session()
    yield
    close_default_session()


@pytest.fixture
def wafer():
    return tiny_wafer()


@pytest.fixture
def workload():
    return tiny_workload()


GA_SPEC = dict(kind="ga", wafer="tiny", workload="tiny", population=6, generations=4)
#: A DSE run whose four design points fan out over the session pool.
DSE_SPEC = dict(kind="dse", workload="tiny", areas_mm2=[300, 400, 500, 600],
                aspect_ratios=[1.0])


# ---------------------------------------------------------------------- lifecycle
class TestLifecycle:
    def test_exit_joins_pool_and_flushes_store(self, tmp_path):
        path = str(tmp_path / "session.jsonl")
        with Session(pool=2, store=path) as session:
            run = session.run(ExperimentSpec(**DSE_SPEC))
            assert run
            pool = session.pool
            assert pool is not None
            procs = list(pool._procs)
            assert procs and all(p.is_alive() for p in procs)
        assert session.closed
        assert pool._closed
        assert all(not p.is_alive() for p in procs)
        # The store was flushed on exit: a new cache warm-starts from it.
        warm = EvaluationCache(store=path)
        assert warm.stats.loaded > 0
        warm.close()

    def test_adopted_cache_is_flushed_but_not_closed(self, tmp_path):
        path = str(tmp_path / "adopted.jsonl")
        cache = EvaluationCache(store=path)
        with Session(cache=cache) as session:
            session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"))
        assert cache.stats.flushed > 0
        cache.put("post-close", 1)  # store still usable: the caller owns it
        cache.close()

    def test_cache_path_is_refused_with_a_pointer_to_store(self, tmp_path):
        # A path is a store, not a cache: accepting it used to fail every cell.
        for path in ("cache.jsonl", tmp_path / "cache.jsonl"):
            with pytest.raises(TypeError, match="store="):
                Session(cache=path)
        assert list(tmp_path.iterdir()) == []  # nothing was opened or created

    def test_duck_typed_cache_is_adopted(self):
        class Delegating:
            """Any object with the cache's interface, not an EvaluationCache."""

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

        cache = Delegating(EvaluationCache())
        with Session(cache=cache) as session:
            assert session.cache is cache
            assert session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"))
        assert cache.inner.stats.misses > 0

    def test_serial_session_has_no_pool(self):
        with Session() as session:
            assert session.pool is None
            assert session.parallel is None

    def test_closed_session_refuses_to_run(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError):
            session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"))

    def test_compact_on_exit(self, tmp_path):
        path = str(tmp_path / "compact.jsonl")
        with Session(store=path) as session:
            session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"))
            session.cache.put("extra", 1)
        # Re-open, re-price the same key (appends a duplicate row), compact on exit.
        with open(path, "r", encoding="utf-8") as handle:
            rows_before = sum(1 for line in handle if line.strip()) - 1
        with Session(store=path, compact_on_exit=True) as session:
            session.cache.put("extra", 2)
        with open(path, "r", encoding="utf-8") as handle:
            rows_after = sum(1 for line in handle if line.strip()) - 1
        assert rows_after == rows_before  # duplicate row folded away
        warm = EvaluationCache(store=path)
        assert warm.peek("extra") == 2
        warm.close()

    def test_out_of_range_compact_bound_fails_at_construction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with pytest.raises(ValueError, match="max_age_s must be non-negative"):
            Session(store=str(path), compact_max_age_s=-1)
        assert not path.exists()  # rejected before the store was opened

    def test_one_file_for_both_stores_is_refused(self, tmp_path):
        # Each store would move the other's file aside on its first write.
        path = str(tmp_path / "both.jsonl")
        spec = ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny")
        with Session(store=path) as session:
            session.run(spec)
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(ValueError, match="cannot hold both the cache store and"):
            Session(store=path, results=path)
        with Session(store=path) as session:
            for results in (str(tmp_path / "." / "both.jsonl"), open_result_store(path)):
                with pytest.raises(ValueError, match="cannot hold both the cache store and"):
                    session.sweep(spec, results=results)
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert [p.name for p in tmp_path.iterdir()] == ["both.jsonl"]
        with Session(store=path) as session:
            assert session.cache.stats.loaded > 0  # the cache store still warm-starts

    def test_sessions_cannot_be_pickled(self):
        import pickle

        with pytest.raises(TypeError):
            pickle.dumps(Session())


# ------------------------------------------------------------------- equivalence
class TestRunEquivalence:
    """Session.run(spec) must reproduce the legacy direct-call path bit for bit."""

    def test_scheduler_kind(self, wafer, workload):
        legacy = CentralScheduler(wafer).explore(workload)
        with Session() as session:
            run = session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"))
        assert [r.result for r in run.details] == [r.result for r in legacy]
        best = max((r for r in legacy if not r.result.oom), key=lambda r: r.throughput)
        assert run.plan == best.plan
        assert run.result == best.result

    def test_ga_kind(self, wafer, workload):
        evaluator = Evaluator(wafer)
        seed = CentralScheduler(wafer, evaluator=evaluator).best(workload)
        legacy = GeneticOptimizer(
            evaluator, workload, GAConfig(population_size=6, generations=4)
        ).optimize(seed.plan)
        with Session() as session:
            run = session.run(ExperimentSpec(**GA_SPEC))
        assert run.metrics["best_fitness"] == legacy.best_fitness
        assert run.details.history == legacy.history
        assert run.plan == legacy.best_plan
        assert run.result == legacy.best_result

    def test_ga_kind_pooled_matches_serial(self):
        with Session() as session:
            serial = session.run(ExperimentSpec(**GA_SPEC))
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with Session(pool=pool) as session:
                pooled = session.run(ExperimentSpec(**GA_SPEC))
            assert not pool._started  # the GA prices in-process
        assert pooled.metrics["best_fitness"] == serial.metrics["best_fitness"]
        assert pooled.details.history == serial.details.history
        assert pooled.plan == serial.plan

    def test_dse_kind(self, workload):
        legacy = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,)
        ).sweep(max_tp=16)
        with Session() as session:
            run = session.run(
                ExperimentSpec(
                    kind="dse", workload="tiny",
                    areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,), max_tp=16,
                )
            )
        assert run.details == legacy
        assert run.metrics["points"] == len(legacy)

    def test_watos_kind(self, wafer, workload):
        config = GAConfig(population_size=4, generations=2, seed=3)
        legacy = Watos(candidates=[wafer], ga_config=config).explore([workload])
        with Session() as session:
            run = session.run(
                ExperimentSpec(
                    kind="watos", wafers=["tiny"], workloads=["tiny"],
                    population=4, generations=2, seed=3,
                )
            )
        assert [o.result for o in run.details.outcomes] == [
            o.result for o in legacy.outcomes
        ]
        assert run.metrics["best_wafer"] == legacy.best_wafer()

    def test_watos_nest_inner_matches_points(self):
        spec = dict(
            kind="watos", wafers=["tiny"], workloads=["tiny"],
            population=4, generations=2, seed=3,
        )
        with Session() as session:
            serial = session.run(ExperimentSpec(**spec))
        with Session(pool=2) as session:
            pooled = session.run(ExperimentSpec(**spec))
        assert [o.result for o in pooled.details.outcomes] == [
            o.result for o in serial.details.outcomes
        ]

    def test_sweep_shares_one_cache(self):
        with Session() as session:
            first = session.run(ExperimentSpec(**GA_SPEC))
            misses_after_first = session.cache.stats.misses
            second = session.run(ExperimentSpec(**GA_SPEC))
        assert second.metrics["best_fitness"] == first.metrics["best_fitness"]
        # The second run re-priced nothing: every plan was already in the cache.
        assert session.cache.stats.misses == misses_after_first


# ---------------------------------------------------------------- ambient/default
class TestAmbientSession:
    def test_with_block_supplies_cache_to_bare_calls(self, wafer, workload):
        baseline = CentralScheduler(wafer).explore(workload)
        with Session() as session:
            ambient = CentralScheduler(wafer).explore(workload)
            assert session.cache.stats.misses > 0  # scheduler adopted the cache
            again = CentralScheduler(wafer).explore(workload)
            assert session.cache.stats.hit_rate > 0  # second bare call started warm
        assert [r.result for r in ambient] == [r.result for r in baseline]
        assert [r.result for r in again] == [r.result for r in baseline]

    def test_with_block_supplies_pool_to_bare_calls(self, workload):
        def sweep():
            return DieGranularityDse(
                workload, areas_mm2=(300.0, 400.0, 500.0, 600.0), aspect_ratios=(1.0,)
            ).sweep(max_tp=16)

        serial = sweep()
        with Session(pool=2) as session:
            pooled = sweep()
            assert session.pool is not None and session.pool._started
        assert pooled == serial

    def test_default_session_is_a_singleton_shared_by_bare_calls(self, wafer, workload):
        session = default_session(pool=2)
        assert default_session() is session
        config = GAConfig(population_size=4, generations=2)
        outcome = Watos(candidates=[wafer], ga_config=config).explore([workload])
        # The bare explore() above ran on the default session's pool.
        assert session.pool is not None and session.pool._started
        serial = Watos(
            candidates=[wafer], ga_config=config, session=runtime.SessionHandle()
        ).explore([workload])
        assert [o.ga_history for o in outcome.outcomes] == [
            o.ga_history for o in serial.outcomes
        ]
        assert outcome.outcomes == serial.outcomes
        close_default_session()
        assert default_session() is not session  # a fresh one after closing

    def test_exited_session_is_no_longer_ambient(self):
        with Session() as session:
            assert runtime.current_session() is session
        assert runtime.current_session() is None


# ---------------------------------------------------------------------- spec codec
class TestExperimentSpec:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(**GA_SPEC, name="demo")
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.kind == "ga" and clone.population == 6

    def test_load_single_and_list(self, tmp_path):
        import json

        single = tmp_path / "one.json"
        single.write_text(json.dumps({"kind": "scheduler", "wafer": "tiny", "workload": "tiny"}))
        many = tmp_path / "many.json"
        many.write_text(json.dumps([{"kind": "ga", "wafer": "tiny", "workload": "tiny"},
                                    {"kind": "dse", "workload": "tiny"}]))
        assert [s.kind for s in ExperimentSpec.load(single)] == ["scheduler"]
        assert [s.kind for s in ExperimentSpec.load(many)] == ["ga", "dse"]

    def test_unknown_kind_and_names_raise(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="annealing")
        with Session() as session:
            with pytest.raises(KeyError):
                session.run(ExperimentSpec(kind="scheduler", wafer="nope", workload="tiny"))
            with pytest.raises(KeyError):
                session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="nope"))

    def test_registered_names_resolve(self, wafer, workload):
        Session.register_wafer("my-wafer", wafer)
        Session.register_workload("my-load", workload)
        with Session() as session:
            run = session.run(
                ExperimentSpec(kind="scheduler", wafer="my-wafer", workload="my-load")
            )
        assert run.plan is not None
