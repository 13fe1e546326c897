"""Tests for the persistent evaluation-cache stores: round-trips, namespace/version
invalidation, corrupt-store recovery and the warm-start accounting.
"""

from __future__ import annotations

import json

import pytest

from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import (
    CacheStore,
    EvaluationCache,
    decode_value,
    default_namespace,
    encode_value,
    evaluation_fingerprint,
    open_store,
)
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.hardware.faults import FaultModel
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model


def sample_result(iteration_time: float = 1.5) -> EvaluationResult:
    return EvaluationResult(
        iteration_time=iteration_time,
        useful_flops=3.25e12,
        recompute_flops=0.125e12,
        bubble_fraction=0.07,
        stage_memory_bytes=(1.0, 2.5, float("inf")),
        plan_label="tp4-pp2",
        system_label="test-wafer",
    )


@pytest.fixture(params=["jsonl"])
def store_path(request, tmp_path):
    return str(tmp_path / f"cache.{request.param}")


# ---------------------------------------------------------------------------- codec
class TestCodec:
    def test_result_roundtrip_is_exact(self):
        result = sample_result()
        assert decode_value(encode_value(result)) == result

    def test_infinite_oom_result_roundtrips(self):
        oom = EvaluationResult.out_of_memory("plan", "wafer")
        decoded = decode_value(encode_value(oom))
        assert decoded == oom and decoded.iteration_time == float("inf")

    def test_primitives_and_containers(self):
        value = {"a": (1, 2.5), "b": [True, None], "c": frozenset({"x", "y"})}
        assert decode_value(encode_value(value)) == value

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_unknown_marker_rejected(self):
        with pytest.raises(ValueError):
            decode_value({"__rocket__": 1})

    def test_foreign_module_rejected(self):
        with pytest.raises(ValueError):
            decode_value({"__dataclass__": "os.path:join", "fields": {}})


# ------------------------------------------------------------------------ round trip
class TestRoundTrip:
    def test_flush_and_warm_start(self, store_path):
        result = sample_result()
        with EvaluationCache(store=store_path) as cache:
            cache.put("key-a", result)
            cache.put("key-b", 42)
            assert cache.flush() == 2

        warm = EvaluationCache(store=store_path)
        assert warm.stats.loaded == 2
        assert warm.peek("key-a") == result
        assert warm.peek("key-b") == 42
        # Warm entries answer lookups as ordinary hits.
        assert warm.get("key-a") == result
        assert warm.stats.hits == 1
        warm.close()

    def test_incremental_appends_accumulate(self, store_path):
        with EvaluationCache(store=store_path) as first:
            first.put("a", 1)
        with EvaluationCache(store=store_path) as second:
            assert second.stats.loaded == 1
            second.put("b", 2)
        third = EvaluationCache(store=store_path)
        assert third.stats.loaded == 2
        third.close()

    def test_close_flushes(self, store_path):
        cache = EvaluationCache(store=store_path)
        cache.put("k", 7)
        cache.close()  # no explicit flush
        warm = EvaluationCache(store=store_path)
        assert warm.peek("k") == 7
        warm.close()

    def test_open_store_suffix_dispatch(self, tmp_path):
        for name in ("x.sqlite", "x.db"):
            with pytest.raises(ValueError, match=r"use a \.jsonl path"):
                open_store(str(tmp_path / name))
        assert isinstance(open_store(str(tmp_path / "x.jsonl")), CacheStore)


# ----------------------------------------------------------------- version namespace
class TestNamespaceInvalidation:
    def test_mismatched_namespace_discards_store(self, store_path):
        with EvaluationCache(store=open_store(store_path, namespace="schema-v1")) as cache:
            cache.put("k", 1)

        stale = EvaluationCache(store=open_store(store_path, namespace="schema-v2"))
        assert stale.stats.loaded == 0 and len(stale) == 0
        stale.put("k2", 2)
        stale.close()

        # The first write re-namespaced the store: the old namespace no longer loads.
        old = EvaluationCache(store=open_store(store_path, namespace="schema-v1"))
        assert old.stats.loaded == 0
        old.close()
        new = EvaluationCache(store=open_store(store_path, namespace="schema-v2"))
        assert new.stats.loaded == 1 and new.peek("k2") == 2
        new.close()

    def test_default_namespace_is_versioned(self):
        assert "v1" in default_namespace()


# ------------------------------------------------------------------ corrupt recovery
class TestCorruptStoreRecovery:
    def test_jsonl_skips_corrupt_rows(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with EvaluationCache(store=path) as cache:
            cache.put("good-1", 1)
            cache.put("good-2", sample_result())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn-and-invalid\n")
            handle.write(json.dumps({"k": "bad-type", "v": {"__rocket__": 0}}) + "\n")
            handle.write(json.dumps({"wrong": "shape"}) + "\n")

        store = open_store(path)
        entries = store.load()
        assert set(entries) == {"good-1", "good-2"}
        assert store.load_errors == 3

    def test_jsonl_foreign_file_preserved_not_truncated(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        foreign = "this is not an evalcache file\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(foreign)
        cache = EvaluationCache(store=path)
        assert cache.stats.loaded == 0
        # A pure read must not destroy the user's file.
        assert open(path, encoding="utf-8").read() == foreign
        cache.put("k", 1)
        cache.flush()
        cache.close()
        # The first write moves the foreign file aside instead of clobbering it.
        assert open(path + ".corrupt", encoding="utf-8").read() == foreign
        warm = EvaluationCache(store=path)
        assert warm.stats.loaded == 1
        warm.close()


# -------------------------------------------------------------- evaluator integration
class TestEvaluatorWarmStart:
    def test_persisted_sweep_reprices_nothing(self, tmp_path):
        wafer = make_small_wafer(dram_gb=1.0)
        workload = TrainingWorkload(
            make_tiny_model(), global_batch_size=32, micro_batch_size=8,
            sequence_length=2048,
        )
        path = str(tmp_path / "sweep.jsonl")

        cold_cache = EvaluationCache(store=path)
        cold = CentralScheduler(wafer, evaluator=Evaluator(wafer, cache=cold_cache))
        cold_records = cold.explore(workload)
        cold_raw = cold.evaluator.raw_evaluations
        assert cold_raw == len(cold_records) > 0
        cold_cache.close()

        warm_cache = EvaluationCache(store=path)
        assert warm_cache.stats.loaded == cold_raw
        warm = CentralScheduler(wafer, evaluator=Evaluator(wafer, cache=warm_cache))
        warm_records = warm.explore(workload)
        assert warm.evaluator.raw_evaluations == 0
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hit_rate == 1.0
        assert [r.result for r in warm_records] == [r.result for r in cold_records]
        warm_cache.close()

    def test_pickled_cache_drops_store(self, store_path):
        import pickle

        cache = EvaluationCache(store=store_path)
        cache.put("k", 1)
        cache.flush()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.store is None
        assert clone.peek("k") == 1
        assert cache.store is not None  # the parent keeps its live store
        cache.close()

    def test_seed_export_delta_absorb(self):
        child = EvaluationCache()
        child.put("p", 1)
        assert child.get("p") == 1 and child.stats.hits == 1
        parent = EvaluationCache()
        parent.put("p", 1)
        carry = {"delta": {"p": 1, "q": 2}, "stats": {"misses": 1}}
        assert parent.absorb_carry(carry) == 1  # "p" is already there
        assert parent.peek("q") == 2
        # Absorbing the same carry again adopts nothing; its entries still count
        # as shipped and its counters still fold in.
        assert parent.absorb_carry(carry) == 0
        assert len(parent) == 2
        assert parent.stats.shipped == 4 and parent.stats.misses == 2


# -------------------------------------------------------------------- memory bound
def _keyed_state(cache: EvaluationCache) -> dict:
    """Size of every per-key map or set the cache holds."""
    return {
        name: len(value)
        for name, value in vars(cache).items()
        if isinstance(value, (dict, set))
    }


class TestPerKeyStateBound:
    """A cache keeps per-key state for its resident entries and nothing more once
    flushed: the entries waiting for a flush are the only extra state."""

    def test_cache_without_store_keeps_only_resident_values_alive(self):
        cache = EvaluationCache()
        for index in range(100):
            cache.put(f"k{index}", sample_result(float(index + 1)))
        # Without a store nothing waits for a flush: the entries are all it keeps.
        assert sorted(_keyed_state(cache).values()) == [0, 100]

    def test_store_backed_cache_keeps_no_key_state_past_a_flush(self, store_path):
        cache = EvaluationCache(store=store_path)
        for index in range(1000):
            cache.put(f"k{index}", index)
            if index % 10 == 9:
                assert cache.flush() == 10
                assert sorted(_keyed_state(cache).values()) == [0, index + 1]
        cache.close()
        warm = EvaluationCache(store=store_path)
        assert warm.stats.loaded == 1000
        assert sorted(_keyed_state(warm).values()) == [0, 1000]
        warm.close()


# ---------------------------------------------------------------- older row format
class TestRowsOfEarlierBuilds:
    def test_timestamped_rows_warm_start_and_compact_without_the_stamp(self, store_path):
        """Earlier builds wrote ``{"k", "v", "t"}`` rows; they load as they are, and a
        compaction rewrites them as ``{"k", "v"}`` rows, one per key."""
        values = {"a": sample_result(1.0), "b": 42, "c": (0.1 + 0.2, float("inf"))}
        header = {"format": "watos-evalcache-jsonl", "namespace": default_namespace()}
        rows = [
            {"k": "a", "v": encode_value(sample_result(9.0)), "t": 100.0},
            {"k": "b", "v": encode_value(values["b"]), "t": 200.5},
            {"k": "c", "v": encode_value(values["c"]), "t": 0.0},
            {"k": "a", "v": encode_value(values["a"]), "t": 300.0},  # later row wins
        ]
        with open(store_path, "w", encoding="utf-8") as handle:
            for row in [header, *rows]:
                handle.write(json.dumps(row) + "\n")

        cache = EvaluationCache(store=store_path)
        assert cache.stats.loaded == 3
        assert {key: cache.get(key) for key in values} == values
        assert cache.stats.hits == 3 and cache.stats.misses == 0
        assert cache.compact() == 3
        cache.close()

        with open(store_path, encoding="utf-8") as handle:
            written = [json.loads(line) for line in handle]
        assert written[0] == header
        assert [sorted(row) for row in written[1:]] == [["k", "v"]] * 3
        warm = EvaluationCache(store=store_path)
        assert {key: warm.peek(key) for key in values} == values
        warm.close()


# ---------------------------------------------------------------- value keys and rows
@pytest.fixture
def tight_case():
    wafer = make_small_wafer(dram_gb=1.0)
    workload = TrainingWorkload(
        make_tiny_model(), global_batch_size=32, micro_batch_size=8, sequence_length=2048,
    )
    return wafer, workload


def _row_key(wafer, workload, plan) -> str:
    return evaluation_fingerprint(wafer, FaultModel(), True, workload, plan)


class TestStoreRowsOfValueKeys:
    def test_rows_are_keyed_by_the_evaluation_fingerprint_of_each_priced_plan(
        self, tight_case, store_path, monkeypatch
    ):
        wafer, workload = tight_case
        priced = []
        uncached = Evaluator._evaluate_uncached

        def recording(self, workload, plan):
            result = uncached(self, workload, plan)
            priced.append((plan, result))
            return result

        seed = CentralScheduler(wafer).best(workload).plan
        monkeypatch.setattr(Evaluator, "_evaluate_uncached", recording)
        with EvaluationCache(store=store_path) as cache:
            GeneticOptimizer(
                Evaluator(wafer, cache=cache), workload,
                GAConfig(population_size=6, generations=4, seed=3),
            ).optimize(seed)
        rows = open_store(store_path).load()
        assert len(priced) > 1
        assert rows == {_row_key(wafer, workload, plan): result for plan, result in priced}

    def test_rows_written_inline_warm_start_a_serial_run_with_no_miss(
        self, tight_case, store_path
    ):
        wafer, workload = tight_case
        raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
        plans = [record.plan for record in CentralScheduler(wafer).explore(workload)]
        header = {"format": "watos-evalcache-jsonl", "namespace": default_namespace()}
        rows = [
            {"k": _row_key(wafer, workload, plan), "v": encode_value(raw.evaluate(workload, plan))}
            for plan in plans
        ]
        with open(store_path, "w", encoding="utf-8") as handle:
            for row in [header, *rows]:
                handle.write(json.dumps(row) + "\n")

        cache = EvaluationCache(store=store_path)
        assert cache.stats.loaded == len(plans)
        warm = CentralScheduler(wafer, evaluator=Evaluator(wafer, cache=cache))
        records = warm.explore(workload)
        assert warm.evaluator.raw_evaluations == 0
        assert cache.stats.misses == 0 and cache.stats.hits == len(records) == len(plans)
        assert [r.result for r in records] == [raw.evaluate(workload, r.plan) for r in records]
        # Each loaded row was claimed by its value key, not copied beside it.
        assert len(cache) == len(plans)
        assert cache.flush() == 0
        cache.close()

    def test_peek_reads_a_loaded_row_in_place_and_get_claims_it(self, tight_case, store_path):
        wafer, workload = tight_case
        evaluator = Evaluator(wafer)
        plan = CentralScheduler(wafer, evaluator=evaluator).best(workload).plan
        result = evaluator.evaluate(workload, plan)
        with EvaluationCache(store=store_path) as cache:
            cache.put(evaluator.fingerprint(workload, plan), result)

        cache = EvaluationCache(store=store_path)
        key = Evaluator(wafer, cache=cache).cache_key(workload, plan)
        assert key in cache and cache.peek(key) == result
        assert list(cache._entries) == [evaluator.fingerprint(workload, plan)]
        # A pool chunk's carry of the same evaluation adopts nothing.
        assert cache.absorb_carry({"delta": {key: result}, "stats": {}}) == 0
        assert cache.get(key) == result and cache.stats.hits == 1
        assert list(cache._entries) == [key]
        assert cache.flush() == 0
        cache.close()
