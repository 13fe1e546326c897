"""Tests for the persistent evaluation-cache stores: round-trips, namespace/version
invalidation, corrupt-store recovery and the warm-start accounting.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import (
    CacheStore,
    EvaluationCache,
    decode_value,
    default_namespace,
    encode_value,
    open_store,
)
from repro.core.evaluator import EvaluationResult, Evaluator
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

    def test_flush_spills_evicted_entries(self, store_path):
        cache = EvaluationCache(max_entries=2, store=store_path)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a" from memory
        assert cache.peek("a") is None
        assert cache.flush() == 3  # ... but the store still gets all three
        cache.close()
        warm = EvaluationCache(store=store_path)
        assert warm.stats.loaded == 3
        warm.close()

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

    def test_seed_respects_lru_bound(self, store_path):
        with EvaluationCache(store=store_path) as writer:
            for i in range(6):
                writer.put(f"k{i}", i)
        bounded = EvaluationCache(max_entries=3, store=store_path)
        assert len(bounded) == 3
        # The newest entries stay resident; the store keeps everything.
        assert bounded.peek("k5") == 5 and bounded.peek("k0") is None
        bounded.close()

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
        child.seed({"p": 1})
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
    """``max_entries`` bounds what a cache keeps per key, with a store or without."""

    def test_cache_without_store_keeps_only_resident_values_alive(self):
        cache = EvaluationCache(max_entries=4)
        refs = []
        for index in range(100):
            value = sample_result(float(index + 1))
            refs.append(weakref.ref(value))
            cache.put(f"k{index}", value)
            del value
        gc.collect()
        assert sum(ref() is not None for ref in refs) == len(cache) == 4
        assert max(_keyed_state(cache).values()) <= 4

    def test_store_backed_cache_keeps_no_key_state_past_a_flush(self, store_path):
        cache = EvaluationCache(max_entries=4, store=store_path)
        for index in range(1000):
            cache.put(f"k{index}", index)
            if index % 10 == 9:
                cache.flush()
        assert max(_keyed_state(cache).values()) <= 4
        cache.close()
        warm = EvaluationCache(max_entries=4, store=store_path)
        assert warm.stats.loaded == 1000  # the store keeps the history
        assert max(_keyed_state(warm).values()) <= 4
        warm.close()


# ------------------------------------------------------------------- age eviction
class TestAgeCompaction:
    """priced_at timestamps + compact(max_age_s=...): the age-eviction knob."""

    def test_rows_carry_priced_at_timestamps(self, store_path):
        import time

        before = time.time()
        with EvaluationCache(store=store_path) as cache:
            cache.put("k", sample_result())
        store = open_store(store_path)
        store.load()
        assert before <= store.row_times["k"] <= time.time()
        store.close()

    def test_warm_start_preserves_original_timestamp(self, store_path):
        with EvaluationCache(store=store_path) as cache:
            cache.put("k", 1)
        store = open_store(store_path)
        store.load()
        stamped = store.row_times["k"]
        store.close()
        # A warm run that only reads (and re-flushes nothing) must not rejuvenate.
        warm = EvaluationCache(store=store_path)
        assert warm.get("k") == 1
        warm.compact()  # rewrite via replace_all, timestamps carried over
        warm.close()
        store = open_store(store_path)
        store.load()
        assert store.row_times["k"] == stamped
        store.close()

    def test_compact_max_age_evicts_only_old_rows(self, store_path):
        store = open_store(store_path)
        store.append({"old": 1}, {"old": 1_000.0})
        store.append({"new": 2}, {"new": 2_000.0})
        store.close()
        cache = EvaluationCache(store=store_path)
        for name, bad in (("max_age_s", -1.0), ("max_age_s", float("nan")), ("max_entries", 0)):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                cache.compact(now=2_400.0, **{name: bad})
        kept = cache.compact(max_age_s=500.0, now=2_400.0)  # the rejected calls evicted nothing
        cache.close()
        assert kept == 1
        warm = EvaluationCache(store=store_path)
        assert warm.peek("new") == 2 and warm.peek("old") is None
        warm.close()

    def test_age_and_size_knobs_compose(self, store_path):
        store = open_store(store_path)
        store.append(
            {"a": 1, "b": 2, "c": 3}, {"a": 100.0, "b": 900.0, "c": 950.0}
        )
        store.close()
        cache = EvaluationCache(store=store_path)
        # Age drops "a"; size then keeps only the newest single survivor.
        kept = cache.compact(max_entries=1, max_age_s=500.0, now=1_000.0)
        cache.close()
        assert kept == 1
        warm = EvaluationCache(store=store_path)
        assert warm.peek("c") == 3
        warm.close()

    def test_pre_timestamp_rows_count_as_oldest(self, store_path):
        # Hand-write a legacy row without a "t" field.
        header = {"format": "watos-evalcache-jsonl", "namespace": default_namespace()}
        with open(store_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"k": "legacy", "v": 7}) + "\n")
        cache = EvaluationCache(store=store_path)
        assert cache.peek("legacy") == 7
        cache.put("fresh", 8)
        kept = cache.compact(max_age_s=3600.0)
        cache.close()
        assert kept == 1
        warm = EvaluationCache(store=store_path)
        assert warm.peek("fresh") == 8 and warm.peek("legacy") is None
        warm.close()

    def test_priced_at_stays_bounded_on_store_backed_sweeps(self, store_path):
        # Regression: timestamps of spilled-and-evicted keys must not accumulate —
        # a week-long bounded-LRU sweep would otherwise leak one stamp per key.
        cache = EvaluationCache(max_entries=10, store=store_path)
        for index in range(200):
            cache.put(f"k{index}", index)
            if index % 20 == 0:
                cache.flush()
        cache.flush()
        assert len(cache._priced_at) <= 10 + 1  # resident set (+ in-flight slack)
        cache.close()
        store = open_store(store_path)
        assert len(store.load()) == 200  # the store, not the stamps, keeps history
        store.close()
