"""Tests for the fast evaluation subsystem: the content-addressed evaluation cache,
fingerprint sensitivity, the event-driven 1F1B simulator and the parallel search loops.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import (
    EvaluationCache,
    canonicalize,
    combine_fingerprints,
    fingerprint,
)
from repro.core.evaluator import Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.plan import MemPair
from repro.core.runtime import SessionHandle
from repro.hardware.faults import FaultModel
from repro.parallelism.partition import TPSplitStrategy
from repro.parallelism.pipeline import (
    PipelineCostInputs,
    simulate_1f1b,
    simulate_1f1b_reference,
)
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model


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
def seed_plan(wafer, workload):
    return CentralScheduler(wafer).best(workload).plan


# ---------------------------------------------------------------------- cache basics
class TestEvaluationCache:
    def test_hit_miss_accounting(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        first = evaluator.evaluate(workload, seed_plan)
        second = evaluator.evaluate(workload, seed_plan)
        assert first == second
        assert evaluator.cache.misses == 1
        assert evaluator.cache.hits == 1
        assert evaluator.raw_evaluations == 1
        assert evaluator.cache.hit_rate == 0.5

    def test_structurally_equal_plans_share_an_entry(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        clone = replace(seed_plan)
        assert clone is not seed_plan
        evaluator.evaluate(workload, seed_plan)
        evaluator.evaluate(workload, clone)
        assert evaluator.cache.hits == 1 and evaluator.cache.misses == 1

    def test_disabled_cache_paths(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer, use_cache=False)
        assert evaluator.cache is None
        a = evaluator.evaluate(workload, seed_plan)
        b = evaluator.evaluate(workload, seed_plan)
        assert a == b
        assert evaluator.raw_evaluations == 2

    def test_cached_equals_uncached_bitforbit(self, wafer, workload, seed_plan):
        raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
        fast = Evaluator(wafer)
        assert raw.evaluate(workload, seed_plan) == fast.evaluate(workload, seed_plan)

    def test_lru_eviction(self):
        cache = EvaluationCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.peek("b") is None
        assert cache.stats.evictions == 1

    def test_get_or_compute(self):
        cache = EvaluationCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 43) == 42
        assert len(calls) == 1


# ---------------------------------------------------------------- fingerprint checks
class TestFingerprintSensitivity:
    def fp(self, evaluator, workload, plan):
        return evaluator.fingerprint(workload, plan)

    def test_any_plan_field_change_misses(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        base = self.fp(evaluator, workload, seed_plan)
        pp = seed_plan.parallelism.pp

        variants = [
            seed_plan.with_recompute(
                seed_plan.recompute.with_stage(0, frozenset({"attention.qkv"}))
                if seed_plan.recompute.stage(0) != frozenset({"attention.qkv"})
                else seed_plan.recompute.with_stage(0, frozenset())
            ),
            replace(
                seed_plan,
                collective=(
                    CollectiveAlgorithm.TACOS
                    if seed_plan.collective is not CollectiveAlgorithm.TACOS
                    else CollectiveAlgorithm.BIDIRECTIONAL_RING
                ),
            ),
            replace(seed_plan, split_strategy=TPSplitStrategy.SEQUENCE),
            replace(seed_plan, offload_to_host=True),
        ]
        if seed_plan.placement is not None and pp >= 2:
            order = list(range(pp))
            order[0], order[1] = order[1], order[0]
            variants.append(seed_plan.with_placement(seed_plan.placement.permuted(order)))
        if pp >= 2:
            variants.append(
                seed_plan.with_mem_pairs(
                    list(seed_plan.mem_pairs) + [MemPair(0, pp - 1, 123.0)]
                )
            )
        if seed_plan.mem_pairs:
            scaled = [replace(p, bytes_moved=p.bytes_moved * 0.5) for p in seed_plan.mem_pairs]
            variants.append(seed_plan.with_mem_pairs(scaled))

        fps = [self.fp(evaluator, workload, variant) for variant in variants]
        assert all(fp != base for fp in fps), "every plan field change must miss"
        assert len(set(fps)) == len(fps), "distinct variants must not collide"

    def test_workload_and_hardware_changes_miss(self, wafer, workload, seed_plan):
        evaluator = Evaluator(wafer)
        base = self.fp(evaluator, workload, seed_plan)
        assert self.fp(evaluator, workload.with_sequence_length(1024), seed_plan) != base
        assert self.fp(evaluator, workload.with_batch(64, 8), seed_plan) != base

        other_wafer = make_small_wafer(dram_gb=2.0)
        assert self.fp(Evaluator(other_wafer), workload, seed_plan) != base
        assert self.fp(Evaluator(wafer, fault_aware=False), workload, seed_plan) != base

        faults = FaultModel()
        faults.add_die_fault((0, 0), 0.5)
        assert self.fp(Evaluator(wafer, faults=faults), workload, seed_plan) != base

    def test_in_place_fault_injection_invalidates(self, wafer, workload, seed_plan):
        faults = FaultModel()
        faults.add_link_fault(((0, 0), (0, 1)), 0.5)
        evaluator = Evaluator(wafer, faults=faults)
        before = self.fp(evaluator, workload, seed_plan)
        faults.add_link_fault(((0, 0), (0, 1)), 0.25)
        assert self.fp(evaluator, workload, seed_plan) != before

    def test_canonicalize_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonicalize(object())

    def test_combine_order_sensitive(self):
        a, b = fingerprint(1), fingerprint(2)
        assert combine_fingerprints(a, b) != combine_fingerprints(b, a)


# ------------------------------------------------------------- 1F1B event-driven sim
class TestEventDriven1F1B:
    def test_randomized_equivalence_grid(self):
        rng = random.Random(1234)
        # Small shapes exhaustively, then the paper-scale pipelines: the PP degrees of
        # the (TP, PP) splits on the 56-die Table II wafers at 8 and 32 micro-batches.
        shapes = list(itertools.product(range(1, 7), range(1, 17)))
        shapes += list(itertools.product((7, 14, 28, 56), (8, 32)))
        for pp, n in shapes:
            forward = [rng.uniform(0.0, 2.0) for _ in range(pp)]
            backward = [rng.uniform(0.05, 3.0) for _ in range(pp)]
            comm = [rng.uniform(0.0, 0.5) for _ in range(pp - 1)]
            inputs = PipelineCostInputs(forward, backward, comm, n)
            new = simulate_1f1b(inputs)
            old = simulate_1f1b_reference(inputs)
            assert new.iteration_time == old.iteration_time, (pp, n)
            assert new.stage_busy_time == old.stage_busy_time, (pp, n)
            assert new.stage_finish_time == old.stage_finish_time, (pp, n)

    def test_heterogeneous_stages_still_match(self):
        inputs = PipelineCostInputs(
            forward=[1.0, 0.1, 2.5, 0.4],
            backward=[2.0, 0.2, 5.0, 0.8],
            comm=[0.3, 0.0, 1.2],
            num_microbatches=7,
        )
        new, old = simulate_1f1b(inputs), simulate_1f1b_reference(inputs)
        assert new == old


# ----------------------------------------------------------------- search-loop perf
class TestSearchLoops:
    def test_select_survives_fitness_ties(self, wafer, workload, seed_plan):
        ga = GeneticOptimizer(Evaluator(wafer), workload, GAConfig(seed=7))
        mutant = ga.mutate(seed_plan)
        # (fitness, TrainingPlan) tuples with equal fitness: plain sorted()/min() would
        # compare the plans and raise TypeError; selection must key on fitness only.
        scored = [(1.0, seed_plan), (1.0, mutant)] * 4
        survivors = ga._select(scored)
        assert len(survivors) == ga.config.population_size // 2
        assert survivors[0] is seed_plan  # stable: ties keep population order

    @pytest.mark.perf_smoke
    def test_cached_ga_prices_fewer_than_population_x_generations(
        self, wafer, workload, seed_plan
    ):
        config = GAConfig(population_size=8, generations=6, seed=0)
        evaluator = Evaluator(wafer)
        GeneticOptimizer(evaluator, workload, config).optimize(seed_plan)
        logical = config.population_size * config.generations
        assert evaluator.raw_evaluations < logical
        assert evaluator.cache.hits > 0

    def test_ga_parallel_matches_serial(self, wafer, workload, seed_plan):
        config = GAConfig(population_size=6, generations=3, seed=5)
        serial = GeneticOptimizer(Evaluator(wafer), workload, config).optimize(seed_plan)
        parallel = GeneticOptimizer(Evaluator(wafer), workload, config).optimize(
            seed_plan, session=SessionHandle(parallel=2)
        )
        assert parallel.best_fitness == serial.best_fitness
        assert parallel.history == serial.history
        assert parallel.best_plan == serial.best_plan

    def test_scheduler_explore_parallel_matches_serial(self, wafer, workload):
        serial = CentralScheduler(wafer).explore(workload)
        parallel = CentralScheduler(wafer).explore(
            workload, session=SessionHandle(parallel=2)
        )
        assert [r.plan for r in parallel] == [r.plan for r in serial]
        assert [r.result for r in parallel] == [r.result for r in serial]

    def test_parallel_explore_counters_stay_honest(self, wafer, workload):
        scheduler = CentralScheduler(wafer)
        first = scheduler.explore(workload, session=SessionHandle(parallel=2))
        evaluator = scheduler.evaluator
        raw_after_first = evaluator.raw_evaluations
        assert raw_after_first == len(first)  # every candidate priced exactly once
        # A warm re-exploration must be answered from the cache: no new raw pricing,
        # one hit per candidate.
        hits_before = evaluator.cache.hits
        second = scheduler.explore(workload, session=SessionHandle(parallel=2))
        assert [r.result for r in second] == [r.result for r in first]
        assert evaluator.raw_evaluations == raw_after_first
        assert evaluator.cache.hits == hits_before + len(second)

    def test_dse_sweep_parallel_matches_serial(self, workload):
        dse = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,)
        )
        serial = dse.sweep(max_tp=4)
        parallel = dse.sweep(max_tp=4, session=SessionHandle(parallel=2))
        assert parallel == serial
