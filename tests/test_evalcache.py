"""Tests for the fast evaluation subsystem: the content-addressed evaluation cache,
fingerprint sensitivity, the event-driven 1F1B simulator and the parallel search loops.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import evalcache as evalcache_module
from repro.core import evaluator as evaluator_module
from repro.core import genetic as genetic_module
from repro.core import pp_engine as pp_engine_module
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import (
    CanonicalTexts,
    EvaluationCache,
    canonicalize,
    combine_fingerprints,
    encode_value,
    evaluation_fingerprint,
    fingerprint,
)
from repro.core.evaluator import Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.placement import serpentine_placement
from repro.core.plan import MemPair, RecomputeConfig, StagePlacement, TrainingPlan
from repro.api import Session
from repro.core.parallel_map import PoolConfig, WorkerPool
from repro.core.pp_engine import PPEngine
from repro.core.runtime import SessionHandle
from repro.hardware.configs import wafer_config2, wafer_config3
from repro.hardware.faults import FaultModel
from repro.interconnect.routing import LinkLoadTracker
from repro.interconnect.topology import MeshTopology
from repro.parallelism.partition import TPSplitStrategy
from repro.parallelism.pipeline import (
    PipelineCostInputs,
    simulate_1f1b,
    simulate_1f1b_reference,
)
from repro.parallelism.strategies import ParallelismConfig
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model, paper_workloads


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

    def test_plan_built_on_lists_is_repriced_after_an_in_place_change(
        self, wafer, workload, seed_plan
    ):
        # Such a plan does not hash, so the cache looks it up under its digest.
        stages = list(seed_plan.recompute.stages)
        listed = seed_plan.with_recompute(RecomputeConfig(stages))
        evaluator = Evaluator(wafer)
        raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
        before = evaluator.evaluate(workload, listed)
        assert evaluator.evaluate(workload, listed) == before
        assert evaluator.cache.hits == 1 and evaluator.raw_evaluations == 1
        stages[0] = frozenset(op.name for op in workload.layer_operators() if op.recomputable)
        changed = evaluator.evaluate(workload, listed)
        assert evaluator.raw_evaluations == 2
        assert changed == raw.evaluate(workload, listed) != before
        assert changed.recompute_flops > 0

    def test_hashing_a_plan_leaves_its_pickle_copy_and_fields_alone(self, seed_plan):
        # A fresh plan over a fresh placement: neither has been hashed yet.
        plan = replace(seed_plan, placement=StagePlacement(seed_plan.placement.stage_dies))
        views = (
            lambda value: pickle.dumps(value, protocol=4),
            lambda value: pickle.dumps(copy.copy(value), protocol=4),
            lambda value: vars(copy.copy(value)),
            lambda value: vars(copy.deepcopy(value)),
            repr,
            canonicalize,
            encode_value,
        )
        before = [view(value) for value in (plan, plan.placement) for view in views]
        assert hash(plan) == hash(plan)  # the second call reads the kept hash
        after = [view(value) for value in (plan, plan.placement) for view in views]
        assert after == before
        assert "_hash" not in vars(pickle.loads(pickle.dumps(plan)))
        # Equal plans hash equal, however they were built or typed.
        equal = [replace(plan), pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)]
        assert all(other == plan and hash(other) == hash(plan) for other in equal)
        variants = [retyped_plan(one) for one in (1, 1.0, True)]
        assert len({hash(variant) for variant in variants}) == 1


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

    def test_keys_do_not_depend_on_call_history(self, wafer, workload, seed_plan):
        # Equal plans whose Mem_pair volume is typed differently canonicalise
        # differently, so each must get its own key in any lookup order.
        as_int = seed_plan.with_mem_pairs([MemPair(0, 1, 1)])
        as_float = seed_plan.with_mem_pairs([MemPair(0, 1, 1.0)])
        assert as_int == as_float
        evaluator = Evaluator(wafer)
        plans = [as_int, as_float, as_int, as_float]
        keys = [evaluator.fingerprint(workload, plan) for plan in plans]
        expected = [
            evaluation_fingerprint(wafer, evaluator.faults, True, workload, plan)
            for plan in plans
        ]
        assert keys == expected
        assert keys[0] != keys[1]

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
        # A GA handed a pool prices in-process: the same run, and no worker starts.
        config = GAConfig(population_size=6, generations=3, seed=5)
        serial = GeneticOptimizer(Evaluator(wafer), workload, config).optimize(seed_plan)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            parallel = GeneticOptimizer(Evaluator(wafer), workload, config).optimize(
                seed_plan, session=SessionHandle(parallel=pool)
            )
            assert not pool._started
        assert parallel.best_fitness == serial.best_fitness
        assert parallel.history == serial.history
        assert parallel.best_plan == serial.best_plan

    def test_scheduler_explore_parallel_matches_serial(self, wafer, workload):
        serial = CentralScheduler(wafer).explore(workload)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with Session(pool=pool):
                parallel = CentralScheduler(wafer).explore(workload)
            assert not pool._started
        assert [r.plan for r in parallel] == [r.plan for r in serial]
        assert [r.result for r in parallel] == [r.result for r in serial]

    def test_parallel_explore_counters_stay_honest(self, wafer, workload):
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            with Session(pool=pool):
                scheduler = CentralScheduler(wafer)
                first = scheduler.explore(workload)
                evaluator = scheduler.evaluator
                raw_after_first = evaluator.raw_evaluations
                assert raw_after_first == len(first)  # every candidate priced once
                # A warm re-exploration must be answered from the cache: no new raw
                # pricing, one hit per candidate.
                hits_before = evaluator.cache.hits
                second = scheduler.explore(workload)
        assert [r.result for r in second] == [r.result for r in first]
        assert evaluator.raw_evaluations == raw_after_first
        assert evaluator.cache.hits == hits_before + len(second)

    def test_dse_sweep_parallel_matches_serial(self, workload):
        dse = DieGranularityDse(
            workload, areas_mm2=(300.0, 500.0), aspect_ratios=(1.0,)
        )
        serial = dse.sweep(max_tp=4)
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            parallel = dse.sweep(max_tp=4, session=SessionHandle(parallel=pool))
        assert parallel == serial


# ------------------------------------------------ component keys and memos, paper scale
@pytest.fixture(scope="module")
def paper_plans():
    """Every plan ``CentralScheduler.explore`` returns for config2/config3 × the four
    §V models, each followed by 20 chained GA mutations, as (wafer, workload, plans)."""
    cases = []
    for wafer in (wafer_config2(), wafer_config3()):
        for workload in paper_workloads().values():
            evaluator = Evaluator(wafer)
            ga = GeneticOptimizer(evaluator, workload, GAConfig(seed=0))
            plans = []
            for record in CentralScheduler(wafer, evaluator=evaluator).explore(workload):
                plan = record.plan
                plans.append(plan)
                for _ in range(20):
                    plan = ga.mutate(plan)
                    plans.append(plan)
            cases.append((wafer, workload, plans))
    return cases


def retyped_plan(one) -> TrainingPlan:
    """The same config3 plan with every integer 1 in its dp degree, placement and
    Mem_pair volume written as ``one`` (``1``, ``1.0`` or ``True``)."""
    placement = serpentine_placement(7, 8, (2, 4), 7)
    stage_dies = tuple(
        tuple(tuple(one if c == 1 else c for c in die) for die in dies)
        for dies in placement.stage_dies
    )
    return TrainingPlan(
        parallelism=ParallelismConfig(dp=one, tp=8, pp=7),
        tp_shape=(2, 4),
        recompute=RecomputeConfig.none(7),
        placement=StagePlacement(stage_dies),
        mem_pairs=(MemPair(0, 6, one),),
    )


class TestComponentKeys:
    def test_keys_equal_the_oracle_on_paper_plans_and_mutants(self, paper_plans):
        placements = set()
        for wafer, workload, plans in paper_plans:
            evaluator = Evaluator(wafer)
            for plan in plans:
                assert evaluator.fingerprint(workload, plan) == evaluation_fingerprint(
                    wafer, evaluator.faults, True, workload, plan
                )
            placements.update(plan.placement for plan in plans)
        assert len(placements) > 100

    def test_equal_components_typed_differently_get_their_own_keys(self):
        wafer = wafer_config3()
        workload = paper_workloads()["gshard-137b"]
        variants = [retyped_plan(one) for one in (1, 1.0, True)]
        assert variants[0] == variants[1] == variants[2]
        # Mix the typed components across plans, so a component memo keyed by
        # equality would hand one plan another's component text.
        plans = [
            replace(variants[a], placement=variants[b].placement, mem_pairs=variants[c].mem_pairs)
            for a, b, c in itertools.product(range(3), repeat=3)
        ]
        workloads = [workload, replace(workload, micro_batch_size=4.0)]
        oracle = {
            (id(w), id(p)): evaluation_fingerprint(wafer, FaultModel(), True, w, p)
            for w in workloads
            for p in plans
        }
        assert len(set(oracle.values())) == len(oracle)
        pairs = [(w, p) for w in workloads for p in plans]
        for order in (pairs, pairs[::-1], random.Random(5).sample(pairs, len(pairs))):
            evaluator = Evaluator(wafer)
            for w, p in order:
                assert evaluator.fingerprint(w, p) == oracle[(id(w), id(p))]
        texts = CanonicalTexts()
        assert [texts.fingerprint(p) for p in plans] == [fingerprint(p) for p in plans]

    def test_a_component_changed_in_place_gets_a_fresh_key(self, wafer, workload, seed_plan):
        # A placement built on lists can change in place; its key must follow it.
        stage_dies = [list(dies) for dies in seed_plan.placement.stage_dies]
        plan = seed_plan.with_placement(StagePlacement(stage_dies))
        evaluator = Evaluator(wafer)
        before = evaluator.fingerprint(workload, plan)
        stage_dies[0][0], stage_dies[1][0] = stage_dies[1][0], stage_dies[0][0]
        after = evaluator.fingerprint(workload, plan)
        assert after != before
        assert after == evaluation_fingerprint(wafer, evaluator.faults, True, workload, plan)


class TestValueKeys:
    def test_value_and_digest_equality_agree_on_paper_plans(self, paper_plans):
        # Both maps single-valued: equal plans share a digest, and plans that share
        # a digest are equal, so the cache's value keys and its store rows put the
        # paper plans in the same classes.
        digest_of, value_of = {}, {}
        for _, _, plans in paper_plans:
            for plan in plans:
                digest = fingerprint(plan)
                assert digest_of.setdefault(plan, digest) == digest
                assert value_of.setdefault(digest, plan) == plan
        assert len(digest_of) == len(value_of) > 100

    def test_cached_pricing_matches_the_raw_path_in_any_order(self, paper_plans):
        for wafer, workload, plans in paper_plans:
            raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
            expected = {}
            for plan in plans:
                if plan not in expected:
                    expected[plan] = raw.evaluate(workload, plan)
            shuffled = random.Random(13).sample(plans, len(plans))
            for order in (plans, plans[::-1], shuffled):
                cached = Evaluator(wafer)
                for plan in order:
                    assert cached.evaluate(workload, plan) == expected[plan]
                assert cached.raw_evaluations == len(cached.cache) == len(expected)
                assert cached.cache.hits == len(plans) - len(expected)


class TestRoutingMemo:
    def test_memoised_routing_matches_a_fresh_engine(self, paper_plans):
        for wafer, workload, plans in paper_plans:
            mesh = MeshTopology.from_wafer(wafer)
            engine = PPEngine(mesh)
            activation = PPEngine.activation_bytes(workload)
            dram_time = activation / wafer.die.dram_bandwidth
            routed = set()
            for plan in plans:
                args = (plan.placement, activation, plan.mem_pairs, dram_time)
                memoised = engine.plan(*args)
                if (plan.placement, plan.mem_pairs) not in routed:
                    routed.add((plan.placement, plan.mem_pairs))
                    assert memoised == PPEngine(mesh).plan(*args)
                assert engine.plan(*args) == memoised

    def test_placement_built_on_lists_is_routed_without_the_memo(self, wafer, workload, seed_plan):
        listed = StagePlacement([list(dies) for dies in seed_plan.placement.stage_dies])
        engine = PPEngine(MeshTopology.from_wafer(wafer))
        activation = PPEngine.activation_bytes(workload)
        assert engine.plan(listed, activation) == engine.plan(seed_plan.placement, activation)

    def test_in_place_link_fault_on_a_used_route_reprices(self):
        wafer = wafer_config3()
        workload = paper_workloads()["gshard-137b"]
        evaluator = Evaluator(wafer)
        plan = CentralScheduler(wafer, evaluator=evaluator).best(workload).plan
        healthy = evaluator.evaluate(workload, plan)
        activation = PPEngine.activation_bytes(workload)
        routed = PPEngine(evaluator.mesh).plan(
            plan.placement, activation, plan.mem_pairs, activation / wafer.die.dram_bandwidth
        )
        path = next(task.path for task in routed.tasks if task.hops > 0)
        link = (path[0], path[1])

        evaluator.faults.add_link_fault(link, 0.0)
        faulted = evaluator.evaluate(workload, plan)
        assert faulted != healthy
        assert faulted == Evaluator(wafer, faults=copy.deepcopy(evaluator.faults)).evaluate(
            workload, plan
        )
        evaluator.faults.clear_link_fault(link)
        assert evaluator.evaluate(workload, plan) == healthy


@pytest.fixture(scope="module")
def gshard_seed():
    """config3 × gshard-137b and the scheduler's best plan for it (``ga_refine``'s seed)."""
    wafer = wafer_config3()
    workload = paper_workloads()["gshard-137b"]
    return wafer, workload, CentralScheduler(wafer).best(workload).plan


def _pipeline_key(inputs: PipelineCostInputs):
    return (
        tuple(inputs.forward), tuple(inputs.backward), tuple(inputs.comm), inputs.num_microbatches
    )


class TestPricingMemos:
    def test_memoised_pricing_matches_the_raw_path_in_any_order(self, paper_plans):
        for wafer, workload, plans in paper_plans:
            raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
            expected = {}
            for plan in plans:
                if plan not in expected:
                    expected[plan] = raw.evaluate(workload, plan)
            shuffled = random.Random(11).sample(plans, len(plans))
            for order in (plans, plans[::-1], shuffled):
                # No plan cache, so every call goes through the footprint, 1F1B and
                # TP-engine memos, filled in this order.
                memoised = Evaluator(wafer, use_cache=False)
                for plan in order:
                    assert memoised.evaluate(workload, plan) == expected[plan]

    def test_ga_simulates_each_distinct_pipeline_once(self, gshard_seed, monkeypatch):
        wafer, workload, seed_plan = gshard_seed
        built, simulated = [], []
        make_inputs, simulate = PipelineCostInputs, evaluator_module.simulate_1f1b

        def recording_inputs(*args, **kwargs):
            inputs = make_inputs(*args, **kwargs)
            built.append(_pipeline_key(inputs))
            return inputs

        def counting_simulate(inputs):
            simulated.append(_pipeline_key(inputs))
            return simulate(inputs)

        monkeypatch.setattr(evaluator_module, "PipelineCostInputs", recording_inputs)
        monkeypatch.setattr(evaluator_module, "simulate_1f1b", counting_simulate)
        config = GAConfig(population_size=8, generations=20, seed=1)
        GeneticOptimizer(Evaluator(wafer), workload, config).optimize(seed_plan)
        assert len(set(built)) < len(built)  # the GA repeats 1F1B inputs
        assert Counter(simulated) == Counter(set(built))

    def test_ga_breaks_down_each_distinct_memory_config_once(self, gshard_seed, monkeypatch):
        wafer, workload, seed_plan = gshard_seed
        configs, breakdowns = [], []
        stage_memory = Evaluator.stage_memory
        breakdown = TrainingMemoryModel.pipeline_breakdown

        def recording_stage_memory(self, workload, plan, num_microbatches):
            pp, tp = plan.parallelism.pp, plan.parallelism.tp
            recompute = plan.recompute
            if recompute.num_stages != pp:
                recompute = RecomputeConfig.none(pp)
            configs.append((pp, tp, num_microbatches, recompute))
            return stage_memory(self, workload, plan, num_microbatches)

        def counting_breakdown(self, *args, **kwargs):
            breakdowns.append(args)
            return breakdown(self, *args, **kwargs)

        monkeypatch.setattr(Evaluator, "stage_memory", recording_stage_memory)
        monkeypatch.setattr(TrainingMemoryModel, "pipeline_breakdown", counting_breakdown)
        config = GAConfig(population_size=8, generations=20, seed=1)
        GeneticOptimizer(Evaluator(wafer), workload, config).optimize(seed_plan)
        assert len(breakdowns) == len(set(configs)) < len(configs)

    def test_recompute_config_built_on_lists_is_priced_without_the_memo(
        self, wafer, workload, seed_plan
    ):
        stages = list(seed_plan.recompute.stages)
        listed = seed_plan.with_recompute(RecomputeConfig(stages))
        memoised = Evaluator(wafer, use_cache=False)
        raw = Evaluator(wafer, use_cache=False, memoize_stages=False)
        assert memoised.evaluate(workload, listed) == memoised.evaluate(workload, seed_plan)
        # Changed in place, the config is priced under its new contents.
        names = frozenset(op.name for op in workload.layer_operators() if op.recomputable)
        stages[0] = names
        changed = memoised.evaluate(workload, listed)
        assert changed == raw.evaluate(workload, listed)
        assert changed.recompute_flops > 0

    def test_components_are_found_by_identity_unless_they_can_change(
        self, wafer, workload, seed_plan, monkeypatch
    ):
        pickled = []
        pickled_text = CanonicalTexts._pickled

        def recording(self, value):
            pickled.append(value)
            return pickled_text(self, value)

        monkeypatch.setattr(CanonicalTexts, "_pickled", recording)
        evaluator = Evaluator(wafer)

        def check(plan):
            key = evaluator.fingerprint(workload, plan)
            assert key == evaluation_fingerprint(wafer, evaluator.faults, True, workload, plan)

        check(seed_plan)
        seen = len(pickled)
        assert seen > 0
        # A child that keeps its parent's component objects pickles none of them.
        check(seed_plan.with_mem_pairs([MemPair(0, 1, 2.0**20)]))
        check(seed_plan.with_recompute(seed_plan.recompute.with_stage(0, frozenset())))
        assert len(pickled) == seen + 1  # only the new recompute config
        # A placement built on lists can change in place: pickled on every lookup.
        listed = seed_plan.with_placement(
            StagePlacement([list(dies) for dies in seed_plan.placement.stage_dies])
        )
        check(listed)
        check(listed)
        assert len(pickled) == seen + 3


@pytest.mark.perf_smoke
class TestDistinctPlanCounts:
    def test_ga_prices_and_costs_each_distinct_plan_once(
        self, wafer, workload, seed_plan, monkeypatch
    ):
        evaluated, results, costs, scored = [], {}, [], []
        evaluate, cost = Evaluator.evaluate, genetic_module.global_cost
        score = GeneticOptimizer._score_population

        def counting_evaluate(self, workload, plan):
            evaluated.append(plan)
            results[plan] = evaluate(self, workload, plan)
            return results[plan]

        def counting_cost(*args):
            costs.append(args)
            return cost(*args)

        def recording_score(self, population, *rest):
            scored.extend(population)
            return score(self, population, *rest)

        monkeypatch.setattr(Evaluator, "evaluate", counting_evaluate)
        monkeypatch.setattr(genetic_module, "global_cost", counting_cost)
        monkeypatch.setattr(GeneticOptimizer, "_score_population", recording_score)
        config = GAConfig(population_size=8, generations=6, seed=0)
        GeneticOptimizer(Evaluator(wafer), workload, config).optimize(seed_plan)

        distinct = set(scored)
        assert len(scored) == config.population_size * config.generations
        assert len(distinct) < len(scored)
        # The seed's baseline fitness() prices it once before the generations do.
        assert Counter(evaluated) == Counter(distinct) + Counter([seed_plan])
        assert len(costs) == sum(not results[plan].oom for plan in evaluated)

    def test_healthy_mesh_routes_each_placement_and_pairs_once(
        self, wafer, workload, seed_plan, monkeypatch
    ):
        routings = []

        class CountingTracker(LinkLoadTracker):
            def __init__(self, *args, **kwargs):
                routings.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pp_engine_module, "LinkLoadTracker", CountingTracker)
        swapped = seed_plan.placement.permuted([1, 0])
        recomputes = [frozenset(), frozenset({"attention.qkv"}), frozenset({"mlp.fc1"})]
        plans = [
            seed_plan.with_placement(placement)
            .with_mem_pairs(pairs)
            .with_recompute(RecomputeConfig((names, frozenset())))
            for placement in (seed_plan.placement, swapped)
            for pairs in ((), (MemPair(0, 1, 2.0**20),))
            for names in recomputes
        ]
        healthy = Evaluator(wafer)
        for plan in plans:
            healthy.evaluate(workload, plan)
        assert healthy.raw_evaluations == len(plans)
        assert len(routings) == len({(p.placement, p.mem_pairs) for p in plans}) == 4

        # A faulted mesh routes on every pricing.
        routings.clear()
        faults = FaultModel()
        faults.add_link_fault(((0, 0), (0, 1)), 0.5)
        faulted = Evaluator(wafer, faults=faults)
        for plan in plans:
            faulted.evaluate(workload, plan)
        assert len(routings) == faulted.raw_evaluations == len(plans)


def _count_plan_digests(monkeypatch) -> list:
    """Record every plan that :func:`fingerprint` or :class:`CanonicalTexts` digests."""
    digested = []
    texts_fingerprint, module_fingerprint = CanonicalTexts.fingerprint, fingerprint

    def counting_texts(self, value, hold=False):
        if isinstance(value, TrainingPlan):
            digested.append(value)
        return texts_fingerprint(self, value, hold)

    def counting_module(*values):
        digested.extend(value for value in values if isinstance(value, TrainingPlan))
        return module_fingerprint(*values)

    monkeypatch.setattr(CanonicalTexts, "fingerprint", counting_texts)
    monkeypatch.setattr(evalcache_module, "fingerprint", counting_module)
    return digested


@pytest.mark.perf_smoke
class TestDigestsOnlyAtTheStore:
    CONFIG = GAConfig(population_size=8, generations=6, seed=0)

    def test_storeless_ga_run_digests_no_plan(self, wafer, workload, seed_plan, monkeypatch):
        digested = _count_plan_digests(monkeypatch)
        evaluator = Evaluator(wafer)
        GeneticOptimizer(evaluator, workload, self.CONFIG).optimize(seed_plan)
        assert evaluator.raw_evaluations > 0 and evaluator.cache.hits > 0
        assert digested == []

    def test_store_backed_ga_run_digests_each_flushed_entry_once(
        self, wafer, workload, seed_plan, monkeypatch, tmp_path
    ):
        digested = _count_plan_digests(monkeypatch)
        cache = EvaluationCache(store=str(tmp_path / "ga.jsonl"))
        evaluator = Evaluator(wafer, cache=cache)
        GeneticOptimizer(evaluator, workload, self.CONFIG).optimize(seed_plan)
        assert digested == []  # nothing is digested before the flush
        flushed = cache.flush()
        assert flushed == evaluator.raw_evaluations > 0
        assert len(digested) == flushed
        assert len(set(map(id, digested))) == flushed
        cache.close()
