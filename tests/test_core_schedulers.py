"""Evaluator, GCMR recomputation scheduler, DRAM allocator, central scheduler and GA."""

import math

import pytest

from repro.api.registry import resolve_wafer, resolve_workload
from repro.core.central_scheduler import CentralScheduler
from repro.core.dram_allocation import DramAllocator
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.placement import serpentine_placement
from repro.core.plan import MemPair, RecomputeConfig, TrainingPlan
from repro.core.recomputation import GcmrScheduler
from repro.hardware.faults import FaultModel
from repro.parallelism.strategies import ParallelismConfig, enumerate_tp_pp
from repro.units import GB
from repro.workloads.workload import TrainingWorkload

from repro_testlib import make_small_wafer, make_tiny_model


def simple_plan(tp=2, pp=4, shape=(1, 2), recompute=None) -> TrainingPlan:
    return TrainingPlan(
        parallelism=ParallelismConfig(dp=1, tp=tp, pp=pp),
        tp_shape=shape,
        recompute=recompute or RecomputeConfig.none(pp),
    )


class TestEvaluator:
    def test_basic_evaluation_fields(self, small_wafer, tiny_workload):
        result = Evaluator(small_wafer).evaluate(tiny_workload, simple_plan())
        assert not result.oom
        assert result.iteration_time > 0
        assert result.throughput > 0
        assert 0.0 <= result.compute_utilization <= 1.0
        assert len(result.stage_memory_bytes) == 4

    def test_throughput_excludes_recompute_work(self, small_wafer, tiny_workload):
        evaluator = Evaluator(small_wafer)
        ops = tiny_workload.layer_operators()
        plain = evaluator.evaluate(tiny_workload, simple_plan())
        recomputed = evaluator.evaluate(
            tiny_workload, simple_plan(recompute=RecomputeConfig.full(4, ops))
        )
        assert recomputed.recompute_flops > 0
        assert recomputed.throughput < plain.throughput
        assert recomputed.total_throughput > recomputed.throughput

    def test_oom_detection_on_tight_wafer(self, tight_wafer, heavy_workload):
        result = Evaluator(tight_wafer).evaluate(heavy_workload, simple_plan(tp=1, pp=2, shape=(1, 1)))
        assert result.oom
        assert math.isinf(result.iteration_time)
        assert result.throughput == 0.0

    def test_recomputation_resolves_oom(self, tight_wafer, heavy_workload):
        ops = heavy_workload.layer_operators()
        evaluator = Evaluator(tight_wafer)
        oom = evaluator.evaluate(heavy_workload, simple_plan(tp=2, pp=2, shape=(1, 2)))
        recovered = evaluator.evaluate(
            heavy_workload,
            simple_plan(tp=2, pp=2, shape=(1, 2), recompute=RecomputeConfig.full(2, ops)),
        )
        assert oom.oom and not recovered.oom

    def test_mem_pairs_shift_stage_memory(self, small_wafer, heavy_workload):
        evaluator = Evaluator(small_wafer)
        base_plan = simple_plan(tp=2, pp=4, shape=(1, 2))
        base = evaluator.evaluate(heavy_workload, base_plan)
        moved = evaluator.evaluate(
            heavy_workload, base_plan.with_mem_pairs([MemPair(0, 3, 2 * GB)])
        )
        assert moved.stage_memory_bytes[0] < base.stage_memory_bytes[0]
        assert moved.stage_memory_bytes[3] > base.stage_memory_bytes[3]

    def test_offloading_slower_than_recomputation(self, config3):
        # Fig. 6b: at wafer scale, recomputing on-wafer beats evicting checkpoints over
        # the comparatively narrow host link.  This is a regime claim about real wafer
        # compute/host-bandwidth ratios, so it is checked on the paper's Config 3.
        from repro.workloads.models import get_model

        workload = TrainingWorkload(
            get_model("llama2-30b"), global_batch_size=256, micro_batch_size=8,
            sequence_length=4096,
        )
        ops = workload.layer_operators()
        evaluator = Evaluator(config3)
        plan = simple_plan(tp=4, pp=14, shape=(2, 2))
        recompute = evaluator.evaluate(
            workload, plan.with_recompute(RecomputeConfig.full(14, ops))
        )
        from dataclasses import replace
        offload = evaluator.evaluate(workload, replace(plan, offload_to_host=True))
        assert not offload.oom and not recompute.oom
        assert offload.iteration_time > recompute.iteration_time

    def test_dp_gradient_sync_adds_time(self, small_wafer, tiny_workload):
        evaluator = Evaluator(small_wafer)
        mp_only = evaluator.evaluate(tiny_workload, simple_plan(tp=2, pp=4))
        with_dp = evaluator.evaluate(
            tiny_workload,
            TrainingPlan(parallelism=ParallelismConfig(dp=2, tp=2, pp=4), tp_shape=(1, 2),
                         recompute=RecomputeConfig.none(4)),
        )
        # Per-replica work halves but a gradient all-reduce is added; both must be priced.
        assert with_dp.iteration_time > 0
        assert with_dp.useful_flops == pytest.approx(mp_only.useful_flops / 2, rel=0.01)

    def test_world_size_must_fit_wafer(self, small_wafer, tiny_workload):
        with pytest.raises(ValueError):
            Evaluator(small_wafer).evaluate(
                tiny_workload, simple_plan(tp=8, pp=4, shape=(2, 4))
            )

    def test_die_faults_reduce_throughput(self, small_wafer, tiny_workload):
        healthy = Evaluator(small_wafer).evaluate(tiny_workload, simple_plan())
        faults = FaultModel.random(4, 4, die_fault_rate=0.3, seed=3)
        faulty = Evaluator(small_wafer, faults=faults).evaluate(tiny_workload, simple_plan())
        assert faulty.throughput < healthy.throughput

    def test_fault_aware_beats_non_fault_aware(self, small_wafer, tiny_workload):
        faults = FaultModel.random(4, 4, die_fault_rate=0.25, link_fault_rate=0.25, seed=5)
        robust = Evaluator(small_wafer, faults=faults, fault_aware=True).evaluate(
            tiny_workload, simple_plan()
        )
        fragile = Evaluator(small_wafer, faults=faults, fault_aware=False).evaluate(
            tiny_workload, simple_plan()
        )
        assert robust.throughput >= fragile.throughput

    def test_out_of_memory_constructor(self):
        result = EvaluationResult.out_of_memory("plan", "wafer")
        assert result.oom and result.throughput == 0.0 and result.recompute_ratio == 0.0


class TestGcmr:
    def test_no_recompute_when_memory_is_plentiful(self, small_wafer, tiny_workload):
        plan = GcmrScheduler(small_wafer).schedule(tiny_workload, tp=2, pp=4)
        assert plan.feasible
        assert all(not stage for stage in plan.recompute.stages)
        assert not plan.mem_pairs

    def test_recompute_appears_under_memory_pressure(self, tight_wafer, heavy_workload):
        plan = GcmrScheduler(tight_wafer).schedule(heavy_workload, tp=1, pp=4)
        assert plan.feasible
        assert any(stage for stage in plan.recompute.stages)

    def test_stage_memory_fits_wafer_budget(self, tight_wafer, heavy_workload):
        wafer_budget = tight_wafer.die.dram_capacity * 4
        plan = GcmrScheduler(tight_wafer).schedule(heavy_workload, tp=1, pp=4)
        assert plan.feasible
        assert sum(plan.stage_memory_bytes) <= wafer_budget * 1.001

    def test_senders_and_helpers_partition_overflow(self, tight_wafer, heavy_workload):
        plan = GcmrScheduler(tight_wafer).schedule(heavy_workload, tp=1, pp=4)
        capacity = tight_wafer.die.dram_capacity
        for sender in plan.senders:
            assert plan.stage_memory_bytes[sender] > capacity
        for helper in plan.helpers:
            assert plan.stage_memory_bytes[helper] < capacity

    def test_mem_pairs_cover_sender_overflow(self, tight_wafer, heavy_workload):
        plan = GcmrScheduler(tight_wafer).schedule(heavy_workload, tp=1, pp=4)
        capacity = tight_wafer.die.dram_capacity
        total_overflow = sum(
            max(0.0, m - capacity) for m in plan.stage_memory_bytes
        )
        assert plan.total_balanced_bytes == pytest.approx(total_overflow, rel=0.01)

    def test_infeasible_when_even_full_recompute_does_not_fit(self, heavy_workload):
        minuscule = make_small_wafer(dram_gb=0.25)
        plan = GcmrScheduler(minuscule).schedule(heavy_workload, tp=1, pp=2)
        assert not plan.feasible

    def test_gcmr_beats_naive_recompute_on_stage_time(self, tight_wafer, heavy_workload):
        scheduler = GcmrScheduler(tight_wafer)
        plan = scheduler.schedule(heavy_workload, tp=1, pp=4)
        ops = heavy_workload.layer_operators()
        naive = scheduler.naive_full_recompute(heavy_workload, tp=1, pp=4)
        # GCMR never recomputes more (per stage) than the naive strategy.
        for stage in range(4):
            assert plan.recompute.extra_forward_flops(stage, ops) <= naive.extra_forward_flops(stage, ops)

    def test_validation(self, small_wafer, tiny_workload):
        with pytest.raises(ValueError):
            GcmrScheduler(small_wafer).schedule(tiny_workload, tp=0, pp=2)


class TestDramAllocator:
    @pytest.fixture
    def placement(self):
        return serpentine_placement(4, 4, (1, 1), 8)

    def test_allocation_covers_all_overflow(self, placement):
        allocator = DramAllocator(placement)
        allocation = allocator.allocate({0: 10.0, 1: 5.0}, {6: 8.0, 7: 12.0})
        assert allocation.feasible
        assert allocation.total_bytes == pytest.approx(15.0)

    def test_nearest_conflict_free_helper_preferred(self, placement):
        # Stage 7 sits directly below stage 0 on the serpentine layout and its path does
        # not share links with the pipeline, so it beats the distant stage 3.
        allocator = DramAllocator(placement)
        allocation = allocator.allocate({0: 5.0}, {3: 100.0, 7: 100.0})
        assert allocation.pairs[0].helper_stage == 7

    def test_partial_helpers_are_reused(self, placement):
        allocator = DramAllocator(placement)
        allocation = allocator.allocate({0: 10.0}, {1: 4.0, 2: 4.0, 3: 4.0})
        helpers = [pair.helper_stage for pair in allocation.pairs]
        assert len(helpers) == 3 and allocation.feasible

    def test_unplaced_bytes_reported(self, placement):
        allocation = DramAllocator(placement).allocate({0: 10.0}, {1: 3.0})
        assert not allocation.feasible
        assert allocation.unplaced_bytes == pytest.approx(7.0)

    def test_negative_amounts_rejected(self, placement):
        with pytest.raises(ValueError):
            DramAllocator(placement).allocate({0: -1.0}, {})

    def test_from_mem_pairs_round_trip(self):
        pairs = [MemPair(0, 3, 5.0), MemPair(0, 2, 2.0), MemPair(1, 3, 1.0)]
        senders, helpers = DramAllocator.from_mem_pairs(pairs)
        assert senders == {0: 7.0, 1: 1.0}
        assert helpers == {3: 6.0, 2: 2.0}


class TestCentralScheduler:
    def test_explore_returns_feasible_records(self, small_wafer, tiny_workload):
        records = CentralScheduler(small_wafer).explore(tiny_workload)
        assert records
        for record in records:
            assert record.plan.parallelism.model_parallel_size == small_wafer.num_dies

    def test_best_is_highest_throughput(self, small_wafer, tiny_workload):
        scheduler = CentralScheduler(small_wafer)
        records = [r for r in scheduler.explore(tiny_workload) if not r.result.oom]
        best = scheduler.best(tiny_workload)
        assert best.result.throughput == pytest.approx(
            max(r.result.throughput for r in records)
        )

    def test_prunes_models_that_cannot_fit(self, small_wafer):
        giant = TrainingWorkload(make_tiny_model(layers=64, hidden=8192, heads=64, ffn=28672),
                                 global_batch_size=8, micro_batch_size=1, sequence_length=512)
        scheduler = CentralScheduler(small_wafer)
        assert scheduler.prunes(giant, small_wafer.num_dies)
        assert scheduler.explore(giant) == []

    def test_subset_of_dies_can_be_used(self, small_wafer, tiny_workload):
        records = CentralScheduler(small_wafer).explore(tiny_workload, model_parallel_dies=8)
        assert records
        assert all(r.plan.parallelism.model_parallel_size == 8 for r in records)

    def test_model_parallel_dies_cannot_exceed_wafer(self, small_wafer, tiny_workload):
        with pytest.raises(ValueError):
            CentralScheduler(small_wafer).explore(tiny_workload, model_parallel_dies=64)

    def test_memory_tight_configs_get_recompute_or_pairs(self, tight_wafer, heavy_workload):
        scheduler = CentralScheduler(tight_wafer)
        best = scheduler.best(heavy_workload)
        assert best is not None and not best.result.oom

    def test_max_tp_limits_search(self, small_wafer, tiny_workload):
        scheduler = CentralScheduler(small_wafer, max_tp=2)
        records = scheduler.explore(tiny_workload)
        assert all(r.plan.parallelism.tp <= 2 for r in records)

    @pytest.mark.parametrize("wafer_ref, workload_ref", [
        ("tiny", "tiny"),
        ("config3", {"model": "llama2-30b", "global_batch_size": 128,
                     "micro_batch_size": 4, "sequence_length": 4096}),
    ])
    def test_explore_builds_once_per_candidate_for_every_collective(
        self, wafer_ref, workload_ref
    ):
        wafer, workload = resolve_wafer(wafer_ref), resolve_workload(workload_ref)
        reference = CentralScheduler(wafer, evaluator=Evaluator(wafer))
        plans, rejected = [], []
        for tp, pp in enumerate_tp_pp(wafer.num_dies, workload.model.num_layers):
            for strategy in reference.split_strategies:
                for collective in reference.search_collectives:
                    plan = reference.build_plan(workload, tp, pp, strategy, collective)
                    if plan is None:
                        rejected.append((tp, pp, strategy, collective))
                    else:
                        plans.append(plan)
        expected = [reference.evaluator.evaluate(workload, plan) for plan in plans]

        scheduler = CentralScheduler(wafer, evaluator=Evaluator(wafer))
        built = []
        build_plan = scheduler.build_plan

        def counting_build_plan(workload, tp, pp, strategy, *args):
            plan = build_plan(workload, tp, pp, strategy, *args)
            built.append(((tp, pp, strategy), plan))
            return plan

        scheduler.build_plan = counting_build_plan
        records = scheduler.explore(workload)
        assert [record.plan for record in records] == plans
        assert [record.result for record in records] == expected
        candidates = [candidate for candidate, _ in built]
        assert len(candidates) == len(set(candidates))
        assert [
            candidate + (collective,)
            for candidate, plan in built if plan is None
            for collective in scheduler.search_collectives
        ] == rejected


class TestGeneticOptimizer:
    @pytest.fixture
    def seed_plan(self, tight_wafer, heavy_workload):
        return CentralScheduler(tight_wafer).best(heavy_workload).plan

    def test_ga_never_worse_than_seed(self, tight_wafer, heavy_workload, seed_plan):
        evaluator = Evaluator(tight_wafer)
        seed_result = evaluator.evaluate(heavy_workload, seed_plan)
        ga = GeneticOptimizer(evaluator, heavy_workload,
                              GAConfig(population_size=6, generations=4, seed=1))
        outcome = ga.optimize(seed_plan)
        assert outcome.best_result.throughput >= seed_result.throughput * 0.999

    def test_history_length_matches_generations(self, tight_wafer, heavy_workload, seed_plan):
        ga = GeneticOptimizer(Evaluator(tight_wafer), heavy_workload,
                              GAConfig(population_size=6, generations=5, seed=2))
        outcome = ga.optimize(seed_plan)
        assert outcome.generations == 5
        assert len(outcome.throughput_history) == 5

    def test_best_fitness_history_is_monotone_nonincreasing(self, tight_wafer, heavy_workload, seed_plan):
        ga = GeneticOptimizer(Evaluator(tight_wafer), heavy_workload,
                              GAConfig(population_size=6, generations=6, seed=3))
        outcome = ga.optimize(seed_plan)
        history = list(outcome.history)
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    def test_mutation_operators_preserve_plan_validity(self, tight_wafer, heavy_workload, seed_plan):
        ga = GeneticOptimizer(Evaluator(tight_wafer), heavy_workload, GAConfig(seed=4))
        plan = seed_plan
        for _ in range(25):
            plan = ga.mutate(plan)
            assert plan.parallelism == seed_plan.parallelism
            assert plan.recompute.num_stages == seed_plan.parallelism.pp

    def test_crossover_mixes_parent_stages(self, tight_wafer, heavy_workload, seed_plan):
        ga = GeneticOptimizer(Evaluator(tight_wafer), heavy_workload, GAConfig(seed=5))
        other = ga.mutate(ga.mutate(seed_plan))
        child = ga.crossover(seed_plan, other)
        assert child.parallelism == seed_plan.parallelism

    def test_oom_plans_get_infinite_fitness(self, tight_wafer, heavy_workload):
        ga = GeneticOptimizer(Evaluator(tight_wafer), heavy_workload, GAConfig(seed=6))
        hopeless = simple_plan(tp=1, pp=2, shape=(1, 1))
        fitness, result = ga.fitness(hopeless)
        assert math.isinf(fitness) and result.oom

    def test_omega_validation(self):
        with pytest.raises(ValueError):
            GAConfig(omega=1.5)
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
