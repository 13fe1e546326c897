"""GA-based global optimizer (paper §IV-D, Fig. 12 and Fig. 24b).

The deterministic schedulers (GCMR + memory scheduler) are greedy and can land in local
optima — for instance, pairing a Sender with the nearest Helper even when a slightly
farther pairing would unblock a better recomputation choice.  The genetic optimizer
explores the joint space of (recomputation config, stage placement, Mem_pairs) with the
five operators the paper defines:

* **Op1** R-variation — toggle recomputation of one operator in one stage;
* **Op2** R-crossover — swap the recomputation configuration of two stages;
* **Op3** placement variation — swap the physical blocks of two stages;
* **Op4** A-variation — reroute part of a Sender's overflow to a different Helper;
* **Op5** A-crossover — exchange the Mem_pair allocations of two Senders.

Selection mixes elitism and binary tournament; the ``omega`` knob is the elitism share
whose convergence/quality trade-off Fig. 24b sweeps.  Fitness is ``t_max × GlobalCost``
(lower is better), with out-of-memory individuals penalised to infinity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.parallel_map import WorkerPool
from repro.core.runtime import resolve_loop_session
from repro.core.placement import global_cost
from repro.core.plan import MemPair, RecomputeConfig, TrainingPlan
from repro.workloads.workload import TrainingWorkload


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the genetic optimizer."""

    population_size: int = 16
    generations: int = 30
    omega: float = 0.5          # elitism share; the rest is binary tournament
    mutation_rate: float = 0.7
    crossover_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population must have at least two individuals")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must be within [0, 1]")

    def stream(self, index: int) -> "GAConfig":
        """This config with an independent, reproducible RNG stream for fan-out.

        A multi-wafer (or multi-point) sweep runs one GA per wafer; giving wafer ``i``
        ``config.stream(i)`` decorrelates the search trajectories while keeping every
        stream a pure function of (base seed, index) — so a parallel fan-out and a
        serial loop over the same streams are bit-identical.  Stream 0 is the base
        config itself.
        """
        if index < 0:
            raise ValueError("stream index cannot be negative")
        if index == 0:
            return self
        return replace(self, seed=(self.seed * 1_000_003 + index) & 0x7FFF_FFFF)


@dataclass(frozen=True)
class GAResult:
    """Outcome of a GA run."""

    best_plan: TrainingPlan
    best_result: EvaluationResult
    best_fitness: float
    history: Tuple[float, ...]           # best fitness per generation
    throughput_history: Tuple[float, ...]

    @property
    def generations(self) -> int:
        return len(self.history)


class GeneticOptimizer:
    """Evolves training plans around a seed plan produced by the central scheduler."""

    def __init__(
        self,
        evaluator: Evaluator,
        workload: TrainingWorkload,
        config: Optional[GAConfig] = None,
    ) -> None:
        self.evaluator = evaluator
        self.workload = workload
        self.config = config or GAConfig()
        self._rng = random.Random(self.config.seed)
        self._operator_names = [op.name for op in workload.layer_operators() if op.recomputable]

    # ------------------------------------------------------------------ fitness
    def fitness(self, plan: TrainingPlan) -> Tuple[float, EvaluationResult]:
        """Paper fitness: iteration time × (1 + normalised GlobalCost); lower is better."""
        result = self.evaluator.evaluate(self.workload, plan)
        return self._fitness_of(plan, result), result

    def _fitness_of(self, plan: TrainingPlan, result: EvaluationResult) -> float:
        """The fitness of an already-priced plan (shared by serial and parallel paths)."""
        if result.oom:
            return float("inf")
        placement = plan.placement or self.evaluator.default_placement(plan)
        cost = global_cost(placement, plan.mem_pairs)
        normaliser = max(1.0, plan.parallelism.pp)
        return result.iteration_time * (1.0 + cost / (10.0 * normaliser))

    def _score_population(
        self, population: Sequence[TrainingPlan], parallel: Union[int, WorkerPool, None]
    ) -> List[Tuple[float, EvaluationResult]]:
        """Price every individual, in population order.

        Delegates to :meth:`Evaluator.evaluate_many` — the shared cache-aware pool
        path — so the parallel run returns exactly what the serial run would.
        """
        results = self.evaluator.evaluate_many(self.workload, list(population), parallel)
        return [
            (self._fitness_of(plan, result), result)
            for plan, result in zip(population, results)
        ]

    # ------------------------------------------------------------------ GA operators
    def _op1_toggle_recompute(self, plan: TrainingPlan) -> TrainingPlan:
        if not self._operator_names:
            return plan
        pp = plan.parallelism.pp
        stage = self._rng.randrange(pp)
        name = self._rng.choice(self._operator_names)
        current = set(plan.recompute.stage(stage))
        if name in current:
            current.remove(name)
        else:
            current.add(name)
        return plan.with_recompute(plan.recompute.with_stage(stage, frozenset(current)))

    def _op2_swap_recompute(self, plan: TrainingPlan) -> TrainingPlan:
        pp = plan.parallelism.pp
        if pp < 2:
            return plan
        a, b = self._rng.sample(range(pp), 2)
        recompute = plan.recompute
        set_a, set_b = recompute.stage(a), recompute.stage(b)
        return plan.with_recompute(
            recompute.with_stage(a, set_b).with_stage(b, set_a)
        )

    def _op3_swap_placement(self, plan: TrainingPlan) -> TrainingPlan:
        placement = plan.placement or self.evaluator.default_placement(plan)
        pp = placement.num_stages
        if pp < 2:
            return plan
        a, b = self._rng.sample(range(pp), 2)
        order = list(range(pp))
        order[a], order[b] = order[b], order[a]
        return plan.with_placement(placement.permuted(order))

    def _op4_vary_mem_pair(self, plan: TrainingPlan) -> TrainingPlan:
        if not plan.mem_pairs:
            return plan
        pairs = list(plan.mem_pairs)
        index = self._rng.randrange(len(pairs))
        pair = pairs[index]
        pp = plan.parallelism.pp
        candidates = [s for s in range(pp) if s not in (pair.sender_stage,)]
        if not candidates:
            return plan
        new_helper = self._rng.choice(candidates)
        if new_helper == pair.helper_stage:
            # Shrink the transfer instead, freeing the Helper for other Senders.
            pairs[index] = replace(pair, bytes_moved=pair.bytes_moved * 0.5)
        else:
            moved = pair.bytes_moved * self._rng.uniform(0.3, 1.0)
            pairs[index] = replace(pair, bytes_moved=pair.bytes_moved - moved)
            pairs.append(MemPair(pair.sender_stage, new_helper, moved))
        pairs = [p for p in pairs if p.bytes_moved > 1e-6]
        return plan.with_mem_pairs(pairs)

    def _op5_swap_mem_pairs(self, plan: TrainingPlan) -> TrainingPlan:
        senders = sorted({p.sender_stage for p in plan.mem_pairs})
        if len(senders) < 2:
            return plan
        a, b = self._rng.sample(senders, 2)
        pairs = []
        for pair in plan.mem_pairs:
            if pair.sender_stage == a and pair.helper_stage != b:
                pairs.append(replace(pair, sender_stage=b))
            elif pair.sender_stage == b and pair.helper_stage != a:
                pairs.append(replace(pair, sender_stage=a))
            else:
                pairs.append(pair)
        return plan.with_mem_pairs(pairs)

    def mutate(self, plan: TrainingPlan) -> TrainingPlan:
        """Apply one randomly chosen GA operator."""
        operators = [
            self._op1_toggle_recompute,
            self._op2_swap_recompute,
            self._op3_swap_placement,
            self._op4_vary_mem_pair,
            self._op5_swap_mem_pairs,
        ]
        return self._rng.choice(operators)(plan)

    def crossover(self, parent_a: TrainingPlan, parent_b: TrainingPlan) -> TrainingPlan:
        """Child takes parent A's placement and a stage-wise mix of recompute configs."""
        pp = parent_a.parallelism.pp
        stages = []
        for stage in range(pp):
            source = parent_a if self._rng.random() < 0.5 else parent_b
            stages.append(source.recompute.stage(stage))
        child = parent_a.with_recompute(RecomputeConfig(stages=tuple(stages)))
        if self._rng.random() < 0.5 and parent_b.mem_pairs:
            child = child.with_mem_pairs(parent_b.mem_pairs)
        return child

    # ------------------------------------------------------------------ selection
    def _select(self, scored: List[Tuple[float, TrainingPlan]]) -> List[TrainingPlan]:
        # Sort/min on the fitness alone (itemgetter(0)): comparing the raw tuples would
        # fall through to the plans on fitness ties and TrainingPlan is not orderable.
        # sorted() is stable, so equal-fitness plans keep their population order.
        scored = sorted(scored, key=itemgetter(0))
        survivors: List[TrainingPlan] = []
        elite_count = max(1, int(round(self.config.omega * self.config.population_size / 2)))
        survivors.extend(plan for _, plan in scored[:elite_count])
        while len(survivors) < self.config.population_size // 2:
            a, b = self._rng.sample(scored, 2)
            survivors.append(min(a, b, key=itemgetter(0))[1])
        return survivors

    # ------------------------------------------------------------------ main loop
    def optimize(self, seed_plan: TrainingPlan, session=None) -> GAResult:
        """Run the GA starting from (and always retaining) the seed plan.

        ``session`` (a :class:`repro.api.Session` or a ``SessionHandle``) supplies the
        worker pool each generation's unique individuals are priced on; without one,
        the ambient session (``with Session(...):`` / ``repro.api.default_session()``)
        is used, and without that the run is serial.  The GA trajectory — selection,
        best plan, fitness history — is identical to the serial run for any worker
        count.
        """
        resolved = resolve_loop_session(session)
        parallel = resolved.parallel if resolved is not None else None
        population: List[TrainingPlan] = [seed_plan]
        while len(population) < self.config.population_size:
            population.append(self.mutate(seed_plan))

        best_plan = seed_plan
        best_fitness, best_result = self.fitness(seed_plan)
        history: List[float] = []
        throughput_history: List[float] = []

        for _ in range(self.config.generations):
            scored = []
            for plan, (fit, result) in zip(
                population, self._score_population(population, parallel)
            ):
                scored.append((fit, plan))
                if fit < best_fitness:
                    best_fitness, best_plan, best_result = fit, plan, result
            history.append(best_fitness)
            throughput_history.append(best_result.throughput)

            survivors = self._select(scored)
            next_population = list(survivors)
            while len(next_population) < self.config.population_size:
                if self._rng.random() < self.config.crossover_rate and len(survivors) >= 2:
                    a, b = self._rng.sample(survivors, 2)
                    child = self.crossover(a, b)
                else:
                    child = self._rng.choice(survivors)
                if self._rng.random() < self.config.mutation_rate:
                    child = self.mutate(child)
                next_population.append(child)
            population = next_population

        return GAResult(
            best_plan=best_plan,
            best_result=best_result,
            best_fitness=best_fitness,
            history=tuple(history),
            throughput_history=tuple(throughput_history),
        )
