"""The WATOS framework front-end (paper Fig. 9).

``Watos`` ties the pieces together: the enumerator (or an explicit candidate list)
produces wafer configurations, the central scheduler + GCMR + memory scheduler produce a
strong deterministic plan per (wafer, workload) pair, and the GA-based global optimizer
refines it.  The result object carries the best architecture, the mapping scheme
(training plan) and performance reports for every explored point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.central_scheduler import CentralScheduler, ExplorationRecord, best_record
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.parallel_map import parallel_map_merge, task_cache
from repro.core.plan import TrainingPlan
from repro.core.runtime import resolve_loop_session
from repro.hardware.enumerator import ArchitectureEnumerator
from repro.hardware.template import WaferConfig
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.parallelism.partition import TPSplitStrategy
from repro.workloads.workload import TrainingWorkload


@dataclass(frozen=True)
class WorkloadOutcome:
    """Best plan and result found for one workload on one wafer configuration."""

    wafer: WaferConfig
    workload: TrainingWorkload
    plan: TrainingPlan
    result: EvaluationResult
    ga_history: Tuple[float, ...] = ()

    @property
    def throughput(self) -> float:
        return self.result.throughput


@dataclass
class WatosResult:
    """Everything the co-exploration produced."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)
    #: Each point's :meth:`CentralScheduler.search` records, the splits early pruning
    #: skipped included (``pruned=True``, priced at their bound).
    exploration_records: Dict[str, List[ExplorationRecord]] = field(default_factory=dict)

    def outcomes_for_wafer(self, wafer_name: str) -> List[WorkloadOutcome]:
        return [o for o in self.outcomes if o.wafer.name == wafer_name]

    def outcomes_for_workload(self, model_name: str) -> List[WorkloadOutcome]:
        return [o for o in self.outcomes if o.workload.model.name == model_name]

    def best_wafer(self) -> Optional[str]:
        """The wafer with the highest geometric-mean throughput across workloads."""
        by_wafer: Dict[str, List[float]] = {}
        for outcome in self.outcomes:
            by_wafer.setdefault(outcome.wafer.name, []).append(outcome.throughput)
        if not by_wafer:
            return None

        def geomean(values: List[float]) -> float:
            positive = [v for v in values if v > 0]
            if not positive:
                return 0.0
            product = 1.0
            for v in positive:
                product *= v
            return product ** (1.0 / len(positive))

        return max(by_wafer, key=lambda name: geomean(by_wafer[name]))

    def best_outcome(self, model_name: str) -> Optional[WorkloadOutcome]:
        outcomes = self.outcomes_for_workload(model_name)
        if not outcomes:
            return None
        return max(outcomes, key=lambda o: o.throughput)


class _ExplorePointTask:
    """Picklable task pricing one (wafer, workload) point of the co-exploration.

    Carries only the exploration hyper-parameters — never the shared cache.  The
    cache to price against comes from :func:`task_cache`: the parent's shared cache
    on the serial path (zero copies), a chunk cache over the worker's fork-time copy
    of it inside a :class:`WorkerPool`.  The search trajectory is a pure function of
    the point, never of the cache contents, which is what keeps the parallel fan-out
    bit-identical to the serial loop.
    """

    def __init__(self, watos: "Watos") -> None:
        self.use_ga = watos.use_ga
        self.ga_config = watos.ga_config
        self.collective = watos.collective
        self.split_strategies = watos.split_strategies
        self.max_tp = watos.max_tp

    def __call__(self, point: Tuple[WaferConfig, TrainingWorkload]):
        wafer, workload = point
        return self.run(wafer, workload, task_cache())

    def run(
        self, wafer: WaferConfig, workload: TrainingWorkload, cache: Optional[EvaluationCache]
    ) -> Tuple[List[ExplorationRecord], Optional[WorkloadOutcome]]:
        """Seed, then refine: the scheduler's best plan, then the GA around it.

        The GA plan replaces the seed when its throughput is not lower.  Returns the
        scheduler's records (:meth:`CentralScheduler.search`: the splits its early
        pruning skipped are listed at their bound) and the outcome (``None`` when no
        plan fits).  Both loops price in this process on one evaluator over ``cache``.
        """
        evaluator = Evaluator(wafer, cache=cache)
        scheduler = CentralScheduler(
            wafer,
            evaluator=evaluator,
            collective=self.collective,
            split_strategies=self.split_strategies,
            max_tp=self.max_tp,
        )
        records = scheduler.search(workload)
        best = best_record(records)
        if best is None:
            return records, None
        plan, result = best.plan, best.result
        ga_history: Tuple[float, ...] = ()
        if self.use_ga:
            ga_outcome = GeneticOptimizer(evaluator, workload, self.ga_config).optimize(plan)
            if ga_outcome.best_result.throughput >= result.throughput:
                plan, result = ga_outcome.best_plan, ga_outcome.best_result
            ga_history = ga_outcome.history
        outcome = WorkloadOutcome(
            wafer=wafer, workload=workload, plan=plan, result=result, ga_history=ga_history
        )
        return records, outcome


class Watos:
    """Co-exploration of wafer-scale architecture and LLM training strategy."""

    def __init__(
        self,
        candidates: Optional[Sequence[WaferConfig]] = None,
        enumerator: Optional[ArchitectureEnumerator] = None,
        use_ga: bool = True,
        ga_config: Optional[GAConfig] = None,
        collective: CollectiveAlgorithm = CollectiveAlgorithm.BIDIRECTIONAL_RING,
        split_strategies: Sequence[TPSplitStrategy] = (TPSplitStrategy.HIDDEN,),
        max_tp: int = 0,
        session=None,
    ) -> None:
        if candidates is None and enumerator is None:
            enumerator = ArchitectureEnumerator()
        self.candidates = list(candidates) if candidates is not None else enumerator.enumerate()
        if not self.candidates:
            raise ValueError("no feasible wafer configurations to explore")
        self.use_ga = use_ga
        self.ga_config = ga_config or GAConfig(population_size=10, generations=12)
        self.collective = collective
        self.split_strategies = tuple(split_strategies)
        self.max_tp = max_tp
        #: The owning :class:`repro.api.Session` (or a ``SessionHandle``); it supplies
        #: the shared cache and the worker pool :meth:`explore` fans points out over.
        #: Without one, the ambient session is used.
        self.session = resolve_loop_session(session)
        #: One cache shared by every (wafer, workload) point — every key covers the
        #: wafer, so heterogeneous candidates coexist safely.
        #: Attach a store (``EvaluationCache(store=path)``) to persist across runs.
        session_cache = self.session.cache if self.session is not None else None
        self.cache = session_cache if session_cache is not None else EvaluationCache()

    # ------------------------------------------------------------------ single point
    def optimize(self, wafer: WaferConfig, workload: TrainingWorkload) -> Optional[WorkloadOutcome]:
        """Find the best training plan for one workload on one wafer, in this process.

        The same seed-then-refine body as every point of :meth:`explore`, priced
        against :attr:`cache` (flushed to its store before returning).
        """
        _, outcome = _ExplorePointTask(self).run(wafer, workload, self.cache)
        self.cache.flush()
        return outcome

    # ------------------------------------------------------------------ full DSE
    def explore(self, workloads: Sequence[TrainingWorkload], session=None) -> WatosResult:
        """Run the co-exploration over every candidate wafer and every workload.

        ``session`` supplies the worker pool (defaulting to the Watos instance's own
        session, then the ambient one); its ``parallel`` is a
        :class:`~repro.core.parallel_map.WorkerPool` or ``None`` (serial).  The
        (wafer × workload) points fan out over the workers; each point's scheduler
        and GA run serially inside its worker.

        The pooled run is bit-identical to the serial one: worker deltas are merged
        back in worker order and flushed to the shared cache's store when one is
        attached, and pricing is pure memoization — which prices directly against
        :attr:`cache` on the serial path, copying nothing.
        """
        resolved = resolve_loop_session(session, fallback=self.session)
        parallel = resolved.parallel if resolved is not None else None
        points = [
            (wafer, workload) for wafer in self.candidates for workload in workloads
        ]
        priced = parallel_map_merge(
            _ExplorePointTask(self), points, parallel=parallel, cache=self.cache
        )
        self.cache.flush()

        result = WatosResult()
        for (wafer, workload), (records, outcome) in zip(points, priced):
            result.exploration_records[f"{wafer.name}/{workload.model.name}"] = records
            if outcome is not None:
                result.outcomes.append(outcome)
        return result
