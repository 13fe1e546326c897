"""Early-pruning central scheduler (paper §IV-A, Alg. 1).

The central scheduler owns the outer loop of the co-exploration engine for one wafer
configuration: it enumerates feasible (TP, PP) splits of the model-parallel dies,
prunes candidates whose modelP cannot possibly fit the aggregate DRAM, delegates
memory-tight candidates to the downstream schedulers (GCMR recomputation, placement and
DRAM allocation), evaluates every surviving plan and keeps the best.  Plans are priced
in the calling process: a paper-scale search has a dozen or so candidates, too few to
pay for shipping them to workers.

Alg. 1's early pruning is an exact upper bound.  A memory-tight split's *ideal plan* —
what :meth:`~CentralScheduler.build_plan` returns for a split that fits: serpentine
placement, no recomputation and no Mem_pairs — priced on the same wafer with unbounded
DRAM chiplets is never slower than any plan the downstream schedulers build for the
split.  :meth:`CentralScheduler.search` (behind :meth:`~CentralScheduler.best` and every
Watos point) builds memory-tight splits in decreasing bound order and skips each one
whose bound is strictly below the best plan found so far;
:meth:`~CentralScheduler.explore` stays exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.dram_allocation import DramAllocator
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.placement import PlacementOptimizer, serpentine_placement
from repro.core.plan import RecomputeConfig, TrainingPlan
from repro.core.recomputation import GcmrScheduler
from repro.core.runtime import resolve_loop_session
from repro.hardware.template import WaferConfig
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.interconnect.topology import MeshTopology
from repro.parallelism.partition import TPSplitStrategy, best_mesh_shape
from repro.parallelism.strategies import enumerate_tp_pp, ParallelismConfig
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.workload import TrainingWorkload

Split = Tuple[int, int, TPSplitStrategy]


@dataclass(frozen=True)
class ExplorationRecord:
    """One evaluated point of the (TP, PP, split-strategy) space.

    A ``pruned`` record stands for a split the early pruning skipped: its plan is the
    split's ideal plan and its result is that plan priced with unbounded DRAM, the
    upper bound the split lost on.
    """

    plan: TrainingPlan
    result: EvaluationResult
    pruned: bool = False

    @property
    def throughput(self) -> float:
        return self.result.throughput


def best_record(records: Sequence[ExplorationRecord]) -> Optional[ExplorationRecord]:
    """The first highest-throughput record that was built and fits, or ``None``."""
    built = [record for record in records if not record.pruned and not record.result.oom]
    if not built:
        return None
    return max(built, key=lambda record: record.throughput)


@dataclass
class CentralScheduler:
    """Alg. 1: enumerate, prune, delegate, evaluate."""

    wafer: WaferConfig
    evaluator: Optional[Evaluator] = None
    #: The owning :class:`repro.api.Session` (or any object with ``.cache``); it
    #: supplies the cache the default evaluator prices against.  Without one, the
    #: ambient session (``with Session(...):`` / ``default_session()``) is used.
    session: Optional[object] = None
    collective: CollectiveAlgorithm = CollectiveAlgorithm.BIDIRECTIONAL_RING
    #: Collective algorithms the TP engine is allowed to explore (§IV-E-1: "can also be
    #: configured to explore other intra-stage communication mechanisms").
    search_collectives: Sequence[CollectiveAlgorithm] = (
        CollectiveAlgorithm.BIDIRECTIONAL_RING,
        CollectiveAlgorithm.TACOS,
    )
    split_strategies: Sequence[TPSplitStrategy] = (TPSplitStrategy.HIDDEN,)
    max_tp: int = 0
    optimize_placement: bool = True

    def __post_init__(self) -> None:
        resolved = resolve_loop_session(self.session)
        if self.session is None:
            self.session = resolved
        if self.evaluator is None:
            cache = resolved.cache if resolved is not None else None
            self.evaluator = Evaluator(self.wafer, cache=cache)
        self._gcmr = GcmrScheduler(self.wafer)
        self._mesh = MeshTopology.from_wafer(self.wafer)
        self._bound_evaluator: Optional[Evaluator] = None

    # ------------------------------------------------------------------ pruning
    def prunes(self, workload: TrainingWorkload, model_parallel_dies: int) -> bool:
        """Alg. 1 lines 1–2: modelP can never fit, whatever the split — prune."""
        capacity = self.wafer.die.dram_capacity
        return workload.model_state_bytes / model_parallel_dies > capacity

    def needs_downstream(
        self, workload: TrainingWorkload, tp: int, pp: int, num_microbatches: int
    ) -> bool:
        """Alg. 1 line 5: modelP + full checkpoints exceed the aggregate memory."""
        memory = TrainingMemoryModel(workload.model)
        return not memory.fits(
            self.wafer.die.dram_capacity,
            pp, tp, workload.micro_batch_size, workload.seq_len, num_microbatches,
        )

    def _bounds(self) -> Evaluator:
        """The evaluator that prices bounds: the scheduler's, with unbounded DRAM chiplets.

        It shares the scheduler evaluator's cache (or lack of one), predictor and
        settings, so a warm store serves the bounds too.
        """
        if self._bound_evaluator is None:
            evaluator = self.evaluator
            wafer = evaluator.wafer
            chiplet = replace(wafer.die.dram_chiplet, capacity_bytes=math.inf)
            self._bound_evaluator = Evaluator(
                replace(wafer, die=replace(wafer.die, dram_chiplet=chiplet)),
                predictor=evaluator._predictor,
                fault_aware=evaluator.fault_aware,
                cache=evaluator.cache,
                use_cache=evaluator.cache is not None,
                memoize_stages=evaluator.memoize_stages,
            )
        return self._bound_evaluator

    # ------------------------------------------------------------------ plan building
    def _tp_shape(self, tp: int) -> Optional[Tuple[int, int]]:
        """The TP group's mesh shape, or ``None`` when no shape fits the mesh."""
        try:
            return best_mesh_shape(tp, self.wafer.dies_x, self.wafer.dies_y)
        except ValueError:
            return None

    def _ideal_plan(
        self,
        tp: int,
        pp: int,
        tp_shape: Tuple[int, int],
        split_strategy: TPSplitStrategy,
        collective: CollectiveAlgorithm,
    ) -> TrainingPlan:
        """The split with every checkpoint kept: serpentine, no recomputation, no pairs."""
        return TrainingPlan(
            parallelism=ParallelismConfig(dp=1, tp=tp, pp=pp),
            tp_shape=tp_shape,
            collective=collective,
            split_strategy=split_strategy,
            recompute=RecomputeConfig.none(pp),
            placement=serpentine_placement(self.wafer.dies_x, self.wafer.dies_y, tp_shape, pp),
        )

    def build_plan(
        self,
        workload: TrainingWorkload,
        tp: int,
        pp: int,
        split_strategy: TPSplitStrategy = TPSplitStrategy.HIDDEN,
        collective: Optional[CollectiveAlgorithm] = None,
        *,
        downstream: Optional[bool] = None,
    ) -> Optional[TrainingPlan]:
        """Build the best plan the deterministic schedulers produce for a (TP, PP) pair.

        ``downstream`` is :meth:`needs_downstream`'s answer for the split, when the
        caller already has it.  Returns ``None`` when the configuration cannot be made
        memory-feasible even with full recomputation and checkpoint balancing.
        """
        chosen_collective = collective or self.collective
        tp_shape = self._tp_shape(tp)
        if tp_shape is None:
            return None
        num_microbatches = workload.num_microbatches(1)
        if downstream is None:
            downstream = self.needs_downstream(workload, tp, pp, num_microbatches)
        if not downstream:
            return self._ideal_plan(tp, pp, tp_shape, split_strategy, chosen_collective)

        gcmr = self._gcmr.schedule(workload, tp, pp, num_microbatches)
        if not gcmr.feasible:
            return None

        capacity = self.wafer.die.dram_capacity
        sender_overflow = {
            s: gcmr.stage_memory_bytes[s] - capacity
            for s in gcmr.senders
            if gcmr.stage_memory_bytes[s] > capacity
        }
        helper_spare = {
            s: capacity - gcmr.stage_memory_bytes[s]
            for s in gcmr.helpers
            if gcmr.stage_memory_bytes[s] < capacity
        }

        if self.optimize_placement and sender_overflow:
            optimizer = PlacementOptimizer(self._mesh)
            placement = optimizer.optimize(tp_shape, pp, gcmr.mem_pairs)
        else:
            placement = serpentine_placement(self.wafer.dies_x, self.wafer.dies_y, tp_shape, pp)

        allocator = DramAllocator(placement)
        allocation = allocator.allocate(sender_overflow, helper_spare)
        if not allocation.feasible:
            return None

        return TrainingPlan(
            parallelism=ParallelismConfig(dp=1, tp=tp, pp=pp),
            tp_shape=tp_shape,
            collective=chosen_collective,
            split_strategy=split_strategy,
            recompute=gcmr.recompute,
            placement=placement,
            mem_pairs=allocation.pairs,
        )

    # ------------------------------------------------------------------ exploration
    def _splits(
        self, workload: TrainingWorkload, model_parallel_dies: Optional[int]
    ) -> List[Split]:
        """Alg. 1's (TP, PP, split-strategy) candidates in enumeration order (lines 1–4)."""
        mp = model_parallel_dies or self.wafer.num_dies
        if mp > self.wafer.num_dies:
            raise ValueError("model-parallel dies exceed the wafer's die count")
        if self.prunes(workload, mp):
            return []
        return [
            (tp, pp, strategy)
            for tp, pp in enumerate_tp_pp(mp, workload.model.num_layers, max_tp=self.max_tp)
            for strategy in self.split_strategies
        ]

    def _collectives(self) -> Tuple[CollectiveAlgorithm, ...]:
        return tuple(self.search_collectives) or (self.collective,)

    def _priced(
        self, workload: TrainingWorkload, plan: TrainingPlan, evaluator: Evaluator, pruned: bool
    ) -> List[ExplorationRecord]:
        """``plan`` stamped with each searched collective, priced on ``evaluator``.

        GCMR, placement and DRAM allocation never read the collective, so a split's
        plan is built once and each searched collective stamped onto it.
        """
        return [
            ExplorationRecord(plan=stamped, result=evaluator.evaluate(workload, stamped),
                              pruned=pruned)
            for stamped in (replace(plan, collective=c) for c in self._collectives())
        ]

    def explore(
        self, workload: TrainingWorkload, model_parallel_dies: Optional[int] = None
    ) -> List[ExplorationRecord]:
        """Evaluate every surviving (TP, PP, split-strategy) candidate, in order.

        Exhaustive: nothing is pruned beyond Alg. 1 lines 1–2 (:meth:`prunes`).
        """
        records: List[ExplorationRecord] = []
        for tp, pp, strategy in self._splits(workload, model_parallel_dies):
            plan = self.build_plan(workload, tp, pp, strategy, self._collectives()[0])
            if plan is not None:
                records.extend(self._priced(workload, plan, self.evaluator, pruned=False))
        return records

    def search(
        self, workload: TrainingWorkload, model_parallel_dies: Optional[int] = None
    ) -> List[ExplorationRecord]:
        """:meth:`explore` with Alg. 1's early pruning (the bound :meth:`best` describes).

        Splits that fit without the downstream schedulers are built and priced first,
        in enumeration order.  The memory-tight ones follow in decreasing bound order;
        one whose bound is strictly below the best plan found so far is not built.  The
        records come in enumeration order: :meth:`explore`'s, except that a skipped
        split is listed, once per searched collective, as its ideal plan priced with
        unbounded DRAM and ``pruned=True``.  An evaluator with faults gets
        :meth:`explore`'s records.
        """
        if not self.evaluator.faults.is_empty:
            return self.explore(workload, model_parallel_dies)
        collective = self._collectives()[0]
        num_microbatches = workload.num_microbatches(1)
        slots: List[List[ExplorationRecord]] = []  # each split's records
        tight: List[Tuple[float, int, Split, List[ExplorationRecord]]] = []
        best = -math.inf  # the best feasible throughput built so far
        for tp, pp, strategy in self._splits(workload, model_parallel_dies):
            tp_shape = self._tp_shape(tp)
            if tp_shape is None:
                continue
            slots.append([])
            if not self.needs_downstream(workload, tp, pp, num_microbatches):
                plan = self.build_plan(workload, tp, pp, strategy, collective, downstream=False)
                slots[-1] = self._priced(workload, plan, self.evaluator, pruned=False)
                best = max([best] + [r.throughput for r in slots[-1] if not r.result.oom])
                continue
            ideal = self._ideal_plan(tp, pp, tp_shape, strategy, collective)
            bounds = self._priced(workload, ideal, self._bounds(), pruned=True)
            bound = max(record.throughput for record in bounds)
            tight.append((bound, len(slots) - 1, (tp, pp, strategy), bounds))
        # The sort is stable: equal bounds keep enumeration order.
        for bound, slot, (tp, pp, strategy), bounds in sorted(tight, key=lambda t: -t[0]):
            if bound < best:
                slots[slot] = bounds
                continue
            plan = self.build_plan(workload, tp, pp, strategy, collective, downstream=True)
            if plan is not None:
                slots[slot] = self._priced(workload, plan, self.evaluator, pruned=False)
                best = max([best] + [r.throughput for r in slots[slot] if not r.result.oom])
        return [record for records in slots for record in records]

    def best(
        self, workload: TrainingWorkload, model_parallel_dies: Optional[int] = None
    ) -> Optional[ExplorationRecord]:
        """The highest-throughput record, or ``None`` when nothing fits.

        Ties go to the first record in enumeration order, so this is exactly the best
        of :meth:`explore`'s records; :meth:`search`'s early pruning cannot change it.

        The bound is admissible on a healthy mesh.  A memory-tight split's built plan
        differs from its ideal plan in three ways, and each can only lengthen the
        iteration:

        * GCMR recomputation adds to a stage's time and never shortens one;
        * Mem_pair balancing traffic is routed after the pipeline traffic, so it keeps
          the pipeline routes, can only add load to their links, and adds its own
          exposed time;
        * Eq. 2 placement permutes the serpentine blocks.  Consecutive serpentine
          blocks are mesh-adjacent, so each serpentine boundary is one hop carrying
          only its own activation, the least any boundary of any placement costs.

        The 1F1B makespan is monotone in every stage and boundary time, DRAM capacity
        enters no time, and both plans do the same useful work, so no built plan's
        throughput exceeds its bound.  A skipped split's bound is strictly below a plan
        already built, so none of its plans could be, or tie, the maximum.  On a
        faulted mesh adjacent blocks may be joined only by degraded links, so an
        evaluator with faults is searched exhaustively.
        """
        return best_record(self.search(workload, model_parallel_dies))
