"""Early-pruning central scheduler (paper §IV-A, Alg. 1).

The central scheduler owns the outer loop of the co-exploration engine for one wafer
configuration: it enumerates feasible (TP, PP) splits of the model-parallel dies,
prunes candidates whose modelP cannot possibly fit the aggregate DRAM, delegates
memory-tight candidates to the downstream schedulers (GCMR recomputation, placement and
DRAM allocation), evaluates every surviving plan and keeps the best.  Plans are priced
in the calling process: a paper-scale search has a dozen or so candidates, too few to
pay for shipping them to workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

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


@dataclass(frozen=True)
class ExplorationRecord:
    """One evaluated point of the (TP, PP, split-strategy) space."""

    plan: TrainingPlan
    result: EvaluationResult

    @property
    def throughput(self) -> float:
        return self.result.throughput


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
        capacity = self.wafer.die.dram_capacity
        breakdown = memory.pipeline_breakdown(
            pp, tp, workload.micro_batch_size, workload.seq_len, num_microbatches
        )
        return any(stage.total_bytes > capacity for stage in breakdown)

    # ------------------------------------------------------------------ plan building
    def build_plan(
        self,
        workload: TrainingWorkload,
        tp: int,
        pp: int,
        split_strategy: TPSplitStrategy = TPSplitStrategy.HIDDEN,
        collective: Optional[CollectiveAlgorithm] = None,
    ) -> Optional[TrainingPlan]:
        """Build the best plan the deterministic schedulers produce for a (TP, PP) pair.

        Returns ``None`` when the configuration cannot be made memory-feasible even with
        full recomputation and checkpoint balancing.
        """
        chosen_collective = collective or self.collective
        try:
            tp_shape = best_mesh_shape(tp, self.wafer.dies_x, self.wafer.dies_y)
        except ValueError:
            return None
        num_microbatches = workload.num_microbatches(1)
        parallelism = ParallelismConfig(dp=1, tp=tp, pp=pp)

        if not self.needs_downstream(workload, tp, pp, num_microbatches):
            placement = serpentine_placement(self.wafer.dies_x, self.wafer.dies_y, tp_shape, pp)
            return TrainingPlan(
                parallelism=parallelism,
                tp_shape=tp_shape,
                collective=chosen_collective,
                split_strategy=split_strategy,
                recompute=RecomputeConfig.none(pp),
                placement=placement,
            )

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
            parallelism=parallelism,
            tp_shape=tp_shape,
            collective=chosen_collective,
            split_strategy=split_strategy,
            recompute=gcmr.recompute,
            placement=placement,
            mem_pairs=allocation.pairs,
        )

    # ------------------------------------------------------------------ exploration
    def explore(
        self, workload: TrainingWorkload, model_parallel_dies: Optional[int] = None
    ) -> List[ExplorationRecord]:
        """Evaluate every surviving (TP, PP, split-strategy) candidate, in order."""
        mp = model_parallel_dies or self.wafer.num_dies
        if mp > self.wafer.num_dies:
            raise ValueError("model-parallel dies exceed the wafer's die count")
        if self.prunes(workload, mp):
            return []
        collectives = tuple(self.search_collectives) or (self.collective,)
        plans: List[TrainingPlan] = []
        for tp, pp in enumerate_tp_pp(mp, workload.model.num_layers, max_tp=self.max_tp):
            for strategy in self.split_strategies:
                # GCMR, placement and DRAM allocation never read the collective, so the
                # plan is built once and each searched collective stamped onto it.
                plan = self.build_plan(workload, tp, pp, strategy, collectives[0])
                if plan is not None:
                    plans.extend(replace(plan, collective=c) for c in collectives)
        return [
            ExplorationRecord(plan=plan, result=self.evaluator.evaluate(workload, plan))
            for plan in plans
        ]

    def best(
        self, workload: TrainingWorkload, model_parallel_dies: Optional[int] = None
    ) -> Optional[ExplorationRecord]:
        """The highest-throughput record, or ``None`` when everything was pruned."""
        records = [
            record
            for record in self.explore(workload, model_parallel_dies)
            if not record.result.oom
        ]
        if not records:
            return None
        return max(records, key=lambda record: record.throughput)
