"""GCMR: globally coordinated memory-efficient recomputation (paper §IV-B, Alg. 2).

The scheduler decides, per pipeline stage, which operator units to recompute so that

* the *wafer-wide* memory budget is respected (checkpoints may later be balanced across
  stages, so the binding constraint is the aggregate, not the per-stage capacity), and
* the maximum per-stage execution time — the quantity that sets the 1F1B critical path —
  is minimised.

Per stage the candidate recomputation sets form a monotone frontier: operators are added
in order of bytes-saved per second of recompute time, so option ``k`` recomputes the
``k`` most "profitable" operators.  Minimising the maximum stage time subject to the
aggregate memory budget is then a parametric search over the candidate stage times.

After the recomputation choice, stages whose footprint still exceeds the per-die DRAM
are marked **Senders** and stages with slack are **Helpers**; the greedy pairing produces
the Mem_pair set that the memory scheduler (placement + DRAM allocation) refines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.plan import MemPair, RecomputeConfig
from repro.core.tp_engine import TPEngine
from repro.hardware.template import WaferConfig
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.operators import Operator
from repro.workloads.workload import TrainingWorkload


@dataclass(frozen=True)
class StageOption:
    """One point on a stage's recomputation frontier."""

    recomputed: FrozenSet[str]
    memory_bytes: float
    stage_time: float


@dataclass(frozen=True)
class GcmrPlan:
    """Result of the GCMR scheduler for one (TP, PP) configuration."""

    recompute: RecomputeConfig
    mem_pairs: Tuple[MemPair, ...]
    stage_memory_bytes: Tuple[float, ...]
    senders: Tuple[int, ...]
    helpers: Tuple[int, ...]
    max_stage_time: float
    feasible: bool

    @property
    def total_balanced_bytes(self) -> float:
        return sum(pair.bytes_moved for pair in self.mem_pairs)


class GcmrScheduler:
    """Builds memory-feasible recomputation plans with minimal pipeline impact."""

    def __init__(self, wafer: WaferConfig, tp_engine: Optional[TPEngine] = None) -> None:
        self.wafer = wafer
        self.tp_engine = tp_engine or TPEngine(wafer)

    # ------------------------------------------------------------------ frontiers
    def _frontiers(
        self,
        workload: TrainingWorkload,
        tp: int,
        pp: int,
        num_microbatches: int,
    ) -> List[List[StageOption]]:
        """Every stage's monotone recomputation frontier (option 0 = no recompute).

        Option ``k`` recomputes, in every stage, the ``k`` recomputable operators that
        save the most checkpoint bytes per second of recompute latency, so the order,
        the prefix sets and their checkpoint fractions are built once.  A stage's time
        depends only on its layer count and whether it is an edge stage (at most four
        signatures per split), and only the checkpoint term of its footprint depends
        on the fraction, so each stage costs one
        :meth:`~TrainingMemoryModel.stage_breakdown`.  Bit-identical to
        :meth:`_stage_options_reference` per stage.
        """
        memory = TrainingMemoryModel(workload.model)
        operators = workload.layer_operators()

        def efficiency(op: Operator) -> float:
            latency = self.tp_engine.profile.latency(op.sharded(tp))
            return op.checkpoint_bytes / (latency + 1e-12)

        ordered = sorted(
            (op for op in operators if op.recomputable), key=efficiency, reverse=True
        )
        prefixes = [frozenset(op.name for op in ordered[:k]) for k in range(len(ordered) + 1)]
        fractions = [
            RecomputeConfig(stages=(names,)).recompute_fraction(0, operators)
            for names in prefixes
        ]
        layers = memory.layers_per_stage(pp)
        times_by_signature: Dict[Tuple[int, bool], List[float]] = {}
        frontiers: List[List[StageOption]] = []
        for stage in range(pp):
            signature = (layers[stage], stage == 0 or stage == pp - 1)
            times = times_by_signature.get(signature)
            if times is None:
                times = times_by_signature[signature] = []
                for names in prefixes:
                    priced = self.tp_engine.stage_times(
                        workload, stage, layers[stage], tp, pp, recomputed_ops=names
                    )
                    times.append(priced.forward + priced.backward_total)
            footprints = memory.stage_footprints(
                stage, pp, tp, workload.micro_batch_size, workload.seq_len,
                num_microbatches, fractions,
            )
            frontiers.append([
                StageOption(recomputed=names, memory_bytes=footprint, stage_time=seconds)
                for names, footprint, seconds in zip(prefixes, footprints, times)
            ])
        return frontiers

    def _stage_options_reference(
        self,
        workload: TrainingWorkload,
        stage: int,
        tp: int,
        pp: int,
        num_microbatches: int,
    ) -> List[StageOption]:
        """One stage's frontier built from scratch: the oracle :meth:`_frontiers`
        is tested against (``tests/test_gcmr_frontier.py``)."""
        memory = TrainingMemoryModel(workload.model)
        operators = workload.layer_operators()
        recomputable = [op for op in operators if op.recomputable]
        # Order by checkpoint bytes saved per second of recompute latency (best first).
        def efficiency(op: Operator) -> float:
            latency = self.tp_engine.profile.latency(op.sharded(tp))
            return op.checkpoint_bytes / (latency + 1e-12)

        ordered = sorted(recomputable, key=efficiency, reverse=True)

        options: List[StageOption] = []
        for k in range(len(ordered) + 1):
            names = frozenset(op.name for op in ordered[:k])
            fraction = RecomputeConfig.uniform(pp, names).recompute_fraction(stage, operators)
            breakdown = memory.stage_breakdown(
                stage,
                pp,
                tp,
                workload.micro_batch_size,
                workload.seq_len,
                num_microbatches,
                recompute_fraction=fraction,
            )
            layers = memory.layers_per_stage(pp)[stage]
            times = self.tp_engine.stage_times(
                workload, stage, layers, tp, pp, recomputed_ops=names
            )
            options.append(
                StageOption(
                    recomputed=names,
                    memory_bytes=breakdown.total_bytes,
                    stage_time=times.forward + times.backward_total,
                )
            )
        return options

    # ------------------------------------------------------------------ scheduling
    def schedule(
        self,
        workload: TrainingWorkload,
        tp: int,
        pp: int,
        num_microbatches: Optional[int] = None,
    ) -> GcmrPlan:
        """Choose per-stage recomputation and Sender/Helper pairs for a (TP, PP) split."""
        if tp <= 0 or pp <= 0:
            raise ValueError("parallelism degrees must be positive")
        n = num_microbatches or workload.num_microbatches(1)
        capacity = self.wafer.die.dram_capacity
        wafer_budget = capacity * pp

        frontiers = self._frontiers(workload, tp, pp, n)

        # Candidate maximum stage times: every option's time is a potential optimum.
        candidates = sorted({opt.stage_time for frontier in frontiers for opt in frontier})
        chosen: Optional[List[StageOption]] = None
        for threshold in candidates:
            selection: List[StageOption] = []
            feasible = True
            for frontier in frontiers:
                allowed = [opt for opt in frontier if opt.stage_time <= threshold + 1e-12]
                if not allowed:
                    feasible = False
                    break
                # Under the time budget, take the option with the smallest footprint.
                selection.append(min(allowed, key=lambda opt: opt.memory_bytes))
            if not feasible:
                continue
            if sum(opt.memory_bytes for opt in selection) <= wafer_budget:
                chosen = self._relax_unnecessary_recompute(
                    frontiers, selection, threshold, wafer_budget
                )
                break

        if chosen is None:
            # Even full recomputation everywhere does not fit the wafer.
            full = [frontier[-1] for frontier in frontiers]
            recompute = RecomputeConfig(stages=tuple(opt.recomputed for opt in full))
            return GcmrPlan(
                recompute=recompute,
                mem_pairs=(),
                stage_memory_bytes=tuple(opt.memory_bytes for opt in full),
                senders=(),
                helpers=(),
                max_stage_time=max(opt.stage_time for opt in full),
                feasible=False,
            )

        recompute = RecomputeConfig(stages=tuple(opt.recomputed for opt in chosen))
        stage_memory = [opt.memory_bytes for opt in chosen]
        senders, helpers, pairs = self._pair_stages(stage_memory, capacity)
        return GcmrPlan(
            recompute=recompute,
            mem_pairs=tuple(pairs),
            stage_memory_bytes=tuple(stage_memory),
            senders=tuple(senders),
            helpers=tuple(helpers),
            max_stage_time=max(opt.stage_time for opt in chosen),
            feasible=True,
        )

    @staticmethod
    def _relax_unnecessary_recompute(
        frontiers: Sequence[Sequence[StageOption]],
        selection: List[StageOption],
        threshold: float,
        wafer_budget: float,
    ) -> List[StageOption]:
        """Drop recomputation that the memory budget does not actually require.

        The feasibility pass picks the *smallest-footprint* option per stage, which can
        over-recompute when memory is plentiful; this pass walks every stage back to the
        least-recompute option that keeps the aggregate within budget and the stage time
        within the chosen threshold.
        """
        relaxed = list(selection)
        for index, frontier in enumerate(frontiers):
            others = sum(opt.memory_bytes for s, opt in enumerate(relaxed) if s != index)
            for option in frontier:  # frontier is ordered from no-recompute upwards
                if option.stage_time > threshold + 1e-12:
                    continue
                if others + option.memory_bytes <= wafer_budget:
                    relaxed[index] = option
                    break
        return relaxed

    # ------------------------------------------------------------------ pairing
    @staticmethod
    def _pair_stages(
        stage_memory: Sequence[float], capacity: float
    ) -> Tuple[List[int], List[int], List[MemPair]]:
        """Greedy Sender→Helper pairing (Alg. 2 lines 9–14)."""
        overflow = {s: m - capacity for s, m in enumerate(stage_memory) if m > capacity}
        spare = {s: capacity - m for s, m in enumerate(stage_memory) if m < capacity}
        senders = sorted(overflow, key=lambda s: -overflow[s])
        helpers = sorted(spare, key=lambda s: -spare[s])
        pairs: List[MemPair] = []
        spare_left = dict(spare)
        for sender in senders:
            need = overflow[sender]
            for helper in helpers:
                if need <= 1e-9:
                    break
                available = spare_left.get(helper, 0.0)
                if available <= 1e-9:
                    continue
                moved = min(need, available)
                pairs.append(MemPair(sender, helper, moved))
                spare_left[helper] = available - moved
                need -= moved
        return senders, helpers, pairs

    # ------------------------------------------------------------------ naive baseline
    def naive_full_recompute(
        self, workload: TrainingWorkload, tp: int, pp: int
    ) -> RecomputeConfig:
        """The naive strategy of Fig. 8a: recompute everything recomputable, everywhere."""
        operators = workload.layer_operators()
        return RecomputeConfig.full(pp, operators)
