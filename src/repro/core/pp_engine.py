"""PP execution engine: inter-stage communication planning (paper §IV-E-2, Fig. 13).

The PP engine identifies every inter-stage communication task — activation transfers
between adjacent pipeline stages and checkpoint-balancing transfers between Mem_pair
stages — routes each on the mesh, and assigns tasks to links in order of size while
penalising links that already carry traffic.  The result is the per-boundary transfer
time the pipeline simulator uses and the conflict count γ that feeds Eq. 2.

On a healthy mesh (an empty fault model) a routed plan depends only on its arguments,
so each engine routes every distinct (placement, activation bytes, Mem_pairs, DRAM time)
once; a mesh with faults is routed on every call, so in-place fault injection is seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.plan import MemPair, StagePlacement
from repro.interconnect.routing import LinkLoadTracker, fault_aware_path, xy_path
from repro.interconnect.topology import MeshTopology
from repro.units import FP16_BYTES

Coord = Tuple[int, int]

#: Healthy-mesh plans one engine remembers; a full memo starts over.
ROUTE_MEMO_SIZE = 1024


@dataclass(frozen=True)
class CommTask:
    """One inter-stage communication task (pipeline transfer or checkpoint balancing)."""

    kind: str  # "pipeline" | "balance"
    src_stage: int
    dst_stage: int
    size_bytes: float
    path: Tuple[Coord, ...]
    conflicts: int

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


@dataclass(frozen=True)
class InterStageCommPlan:
    """The routed communication plan of one candidate placement."""

    tasks: Tuple[CommTask, ...]
    boundary_times: Tuple[float, ...]
    balance_exposed_time: float
    link_utilization: float
    total_hops: int

    @property
    def total_conflicts(self) -> int:
        return sum(task.conflicts for task in self.tasks)

    @property
    def pipeline_hops(self) -> int:
        return sum(task.hops for task in self.tasks if task.kind == "pipeline")

    @property
    def balance_hops(self) -> int:
        return sum(task.hops for task in self.tasks if task.kind == "balance")


class PPEngine:
    """Routes and prices inter-stage communication on the wafer mesh."""

    #: Fraction of a checkpoint-balancing transfer that cannot be hidden behind DRAM
    #: access per hop / per conflicting link.  Balancing is DRAM-bound on a WSC
    #: (§IV-C-2) so only routing distance and contention leak into the critical path.
    BALANCE_EXPOSURE_PER_HOP = 0.02
    BALANCE_EXPOSURE_PER_CONFLICT = 0.10

    def __init__(self, mesh: MeshTopology) -> None:
        self.mesh = mesh
        self._healthy_plans: Dict[Tuple, InterStageCommPlan] = {}

    # ------------------------------------------------------------------ task building
    def _route(self, tracker: LinkLoadTracker, src: Coord, dst: Coord) -> Tuple[Tuple[Coord, ...], int]:
        """Pick the cheapest path: prefer an unconflicted shortest path when one exists."""
        if src == dst:
            return (src,), 0
        candidates: List[Sequence[Coord]] = [xy_path(src, dst)]
        # Also consider the YX route; on a mesh it is the other canonical shortest path.
        yx = list(reversed(xy_path(dst, src)))
        if yx != candidates[0]:
            candidates.append(yx)
        if not self.mesh.faults.is_empty:
            candidates = [fault_aware_path(self.mesh, src, dst)]
        scored = [(tracker.conflicts(path), len(path), tuple(path)) for path in candidates]
        conflicts, _, path = min(scored)
        return path, conflicts

    def plan(
        self,
        placement: StagePlacement,
        activation_bytes: float,
        mem_pairs: Sequence[MemPair] = (),
        microbatch_dram_time: float = 0.0,
    ) -> InterStageCommPlan:
        """Route pipeline and balancing traffic for a placement.

        Parameters
        ----------
        placement:
            Stage → dies assignment.
        activation_bytes:
            Per-micro-batch activation transferred across each pipeline boundary.
        mem_pairs:
            Sender→Helper checkpoint-balancing pairs with their byte volumes (per
            iteration).
        microbatch_dram_time:
            Time one micro-batch's checkpoint write already spends in DRAM; balancing
            traffic overlaps with it and only the exposure fractions leak out.
        """
        if not self.mesh.faults.is_empty:
            return self._route_plan(placement, activation_bytes, mem_pairs, microbatch_dram_time)
        key = (placement, activation_bytes, tuple(mem_pairs), microbatch_dram_time)
        try:
            plan = self._healthy_plans.get(key)
        except TypeError:  # a placement built on lists does not hash
            return self._route_plan(placement, activation_bytes, mem_pairs, microbatch_dram_time)
        if plan is None:
            plan = self._route_plan(placement, activation_bytes, mem_pairs, microbatch_dram_time)
            if len(self._healthy_plans) >= ROUTE_MEMO_SIZE:
                self._healthy_plans.clear()
            self._healthy_plans[key] = plan
        return plan

    def _route_plan(
        self,
        placement: StagePlacement,
        activation_bytes: float,
        mem_pairs: Sequence[MemPair],
        microbatch_dram_time: float,
    ) -> InterStageCommPlan:
        """The routing pass behind :meth:`plan`."""
        if activation_bytes < 0:
            raise ValueError("activation size cannot be negative")
        pp = placement.num_stages
        tracker = LinkLoadTracker(self.mesh)
        tasks: List[CommTask] = []

        # Pipeline transfers between adjacent stages, largest first (they are all equal
        # here, so order by stage index for determinism).
        boundary_paths: List[Tuple[Tuple[Coord, ...], int]] = []
        for stage in range(pp - 1):
            src, dst = placement.boundary_dies(stage, stage + 1)
            path, conflicts = self._route(tracker, src, dst)
            tracker.add_path(path, activation_bytes)
            tasks.append(
                CommTask("pipeline", stage, stage + 1, activation_bytes, path, conflicts)
            )
            boundary_paths.append((path, conflicts))

        # Checkpoint-balancing transfers, largest volume first (§IV-E-2's size ordering).
        balance_exposed = 0.0
        for pair in sorted(mem_pairs, key=lambda p: -p.bytes_moved):
            if pair.bytes_moved == 0:
                continue
            src, dst = placement.boundary_dies(pair.sender_stage, pair.helper_stage)
            path, conflicts = self._route(tracker, src, dst)
            tracker.add_path(path, pair.bytes_moved)
            task = CommTask(
                "balance", pair.sender_stage, pair.helper_stage, pair.bytes_moved, path, conflicts
            )
            tasks.append(task)
            hops = task.hops
            exposure = (
                self.BALANCE_EXPOSURE_PER_HOP * hops
                + self.BALANCE_EXPOSURE_PER_CONFLICT * conflicts
            )
            transfer_time = pair.bytes_moved / self.mesh.link_bandwidth
            # The bulk of the transfer hides behind the checkpoint's own DRAM write; only
            # the routing/contention exposure reaches the critical path.
            hidden = min(transfer_time, microbatch_dram_time)
            balance_exposed += (transfer_time - hidden) * 0.5 + transfer_time * exposure

        # Per-boundary transfer time including contention from everything routed above.
        # Traffic forced across failed links is priced at a 5% quality floor rather than
        # rejected, mirroring the degraded-but-functional behaviour of §VI-D.
        boundary_times: List[float] = []
        for stage, (path, _) in enumerate(boundary_paths):
            boundary_times.append(
                tracker.congestion_time(activation_bytes, path, min_quality=0.05)
            )

        return InterStageCommPlan(
            tasks=tuple(tasks),
            boundary_times=tuple(boundary_times),
            balance_exposed_time=balance_exposed,
            link_utilization=tracker.utilization(),
            total_hops=sum(task.hops for task in tasks),
        )

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def activation_bytes(workload, tp: int = 1) -> float:
        """Per-micro-batch activation crossing a pipeline boundary (full hidden state)."""
        return float(
            workload.micro_batch_size
            * workload.seq_len
            * workload.model.hidden_size
            * FP16_BYTES
        )
