"""Memory scheduler, part 2: location-aware DRAM capacity allocation (paper Alg. 3).

Given the Senders (stages whose post-recomputation footprint exceeds the per-die DRAM)
and Helpers (stages with slack), the allocator decides *which* Helper DRAM hosts each
Sender's overflow so that the checkpoint-balancing traffic travels the shortest possible
distance and avoids paths already used by the pipeline.  The priority queue is ordered by
the same distance/conflict cost that Eq. 2 uses, and Helpers are re-inserted with their
reduced remaining capacity after a partial allocation, exactly as in Alg. 3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.placement import block_geometry
from repro.core.plan import MemPair, StagePlacement


@dataclass(frozen=True)
class DramAllocation:
    """The fine-grained Sender→Helper allocation."""

    pairs: Tuple[MemPair, ...]
    unplaced_bytes: float

    @property
    def feasible(self) -> bool:
        return self.unplaced_bytes <= 1e-6

    @property
    def total_bytes(self) -> float:
        return sum(pair.bytes_moved for pair in self.pairs)


class DramAllocator:
    """Allocates overflow checkpoints to Helper DRAMs, location-aware."""

    def __init__(self, placement: StagePlacement) -> None:
        self.placement = placement
        # The Eq. 2 geometry table that placement and GA fitness also read; stage ``s``
        # sits on table row ``self._at[s]``.
        self._geometry = block_geometry(placement.stage_dies)
        self._at = self._geometry.locate(placement.stage_dies)
        # Links used by the pipeline path; balance paths crossing them are penalised.
        self._pipeline_links = self._geometry.pipeline_links(self._at)

    def _cost(self, sender: int, helper: int) -> float:
        """Distance plus conflict penalty between a Sender and a candidate Helper."""
        distance, links = self._geometry.pair(self._at[sender], self._at[helper])
        gamma = (links & self._pipeline_links).bit_count()
        return distance * (1.0 + gamma)

    def allocate(
        self,
        sender_overflow: Dict[int, float],
        helper_spare: Dict[int, float],
    ) -> DramAllocation:
        """Assign every Sender's overflow bytes to Helper DRAMs (Alg. 3).

        Parameters
        ----------
        sender_overflow:
            stage → bytes exceeding its per-die capacity.
        helper_spare:
            stage → bytes of free DRAM available to host other stages' checkpoints.
        """
        for stage, value in list(sender_overflow.items()) + list(helper_spare.items()):
            if value < 0:
                raise ValueError(f"stage {stage} has a negative byte amount")
        remaining = dict(helper_spare)
        pairs: List[MemPair] = []
        unplaced = 0.0

        # Largest overflow first, mirroring the DescendSort of Alg. 2 line 12.
        for sender in sorted(sender_overflow, key=lambda s: -sender_overflow[s]):
            need = sender_overflow[sender]
            if need <= 0:
                continue
            queue: List[Tuple[float, int]] = [
                (self._cost(sender, helper), helper)
                for helper, spare in remaining.items()
                if spare > 0 and helper != sender
            ]
            heapq.heapify(queue)
            while need > 1e-9 and queue:
                _, helper = heapq.heappop(queue)
                spare = remaining.get(helper, 0.0)
                if spare <= 1e-9:
                    continue
                moved = min(need, spare)
                pairs.append(MemPair(sender, helper, moved))
                remaining[helper] = spare - moved
                need -= moved
                if remaining[helper] > 1e-9:
                    # Re-insert the partially used Helper (Alg. 3 line 8).
                    heapq.heappush(queue, (self._cost(sender, helper), helper))
            unplaced += max(0.0, need)

        return DramAllocation(pairs=tuple(pairs), unplaced_bytes=unplaced)

    @staticmethod
    def from_mem_pairs(pairs: Sequence[MemPair]) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Recover sender-overflow / helper-spare dictionaries from an existing pairing."""
        senders: Dict[int, float] = {}
        helpers: Dict[int, float] = {}
        for pair in pairs:
            senders[pair.sender_stage] = senders.get(pair.sender_stage, 0.0) + pair.bytes_moved
            helpers[pair.helper_stage] = helpers.get(pair.helper_stage, 0.0) + pair.bytes_moved
        return senders, helpers
