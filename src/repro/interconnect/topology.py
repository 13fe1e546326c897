"""Interconnect topologies: the wafer 2D mesh, the mesh-switch variant and multi-wafer nodes.

The wafer-level interconnect is a 2D mesh of die-to-die links (Fig. 3).  The mesh-switch
topology of §VI-E arranges dies in small meshes that hang off a central switch network,
and the multi-wafer node of §VI-F connects several wafers with a lower-bandwidth
wafer-to-wafer fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hardware.faults import FaultModel
from repro.hardware.template import WaferConfig
from repro.interconnect.alphabeta import AlphaBetaLink

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


def _canonical(link: Link) -> Link:
    a, b = link
    return (a, b) if a <= b else (b, a)


@dataclass
class MeshTopology:
    """A ``dies_x`` × ``dies_y`` 2D mesh of dies with uniform D2D links."""

    dies_x: int
    dies_y: int
    link_bandwidth: float
    link_latency: float = 100e-9
    faults: FaultModel = field(default_factory=FaultModel)

    def __post_init__(self) -> None:
        if self.dies_x <= 0 or self.dies_y <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.link_bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")

    @classmethod
    def from_wafer(cls, wafer: WaferConfig, faults: Optional[FaultModel] = None) -> "MeshTopology":
        """Build the mesh described by a wafer configuration."""
        return cls(
            dies_x=wafer.dies_x,
            dies_y=wafer.dies_y,
            link_bandwidth=wafer.die.d2d_link_bandwidth,
            link_latency=wafer.die.d2d_latency,
            faults=faults or FaultModel(),
        )

    # ------------------------------------------------------------------ structure
    @property
    def num_dies(self) -> int:
        return self.dies_x * self.dies_y

    def dies(self) -> List[Coord]:
        return [(x, y) for y in range(self.dies_y) for x in range(self.dies_x)]

    def healthy_dies(self) -> List[Coord]:
        """Dies that are not completely failed."""
        return [d for d in self.dies() if self.faults.die_throughput(d) > 0.0]

    def contains(self, die: Coord) -> bool:
        x, y = die
        return 0 <= x < self.dies_x and 0 <= y < self.dies_y

    def neighbors(self, die: Coord) -> List[Coord]:
        x, y = die
        candidates = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
        return [c for c in candidates if self.contains(c)]

    def links(self) -> List[Link]:
        out: List[Link] = []
        for x in range(self.dies_x):
            for y in range(self.dies_y):
                if x + 1 < self.dies_x:
                    out.append(((x, y), (x + 1, y)))
                if y + 1 < self.dies_y:
                    out.append(((x, y), (x, y + 1)))
        return out

    def link(self, a: Coord, b: Coord) -> AlphaBetaLink:
        """The (possibly degraded) link between two adjacent dies."""
        if b not in self.neighbors(a):
            raise ValueError(f"dies {a} and {b} are not adjacent")
        quality = self.faults.link_quality(_canonical((a, b)))
        if quality <= 0.0:
            raise ValueError(f"link {a}-{b} has failed")
        base = AlphaBetaLink(self.link_bandwidth, self.link_latency)
        return base if quality == 1.0 else base.degraded(quality)

    def link_quality(self, a: Coord, b: Coord) -> float:
        return self.faults.link_quality(_canonical((a, b)))

    def healthy_adjacency(self) -> Dict[Coord, List[Coord]]:
        """Each working die's neighbours over working links, in :meth:`links` order.

        Dead dies are absent, and so is every link of quality zero (a dead endpoint
        zeroes it).  Built afresh on each call: the fault model is mutated in place.
        """
        adjacency: Dict[Coord, List[Coord]] = {die: [] for die in self.healthy_dies()}
        for a, b in self.links():
            if self.faults.link_quality((a, b)) > 0.0:
                adjacency[a].append(b)
                adjacency[b].append(a)
        return adjacency

    def bisection_bandwidth(self) -> float:
        """Bandwidth across the narrower mid-cut of the mesh."""
        cut_links = min(self.dies_x, self.dies_y)
        return cut_links * self.link_bandwidth


@dataclass
class MeshSwitchTopology:
    """Several small meshes attached to a central switch network (§VI-E, Fig. 23a).

    ``group_shape`` is the (x, y) shape of each local mesh; ``num_groups`` of them are
    connected through a switch of ``switch_bandwidth`` aggregate bandwidth.
    """

    num_groups: int
    group_shape: Tuple[int, int]
    link_bandwidth: float
    switch_bandwidth: float
    link_latency: float = 100e-9
    switch_latency: float = 300e-9

    def __post_init__(self) -> None:
        if self.num_groups <= 0:
            raise ValueError("need at least one mesh group")
        if self.switch_bandwidth <= 0:
            raise ValueError("switch bandwidth must be positive")

    @property
    def dies_per_group(self) -> int:
        return self.group_shape[0] * self.group_shape[1]

    @property
    def num_dies(self) -> int:
        return self.num_groups * self.dies_per_group

    def group_mesh(self) -> MeshTopology:
        """The local mesh inside one group."""
        return MeshTopology(
            dies_x=self.group_shape[0],
            dies_y=self.group_shape[1],
            link_bandwidth=self.link_bandwidth,
            link_latency=self.link_latency,
        )

    def switch_link(self) -> AlphaBetaLink:
        """Effective per-group link into the switch network."""
        return AlphaBetaLink(self.switch_bandwidth / self.num_groups, self.switch_latency)


@dataclass
class MultiWaferTopology:
    """A node of several wafers connected by wafer-to-wafer (W2W) links (§VI-F)."""

    num_wafers: int
    wafer: WaferConfig
    w2w_bandwidth: float
    w2w_latency: float = 1e-6

    def __post_init__(self) -> None:
        if self.num_wafers <= 0:
            raise ValueError("need at least one wafer")
        if self.w2w_bandwidth <= 0:
            raise ValueError("wafer-to-wafer bandwidth must be positive")

    @property
    def total_dies(self) -> int:
        return self.num_wafers * self.wafer.num_dies

    @property
    def total_flops(self) -> float:
        return self.num_wafers * self.wafer.total_flops

    @property
    def total_dram_capacity(self) -> float:
        return self.num_wafers * self.wafer.total_dram_capacity

    def wafer_mesh(self) -> MeshTopology:
        return MeshTopology.from_wafer(self.wafer)

    def w2w_link(self) -> AlphaBetaLink:
        return AlphaBetaLink(self.w2w_bandwidth, self.w2w_latency)
