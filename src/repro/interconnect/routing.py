"""Routing on the 2D mesh: XY (dimension-ordered) paths, shortest paths on faulty meshes
and a link-load tracker used to detect contention between communication tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import networkx as nx

from repro.interconnect.topology import MeshTopology

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


def _canonical(link: Link) -> Link:
    a, b = link
    return (a, b) if a <= b else (b, a)


def manhattan_hops(src: Coord, dst: Coord) -> int:
    """Minimum hop count between two dies on a fault-free mesh."""
    return abs(src[0] - dst[0]) + abs(src[1] - dst[1])


def xy_path(src: Coord, dst: Coord) -> List[Coord]:
    """Dimension-ordered (X then Y) route between two dies, inclusive of endpoints."""
    path = [src]
    x, y = src
    step = 1 if dst[0] >= x else -1
    while x != dst[0]:
        x += step
        path.append((x, y))
    step = 1 if dst[1] >= y else -1
    while y != dst[1]:
        y += step
        path.append((x, y))
    return path


def path_links(path: Sequence[Coord]) -> List[Link]:
    """The canonical links traversed by a node path."""
    return [_canonical((path[i], path[i + 1])) for i in range(len(path) - 1)]


def fault_aware_path(mesh: MeshTopology, src: Coord, dst: Coord) -> List[Coord]:
    """Shortest path that avoids failed dies/links, falling back to XY when healthy.

    If an endpoint itself has failed, or no healthy route exists, the XY route is
    returned as a last resort — the caller's degradation model (quality floors) then
    prices the traffic that must limp across the broken region.
    """
    if mesh.faults.is_empty:
        return xy_path(src, dst)
    graph = mesh.graph()
    if src not in graph or dst not in graph:
        return xy_path(src, dst)
    try:
        return nx.shortest_path(graph, src, dst, weight="weight")
    except nx.NetworkXNoPath:
        return xy_path(src, dst)


@dataclass
class LinkLoadTracker:
    """Accumulates bytes routed over each mesh link and reports contention.

    The PP engine assigns communication tasks to paths in order of size, penalising paths
    whose links already carry traffic (§IV-E-2); this tracker is the bookkeeping that
    makes the penalty computable.
    """

    mesh: MeshTopology
    loads: Dict[Link, float] = field(default_factory=dict)

    def add_path(self, path: Sequence[Coord], size_bytes: float) -> None:
        if size_bytes < 0:
            raise ValueError("traffic size cannot be negative")
        for link in path_links(path):
            self.loads[link] = self.loads.get(link, 0.0) + size_bytes

    def load(self, link: Link) -> float:
        return self.loads.get(_canonical(link), 0.0)

    def conflicts(self, path: Sequence[Coord]) -> int:
        """Number of already-loaded links a path would traverse (the γ of Eq. 2)."""
        return sum(1 for link in path_links(path) if self.loads.get(link, 0.0) > 0.0)

    def max_link_load(self) -> float:
        return max(self.loads.values(), default=0.0)

    def total_traffic(self) -> float:
        return sum(self.loads.values())

    def busy_links(self) -> int:
        return sum(1 for load in self.loads.values() if load > 0.0)

    def utilization(self) -> float:
        """Fraction of mesh links carrying any traffic (Fig. 5b style metric)."""
        total_links = len(self.mesh.links())
        return self.busy_links() / total_links if total_links else 0.0

    def congestion_time(
        self, size_bytes: float, path: Sequence[Coord], min_quality: float = 0.0
    ) -> float:
        """Serialised transfer time for a path including queueing behind existing load.

        ``min_quality`` optionally floors the link quality so traffic forced across a
        failed link is priced as heavily degraded rather than rejected (used by the
        fault-tolerant PP engine); with the default of 0.0 a failed link raises.
        """
        if not path or len(path) == 1:
            return 0.0
        worst = 0.0
        for a, b in zip(path, path[1:]):
            quality = max(self.mesh.link_quality(a, b), min_quality)
            if quality <= 0.0:
                raise ValueError(f"path uses failed link {a}-{b}")
            bandwidth = self.mesh.link_bandwidth * quality
            queued = self.loads.get(_canonical((a, b)), 0.0)
            worst = max(worst, (queued + size_bytes) / bandwidth)
        hops = len(path) - 1
        return worst + hops * self.mesh.link_latency
