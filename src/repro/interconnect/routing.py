"""Routing on the 2D mesh: XY (dimension-ordered) paths, shortest paths on faulty meshes
and a link-load tracker used to detect contention between communication tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

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


def _bidirectional_shortest_path(
    adjacency: Dict[Coord, List[Coord]], src: Coord, dst: Coord
) -> Optional[List[Coord]]:
    """A fewest-hop route over ``adjacency``, or ``None`` when ``dst`` is unreachable.

    Bidirectional Dijkstra on unit weights, breaking ties exactly as the graph-library
    search these routes were first computed with: the two searches alternate, each heap
    pops in (distance, insertion) order off one shared counter, and the route crosses at
    the best meeting node seen so far.  Any other shortest path would change stored
    results, so ``tests/test_interconnect_routing.py`` checks routes against that library.
    """
    if src == dst:
        return [src]
    # Index 0 is the search from src, index 1 the one from dst.
    done: Tuple[Dict[Coord, int], ...] = ({}, {})
    seen = ({src: 0}, {dst: 0})
    preds: Tuple[Dict[Coord, Optional[Coord]], ...] = ({src: None}, {dst: None})
    order = count()
    fringe = ([(0, next(order), src)], [(0, next(order), dst)])
    best: Optional[int] = None
    meet: Optional[Coord] = None

    def walk(die: Optional[Coord], side: int) -> List[Coord]:
        out = []
        while die is not None:
            out.append(die)
            die = preds[side][die]
        return out

    side = 1
    while fringe[0] and fringe[1]:
        side = 1 - side
        dist, _, die = heappop(fringe[side])
        if die in done[side]:
            continue
        done[side][die] = dist
        if die in done[1 - side]:
            return walk(meet, 0)[::-1] + walk(preds[1][meet], 1)
        length = dist + 1
        for nxt in adjacency[die]:
            if nxt in done[side]:
                continue
            if nxt not in seen[side] or length < seen[side][nxt]:
                seen[side][nxt] = length
                heappush(fringe[side], (length, next(order), nxt))
                preds[side][nxt] = die
                if nxt in seen[1 - side]:
                    total = length + seen[1 - side][nxt]
                    if best is None or total < best:
                        best, meet = total, nxt
    return None


def fault_aware_path(mesh: MeshTopology, src: Coord, dst: Coord) -> List[Coord]:
    """Shortest path that avoids failed dies/links, falling back to XY when healthy.

    If an endpoint itself has failed, or no healthy route exists, the XY route is
    returned as a last resort — the caller's degradation model (quality floors) then
    prices the traffic that must limp across the broken region.
    """
    if mesh.faults.is_empty:
        return xy_path(src, dst)
    adjacency = mesh.healthy_adjacency()
    if src not in adjacency or dst not in adjacency:
        return xy_path(src, dst)
    path = _bidirectional_shortest_path(adjacency, src, dst)
    return path if path is not None else xy_path(src, dst)


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
