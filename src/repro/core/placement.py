"""Memory scheduler, part 1: spatial location-aware stage placement (paper §IV-C-1, Eq. 2).

The mesh is partitioned into ``pp`` contiguous blocks of ``tp`` dies each.  The baseline
assigns stages to blocks in the naive left-to-right / top-to-bottom (serpentine) order;
the optimizer permutes the assignment so that Mem_pair partners end up close together
while the pipeline path stays short, minimising the GlobalCost of Eq. 2:

    GlobalCost = Σ Dist(S_i, S_{i+1}) · Comm_PP
               + Σ Dist(S_s, S_h) · Comm_pair · (1 + γ)

where γ counts links the balance path shares with already-placed pipeline paths.

A permutation only re-indexes a fixed set of blocks, so the geometry Eq. 2 needs — the
centre distance and the XY boundary path of each ordered pair of blocks — is derived
once per block set (:class:`BlockGeometry`) and every evaluation is a table lookup.
:func:`global_cost_reference` keeps the direct evaluation as the oracle.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.plan import MemPair, StagePlacement
from repro.interconnect.routing import path_links, xy_path
from repro.interconnect.topology import MeshTopology

Coord = Tuple[int, int]
Block = Tuple[Coord, ...]
#: A Mem_pair as Eq. 2 prices it: (sender stage, helper stage, weight).
WeightedPair = Tuple[int, int, float]

#: Block sets whose geometry stays memoised.  A Watos cell places a handful of
#: (TP shape, PP) block sets per wafer; the bound keeps a DSE, which visits a new mesh
#: at every design point, from growing the memo with the number of wafers.
GEOMETRY_MEMO_SIZE = 32


def mesh_blocks(
    dies_x: int, dies_y: int, tp_shape: Tuple[int, int], num_blocks: int
) -> List[Tuple[Coord, ...]]:
    """Tile the mesh with ``num_blocks`` rectangles of ``tp_shape`` dies each.

    Blocks are laid out in serpentine (boustrophedon) order so that consecutive blocks
    are always adjacent, which is what keeps the pipeline path short.
    """
    bx, by = tp_shape
    if bx <= 0 or by <= 0:
        raise ValueError("TP shape must be positive")
    if bx > dies_x or by > dies_y:
        raise ValueError(f"TP shape {tp_shape} does not fit a {dies_x}x{dies_y} mesh")
    group_size = bx * by
    if group_size * num_blocks > dies_x * dies_y:
        raise ValueError(
            f"cannot place {num_blocks} blocks of {tp_shape} on a {dies_x}x{dies_y} mesh"
        )
    blocks_per_row = dies_x // bx
    blocks_per_col = dies_y // by
    if blocks_per_row * blocks_per_col >= num_blocks:
        blocks: List[Tuple[Coord, ...]] = []
        for row in range(blocks_per_col):
            cols = range(blocks_per_row)
            if row % 2 == 1:
                cols = reversed(cols)
            for col in cols:
                dies = tuple(
                    (col * bx + dx, row * by + dy) for dy in range(by) for dx in range(bx)
                )
                blocks.append(dies)
                if len(blocks) == num_blocks:
                    return blocks
        return blocks
    # Rectangle tiling cannot host every block (e.g. a 2×2 group on a 7-wide mesh wastes
    # a column); fall back to chopping the serpentine die order into contiguous groups,
    # which keeps every group connected even if not perfectly rectangular.
    serpentine: List[Coord] = []
    for y in range(dies_y):
        xs = range(dies_x)
        if y % 2 == 1:
            xs = reversed(xs)
        serpentine.extend((x, y) for x in xs)
    return [
        tuple(serpentine[block * group_size:(block + 1) * group_size])
        for block in range(num_blocks)
    ]


def serpentine_placement(
    dies_x: int, dies_y: int, tp_shape: Tuple[int, int], pp: int
) -> StagePlacement:
    """The naive left-to-right / top-to-bottom placement of Fig. 11a."""
    blocks = mesh_blocks(dies_x, dies_y, tp_shape, pp)
    return StagePlacement(stage_dies=tuple(blocks))


class BlockGeometry:
    """The Eq. 2 geometry of every ordered pair of one set of blocks.

    For blocks ``a`` and ``b`` (indices into :attr:`blocks`), :meth:`pair` gives the
    Manhattan distance between their centres and the links of the XY path between
    their boundary dies as an int bitmask.  An XY path never uses a link twice, so γ
    is the popcount of a pair's mask ANDed with the pipeline's.  Each pair is derived
    on first use from :meth:`StagePlacement.stage_distance`,
    :meth:`StagePlacement.boundary_dies`, :func:`xy_path` and :func:`path_links` on a
    layout that puts stage ``i`` on block ``i``; both methods read only the two
    stages' dies, so every value equals what :func:`global_cost_reference` computes
    for any placement of these blocks.
    """

    def __init__(self, blocks: Sequence[Block]) -> None:
        self.blocks = tuple(blocks)
        self.index: Dict[Block, int] = {block: i for i, block in enumerate(self.blocks)}
        self._layout = StagePlacement(stage_dies=self.blocks)
        dies = self._layout.all_dies()
        # Each mesh link in the blocks' bounding box owns a fixed bit (two per die: the
        # link to its +x and to its +y neighbour), so filling pairs needs no shared
        # counter and concurrent threads fill the same values.
        self._x0 = min((x for x, _ in dies), default=0)
        self._y0 = min((y for _, y in dies), default=0)
        self._width = max((x for x, _ in dies), default=0) - self._x0 + 1
        n = len(self.blocks)
        self._pairs: List[List[Optional[Tuple[float, int]]]] = [[None] * n for _ in range(n)]

    def locate(self, stage_dies: Sequence[Block]) -> List[int]:
        """The block index each stage of a placement of these blocks sits on."""
        return [self.index[dies] for dies in stage_dies]

    def pair(self, a: int, b: int) -> Tuple[float, int]:
        """``(centre distance, XY boundary-path link mask)`` from block ``a`` to ``b``."""
        return self._pairs[a][b] or self._derive(a, b)

    def _derive(self, a: int, b: int) -> Tuple[float, int]:
        src, dst = self._layout.boundary_dies(a, b)
        mask = 0
        for low, high in path_links(xy_path(src, dst)):
            bit = 2 * ((low[1] - self._y0) * self._width + low[0] - self._x0)
            mask |= 1 << (bit + (low[0] == high[0]))
        entry = self._pairs[a][b] = (self._layout.stage_distance(a, b), mask)
        return entry

    def pipeline_links(self, at: Sequence[int]) -> int:
        """Links of the pipeline path when stage ``s`` sits on block ``at[s]``."""
        links = 0
        for a, b in zip(at, at[1:]):
            links |= self.pair(a, b)[1]
        return links

    def cost(self, at: Sequence[int], pairs: Sequence[WeightedPair], pipeline_comm: float) -> float:
        """Eq. 2 when stage ``s`` sits on block ``at[s]``.

        Sums in :func:`global_cost_reference`'s order, so the result is bit-identical.
        """
        rows, derive = self._pairs, self._derive
        cost = 0.0
        pipeline = 0
        for a, b in zip(at, at[1:]):
            distance, links = rows[a][b] or derive(a, b)
            pipeline |= links
            cost += distance * pipeline_comm
        for sender, helper, weight in pairs:
            a, b = at[sender], at[helper]
            distance, links = rows[a][b] or derive(a, b)
            cost += distance * weight * (1 + (links & pipeline).bit_count())
        return cost


@functools.lru_cache(maxsize=GEOMETRY_MEMO_SIZE)
def _geometry(block_set: FrozenSet[Block]) -> BlockGeometry:
    return BlockGeometry(sorted(block_set))


def block_geometry(stage_dies: Sequence[Block]) -> BlockGeometry:
    """The memoised geometry of a placement's block set (any order of its blocks).

    One process-wide memo, because GA fitness reaches Eq. 2 through
    :func:`global_cost`'s fixed signature.  Every value in a table is a pure function
    of its block set, so sharing tables between callers and threads changes no result.
    """
    return _geometry(frozenset(stage_dies))


def weighted_pairs(
    mem_pairs: Sequence[MemPair], pair_comm: Optional[Dict[Tuple[int, int], float]] = None
) -> List[WeightedPair]:
    """Each Mem_pair with its Eq. 2 weight: ``pair_comm``'s entry, else its byte volume,
    or 1.0 when the volume is zero."""
    weighted = []
    for pair in mem_pairs:
        weight = pair.bytes_moved if pair.bytes_moved > 0 else 1.0
        if pair_comm is not None:
            weight = pair_comm.get((pair.sender_stage, pair.helper_stage), weight)
        weighted.append((pair.sender_stage, pair.helper_stage, weight))
    return weighted


def global_cost(
    placement: StagePlacement,
    mem_pairs: Sequence[MemPair],
    pipeline_comm: float = 1.0,
    pair_comm: Optional[Dict[Tuple[int, int], float]] = None,
) -> float:
    """Evaluate Eq. 2 for a placement.

    ``pipeline_comm`` weights the pipeline edges; ``pair_comm`` optionally weights each
    Mem_pair (defaults to the pair's byte volume, or 1.0 when the volume is zero).
    Priced on the placement's memoised :class:`BlockGeometry`; bit-identical to
    :func:`global_cost_reference`.
    """
    geometry = block_geometry(placement.stage_dies)
    return geometry.cost(
        geometry.locate(placement.stage_dies), weighted_pairs(mem_pairs, pair_comm), pipeline_comm
    )


def global_cost_reference(
    placement: StagePlacement,
    mem_pairs: Sequence[MemPair],
    pipeline_comm: float = 1.0,
    pair_comm: Optional[Dict[Tuple[int, int], float]] = None,
) -> float:
    """Evaluate Eq. 2 directly from the placement: the oracle for :func:`global_cost`."""
    pp = placement.num_stages
    cost = 0.0
    tracker_links: set = set()
    for stage in range(pp - 1):
        src, dst = placement.boundary_dies(stage, stage + 1)
        path = xy_path(src, dst)
        tracker_links.update(path_links(path))
        cost += placement.stage_distance(stage, stage + 1) * pipeline_comm

    for pair in mem_pairs:
        src, dst = placement.boundary_dies(pair.sender_stage, pair.helper_stage)
        path = xy_path(src, dst)
        gamma = sum(1 for link in path_links(path) if link in tracker_links)
        weight = pair.bytes_moved if pair.bytes_moved > 0 else 1.0
        if pair_comm is not None:
            weight = pair_comm.get((pair.sender_stage, pair.helper_stage), weight)
        cost += placement.stage_distance(pair.sender_stage, pair.helper_stage) * weight * (1 + gamma)
    return cost


@dataclass
class PlacementOptimizer:
    """Search over stage→block permutations to minimise GlobalCost.

    For small pipeline depths (≤ ``exhaustive_limit`` stages) the search is exhaustive;
    beyond that it falls back to a randomised pairwise-swap local search, which matches
    the role the placement step plays inside the larger GA loop.
    """

    mesh: MeshTopology
    exhaustive_limit: int = 7
    local_search_iterations: int = 400
    seed: int = 0

    def optimize(
        self,
        tp_shape: Tuple[int, int],
        pp: int,
        mem_pairs: Sequence[MemPair] = (),
        pipeline_comm: float = 1.0,
    ) -> StagePlacement:
        """The lowest-GlobalCost placement found for the given pipeline and Mem_pairs."""
        base = serpentine_placement(self.mesh.dies_x, self.mesh.dies_y, tp_shape, pp)
        if pp <= 2 or not mem_pairs:
            return base
        # Permutations are priced by block number: ``blocks[b]`` is block ``b``'s row in
        # the geometry table, and a StagePlacement is built only for the winner.
        geometry = block_geometry(base.stage_dies)
        blocks = geometry.locate(base.stage_dies)
        pairs = weighted_pairs(self._normalise(mem_pairs))
        search = self._exhaustive if pp <= self.exhaustive_limit else self._local_search
        order = search(geometry, blocks, pairs, pipeline_comm)
        return base.permuted(order)

    @staticmethod
    def _normalise(mem_pairs: Sequence[MemPair]) -> List[MemPair]:
        total = sum(p.bytes_moved for p in mem_pairs) or 1.0
        return [
            MemPair(p.sender_stage, p.helper_stage, p.bytes_moved / total * 10.0)
            for p in mem_pairs
        ]

    # Both searches return the best ``order`` (``order[block] = stage``, as
    # :meth:`StagePlacement.permuted` takes it) and price a permutation with ``at``, its
    # inverse mapped to table rows: stage ``s`` sits on table row ``at[s]``.
    @staticmethod
    def _exhaustive(
        geometry: BlockGeometry,
        blocks: List[int],
        pairs: Sequence[WeightedPair],
        pipeline_comm: float,
    ) -> Sequence[int]:
        pp = len(blocks)
        best_order: Sequence[int] = range(pp)
        best_cost = geometry.cost(blocks, pairs, pipeline_comm)
        at = list(blocks)
        for order in itertools.permutations(range(pp)):
            for block, stage in enumerate(order):
                at[stage] = blocks[block]
            cost = geometry.cost(at, pairs, pipeline_comm)
            if cost < best_cost:
                best_order, best_cost = order, cost
        return best_order

    def _local_search(
        self,
        geometry: BlockGeometry,
        blocks: List[int],
        pairs: Sequence[WeightedPair],
        pipeline_comm: float,
    ) -> Sequence[int]:
        rng = random.Random(self.seed)
        pp = len(blocks)
        order = list(range(pp))
        at = list(blocks)
        best_cost = geometry.cost(at, pairs, pipeline_comm)
        for _ in range(self.local_search_iterations):
            i, j = rng.sample(range(pp), 2)
            order[i], order[j] = order[j], order[i]
            at[order[i]], at[order[j]] = blocks[i], blocks[j]
            cost = geometry.cost(at, pairs, pipeline_comm)
            if cost < best_cost:
                best_cost = cost
            else:
                order[i], order[j] = order[j], order[i]
                at[order[i]], at[order[j]] = blocks[i], blocks[j]
        # A swap that does not improve is undone, so ``order`` is the best one seen.
        return order
