"""Training-plan data structures shared by the WATOS schedulers.

A :class:`TrainingPlan` bundles everything the evaluator needs to price one candidate
strategy on one wafer: the parallelism degrees, the TP group's mesh shape and collective
algorithm, the per-stage recomputation choices, the physical placement of pipeline stages
on the mesh and the Sender→Helper checkpoint-balancing pairs.

A GA run and the evaluation cache hash the same plan objects many times, so
:class:`TrainingPlan` and :class:`StagePlacement` hash their fields once per object
(:func:`_hash_once`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.interconnect.collectives import CollectiveAlgorithm
from repro.parallelism.partition import TPSplitStrategy
from repro.parallelism.strategies import ParallelismConfig
from repro.workloads.operators import Operator

Coord = Tuple[int, int]


def _hash_once(self) -> int:
    """The dataclass hash of the object's fields, computed on the first call only.

    Equal objects hash equal, as with the generated ``__hash__``.  The hash is kept
    in the instance ``__dict__`` as ``_hash``, outside the dataclass fields, so
    :func:`dataclasses.fields`, ``__eq__``, ``__repr__`` and the cache's canonical
    form never see it.
    """
    try:
        return self._hash
    except AttributeError:
        value = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", value)
        return value


def _state_without_hash(self) -> Dict[str, Any]:
    """Pickle and copy state: the fields without the kept hash.

    A pickle's bytes then do not depend on whether the object was hashed, and a
    copy, or a process with another hash seed, hashes the fields itself.
    """
    state = self.__dict__.copy()
    state.pop("_hash", None)
    return state


@dataclass(frozen=True)
class RecomputeConfig:
    """Which operator units each pipeline stage recomputes instead of checkpointing.

    ``stages`` has one frozenset of operator names per pipeline stage; an empty set means
    full checkpointing (the paper's "Type 0").
    """

    stages: Tuple[FrozenSet[str], ...] = ()

    @classmethod
    def none(cls, pp: int) -> "RecomputeConfig":
        """No recomputation anywhere."""
        return cls(stages=tuple(frozenset() for _ in range(pp)))

    @classmethod
    def full(cls, pp: int, operators: Sequence[Operator]) -> "RecomputeConfig":
        """Recompute every recomputable operator in every stage (naive full recompute)."""
        names = frozenset(op.name for op in operators if op.recomputable)
        return cls(stages=tuple(names for _ in range(pp)))

    @classmethod
    def uniform(cls, pp: int, names: Sequence[str]) -> "RecomputeConfig":
        """The same recomputation set in every stage."""
        frozen = frozenset(names)
        return cls(stages=tuple(frozen for _ in range(pp)))

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> FrozenSet[str]:
        return self.stages[index]

    def with_stage(self, index: int, names: FrozenSet[str]) -> "RecomputeConfig":
        stages = list(self.stages)
        stages[index] = frozenset(names)
        return RecomputeConfig(stages=tuple(stages))

    def recompute_fraction(self, index: int, operators: Sequence[Operator]) -> float:
        """Fraction of a stage's checkpoint bytes that recomputation eliminates."""
        total = sum(op.checkpoint_bytes for op in operators)
        if total == 0:
            return 0.0
        dropped = sum(
            op.checkpoint_bytes for op in operators if op.name in self.stages[index]
        )
        return dropped / total

    def extra_forward_flops(self, index: int, operators: Sequence[Operator]) -> float:
        """Forward FLOPs a stage re-executes during its backward pass."""
        return sum(op.flops for op in operators if op.name in self.stages[index])


@dataclass(frozen=True)
class MemPair:
    """A Sender→Helper checkpoint-balancing pair (Alg. 2 lines 9–14, Alg. 3)."""

    sender_stage: int
    helper_stage: int
    bytes_moved: float

    def __post_init__(self) -> None:
        if self.sender_stage == self.helper_stage:
            raise ValueError("a stage cannot balance checkpoints with itself")
        if not self.bytes_moved >= 0:  # written so that NaN fails too
            raise ValueError("balanced bytes must be a non-negative number")


@dataclass(frozen=True)
class StagePlacement:
    """Physical placement of each pipeline stage's TP group on the mesh."""

    stage_dies: Tuple[Tuple[Coord, ...], ...]

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    def __post_init__(self) -> None:
        seen: set = set()
        for dies in self.stage_dies:
            for die in dies:
                if die in seen:
                    raise ValueError(f"die {die} is assigned to more than one stage")
                seen.add(die)

    @property
    def num_stages(self) -> int:
        return len(self.stage_dies)

    def dies(self, stage: int) -> Tuple[Coord, ...]:
        return self.stage_dies[stage]

    def all_dies(self) -> List[Coord]:
        return [die for dies in self.stage_dies for die in dies]

    def center(self, stage: int) -> Tuple[float, float]:
        """Geometric centre of a stage's dies (the S_i of Eq. 2)."""
        dies = self.stage_dies[stage]
        x = sum(d[0] for d in dies) / len(dies)
        y = sum(d[1] for d in dies) / len(dies)
        return (x, y)

    def stage_distance(self, a: int, b: int) -> float:
        """Manhattan distance between two stages' centres."""
        ca, cb = self.center(a), self.center(b)
        return abs(ca[0] - cb[0]) + abs(ca[1] - cb[1])

    def boundary_dies(self, a: int, b: int) -> Tuple[Coord, Coord]:
        """The closest pair of dies between two stages (used to route inter-stage traffic)."""
        best = None
        best_dist = float("inf")
        for da in self.stage_dies[a]:
            for db in self.stage_dies[b]:
                dist = abs(da[0] - db[0]) + abs(da[1] - db[1])
                if dist < best_dist:
                    best_dist = dist
                    best = (da, db)
        assert best is not None
        return best

    def permuted(self, order: Sequence[int]) -> "StagePlacement":
        """Reassign stages to the same physical blocks in a different order.

        ``order[block] = stage`` — block ``b`` now hosts stage ``order[b]``.
        """
        if sorted(order) != list(range(self.num_stages)):
            raise ValueError("order must be a permutation of the stage indices")
        new_stage_dies: List[Tuple[Coord, ...]] = [()] * self.num_stages
        for block, stage in enumerate(order):
            new_stage_dies[stage] = self.stage_dies[block]
        return StagePlacement(stage_dies=tuple(new_stage_dies))


@dataclass(frozen=True)
class TrainingPlan:
    """A complete candidate training strategy for one wafer configuration."""

    parallelism: ParallelismConfig
    tp_shape: Tuple[int, int] = (1, 1)
    collective: CollectiveAlgorithm = CollectiveAlgorithm.BIDIRECTIONAL_RING
    split_strategy: TPSplitStrategy = TPSplitStrategy.HIDDEN
    recompute: RecomputeConfig = field(default_factory=lambda: RecomputeConfig.none(1))
    placement: Optional[StagePlacement] = None
    mem_pairs: Tuple[MemPair, ...] = ()
    offload_to_host: bool = False

    __hash__ = _hash_once
    __getstate__ = _state_without_hash

    def __post_init__(self) -> None:
        tp = self.parallelism.tp
        if self.tp_shape[0] * self.tp_shape[1] != tp:
            raise ValueError(
                f"TP shape {self.tp_shape} does not cover the TP degree {tp}"
            )
        if self.recompute.num_stages not in (0, self.parallelism.pp):
            raise ValueError("recompute config must have one entry per pipeline stage")
        if self.placement is not None and self.placement.num_stages != self.parallelism.pp:
            raise ValueError("placement must cover every pipeline stage")

    def with_recompute(self, recompute: RecomputeConfig) -> "TrainingPlan":
        return replace(self, recompute=recompute)

    def with_placement(self, placement: StagePlacement) -> "TrainingPlan":
        return replace(self, placement=placement)

    def with_mem_pairs(self, mem_pairs: Sequence[MemPair]) -> "TrainingPlan":
        return replace(self, mem_pairs=tuple(mem_pairs))

    def label(self) -> str:
        return (
            f"{self.parallelism.label()} shape={self.tp_shape} "
            f"collective={self.collective.value}"
        )
