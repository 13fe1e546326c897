"""Operator-level performance lookup table (paper §IV-B and §IV-F).

WATOS profiles operators offline and stores latency / memory / DRAM-access results in a
table that the schedulers query "in a read-only manner with negligible overhead" during
exploration.  Here the table memoises predictor results keyed by the operator's shape
signature and the die configuration, which keeps the GA and the DP recomputation search
fast even though they evaluate thousands of candidate configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple

from repro.hardware.template import DieConfig
from repro.workloads.operators import Operator


class OperatorPredictor(Protocol):
    """Anything that can predict operator latency and memory (analytical or DNN)."""

    def latency(self, op: Operator) -> float: ...

    def memory(self, op: Operator) -> float: ...


@dataclass(frozen=True)
class ProfileEntry:
    """One cached profiling result."""

    latency: float
    memory_bytes: float


def _operator_key(op: Operator) -> Tuple:
    return (
        op.name,
        op.kind.value,
        round(op.flops, 3),
        round(op.weight_bytes, 3),
        round(op.checkpoint_bytes, 3),
        round(op.output_bytes, 3),
    )


def _die_key(die: DieConfig) -> Tuple:
    return (
        die.flops_fp16,
        die.dram_bandwidth,
        die.dram_capacity,
        die.d2d_bandwidth,
    )


class OperatorProfileTable:
    """Memoising wrapper around an operator predictor."""

    def __init__(self, predictor: OperatorPredictor, die: DieConfig) -> None:
        self.predictor = predictor
        self.die = die
        self._table: Dict[Tuple, ProfileEntry] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, op: Operator) -> ProfileEntry:
        """Profile an operator, returning the cached entry when available."""
        key = (_die_key(self.die),) + _operator_key(op)
        entry = self._table.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        entry = ProfileEntry(
            latency=self.predictor.latency(op),
            memory_bytes=self.predictor.memory(op),
        )
        self._table[key] = entry
        return entry

    def latency(self, op: Operator) -> float:
        return self.lookup(op).latency

    def latencies(self, ops: Sequence[Operator]) -> List[float]:
        """Latency of every operator in ``ops``: one :meth:`lookup` each."""
        return [self.lookup(op).latency for op in ops]

    def memory(self, op: Operator) -> float:
        return self.lookup(op).memory_bytes

    def __len__(self) -> int:
        return len(self._table)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0
