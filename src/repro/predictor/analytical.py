"""Analytical operator latency/memory model.

For every operator the latency is the larger of its compute time and its external
memory-access time (a roofline), plus a fixed launch overhead; the memory footprint is
its checkpoint size.  GEMM operators choose the hybrid dataflow with the lowest EMA
(Fig. 14); bandwidth-bound operators are limited by DRAM bandwidth.

The analytical model deliberately ignores alignment / tiling quantisation and multi-level
memory effects; the paper (Fig. 10b) shows that those effects cost it ~15–20% accuracy
compared to a learned predictor.  :mod:`repro.predictor.dnn` adds exactly those effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.hardware.template import DieConfig
from repro.memsys.dataflow import select_dataflow
from repro.memsys.sram import SramTiler
from repro.units import FP16_BYTES
from repro.workloads.operators import Operator, OperatorKind

#: Fraction of peak FLOPs each operator kind sustains on the PE array / vector unit.
KIND_EFFICIENCY = {
    OperatorKind.GEMM: 0.80,
    OperatorKind.FLASH_ATTENTION: 0.65,
    OperatorKind.EMBEDDING: 0.55,
    OperatorKind.ROUTER: 0.50,
    OperatorKind.SCAN: 0.35,
    OperatorKind.CONV: 0.70,
    OperatorKind.NORM: 0.10,
    OperatorKind.ACTIVATION: 0.10,
    OperatorKind.ELEMENTWISE: 0.10,
}

#: Per-operator launch overhead (scheduling, DMA programming).
LAUNCH_OVERHEAD = 2e-6


@dataclass(frozen=True)
class OperatorEstimate:
    """Predicted execution characteristics of one operator on one die."""

    latency: float
    memory_bytes: float
    compute_time: float
    memory_time: float
    ema_bytes: float

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_time > self.compute_time


class AnalyticalPredictor:
    """Roofline-style analytical predictor for operator latency and memory footprint."""

    def __init__(self, die: DieConfig) -> None:
        self.die = die
        compute = die.compute
        self._tiler = SramTiler(compute.core.sram_bytes)
        # Effective blocking tile: with the aggregate die SRAM holding one block of the
        # input, weight and output operands, the classic blocked-GEMM result gives a
        # reuse distance of sqrt(SRAM / 3 operands); DRAM traffic is then governed by
        # this block size, not the raw PE-array dimensions.
        block = max(
            compute.core_rows * 8,
            int((compute.sram_bytes / (3.0 * FP16_BYTES)) ** 0.5),
        )
        self._array = (block, block)

    # ------------------------------------------------------------------ helpers
    def _gemm_shape(self, op: Operator) -> Tuple[int, int, int]:
        """Recover an (S, H, K) GEMM shape consistent with the operator's FLOPs/weights."""
        weight_elems = max(1.0, op.weight_bytes / FP16_BYTES)
        # flops = 2 * S * H * K and weight = H * K  →  S = flops / (2 * weight)
        s = max(1, int(op.flops / (2.0 * weight_elems)))
        out_elems = max(1.0, op.output_bytes / FP16_BYTES)
        h = max(1, int(out_elems / s))
        k = max(1, int(weight_elems / h))
        return s, h, k

    def _ema_bytes(self, op: Operator) -> float:
        if op.kind in (OperatorKind.GEMM, OperatorKind.EMBEDDING, OperatorKind.ROUTER):
            s, h, k = self._gemm_shape(op)
            _, ema_elems = select_dataflow(s, h, k, *self._array)
            # A GEMM can never move less than one pass over its operands and result.
            lower_bound = float(s * k + k * h + s * h)
            return max(ema_elems, lower_bound) * FP16_BYTES
        if op.kind is OperatorKind.FLASH_ATTENTION:
            # FlashAttention streams Q, K, V once and writes the output once.
            return 2.0 * (op.checkpoint_bytes + op.output_bytes)
        # Bandwidth-bound elementwise operators read and write the activation once.
        return 2.0 * max(op.checkpoint_bytes, op.output_bytes)

    # ------------------------------------------------------------------ prediction
    def estimate(self, op: Operator) -> OperatorEstimate:
        """Latency and memory footprint of ``op`` on this die."""
        efficiency = KIND_EFFICIENCY.get(op.kind, 0.5)
        compute_time = op.flops / (self.die.flops_fp16 * efficiency) if op.flops else 0.0
        ema = self._ema_bytes(op)
        memory_time = ema / self.die.dram_bandwidth if self.die.dram_bandwidth else 0.0
        latency = max(compute_time, memory_time) + LAUNCH_OVERHEAD
        return OperatorEstimate(
            latency=latency,
            memory_bytes=op.checkpoint_bytes,
            compute_time=compute_time,
            memory_time=memory_time,
            ema_bytes=ema,
        )

    def latency(self, op: Operator) -> float:
        return self.estimate(op).latency

    def memory(self, op: Operator) -> float:
        # :meth:`estimate`'s ``memory_bytes``, without pricing a second roofline.
        return op.checkpoint_bytes
