"""Training memory-footprint model.

The paper splits training state into two categories (§IV-A):

* **modelP** — weights, gradients and optimizer states.  These must stay resident for
  the whole training run; under mixed precision with Adam they cost 16 bytes per
  parameter (FP16 weights + FP16 gradients + FP32 momentum, variance and master copy).
* **activation checkpoints** — per-micro-batch activations retained for the backward
  pass.  They are optional: any subset can be regenerated via recomputation, which is
  what the GCMR scheduler exploits.

The 1F1B pipeline schedule makes checkpoint retention stage-dependent: a die at pipeline
stage ``s`` out of ``p`` holds activations for up to ``p - s`` in-flight micro-batches,
which is exactly the memory imbalance shown in Fig. 5c / Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.units import FP16_BYTES, FP32_BYTES
from repro.workloads.models import ModelConfig
from repro.workloads.transformer import embedding_operator, layer_checkpoint_bytes

#: Mixed-precision Adam training state per parameter: FP16 weight + FP16 gradient +
#: FP32 momentum + FP32 variance + FP32 master weight.
MODEL_STATE_BYTES_PER_PARAM = 2 * FP16_BYTES + 3 * FP32_BYTES


@dataclass(frozen=True)
class StageMemoryBreakdown:
    """Per-die memory footprint of one pipeline stage."""

    stage: int
    weight_bytes: float
    gradient_bytes: float
    optimizer_bytes: float
    checkpoint_bytes: float

    @property
    def model_state_bytes(self) -> float:
        return self.weight_bytes + self.gradient_bytes + self.optimizer_bytes

    @property
    def total_bytes(self) -> float:
        return self.model_state_bytes + self.checkpoint_bytes


class TrainingMemoryModel:
    """Computes per-die memory footprints for a model under a (TP, PP) split.

    Instances memoize the per-layer checkpoint volumes (which require building the
    layer's operator graph) and the balanced layer split, so the search loops — which
    share one model instance across thousands of plan probes via the evaluator — pay
    the operator-graph construction once per (micro-batch, sequence) shape.
    """

    def __init__(self, model: ModelConfig) -> None:
        self.model = model
        self._layer_ckpt_bytes: Dict[Tuple[int, int], float] = {}
        self._embed_ckpt_bytes: Dict[Tuple[int, int], float] = {}
        self._layer_splits: Dict[int, List[int]] = {}

    def _layer_checkpoint_bytes(self, micro_batch: int, seq: int) -> float:
        key = (micro_batch, seq)
        value = self._layer_ckpt_bytes.get(key)
        if value is None:
            value = layer_checkpoint_bytes(self.model, micro_batch, seq)
            self._layer_ckpt_bytes[key] = value
        return value

    def _embedding_checkpoint_bytes(self, micro_batch: int, seq: int) -> float:
        key = (micro_batch, seq)
        value = self._embed_ckpt_bytes.get(key)
        if value is None:
            value = embedding_operator(self.model, micro_batch, seq).checkpoint_bytes
            self._embed_ckpt_bytes[key] = value
        return value

    # ------------------------------------------------------------------ model states
    def total_model_state_bytes(self) -> float:
        """modelP for the whole model (weights + gradients + optimizer states)."""
        return self.model.num_parameters * MODEL_STATE_BYTES_PER_PARAM

    def layers_per_stage(self, pp: int) -> List[int]:
        """Balanced layer assignment across ``pp`` pipeline stages.

        Returns a fresh list; the memoized split itself is never handed out.
        """
        if pp <= 0:
            raise ValueError("pipeline parallel degree must be positive")
        split = self._layer_splits.get(pp)
        if split is None:
            base, extra = divmod(self.model.num_layers, pp)
            split = [base + (1 if s < extra else 0) for s in range(pp)]
            self._layer_splits[pp] = split
        return list(split)

    def stage_param_count(self, stage: int, pp: int) -> float:
        """Parameters held by one pipeline stage (embeddings live on the edge stages)."""
        layers = self.layers_per_stage(pp)[stage]
        params = layers * self.model.params_per_layer
        if stage == 0:
            params += self.model.embedding_params
        if stage == pp - 1:
            params += self.model.embedding_params
        return float(params)

    def stage_model_state_bytes(self, stage: int, pp: int, tp: int) -> float:
        """Per-die modelP bytes at a given stage under a TP degree of ``tp``."""
        if tp <= 0:
            raise ValueError("tensor parallel degree must be positive")
        return self.stage_param_count(stage, pp) * MODEL_STATE_BYTES_PER_PARAM / tp

    # ------------------------------------------------------------------ activations
    def checkpoint_bytes_per_microbatch(
        self, stage: int, pp: int, tp: int, micro_batch: int, seq: int
    ) -> float:
        """Per-die checkpoint bytes one micro-batch leaves behind at ``stage``."""
        layers = self.layers_per_stage(pp)[stage]
        per_layer = self._layer_checkpoint_bytes(micro_batch, seq) / tp
        total = layers * per_layer
        if stage == 0:
            total += self._embedding_checkpoint_bytes(micro_batch, seq) / tp
        return total

    def retained_microbatches(self, stage: int, pp: int, num_microbatches: int) -> int:
        """In-flight micro-batches a 1F1B stage retains at peak (``min(p - s, n)``)."""
        if not 0 <= stage < pp:
            raise ValueError("stage index out of range")
        return min(pp - stage, num_microbatches)

    def stage_breakdown(
        self,
        stage: int,
        pp: int,
        tp: int,
        micro_batch: int,
        seq: int,
        num_microbatches: int,
        recompute_fraction: float = 0.0,
    ) -> StageMemoryBreakdown:
        """Full per-die memory breakdown of a stage.

        ``recompute_fraction`` is the share of checkpoint bytes that GCMR chose to drop
        and regenerate; the remaining ``1 - fraction`` stays resident.
        """
        if not 0.0 <= recompute_fraction <= 1.0:
            raise ValueError("recompute fraction must be within [0, 1]")
        params = self.stage_param_count(stage, pp) / tp
        retained = self.retained_microbatches(stage, pp, num_microbatches)
        ckpt = (
            self.checkpoint_bytes_per_microbatch(stage, pp, tp, micro_batch, seq)
            * retained
            * (1.0 - recompute_fraction)
        )
        return StageMemoryBreakdown(
            stage=stage,
            weight_bytes=params * FP16_BYTES,
            gradient_bytes=params * FP16_BYTES,
            optimizer_bytes=params * 3 * FP32_BYTES,
            checkpoint_bytes=ckpt,
        )

    def stage_footprints(
        self,
        stage: int,
        pp: int,
        tp: int,
        micro_batch: int,
        seq: int,
        num_microbatches: int,
        recompute_fractions: Sequence[float],
    ) -> List[float]:
        """``stage_breakdown(…, fraction).total_bytes`` for each fraction, from one breakdown.

        Only the checkpoint term depends on the fraction; it is scaled by
        ``1 - fraction`` in the same float order as :meth:`stage_breakdown`, so every
        value is bit-identical to a call per fraction.
        """
        base = self.stage_breakdown(stage, pp, tp, micro_batch, seq, num_microbatches)
        footprints = []
        for fraction in recompute_fractions:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError("recompute fraction must be within [0, 1]")
            footprints.append(
                base.model_state_bytes + base.checkpoint_bytes * (1.0 - fraction)
            )
        return footprints

    def pipeline_breakdown(
        self,
        pp: int,
        tp: int,
        micro_batch: int,
        seq: int,
        num_microbatches: int,
        recompute_fractions: Sequence[float] = (),
    ) -> List[StageMemoryBreakdown]:
        """Memory breakdown of every stage; ``recompute_fractions`` may be per-stage."""
        fractions = list(recompute_fractions) or [0.0] * pp
        if len(fractions) != pp:
            raise ValueError("recompute_fractions must have one entry per stage")
        return [
            self.stage_breakdown(s, pp, tp, micro_batch, seq, num_microbatches, fractions[s])
            for s in range(pp)
        ]

    def fits(
        self,
        die_capacity: float,
        pp: int,
        tp: int,
        micro_batch: int,
        seq: int,
        num_microbatches: int,
        recompute_fractions: Sequence[float] = (),
    ) -> bool:
        """True when every stage's per-die footprint fits in ``die_capacity`` bytes."""
        breakdown = self.pipeline_breakdown(
            pp, tp, micro_batch, seq, num_microbatches, recompute_fractions
        )
        return all(stage.total_bytes <= die_capacity for stage in breakdown)
