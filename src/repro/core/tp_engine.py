"""TP execution engine (paper §IV-E-1).

The TP engine turns one pipeline stage's layer slice into per-micro-batch forward /
backward execution times on the dies of the stage's TP group:

* every operator is sharded across the TP group and priced by the operator predictor
  (roofline of compute vs DRAM traffic with the hybrid dataflow choice);
* the Megatron-style all-reduces that close row-parallel GEMMs are priced with the
  selected collective algorithm on the mesh links;
* operators selected for recomputation add their forward time to the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hardware.template import WaferConfig
from repro.interconnect.alphabeta import AlphaBetaLink
from repro.interconnect.collectives import CollectiveAlgorithm, CollectiveModel
from repro.parallelism.partition import TPSplitStrategy
from repro.predictor.lookup import OperatorPredictor, OperatorProfileTable
from repro.predictor.analytical import AnalyticalPredictor
from repro.workloads.operators import Operator
from repro.workloads.transformer import build_layer_graph, embedding_operator
from repro.workloads.workload import TrainingWorkload


@dataclass(frozen=True)
class StageTimes:
    """Per-micro-batch execution times of one pipeline stage."""

    forward: float
    backward: float
    recompute: float
    tp_comm: float

    @property
    def backward_total(self) -> float:
        """Backward time including recomputation and its share of TP communication."""
        return self.backward + self.recompute

    @property
    def total(self) -> float:
        return self.forward + self.backward_total


class TPEngine:
    """Prices intra-stage computation and TP communication for a wafer configuration.

    Stage pricing is memoized: within one plan, uniform middle stages share a single
    signature — (workload, layer count, TP degree, recompute set, edge-stage flag,
    link/compute quality) — so they are priced once instead of ``pp`` times, and the
    memo persists across :meth:`stage_times` calls so GA generations re-pricing the
    same stage shapes pay nothing.  Beneath it, the sharded layer latencies are
    memoized per (workload shape, TP degree) and the layer's TP communication time per
    (workload shape, TP degree, link quality), so a new stage signature neither
    re-shards nor re-profiles the layer graph.  Set ``memoize=False`` to benchmark the
    raw path.
    """

    def __init__(
        self,
        wafer: WaferConfig,
        predictor: Optional[OperatorPredictor] = None,
        collective: CollectiveAlgorithm = CollectiveAlgorithm.BIDIRECTIONAL_RING,
        split_strategy: TPSplitStrategy = TPSplitStrategy.HIDDEN,
        memoize: bool = True,
    ) -> None:
        self.wafer = wafer
        base_predictor = predictor or AnalyticalPredictor(wafer.die)
        self.profile = OperatorProfileTable(base_predictor, wafer.die)
        self.collective = collective
        self.split_strategy = split_strategy
        self.memoize = memoize
        self._layer_graphs: Dict[Tuple, List[Operator]] = {}
        self._embedding_ops: Dict[Tuple, Operator] = {}
        self._stage_times: Dict[Tuple, StageTimes] = {}
        self._stage_flops: Dict[Tuple, float] = {}
        self._layer_latencies: Dict[Tuple, Tuple[float, ...]] = {}
        self._layer_tp_comm: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------ memoized inputs
    def _workload_key(self, workload: TrainingWorkload) -> Tuple:
        return (workload.model, workload.micro_batch_size, workload.seq_len)

    def _layer_graph(self, workload: TrainingWorkload) -> List[Operator]:
        """One layer's operator units for one micro-batch (memoized per workload shape)."""
        if not self.memoize:
            return build_layer_graph(
                workload.model, workload.micro_batch_size, workload.seq_len
            )
        key = self._workload_key(workload)
        operators = self._layer_graphs.get(key)
        if operators is None:
            operators = build_layer_graph(
                workload.model, workload.micro_batch_size, workload.seq_len
            )
            self._layer_graphs[key] = operators
        return operators

    def _embedding_operator(self, workload: TrainingWorkload, tp: int) -> Operator:
        if not self.memoize:
            return embedding_operator(
                workload.model, workload.micro_batch_size, workload.seq_len
            ).sharded(tp)
        key = self._workload_key(workload) + (tp,)
        op = self._embedding_ops.get(key)
        if op is None:
            op = embedding_operator(
                workload.model, workload.micro_batch_size, workload.seq_len
            ).sharded(tp)
            self._embedding_ops[key] = op
        return op

    def _sharded_latencies(
        self, workload: TrainingWorkload, operators: Sequence[Operator], tp: int
    ) -> Sequence[float]:
        """Latency of each of the layer graph's ``operators`` sharded ``tp`` ways."""
        key = self._workload_key(workload) + (tp,)
        latencies = self._layer_latencies.get(key) if self.memoize else None
        if latencies is None:
            # Batch-profile the whole layer graph: one struct-of-arrays roofline pass
            # on a cold profile table instead of an operator-by-operator walk.
            latencies = tuple(self.profile.latencies([op.sharded(tp) for op in operators]))
            if self.memoize:
                self._layer_latencies[key] = latencies
        return latencies

    def _tp_comm_time(
        self,
        workload: TrainingWorkload,
        operators: Sequence[Operator],
        tp: int,
        link_quality: float,
    ) -> float:
        """:meth:`layer_tp_comm_time` of the layer graph's ``operators``."""
        key = self._workload_key(workload) + (tp, link_quality)
        tp_comm = self._layer_tp_comm.get(key) if self.memoize else None
        if tp_comm is None:
            tp_comm = self.layer_tp_comm_time(operators, tp, link_quality)
            if self.memoize:
                self._layer_tp_comm[key] = tp_comm
        return tp_comm

    # ------------------------------------------------------------------ collectives
    def _collective_model(self, tp: int, link_quality: float = 1.0) -> CollectiveModel:
        link = AlphaBetaLink(
            self.wafer.die.d2d_link_bandwidth * link_quality, self.wafer.die.d2d_latency
        )
        return CollectiveModel(link, tp)

    def layer_tp_comm_time(
        self, operators: Sequence[Operator], tp: int, link_quality: float = 1.0
    ) -> float:
        """Forward-pass TP communication time of one layer (all-reduces on activations)."""
        if tp <= 1:
            return 0.0
        model = self._collective_model(tp, link_quality)
        total = 0.0
        for op in operators:
            if op.tp_allreduce_bytes > 0:
                # Each die contributes its shard; the all-reduce moves the full activation.
                total += model.all_reduce(op.tp_allreduce_bytes, self.collective)
            all_to_all = op.metadata.get("all_to_all_bytes", 0.0)
            if all_to_all:
                total += model.all_to_all(all_to_all)
        if self.split_strategy is TPSplitStrategy.SEQUENCE:
            # Sequence parallelism swaps each all-reduce for all-gather + reduce-scatter
            # of the same total volume; on a bidirectional ring that is cost-neutral, but
            # the extra collective start-ups are not.
            total += sum(1 for op in operators if op.tp_allreduce_bytes > 0) * (
                2 * self.wafer.die.d2d_latency * (tp - 1)
            )
        return total

    # ------------------------------------------------------------------ stage pricing
    def stage_times(
        self,
        workload: TrainingWorkload,
        stage: int,
        layers_in_stage: int,
        tp: int,
        pp: int,
        recomputed_ops: FrozenSet[str] = frozenset(),
        link_quality: float = 1.0,
        compute_throughput: float = 1.0,
    ) -> StageTimes:
        """Per-micro-batch forward/backward/recompute times of one pipeline stage.

        ``link_quality`` and ``compute_throughput`` scale the D2D links / die compute for
        the fault-tolerance study (§VI-D); both default to healthy hardware.
        """
        if layers_in_stage < 0:
            raise ValueError("layer count cannot be negative")
        if not 0.0 < compute_throughput <= 1.0:
            raise ValueError("compute throughput fraction must be within (0, 1]")
        is_edge = stage == 0 or stage == pp - 1
        if self.memoize:
            key = (
                self._workload_key(workload),
                layers_in_stage,
                tp,
                recomputed_ops,
                is_edge,
                link_quality,
                compute_throughput,
            )
            cached = self._stage_times.get(key)
            if cached is not None:
                return cached
        times = self._price_stage(
            workload, layers_in_stage, tp, recomputed_ops, is_edge,
            link_quality, compute_throughput,
        )
        if self.memoize:
            self._stage_times[key] = times
        return times

    def _price_stage(
        self,
        workload: TrainingWorkload,
        layers_in_stage: int,
        tp: int,
        recomputed_ops: FrozenSet[str],
        is_edge: bool,
        link_quality: float,
        compute_throughput: float,
    ) -> StageTimes:
        """Price one stage signature (the memoized body of :meth:`stage_times`)."""
        operators = self._layer_graph(workload)
        latencies = self._sharded_latencies(workload, operators, tp)
        fwd_compute = 0.0
        recompute_time = 0.0
        for op, base_latency in zip(operators, latencies):
            latency = base_latency / compute_throughput
            fwd_compute += latency
            if op.name in recomputed_ops:
                recompute_time += latency
        tp_comm = self._tp_comm_time(workload, operators, tp, link_quality)

        fwd_layer = fwd_compute + tp_comm
        bwd_layer = 2.0 * fwd_compute + tp_comm
        recompute_layer = recompute_time

        forward = layers_in_stage * fwd_layer
        backward = layers_in_stage * bwd_layer
        recompute = layers_in_stage * recompute_layer

        # Embedding / output head on the edge stages.
        if is_edge:
            embed = self._embedding_operator(workload, tp)
            embed_time = self.profile.latency(embed) / compute_throughput
            forward += embed_time
            backward += 2.0 * embed_time

        return StageTimes(
            forward=forward,
            backward=backward,
            recompute=recompute,
            tp_comm=(layers_in_stage * tp_comm),
        )

    def stage_forward_flops(
        self, workload: TrainingWorkload, stage: int, layers_in_stage: int, pp: int
    ) -> float:
        """Unsharded forward FLOPs of one stage for one micro-batch (for utilisation)."""
        is_edge = stage == 0 or stage == pp - 1
        key = (self._workload_key(workload), layers_in_stage, is_edge)
        if self.memoize:
            cached = self._stage_flops.get(key)
            if cached is not None:
                return cached
        operators = self._layer_graph(workload)
        flops = layers_in_stage * sum(op.flops for op in operators)
        if is_edge:
            flops += embedding_operator(
                workload.model, workload.micro_batch_size, workload.seq_len
            ).flops
        if self.memoize:
            self._stage_flops[key] = flops
        return flops
