"""Baseline training strategies applied to the wafer (MG-wafer and Cerebras in Fig. 16).

*MG-wafer* takes Megatron's (TP, PP) recommendation, enumerates the physical shapes the
TP group could take on the mesh, places stages in the naive serpentine order, falls back
to naive uniform recomputation when memory does not fit, and keeps the best-performing
shape — exactly the procedure §V-C describes.

*Cerebras* applies the weight-streaming execution model of
:mod:`repro.parallelism.cerebras` to the wafer.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.plan import RecomputeConfig, TrainingPlan
from repro.core.placement import serpentine_placement
from repro.hardware.template import WaferConfig
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.parallelism.cerebras import CerebrasWeightStreaming
from repro.parallelism.megatron import megatron_parallelism
from repro.parallelism.partition import factor_shapes
from repro.parallelism.strategies import ParallelismConfig
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.workload import TrainingWorkload


def megatron_wafer_plan(
    wafer: WaferConfig, workload: TrainingWorkload
) -> Tuple[Optional[TrainingPlan], Optional[EvaluationResult]]:
    """Megatron's scheduling policy transplanted onto the wafer (MG-wafer).

    Returns the best (plan, result) over all physical TP shapes, or ``(None, None)``
    when no shape fits memory even with naive full recomputation.
    """
    parallelism = megatron_parallelism(
        workload.model,
        wafer.num_dies,
        wafer.die.dram_capacity,
        global_batch_size=workload.global_batch_size,
    )
    tp = parallelism.tp
    pp = max(1, min(wafer.num_dies // tp, workload.model.num_layers))
    evaluator = Evaluator(wafer)
    # Megatron knows full and selective recomputation, but not the wafer-global
    # balancing — so the choice is naive: none if it fits, everything otherwise.
    memory = TrainingMemoryModel(workload.model)
    if memory.fits(
        wafer.die.dram_capacity,
        pp, tp, workload.micro_batch_size, workload.seq_len, workload.num_microbatches(1),
    ):
        recompute = RecomputeConfig.none(pp)
    else:
        recompute = RecomputeConfig.full(pp, workload.layer_operators())

    best_plan: Optional[TrainingPlan] = None
    best_result: Optional[EvaluationResult] = None
    for shape in factor_shapes(tp):
        if shape[0] > wafer.dies_x or shape[1] > wafer.dies_y:
            continue
        try:
            placement = serpentine_placement(wafer.dies_x, wafer.dies_y, shape, pp)
        except ValueError:
            continue
        plan = TrainingPlan(
            parallelism=ParallelismConfig(dp=1, tp=tp, pp=pp),
            tp_shape=shape,
            collective=CollectiveAlgorithm.RING,
            recompute=recompute,
            placement=placement,
        )
        result = evaluator.evaluate(workload, plan)
        if result.oom:
            continue
        if best_result is None or result.throughput > best_result.throughput:
            best_plan, best_result = plan, result
    return best_plan, best_result


def cerebras_wafer_result(
    wafer: WaferConfig, workload: TrainingWorkload
) -> EvaluationResult:
    """Cerebras weight-streaming execution on the wafer, as an :class:`EvaluationResult`."""
    streaming = CerebrasWeightStreaming(wafer)
    outcome = streaming.evaluate(workload)
    useful_flops = workload.iteration_flops()
    compute_util = 0.0
    if outcome.iteration_time > 0:
        compute_util = useful_flops / (wafer.total_flops * outcome.iteration_time)
    return EvaluationResult(
        iteration_time=outcome.iteration_time,
        useful_flops=useful_flops,
        recompute_flops=0.0,
        oom=False,
        tp_comm_time=outcome.weight_stream_time + outcome.gradient_reduce_time,
        compute_utilization=min(1.0, compute_util),
        plan_label="weight-streaming",
        system_label=wafer.name,
    )
