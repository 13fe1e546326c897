"""Prior design-space-exploration frameworks as wafer training strategies (Fig. 20).

The paper reproduces seven earlier DSE frameworks on the WSC and shows where each one's
blind spot costs performance.  We model every framework as a strategy generator whose
*output plan* has exactly the limitation the paper describes, and evaluate all of them
with the same evaluator so the comparison isolates the strategy quality:

========= ==============================================================================
Timeloop   die-level mapping only: no model parallelism awareness, the model is simply
           spread pipeline-only with no recomputation or placement reasoning.
DFModel    explores multi-dimensional parallelism but assumes a flat interconnect and
           ignores DRAM capacity (no recomputation), so memory-tight points are lost.
Calculon   DFModel plus memory-saving techniques: uniform full recomputation when the
           plan does not fit — better, but the recompute overhead is unmanaged.
Hecaton    chiplet-scale, 2D-mesh aware communication, but optimises DRAM *accesses*
           rather than capacity, and its 2D TP adds communication volume on the mesh.
Gemini     like Hecaton with LP-style mapping: mesh-aware shapes, naive recomputation.
PD         topology/collective co-design (TACOS-style collectives) but no DRAM-capacity
           management, so it also falls back to naive recomputation.
WSC-LLM    area-aware wafer DSE for inference: good placement, no recomputation-aware
           optimisation (uniform recompute, no Sender/Helper balancing).
========= ==============================================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.central_scheduler import CentralScheduler
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.placement import PlacementOptimizer, serpentine_placement
from repro.core.plan import RecomputeConfig, TrainingPlan
from repro.hardware.template import WaferConfig
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.interconnect.topology import MeshTopology
from repro.parallelism.partition import best_mesh_shape, factor_shapes
from repro.parallelism.strategies import ParallelismConfig, enumerate_tp_pp
from repro.workloads.memory import TrainingMemoryModel
from repro.workloads.workload import TrainingWorkload


def _naive_recompute(workload: TrainingWorkload, wafer: WaferConfig, tp: int, pp: int,
                     allow_full: bool = True) -> Optional[RecomputeConfig]:
    """None if it fits, full recomputation if that fits (and ``allow_full``), otherwise
    None (infeasible)."""
    memory = TrainingMemoryModel(workload.model)
    split = (wafer.die.dram_capacity, pp, tp, workload.micro_batch_size, workload.seq_len,
             workload.num_microbatches(1))
    if memory.fits(*split):
        return RecomputeConfig.none(pp)
    if allow_full and memory.fits(*split, recompute_fractions=[1.0] * pp):
        return RecomputeConfig.full(pp, workload.layer_operators())
    return None


def _evaluate_flat_interconnect_choice(
    wafer: WaferConfig, workload: TrainingWorkload, with_recompute: bool
) -> Tuple[Optional[TrainingPlan], Optional[EvaluationResult]]:
    """Pick (TP, PP) assuming a flat interconnect, then pay the real mesh cost.

    DFModel/Calculon-style: the candidate ranking uses a compute+volume-only model that
    cannot see the mesh, so it prefers large TP; the chosen plan is then priced on the
    actual wafer.
    """
    evaluator = Evaluator(wafer)
    best_score = None
    chosen: Optional[Tuple[int, int]] = None
    for tp, pp in enumerate_tp_pp(wafer.num_dies, workload.model.num_layers):
        if _naive_recompute(workload, wafer, tp, pp, allow_full=with_recompute) is None:
            continue
        # Flat-interconnect score: compute scales with 1/(tp*pp); communication volume is
        # assumed uniform, so the model favours the largest TP that fits.
        score = tp * 1.0 + pp * 0.1
        if best_score is None or score > best_score:
            best_score, chosen = score, (tp, pp)
    if chosen is None:
        return None, None
    tp, pp = chosen
    recompute = _naive_recompute(workload, wafer, tp, pp)
    if recompute is None:
        return None, None
    shape = min(
        (s for s in factor_shapes(tp) if s[0] <= wafer.dies_x and s[1] <= wafer.dies_y),
        key=lambda s: s[0],  # flat model has no shape preference; take a 1×tp strip
        default=None,
    )
    if shape is None:
        return None, None
    plan = TrainingPlan(
        parallelism=ParallelismConfig(dp=1, tp=tp, pp=pp),
        tp_shape=shape,
        collective=CollectiveAlgorithm.RING,
        recompute=recompute,
        placement=serpentine_placement(wafer.dies_x, wafer.dies_y, shape, pp),
    )
    return plan, evaluator.evaluate(workload, plan)


def _timeloop(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    """Die-level mapping only: pipeline-only split, no recomputation management."""
    evaluator = Evaluator(wafer)
    pp = min(wafer.num_dies, workload.model.num_layers)
    recompute = _naive_recompute(workload, wafer, 1, pp)
    if recompute is None:
        return EvaluationResult.out_of_memory("timeloop", wafer.name)
    plan = TrainingPlan(
        parallelism=ParallelismConfig(dp=1, tp=1, pp=pp),
        tp_shape=(1, 1),
        collective=CollectiveAlgorithm.RING,
        recompute=recompute,
        placement=serpentine_placement(wafer.dies_x, wafer.dies_y, (1, 1), pp),
    )
    return evaluator.evaluate(workload, plan)


def _dfmodel(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    _, result = _evaluate_flat_interconnect_choice(wafer, workload, with_recompute=False)
    if result is None:
        _, result = _evaluate_flat_interconnect_choice(wafer, workload, with_recompute=True)
    return result or EvaluationResult.out_of_memory("dfmodel", wafer.name)


def _calculon(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    _, result = _evaluate_flat_interconnect_choice(wafer, workload, with_recompute=True)
    return result or EvaluationResult.out_of_memory("calculon", wafer.name)


def _mesh_aware_naive_recompute(
    wafer: WaferConfig,
    workload: TrainingWorkload,
    collective: CollectiveAlgorithm,
    optimize_placement: bool,
) -> Optional[EvaluationResult]:
    """Mesh-aware (TP, PP) search, square TP shapes, but only naive recomputation."""
    evaluator = Evaluator(wafer)
    best: Optional[EvaluationResult] = None
    for tp, pp in enumerate_tp_pp(wafer.num_dies, workload.model.num_layers, max_tp=16):
        recompute = _naive_recompute(workload, wafer, tp, pp)
        if recompute is None:
            continue
        try:
            shape = best_mesh_shape(tp, wafer.dies_x, wafer.dies_y)
            placement = serpentine_placement(wafer.dies_x, wafer.dies_y, shape, pp)
        except ValueError:
            continue
        if optimize_placement:
            placement = PlacementOptimizer(MeshTopology.from_wafer(wafer)).optimize(
                shape, pp, ()
            )
        plan = TrainingPlan(
            parallelism=ParallelismConfig(dp=1, tp=tp, pp=pp),
            tp_shape=shape,
            collective=collective,
            recompute=recompute,
            placement=placement,
        )
        result = evaluator.evaluate(workload, plan)
        if result.oom:
            continue
        if best is None or result.throughput > best.throughput:
            best = result
    return best or EvaluationResult.out_of_memory("mesh-aware", wafer.name)


def _hecaton(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    # 2D TP on the mesh adds communication volume (the paper's critique).
    return _mesh_aware_naive_recompute(
        wafer, workload, CollectiveAlgorithm.TP_2D, optimize_placement=False
    )


def _gemini(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    return _mesh_aware_naive_recompute(
        wafer, workload, CollectiveAlgorithm.RING, optimize_placement=False
    )


def _pd(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    # Topology/collective co-design: TACOS-style collectives, still naive recomputation.
    return _mesh_aware_naive_recompute(
        wafer, workload, CollectiveAlgorithm.TACOS, optimize_placement=False
    )


def _wsc_llm(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    # Area-aware and placement-aware, but without recomputation-aware optimisation.
    return _mesh_aware_naive_recompute(
        wafer, workload, CollectiveAlgorithm.BIDIRECTIONAL_RING, optimize_placement=True
    )


def _watos(wafer: WaferConfig, workload: TrainingWorkload) -> Optional[EvaluationResult]:
    scheduler = CentralScheduler(wafer)
    best = scheduler.best(workload)
    return best.result if best else EvaluationResult.out_of_memory("watos", wafer.name)


DSE_FRAMEWORKS: Dict[str, Callable[[WaferConfig, TrainingWorkload], Optional[EvaluationResult]]] = {
    "timeloop": _timeloop,
    "dfmodel": _dfmodel,
    "calculon": _calculon,
    "hecaton": _hecaton,
    "gemini": _gemini,
    "pd": _pd,
    "wsc-llm": _wsc_llm,
    "watos": _watos,
}


def evaluate_dse_framework(
    name: str, wafer: WaferConfig, workload: TrainingWorkload
) -> EvaluationResult:
    """Evaluate one of the Fig. 20 frameworks by name."""
    try:
        strategy = DSE_FRAMEWORKS[name]
    except KeyError:
        known = ", ".join(sorted(DSE_FRAMEWORKS))
        raise KeyError(f"unknown DSE framework '{name}'; known: {known}") from None
    result = strategy(wafer, workload)
    if result is None:
        return EvaluationResult.out_of_memory(name, wafer.name)
    return result
