"""The benchmark's four workloads, driven through the public API only.

Every workload is closed-loop batch work from one process on the §V shapes of
``benchmarks/conftest.py::paper_workloads``.  The seed sets the GA seeds; the
Fig. 25 DSE has no random input, so ``dse_sweep`` ignores it.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import Session, SweepSpec
from repro.api.registry import resolve_wafer, resolve_workload
from repro.api.results import open_result_store
from repro.api.sweep import stream_seed
from repro.core.central_scheduler import CentralScheduler
from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse

from cellbench.layers import cell_span

#: The §V evaluation workloads (``benchmarks/conftest.py::paper_workloads``).
PAPER_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "llama2-30b": {"model": "llama2-30b", "global_batch_size": 128,
                   "micro_batch_size": 4, "sequence_length": 4096},
    "llama3-70b": {"model": "llama3-70b", "global_batch_size": 128,
                   "micro_batch_size": 4, "sequence_length": 4096},
    "gshard-137b": {"model": "gshard-137b", "global_batch_size": 128,
                    "micro_batch_size": 4, "sequence_length": 2048},
    "gpt-175b": {"model": "gpt-175b", "global_batch_size": 128,
                 "micro_batch_size": 4, "sequence_length": 2048},
}

#: Stored-row fields that are run-environment facts, not search results.
VOLATILE_FIELDS = ("seconds", "attempts", "written_at")

#: Fig. 24b ω sweep of ``ga_refine``.
OMEGAS = (0.1, 0.3, 0.5, 0.7, 0.9)
GA_SEEDS = 4
GA_POPULATION = 16
GA_GENERATIONS = 50


@dataclass
class Outcome:
    """What one pass of a workload produced, for the output checks and metrics."""

    attempted: int = 0
    failed: int = 0
    #: Deterministic output per cell id: stored rows with volatile fields
    #: stripped, or the GA result summary.
    rows: Dict[str, str] = field(default_factory=dict)
    #: ``(label, result, per-die DRAM capacity)`` of every returned plan.
    plans: List[Tuple[str, EvaluationResult, float]] = field(default_factory=list)
    #: The best plan of each cell, the one ``plan_tflops`` is the geomean of.
    best: List[Tuple[str, EvaluationResult]] = field(default_factory=list)
    #: Per model: ``[(throughput, memory capacity), …]`` of each design explored.
    designs: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: ``dse_sweep``: each model's winning die design.
    winners: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    shipped: int = 0
    respawns: int = 0
    worker_hwm_kb: int = 0


def geomean(values: List[float]) -> float:
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def hwm_kb(pid: Any = "self") -> int:
    """Peak resident set (``VmHWM``) of a process in KiB, 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def best_objective(designs: List[Tuple[float, float]]) -> float:
    """Fig. 25 objective (normalised throughput × normalised memory) of the winner."""
    top_tp = max((tp for tp, _ in designs), default=0.0) or 1.0
    top_mem = max((mem for _, mem in designs), default=0.0) or 1.0
    return max((tp / top_tp) * (mem / top_mem) for tp, mem in designs)


# ---------------------------------------------------------------------- sweeps
def run_sweep(sweep: SweepSpec, store: str, pool: Optional[int] = None,
           jobs: Optional[int] = None) -> Tuple[Outcome, list]:
    """Run a sweep into a fresh result store: its outcome and the runs, in cell order."""
    outcome = Outcome()
    with Session(pool=pool) as session:
        runs = list(session.sweep(sweep, results=store, resume=False, jobs=jobs))
        if session.workers > 1 and session.pool is not None:
            outcome.worker_hwm_kb = sum(
                hwm_kb(child.pid) for child in multiprocessing.active_children()
            )
            outcome.respawns = session.pool.respawns
        outcome.shipped = int(session.cache.stats.shipped)
    outcome.attempted = len(runs)
    for run in runs:
        if run.failed:
            outcome.failed += 1
            outcome.errors.append(f"cell {run.cell_id} ({run.label}) failed: {run.error}")
    store_handle = open_result_store(store)
    try:
        records = store_handle.load()
    finally:
        store_handle.close()
    for cell_id, record in records.items():
        kept = {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        outcome.rows[cell_id] = json.dumps(kept, sort_keys=True)
    return outcome, runs


def cell_sweep(seed: int) -> SweepSpec:
    """ROADMAP's unit of work: Watos cells on {config2, config3} × {llama2-30b, gpt-175b}."""
    return SweepSpec(
        base={"kind": "watos", "population": 10, "generations": 12, "seed": seed},
        grid={
            "wafer": ["config2", "config3"],
            "workload": [PAPER_WORKLOADS["llama2-30b"], PAPER_WORKLOADS["gpt-175b"]],
        },
    )


def watos_outcome(outcome: Outcome, runs: list) -> Outcome:
    """Collect the plans of Watos cells (the runs themselves are not kept)."""
    for run in runs:
        if run.failed or run.details is None:
            continue
        for point in run.details.outcomes:
            label = f"{point.wafer.name}/{point.workload.model.name}"
            outcome.plans.append((label, point.result, point.wafer.die.dram_capacity))
            outcome.designs.setdefault(point.workload.model.name, []).append(
                (point.result.throughput, point.wafer.total_dram_capacity)
            )
        if run.result is not None:
            outcome.best.append((run.label, run.result))
    return outcome


def run_paper_cell(seed: int, workdir: str) -> Outcome:
    return watos_outcome(*run_sweep(cell_sweep(seed), os.path.join(workdir, "cells.jsonl")))


def run_paper_cell_pool(seed: int, workdir: str) -> Outcome:
    store = os.path.join(workdir, "cells.jsonl")
    return watos_outcome(*run_sweep(cell_sweep(seed), store, pool=2, jobs=2))


def dse_sweep_spec() -> SweepSpec:
    return SweepSpec(
        base={"kind": "dse"},
        grid={"workload": [PAPER_WORKLOADS[name] for name in PAPER_WORKLOADS]},
    )


def run_dse_sweep(seed: int, workdir: str) -> Outcome:
    del seed  # the Fig. 25 grid has no random input
    outcome, runs = run_sweep(dse_sweep_spec(), os.path.join(workdir, "dse.jsonl"))
    # A serial sweep yields one run per cell, in grid order.
    for model, run in zip(PAPER_WORKLOADS, runs):
        if not run.failed and run.details:
            outcome.designs[model] = [
                (point.throughput, point.memory_capacity) for point in run.details
            ]
            outcome.winners[model] = DieGranularityDse.best_point(run.details)
    return outcome


def dse_winner_plans(outcome: Outcome) -> None:
    """Price the best plan on each model's winning die design (output check only).

    The DSE result carries normalised throughput; this re-derives the winning
    design's plan and its absolute TFLOP/s so ``plan_tflops`` means the same on
    every workload, and so the plan can be checked against per-die DRAM.
    """
    for model, winner in outcome.winners.items():
        workload = resolve_workload(PAPER_WORKLOADS[model])
        wafer = DieGranularityDse(workload).build_wafer(winner.area_mm2, winner.aspect_ratio)
        scheduler = CentralScheduler(
            wafer, evaluator=Evaluator(wafer), max_tp=8, optimize_placement=False
        )
        best = scheduler.best(workload)
        if best is None:
            outcome.failed += 1
            outcome.errors.append(f"{winner.name}: no feasible plan on the winning design")
            continue
        label = f"{winner.name}/{workload.model.name}"
        outcome.plans.append((label, best.result, wafer.die.dram_capacity))
        outcome.best.append((label, best.result))


# ---------------------------------------------------------------------- GA
def run_ga_refine(seed: int, workdir: str) -> Outcome:
    """Fig. 24b: refine one scheduler seed plan over ω × GA seeds on one evaluator."""
    del workdir
    outcome = Outcome()
    wafer = resolve_wafer("config3")
    workload = resolve_workload(PAPER_WORKLOADS["gshard-137b"])
    capacity = wafer.die.dram_capacity
    with Session() as session:
        evaluator = Evaluator(wafer, cache=session.cache)
        outcome.attempted += 1
        with cell_span("seed-plan"):
            seed_record = CentralScheduler(wafer, evaluator=evaluator, session=session).best(
                workload
            )
        if seed_record is None:
            outcome.failed += 1
            outcome.errors.append("config3/gshard-137b: the scheduler found no seed plan")
            return outcome
        outcome.plans.append(("seed", seed_record.result, capacity))
        outcome.rows["seed"] = json.dumps(
            [seed_record.plan.label(), repr(seed_record.result.throughput)]
        )
        for omega in OMEGAS:
            for index in range(GA_SEEDS):
                label = f"omega={omega} seed[{index}]"
                config = GAConfig(
                    population_size=GA_POPULATION,
                    generations=GA_GENERATIONS,
                    omega=omega,
                    seed=stream_seed(seed, index),
                )
                outcome.attempted += 1
                with cell_span(label):
                    result = GeneticOptimizer(evaluator, workload, config).optimize(
                        seed_record.plan, session=session
                    )
                outcome.rows[label] = json.dumps(
                    [result.best_plan.label(), repr(result.best_fitness),
                     repr(result.best_result.throughput)]
                )
                outcome.plans.append((label, result.best_result, capacity))
                outcome.best.append((label, result.best_result))
                outcome.designs.setdefault(workload.model.name, []).append(
                    (result.best_result.throughput, wafer.total_dram_capacity)
                )
    return outcome


# ---------------------------------------------------------------------- registry
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, str], Outcome]
    #: Resolves the workload's wafers and workloads and builds its Session: the
    #: set-up a user pays before the first cell.
    setup: Callable[[int], None]
    #: Completes a pass's outcome for checking, outside the timed region.
    finish: Optional[Callable[[Outcome], None]] = None


def _setup_cells(seed: int, pool: Optional[int] = None) -> None:
    for cell in cell_sweep(seed).expand():
        for ref in cell.spec.wafer_refs():
            resolve_wafer(ref)
        for ref in cell.spec.workload_refs():
            resolve_workload(ref)
    Session(pool=pool).close()


def _setup_ga(seed: int) -> None:
    del seed
    wafer = resolve_wafer("config3")
    resolve_workload(PAPER_WORKLOADS["gshard-137b"])
    with Session() as session:
        Evaluator(wafer, cache=session.cache)


def _setup_dse(seed: int) -> None:
    del seed
    for cell in dse_sweep_spec().expand():
        for ref in cell.spec.workload_refs():
            resolve_workload(ref)
    Session().close()


WORKLOADS: Dict[str, Workload] = {
    "paper_cell": Workload(
        "paper_cell",
        "4 Watos cells (config2/3 x llama2-30b/gpt-175b) as a serial sweep: the paper's "
        "unit of work, dominated by Eq. 2 placement",
        run_paper_cell,
        _setup_cells,
    ),
    "paper_cell_pool": Workload(
        "paper_cell_pool",
        "the 4 paper_cell Watos cells on Session(pool=2).sweep(jobs=2): Eq. 2 placement-bound, "
        "drives the worker pool and threaded cell loop; must store serial paper_cell's rows",
        run_paper_cell_pool,
        lambda seed: _setup_cells(seed, pool=2),
    ),
    "ga_refine": Workload(
        "ga_refine",
        "Fig. 24b omega sweep: GA refinement of one config3 x gshard-137b seed plan on one "
        "evaluator; GA-bound, 95% evaluation-cache hits (read path)",
        run_ga_refine,
        _setup_ga,
    ),
    "dse_sweep": Workload(
        "dse_sweep",
        "Fig. 25 die-granularity DSE for the four paper models: no placement, every "
        "pricing misses (cache write path); GCMR and pricing dominate",
        run_dse_sweep,
        _setup_dse,
        dse_winner_plans,
    ),
}
