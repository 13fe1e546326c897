#!/usr/bin/env python
"""Fig. 24 — (a) multi-wafer scaling vs multi-node Megatron; (b) GA ω trade-off.

Besides the figure reproductions (pytest), this module is the scale-out driver for the
multi-wafer GA experiment: one GA per wafer slice, all wafers pricing against **one
shared (optionally persistent) evaluation cache**, fanned out over a process pool with
per-wafer seeded RNG streams.  The fan-out is pure memoization + decorrelated streams,
so the parallel run is bit-identical to the serial one, and a second invocation against
the same ``--cache`` path starts warm from disk.

The per-wafer matrix is data — one :class:`~repro.api.SweepSpec` with the wafer
slices and their RNG streams as a zipped axis — streamed through ``Session.sweep``;
``--results`` attaches a result store so an interrupted matrix resumes.

Usage::

    PYTHONPATH=src python benchmarks/bench_fig24_multiwafer_ga.py \
        --wafers 4 --parallel 4 --cache /tmp/fig24.jsonl --results /tmp/fig24-results.jsonl --json -
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List

from repro.analysis.reporting import Report
from repro.api import Session, SweepSpec, open_result_store
from repro.baselines.gpu_system import GpuEvaluator
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.core.parallel_map import parallel_map_merge, task_cache
from repro.hardware.configs import GpuSystemConfig, dgx_b300_equalized
from repro.hardware.template import WaferConfig
from repro.interconnect.topology import MultiWaferTopology
from repro.units import FP16_BYTES, tbps
from repro.workloads.models import get_model
from repro.workloads.workload import TrainingWorkload

MODELS_24A = {
    "gpt-175b": (64, 4, 2048),
    "llama3-405b": (64, 2, 4096),
    "deepseek-v3-671b": (64, 2, 4096),
}


def multi_wafer_throughput(wafer, workload, num_wafers, w2w_bandwidth, cache=None):
    """Pipeline the model across ``num_wafers`` wafers and price the W2W boundary.

    Each wafer hosts a contiguous slice of the layers and is scheduled by WATOS
    independently; the wafer-to-wafer activation transfer overlaps with compute except
    for the pipeline-fill portion and any excess of the transfer over one micro-batch's
    per-wafer time.  ``cache`` routes every per-wafer schedule through one shared
    evaluation cache, so repeated calls (e.g. the same slice under several W2W
    bandwidths) are priced once.
    """
    node = MultiWaferTopology(num_wafers=num_wafers, wafer=wafer, w2w_bandwidth=w2w_bandwidth)
    sub_model = replace(workload.model, name=f"{workload.model.name}-slice",
                        num_layers=max(1, workload.model.num_layers // num_wafers))
    sub_workload = TrainingWorkload(
        sub_model, workload.global_batch_size, workload.micro_batch_size,
        workload.seq_len,
    )
    best = CentralScheduler(wafer, evaluator=Evaluator(wafer, cache=cache)).best(sub_workload)
    if best is None:
        return 0.0
    sub_iteration = best.result.iteration_time
    n = sub_workload.num_microbatches(1)
    per_micro = sub_iteration / n
    transfer = (
        workload.micro_batch_size * workload.seq_len * workload.model.hidden_size * FP16_BYTES
        / node.w2w_link().bandwidth
    )
    exposed = (num_wafers - 1) * transfer + n * max(0.0, transfer - per_micro)
    total_time = sub_iteration + exposed
    total_flops = best.result.useful_flops * num_wafers
    return total_flops / total_time


# ---------------------------------------------------------------- multi-wafer GA sweep
def wafer_slice_workloads(
    workload: TrainingWorkload, num_wafers: int
) -> List[TrainingWorkload]:
    """The per-wafer layer slices of a model pipelined across ``num_wafers`` wafers.

    Remainder layers go to the front wafers.  Slices with equal layer counts share one
    model name (and therefore one evaluation fingerprint), which is exactly what lets
    the shared cache price the uniform middle wafers once.
    """
    if num_wafers < 1:
        raise ValueError("need at least one wafer")
    if num_wafers > workload.model.num_layers:
        raise ValueError(
            f"cannot pipeline {workload.model.num_layers} layers across "
            f"{num_wafers} wafers (each wafer needs at least one layer)"
        )
    base, remainder = divmod(workload.model.num_layers, num_wafers)
    slices = []
    for index in range(num_wafers):
        layers = base + (1 if index < remainder else 0)
        sub_model = replace(
            workload.model,
            name=f"{workload.model.name}-slice{layers}L",
            num_layers=layers,
        )
        slices.append(
            TrainingWorkload(
                sub_model,
                workload.global_batch_size,
                workload.micro_batch_size,
                workload.seq_len,
            )
        )
    return slices


class _WaferGaTask:
    """Picklable task running one wafer's GA against the runtime-provided cache.

    The cache comes from :func:`task_cache` — the shared parent cache on the serial
    path; inside a :class:`WorkerPool`, the chunk's cache, which reads the parent
    cache as it was when the worker forked — so the task never pickles a snapshot
    of the cache with a wafer item.
    """

    def __init__(self, wafer: WaferConfig, ga_config: GAConfig) -> None:
        self.wafer = wafer
        self.ga_config = ga_config

    def __call__(self, item):
        index, workload, seed_plan = item
        cache = task_cache()
        evaluator = (
            Evaluator(self.wafer, cache=cache) if cache is not None else Evaluator(self.wafer)
        )
        ga = GeneticOptimizer(evaluator, workload, self.ga_config.stream(index))
        outcome = ga.optimize(seed_plan)
        return {
            "wafer": index,
            "layers": workload.model.num_layers,
            "best_fitness": outcome.best_fitness,
            "throughput": outcome.best_result.throughput,
        }


def run_multiwafer_ga(
    wafer: WaferConfig,
    workload: TrainingWorkload,
    num_wafers: int,
    ga_config: GAConfig,
    cache: EvaluationCache,
    parallel=None,
) -> List[Dict]:
    """One GA per wafer slice, all pricing against ``cache``; returns per-wafer rows.

    Wafer ``i`` runs on RNG stream ``ga_config.stream(i)``, so the per-wafer
    trajectories are independent of execution order and worker count: the parallel
    fan-out is bit-identical to the serial loop.  ``parallel`` takes a persistent
    :class:`WorkerPool` (share one across the whole experiment matrix) or ``None``
    (serial); each wafer slice's whole GA runs in one worker, what each worker
    priced is merged back in worker order and flushed to the cache's store when
    one is attached.
    """
    slices = wafer_slice_workloads(workload, num_wafers)
    items = []
    for index, sub_workload in enumerate(slices):
        best = CentralScheduler(wafer, evaluator=Evaluator(wafer, cache=cache)).best(
            sub_workload
        )
        if best is None:
            raise ValueError(f"no feasible plan for wafer slice {index}")
        items.append((index, sub_workload, best.plan))

    rows = parallel_map_merge(
        _WaferGaTask(wafer, ga_config), items, parallel=parallel, cache=cache
    )
    cache.flush()
    return rows


def multiwafer_sweep(
    wafer: WaferConfig, workload: TrainingWorkload, num_wafers: int, config: GAConfig
) -> SweepSpec:
    """The Fig. 24 multi-wafer GA matrix as data: one zipped axis per wafer slice.

    Each cell is a ``kind="ga"`` experiment on (slice workload, per-wafer RNG
    stream) — ``zip`` locks the two axes together exactly like the old hand-rolled
    fan-out loop did, and ``Session.sweep`` prices every cell against the session's
    one shared (optionally persistent) cache.  Equal-sized middle slices share an
    evaluation fingerprint, so uniform wafers are still priced once.
    """
    slices = wafer_slice_workloads(workload, num_wafers)
    return SweepSpec(
        name="fig24-multiwafer-ga",
        base={
            "kind": "ga",
            "wafer": wafer,
            "population": config.population_size,
            "generations": config.generations,
            "omega": config.omega,
            "mutation_rate": config.mutation_rate,
            "crossover_rate": config.crossover_rate,
        },
        zip={
            "workload": slices,
            "ga.seed": [config.stream(index).seed for index in range(num_wafers)],
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Multi-wafer GA with a shared persistent evaluation cache"
    )
    parser.add_argument("--wafers", type=int, default=4, help="number of wafer slices")
    parser.add_argument("--population", type=int, default=8, help="GA population size")
    parser.add_argument("--generations", type=int, default=8, help="GA generations")
    parser.add_argument("--seed", type=int, default=0, help="base GA RNG seed")
    parser.add_argument(
        "--parallel", type=int, default=None,
        help="process-pool workers for the per-wafer GA fan-out (-1 = all CPUs)",
    )
    parser.add_argument(
        "--cache", metavar="PATH", default=None,
        help="persistent cache store (.jsonl); warm-starts when it exists",
    )
    parser.add_argument(
        "--results", metavar="PATH", default=None,
        help="result store (.jsonl): stream per-wafer RunResults through "
             "it and resume an interrupted matrix on re-invocation",
    )
    parser.add_argument(
        "--skip-verify", action="store_true",
        help="skip the serial verification run (bit-identity check)",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the metrics as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    # Same toy wafer/workload pair as bench_search_throughput, so the whole experiment
    # matrix completes in seconds while still forcing recomputation and balancing.
    from bench_search_throughput import bench_wafer, bench_workload

    wafer, workload = bench_wafer(), bench_workload()
    config = GAConfig(
        population_size=args.population, generations=args.generations, seed=args.seed
    )

    # The whole matrix is data — one SweepSpec — and one Session runs it: the
    # session owns the persistent worker pool (reused by every cell) and the shared
    # — optionally persistent — cache; with --results, each per-wafer RunResult is
    # written through to a result store as it completes.
    sweep_spec = multiwafer_sweep(wafer, workload, args.wafers, config)
    cells = sweep_spec.expand()
    session = Session(pool=args.parallel, store=args.cache)
    shared = session.cache
    loaded = shared.stats.loaded
    try:
        start = time.perf_counter()
        ran = {
            run.cell_id: run
            for run in session.sweep(sweep_spec, results=args.results)
        }
        elapsed = time.perf_counter() - start
        stats = shared.stats

        if args.results:
            # Resumed invocations only ran the missing cells; the store has all.
            with open_result_store(args.results) as result_store:
                records = result_store.load()
            metrics_per_cell = [dict(records[c.cell_id]["result"]["metrics"]) for c in cells]
        else:
            metrics_per_cell = [ran[c.cell_id].metrics for c in cells]
        rows = []
        for index, (cell, metrics) in enumerate(zip(cells, metrics_per_cell)):
            if "best_fitness" not in metrics:
                # Same contract as the legacy run_multiwafer_ga fan-out.
                raise ValueError(f"no feasible plan for wafer slice {index}")
            rows.append(
                {
                    "wafer": index,
                    "layers": cell.spec.workload.model.num_layers,
                    "best_fitness": metrics["best_fitness"],
                    "throughput": metrics["throughput"],
                }
            )

        fitness_match = None
        if not args.skip_verify:
            with Session() as serial_session:
                serial_rows = [
                    run.metrics for run in serial_session.sweep(sweep_spec)
                ]
            fitness_match = [r["best_fitness"] for r in rows] == [
                m["best_fitness"] for m in serial_rows
            ]
            if not fitness_match:
                print(
                    "ERROR: parallel/warm best_fitness diverged from serial",
                    file=sys.stderr,
                )
                return 1
    finally:
        session.close()
    metrics = {
        "wafers": args.wafers,
        "parallel_workers": args.parallel,
        "seconds": elapsed,
        "per_wafer": rows,
        "best_fitness": [r["best_fitness"] for r in rows],
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_hit_rate": stats.hit_rate,
        # Entries pool chunks carried back into the shared cache; 0 when every
        # cell priced in-process (a "ga" cell does).
        "cache_shipped_entries": stats.shipped,
        "loaded_entries": loaded,
        "warm_start": loaded > 0,
        "flushed_entries": stats.flushed,
        "store": args.cache,
        "results": args.results,
        "best_fitness_match": fitness_match,
    }
    print(
        f"multi-wafer GA {args.wafers}x({args.population}x{args.generations}): "
        f"{elapsed:.2f}s, hit rate {stats.hit_rate:.1%} "
        f"({stats.hits} hits / {stats.misses} misses, {loaded} loaded from store)"
    )
    if args.json == "-":
        json.dump(metrics, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2)
        print(f"metrics written to {args.json}")
    return 0


# ------------------------------------------------------------------------ pytest part
def test_fig24a_multi_wafer_scaling(benchmark, config3):
    from conftest import emit, run_once

    gpu_cluster = GpuSystemConfig(
        name="4-node-dgx", num_gpus=32, gpus_per_node=8, gpu=dgx_b300_equalized().gpu,
    )

    def run():
        # One shared cache across every (model, W2W bandwidth) cell: the same wafer
        # slice under two bandwidths is scheduled once and re-priced from the cache.
        cache = EvaluationCache()
        rows = {}
        for model_name, (batch, micro, seq) in MODELS_24A.items():
            workload = TrainingWorkload(get_model(model_name), batch, micro, seq)
            gpu = GpuEvaluator(gpu_cluster).evaluate(workload)
            rows[model_name] = {
                "Megatron-4node": gpu.throughput / 1e12,
                "WATOS-4 (0.4 TB/s W2W)": multi_wafer_throughput(
                    config3, workload, 4, 400e9, cache=cache
                ) / 1e12,
                "WATOS-18 (1.8 TB/s W2W)": multi_wafer_throughput(
                    config3, workload, 4, tbps(1.8), cache=cache
                ) / 1e12,
            }
        return rows

    rows = run_once(benchmark, run)
    report = Report("Fig. 24a — four Config-3 wafers vs four 8-GPU nodes")
    report.add_table("throughput (TFLOPS)", rows)
    emit(report)

    for model_name, row in rows.items():
        assert row["WATOS-18 (1.8 TB/s W2W)"] >= row["WATOS-4 (0.4 TB/s W2W)"] * 0.999
        assert row["WATOS-4 (0.4 TB/s W2W)"] >= row["Megatron-4node"] * 0.999, model_name


def test_fig24b_ga_omega_tradeoff(benchmark, config3):
    from conftest import emit, run_once

    workload = TrainingWorkload(get_model("llama2-30b"), 64, 8, 4096)
    seed_plan = CentralScheduler(config3).best(workload).plan
    evaluator = Evaluator(config3)

    def run():
        curves = {}
        for omega in (0.0, 0.25, 0.5, 0.75, 1.0):
            ga = GeneticOptimizer(
                evaluator, workload,
                GAConfig(population_size=6, generations=5, omega=omega, seed=11),
            )
            outcome = ga.optimize(seed_plan)
            start = outcome.history[0]
            curves[f"omega={omega}"] = [start / value if value else 0.0 for value in outcome.history]
        return curves

    curves = run_once(benchmark, run)
    report = Report("Fig. 24b — GA convergence for different elitism shares (ω)")
    report.add_series("normalised fitness improvement per generation (higher is better)", curves)
    emit(report)

    for curve in curves.values():
        assert all(curve[i + 1] >= curve[i] - 1e-9 for i in range(len(curve) - 1))


if __name__ == "__main__":
    raise SystemExit(main())
