#!/usr/bin/env python
"""Search-throughput benchmark for the fast evaluation subsystem.

Runs the same GA plan search (population 16 × 30 generations by default) twice on one
wafer/workload pair:

* **baseline** — no evaluation cache and no stage-pricing memo
  (``Evaluator(use_cache=False, memoize_stages=False)``);
* **fast** — the default evaluation path: content-addressed ``EvaluationCache`` plus
  TP-engine stage memoization.

Both runs keep the memos that sit outside the evaluator's options: the GA's per-run
fitness memo, which prices a plan once per run however often it reappears, and the PP
engine's healthy-mesh routing memo.  So the baseline is not the raw path: it already
skips the plans its run has scored, the speedup measures only the evaluation cache and
the stage memo, and the hit rate counts evaluation-cache hits among the plans the GA
memo lets through (a plan another run, or the scheduler, priced first).

Both runs use the same RNG seed, so they must converge to the *identical*
``best_fitness`` — the fast path is pure memoization, not approximation.  The report
(and ``--json``) tracks evaluations/sec, the cache hit rate and the speedup.

``--parallel N`` also times the fast GA inside a ``Session(pool=N)``, then reruns it
warm on the same evaluator.  The GA prices its plans in-process whatever the session
holds, so these runs measure the fast path under a pool-owning session
(``parallel_evals_per_sec``), not a process-pool speedup; no worker starts.

Usage::

    PYTHONPATH=src python benchmarks/bench_search_throughput.py --json out.json
    PYTHONPATH=src python benchmarks/bench_search_throughput.py --parallel 4
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import Session
from repro.api.registry import tiny_wafer, tiny_workload
from repro.obs import tracer as obs_tracer
from repro.core.central_scheduler import CentralScheduler
from repro.core.evaluator import Evaluator
from repro.core.genetic import GAConfig, GeneticOptimizer
from repro.hardware.template import WaferConfig
from repro.workloads.workload import TrainingWorkload

# The bench shapes moved into the Session registry (spec name "tiny") so every CLI
# and the smoke specs share them; the names and dataclasses are unchanged, which
# keeps evaluation fingerprints (and persisted stores) compatible.
bench_wafer = tiny_wafer
bench_workload = tiny_workload


def run_ga(
    wafer: WaferConfig,
    workload: TrainingWorkload,
    config: GAConfig,
    fast: bool,
    session=None,
    evaluator=None,
):
    """One timed GA run; returns (elapsed seconds, GAResult, evaluator).

    ``session`` is handed to :meth:`GeneticOptimizer.optimize`, which prices in
    this process either way.  Pass ``evaluator`` to rerun against an existing warm
    cache.
    """
    if evaluator is None:
        evaluator = Evaluator(wafer, use_cache=fast, memoize_stages=fast)
    seed_plan = CentralScheduler(wafer, evaluator=evaluator).best(workload).plan
    ga = GeneticOptimizer(evaluator, workload, config)
    start = time.perf_counter()
    outcome = ga.optimize(seed_plan, session=session)
    elapsed = time.perf_counter() - start
    return elapsed, outcome, evaluator


def _trace_record_cost(batches: int = 300, batch: int = 1000) -> float:
    """Median per-record cost of the enabled tracing hot path, in seconds.

    Times sub-millisecond batches of the manual ``add()``/``count()`` form (the
    innermost tracepoints; context-manager spans are a per-generation minority)
    and takes the median batch.  Sub-millisecond samples fit inside the quiet
    windows of a busy CI machine, so the median is immune to scheduler spikes —
    yet it still includes amortized costs such as GC pressure from the ring's
    writes, which is exactly the regression class the gate must catch.
    """
    tracer = obs_tracer.enable()
    stamp = time.perf_counter()
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(batch // 2):
            obs_tracer.add("bench.op", stamp, stamp, "")
            obs_tracer.count("bench.op", 1.0, "")
        samples.append((time.perf_counter() - t0) / batch)
    obs_tracer.disable()
    tracer.drain()  # discard the synthetic records
    samples.sort()
    return samples[len(samples) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=16, help="GA population size")
    parser.add_argument("--generations", type=int, default=30, help="GA generations")
    parser.add_argument("--seed", type=int, default=0, help="GA RNG seed")
    parser.add_argument(
        "--parallel", type=int, default=None,
        help="also time the GA inside a Session(pool=N) (it prices in-process)",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the metrics as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    config = GAConfig(
        population_size=args.population, generations=args.generations, seed=args.seed
    )
    wafer, workload = bench_wafer(), bench_workload()
    # One fitness per individual per generation, plus the seed's; the GA memo answers
    # the repeats, so these are logical evaluations, not evaluator calls.
    logical_evals = args.population * args.generations + 1

    base_time, base_outcome, _ = run_ga(wafer, workload, config, fast=False)
    fast_time, fast_outcome, fast_eval = run_ga(wafer, workload, config, fast=True)

    if fast_outcome.best_fitness != base_outcome.best_fitness:
        print(
            "ERROR: cached best_fitness "
            f"{fast_outcome.best_fitness!r} != uncached {base_outcome.best_fitness!r}",
            file=sys.stderr,
        )
        return 1

    # Tracing overhead: the observability tracepoints must be near-free.  A/B
    # wall-clock timing cannot resolve a few-percent delta on a ~17 ms run when
    # a busy CI machine's noise windows are longer than the run itself, so the
    # enabled-path cost is computed analytically instead:
    #
    #     records one traced run writes x median per-record cost / plain run time
    #
    # The record count is deterministic (same seed, same plan stream) and the
    # per-record cost comes from sub-millisecond microbench batches (see
    # _trace_record_cost), so the metric is reproducible on a loaded machine.
    # The traced end-to-end runs below re-assert bit-identical results under
    # tracing and feed the report; they are not what the gate keys on.
    plain_times, traced_times = [], []
    records_per_run = 0
    for _ in range(3):
        t, outcome, _ = run_ga(wafer, workload, config, fast=True)
        if outcome.best_fitness != base_outcome.best_fitness:
            print("ERROR: untraced rerun best_fitness diverged", file=sys.stderr)
            return 1
        plain_times.append(t)
        tracer = obs_tracer.enable()
        watermark = tracer.mark()
        try:
            t, outcome, _ = run_ga(wafer, workload, config, fast=True)
        finally:
            obs_tracer.disable()
        if outcome.best_fitness != base_outcome.best_fitness:
            print("ERROR: traced run best_fitness diverged", file=sys.stderr)
            return 1
        traced_times.append(t)
        records_per_run = tracer.mark() - watermark
    record_cost_s = _trace_record_cost()
    plain_best = min([fast_time, *plain_times])
    trace_overhead_pct = 100.0 * records_per_run * record_cost_s / plain_best

    stats = fast_eval.cache.stats
    metrics = {
        "population": args.population,
        "generations": args.generations,
        "logical_evaluations": logical_evals,
        "evals_per_sec": logical_evals / fast_time,
        "baseline_evals_per_sec": logical_evals / base_time,
        "cache_hit_rate": stats.hit_rate,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "raw_evaluations": fast_eval.raw_evaluations,
        "baseline_seconds": base_time,
        "fast_seconds": fast_time,
        "speedup": base_time / fast_time,
        "best_fitness": fast_outcome.best_fitness,
        "best_fitness_match": True,
        "traced_seconds": min(traced_times),
        "traced_evals_per_sec": logical_evals / min(traced_times),
        "trace_records_per_run": records_per_run,
        "trace_record_cost_ns": record_cost_s * 1e9,
        "trace_overhead_pct": trace_overhead_pct,
    }

    if args.parallel is not None:
        # The fast GA inside one pool-owning Session, then a warm rerun on the same
        # session, evaluator and cache (every plan a cache hit).  The GA prices
        # in-process, so the pool never forks.
        with Session(pool=args.parallel) as session:
            par_time, par_outcome, par_eval = run_ga(
                wafer, workload, config, fast=True, session=session
            )
            reuse_time, reuse_outcome, _ = run_ga(
                wafer, workload, config, fast=True, session=session, evaluator=par_eval
            )
        for label, outcome in (("parallel", par_outcome), ("pool-reuse", reuse_outcome)):
            if outcome.best_fitness != base_outcome.best_fitness:
                print(
                    f"ERROR: {label} best_fitness diverged from serial", file=sys.stderr
                )
                return 1
        metrics["parallel_workers"] = args.parallel
        metrics["parallel_seconds"] = par_time
        metrics["parallel_evals_per_sec"] = logical_evals / par_time
        metrics["parallel_per_generation_seconds"] = par_time / args.generations
        metrics["pool_reuse_seconds"] = reuse_time
        metrics["pool_reuse_evals_per_sec"] = logical_evals / reuse_time
        metrics["pool_reuse_per_generation_seconds"] = reuse_time / args.generations
        print(
            f"Session(pool={args.parallel}): GA priced in-process {par_time:.3f}s "
            f"({metrics['parallel_evals_per_sec']:.0f} evals/s; no worker starts), "
            f"warm rerun {reuse_time:.3f}s"
        )

    print(
        f"GA {args.population}x{args.generations}: "
        f"baseline {base_time:.2f}s -> fast {fast_time:.2f}s "
        f"({metrics['speedup']:.1f}x, {metrics['evals_per_sec']:.0f} evals/s, "
        f"evaluation-cache hit rate {stats.hit_rate:.1%} behind the GA memo, "
        f"{fast_eval.raw_evaluations} raw evals)"
    )
    print(
        f"tracing: {records_per_run} records/run x {record_cost_s * 1e9:.0f}ns "
        f"= {trace_overhead_pct:.2f}% of a {plain_best * 1e3:.1f}ms run "
        "(enabled-path cost; results bit-identical traced vs untraced)"
    )
    if args.json == "-":
        json.dump(metrics, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2)
        print(f"metrics written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
