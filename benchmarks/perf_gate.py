#!/usr/bin/env python
"""CI perf-regression gate for the search stack (throughput + parallel + persistence).

Two modes:

* **check** (default) — compare fresh benchmark JSON against the committed
  ``benchmarks/baseline.json`` and fail (exit 1) on a regression.  Five metrics are
  gated (each skipped when absent from the baseline, so older baselines still work):

  - ``evals_per_sec`` — serial fast-path search throughput;
  - ``parallel_evals_per_sec`` — search throughput of the fast GA inside a
    ``Session(pool=2)``; the GA prices in-process, so this gates the fast path
    under a pool-owning session, not a process-pool speedup;
  - ``multiwafer_warm_hit_rate`` — warm-start hit rate of a second multi-wafer GA
    run against a persisted store (read from the ``--multiwafer`` metrics file);
  - ``sweep_cells_per_sec`` — two-level scheduler sweep throughput (read from the
    ``--sweep`` metrics file written by ``bench_sweep_throughput.py``);
  - ``trace_overhead_pct`` — cost of the *enabled* ``repro.obs`` tracepoints as
    a percentage of a fast search run (records written per run x measured
    per-record cost / plain run time; see ``bench_search_throughput.py``), gated
    against a fixed ceiling (``trace_overhead_max_pct``, 5 %) instead of a
    machine-scaled floor — it is a same-machine ratio.  The *disabled*
    tracepoints have no gate of their own: any cost they grow lands on
    ``evals_per_sec`` directly.

  The throughput metrics fail when they drop more than ``--max-drop`` (30 % by
  default) below the baseline value; the hit rate is machine-independent and is
  gated with a fixed 5 % tolerance instead::

      PYTHONPATH=src python benchmarks/bench_search_throughput.py --parallel 2 --json out.json
      PYTHONPATH=src python benchmarks/bench_fig24_multiwafer_ga.py --cache store.jsonl --json /dev/null ...
      PYTHONPATH=src python benchmarks/bench_fig24_multiwafer_ga.py --cache store.jsonl --json warm.json ...
      PYTHONPATH=src python benchmarks/bench_sweep_throughput.py --json sweep.json
      python benchmarks/perf_gate.py --current out.json --multiwafer warm.json --sweep sweep.json

* **refresh** — re-measure on the current machine and rewrite the baseline.  The
  committed baseline is written with ``--headroom`` (default 0.5) on the throughput
  metrics: the gate value is ``measured × (1 − headroom)``, so a CI runner up to ~2×
  slower than the refresh machine still passes while a real regression of the search
  stack does not.  The hit-rate gate gets a fixed 5 % headroom — it does not depend
  on machine speed::

      PYTHONPATH=src python benchmarks/perf_gate.py --refresh

The gate also fails when a benchmark reports a correctness problem
(``best_fitness_match`` false): speed without serial-identical results is a bug, not
a win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")
HIT_RATE_HEADROOM = 0.05
#: Ceiling on the enabled-tracer slowdown of the fast search path, in percent.
#: Machine-independent (it is a ratio of two runs on one machine), so refresh
#: writes the fixed budget rather than a measured-times-headroom value.
TRACE_OVERHEAD_MAX_PCT = 5.0
#: The multi-wafer measurement run used by both --refresh and the CI workflow
#: (keep .github/workflows/ci.yml in sync when changing this).
MULTIWAFER_ARGS = [
    "--wafers", "3", "--population", "6", "--generations", "6",
    "--parallel", "2", "--skip-verify",
]
#: The sweep-throughput measurement run used by both --refresh and the CI workflow
#: (keep .github/workflows/ci.yml in sync when changing this).
SWEEP_ARGS = [
    "--cells", "8", "--population", "6", "--generations", "3", "--jobs", "2",
]


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _gate_one(name: str, measured, gate_value, max_drop: float) -> bool:
    floor = gate_value * (1.0 - max_drop)
    ok = measured >= floor
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict}: {name} {measured:,.2f} vs baseline {gate_value:,.2f} "
        f"(floor {floor:,.2f} at max drop {max_drop:.0%})"
    )
    return ok


def _gate_ceiling(name: str, measured, ceiling) -> bool:
    """Gate a cost metric: fail when it rises *above* the baseline ceiling."""
    ok = measured <= ceiling
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: {name} {measured:,.2f} vs ceiling {ceiling:,.2f}")
    return ok


def _gate_metric(name: str, current: dict, baseline: dict, max_drop: float,
                 current_path: str) -> bool:
    """Gate one metric, tolerating files that predate it.

    A baseline without the metric skips the gate (older baselines keep working); a
    *metrics* file without it fails with a clear re-run message instead of the raw
    ``KeyError`` a stale bench JSON used to raise.
    """
    if name not in baseline:
        print(f"SKIP: baseline has no '{name}' gate (predates it); "
              "refresh the baseline to start gating it")
        return True
    if name not in current:
        print(f"FAIL: metric '{name}' missing from {current_path} — the JSON predates "
              "this gate; re-run the benchmark to regenerate it")
        return False
    return _gate_one(name, current[name], baseline[name], max_drop)


def check(
    current_path: str,
    baseline_path: str,
    max_drop: float,
    multiwafer_path: str = None,
    sweep_path: str = None,
) -> int:
    current = load_json(current_path)
    baseline = load_json(baseline_path)
    failed = False

    if current.get("best_fitness_match") is False:
        print("FAIL: benchmark reports best_fitness mismatch (cached != uncached)")
        return 1

    failed |= not _gate_metric(
        "evals_per_sec", current, baseline, max_drop, current_path
    )
    failed |= not _gate_metric(
        "parallel_evals_per_sec", current, baseline, max_drop, current_path
    )
    if "trace_overhead_max_pct" in baseline:
        # Cost ceiling, not a throughput floor: the enabled tracer may slow the
        # fast search path by at most this many percent.  The disabled path has
        # no gate of its own — any cost it grows shows up as an evals_per_sec
        # regression above.
        if "trace_overhead_pct" not in current:
            print(f"FAIL: metric 'trace_overhead_pct' missing from {current_path} — "
                  "the JSON predates this gate; re-run the benchmark")
            failed = True
        else:
            failed |= not _gate_ceiling(
                "trace_overhead_pct",
                current["trace_overhead_pct"],
                baseline["trace_overhead_max_pct"],
            )
    else:
        print("SKIP: baseline has no 'trace_overhead_max_pct' gate (predates it); "
              "refresh the baseline to start gating it")
    if "multiwafer_warm_hit_rate" in baseline:
        if multiwafer_path is None:
            print("FAIL: baseline gates multiwafer_warm_hit_rate but no --multiwafer "
                  "metrics file was given")
            failed = True
        else:
            multiwafer = load_json(multiwafer_path)
            if multiwafer.get("best_fitness_match") is False:
                print("FAIL: multi-wafer benchmark reports best_fitness mismatch")
                return 1
            if not multiwafer.get("warm_start"):
                print("FAIL: multi-wafer metrics come from a cold run (warm_start "
                      "false) — run the benchmark twice against one --cache store")
                failed = True
            elif "cache_hit_rate" not in multiwafer:
                print(f"FAIL: metric 'cache_hit_rate' missing from {multiwafer_path} "
                      "— the JSON predates this gate; re-run the benchmark")
                failed = True
            else:
                # The hit rate is machine-independent, so it gets only its own small
                # tolerance, never the machine-speed --max-drop allowance.
                failed |= not _gate_one(
                    "multiwafer_warm_hit_rate",
                    multiwafer["cache_hit_rate"],
                    baseline["multiwafer_warm_hit_rate"],
                    HIT_RATE_HEADROOM,
                )

    if "sweep_cells_per_sec" in baseline:
        if sweep_path is None:
            print("FAIL: baseline gates sweep_cells_per_sec but no --sweep "
                  "metrics file was given")
            failed = True
        else:
            sweep = load_json(sweep_path)
            if not sweep.get("rows_match", False):
                print("FAIL: sweep benchmark reports rows_match false — the "
                      "scheduled sweep diverged from the serial walk")
                return 1
            if "cells_per_sec" not in sweep:
                print(f"FAIL: metric 'cells_per_sec' missing from {sweep_path} — "
                      "the JSON predates this gate; re-run the benchmark")
                failed = True
            else:
                failed |= not _gate_one(
                    "sweep_cells_per_sec",
                    sweep["cells_per_sec"],
                    baseline["sweep_cells_per_sec"],
                    max_drop,
                )

    if "speedup" in current:
        print(f"      cache speedup {current['speedup']:.1f}x, "
              f"hit rate {current.get('cache_hit_rate', 0.0):.1%}")
    if failed:
        print("      refresh the baseline with: "
              "PYTHONPATH=src python benchmarks/perf_gate.py --refresh")
        return 1
    return 0


def refresh(out_path: str, headroom: float, population: int, generations: int) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from bench_fig24_multiwafer_ga import main as multiwafer_main
    from bench_search_throughput import main as bench_main
    from bench_sweep_throughput import main as sweep_main

    tmpdir = tempfile.mkdtemp(prefix="perf-gate-")
    search_json = os.path.join(tmpdir, "search.json")
    warm_json = os.path.join(tmpdir, "multiwafer.json")
    sweep_json = os.path.join(tmpdir, "sweep.json")
    store = os.path.join(tmpdir, "multiwafer.jsonl")
    try:
        status = bench_main(
            ["--json", search_json, "--population", str(population),
             "--generations", str(generations), "--parallel", "2"]
        )
        if status == 0:
            # Cold run populates the store, warm run measures the hit rate.
            status = multiwafer_main(
                [*MULTIWAFER_ARGS, "--cache", store, "--json", os.devnull]
            ) or multiwafer_main(
                [*MULTIWAFER_ARGS, "--cache", store, "--json", warm_json]
            )
        if status == 0:
            status = sweep_main([*SWEEP_ARGS, "--json", sweep_json])
        if status != 0:
            print("FAIL: benchmark run failed; baseline not refreshed")
            return status
        measured = load_json(search_json)
        warm = load_json(warm_json)
        sweep = load_json(sweep_json)
    finally:
        for path in (search_json, warm_json, sweep_json, store):
            if os.path.exists(path):
                os.unlink(path)
        os.rmdir(tmpdir)

    baseline = {
        "evals_per_sec": measured["evals_per_sec"] * (1.0 - headroom),
        "parallel_evals_per_sec": measured["parallel_evals_per_sec"] * (1.0 - headroom),
        "multiwafer_warm_hit_rate": warm["cache_hit_rate"] * (1.0 - HIT_RATE_HEADROOM),
        "trace_overhead_max_pct": TRACE_OVERHEAD_MAX_PCT,
        "sweep_cells_per_sec": sweep["cells_per_sec"] * (1.0 - headroom),
        "measured_evals_per_sec": measured["evals_per_sec"],
        "measured_parallel_evals_per_sec": measured["parallel_evals_per_sec"],
        "measured_multiwafer_warm_hit_rate": warm["cache_hit_rate"],
        "measured_trace_overhead_pct": measured.get("trace_overhead_pct"),
        "measured_sweep_cells_per_sec": sweep["cells_per_sec"],
        "sweep_speedup_at_refresh": sweep.get("sweep_speedup"),
        "headroom": headroom,
        "hit_rate_headroom": HIT_RATE_HEADROOM,
        "population": measured["population"],
        "generations": measured["generations"],
        "parallel_workers": measured.get("parallel_workers"),
        "speedup_at_refresh": measured.get("speedup"),
        "pool_speedup_at_refresh": measured.get("pool_speedup"),
        "cache_hit_rate_at_refresh": measured.get("cache_hit_rate"),
        "refresh_command": "PYTHONPATH=src python benchmarks/perf_gate.py --refresh",
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(
        f"baseline refreshed: evals_per_sec gate {baseline['evals_per_sec']:,.0f}, "
        f"parallel gate {baseline['parallel_evals_per_sec']:,.0f}, "
        f"warm hit-rate gate {baseline['multiwafer_warm_hit_rate']:.3f}, "
        f"sweep gate {baseline['sweep_cells_per_sec']:,.1f} cells/s -> {out_path}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", metavar="JSON",
                        help="metrics from bench_search_throughput.py --json")
    parser.add_argument("--multiwafer", metavar="JSON", default=None,
                        help="metrics from a warm bench_fig24_multiwafer_ga.py run")
    parser.add_argument("--sweep", metavar="JSON", default=None,
                        help="metrics from a bench_sweep_throughput.py run")
    parser.add_argument("--baseline", metavar="JSON", default=DEFAULT_BASELINE,
                        help="committed baseline (default: benchmarks/baseline.json)")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="maximum tolerated fractional drop below the baseline")
    parser.add_argument("--refresh", action="store_true",
                        help="re-measure and rewrite the baseline instead of checking")
    parser.add_argument("--headroom", type=float, default=0.5,
                        help="refresh: fraction shaved off the measured throughputs")
    parser.add_argument("--population", type=int, default=16,
                        help="refresh: GA population for the measurement run")
    parser.add_argument("--generations", type=int, default=30,
                        help="refresh: GA generations for the measurement run")
    args = parser.parse_args(argv)

    if args.refresh:
        return refresh(args.baseline, args.headroom, args.population, args.generations)
    if not args.current:
        parser.error("--current is required unless --refresh is given")
    return check(args.current, args.baseline, args.max_drop, args.multiwafer, args.sweep)


if __name__ == "__main__":
    raise SystemExit(main())
