#!/usr/bin/env python
"""Sweep-throughput benchmark for the elastic two-level scheduler.

Runs the same GA sweep (``--cells`` seed replicates of a tiny GA search) twice on
one session:

* **serial** — the pre-elastic walk: one cell at a time (``jobs=1``);
* **scheduled** — the two-level scheduler: up to ``--jobs`` whole cells in flight,
  each on its own thread.  GA cells price their plans in-process, so a
  ``--workers`` pool is built but never forks.

Both runs resolve the identical cell set from the same spec, so their result
stores must agree **bit-identically** on every deterministic row (``rows_match``)
— the scheduler is pure reordering, not approximation.  The report (and
``--json``) tracks ``cells_per_sec``, the serial reference and the speedup so the
perf trajectory of the sweep runtime is measured from this PR on.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py --json out.json
    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py --jobs 4 --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.api import Session, SweepSpec, open_result_store


def sweep_spec(cells: int, population: int, generations: int) -> SweepSpec:
    return SweepSpec.from_payload(
        {
            "base": {
                "kind": "ga",
                "wafer": "tiny",
                "workload": "tiny",
                "population": population,
                "generations": generations,
            },
            "seeds": cells,
        }
    )


def run_sweep(spec: SweepSpec, path: str, jobs: int, workers) -> float:
    """One timed sweep into ``path``; returns elapsed seconds."""
    with Session(pool=workers) as session:
        start = time.perf_counter()
        runs = list(session.sweep(spec, results=path, jobs=jobs))
    elapsed = time.perf_counter() - start
    if any(run.failed for run in runs):
        raise RuntimeError("benchmark sweep had failed cells")
    return elapsed


def deterministic_rows(path: str) -> dict:
    """The store's deterministic rows (volatile timing fields stripped)."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=8, help="sweep cells (GA seeds)")
    parser.add_argument("--population", type=int, default=6, help="GA population size")
    parser.add_argument("--generations", type=int, default=3, help="GA generations")
    parser.add_argument(
        "--jobs", type=int, default=2, help="cells in flight for the scheduled run"
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="session pool size (GA cells price in-process; default: no pool)",
    )
    parser.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the metrics as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    spec = sweep_spec(args.cells, args.population, args.generations)
    tmpdir = tempfile.mkdtemp(prefix="bench-sweep-")
    serial_store = os.path.join(tmpdir, "serial.jsonl")
    scheduled_store = os.path.join(tmpdir, "scheduled.jsonl")
    try:
        serial_time = run_sweep(spec, serial_store, jobs=1, workers=args.workers)
        scheduled_time = run_sweep(
            spec, scheduled_store, jobs=args.jobs, workers=args.workers
        )
        rows_match = deterministic_rows(scheduled_store) == deterministic_rows(
            serial_store
        )
    finally:
        for path in (serial_store, scheduled_store):
            if os.path.exists(path):
                os.unlink(path)
        os.rmdir(tmpdir)

    if not rows_match:
        print(
            "ERROR: scheduled sweep rows diverged from the serial walk",
            file=sys.stderr,
        )

    metrics = {
        "cells": args.cells,
        "population": args.population,
        "generations": args.generations,
        "jobs": args.jobs,
        "workers": args.workers,
        "serial_seconds": serial_time,
        "scheduled_seconds": scheduled_time,
        "serial_cells_per_sec": args.cells / serial_time,
        "cells_per_sec": args.cells / scheduled_time,
        "sweep_speedup": serial_time / scheduled_time,
        "rows_match": rows_match,
    }
    print(
        f"sweep {args.cells} cells: serial {serial_time:.2f}s -> "
        f"jobs={args.jobs} {scheduled_time:.2f}s "
        f"({metrics['sweep_speedup']:.1f}x, {metrics['cells_per_sec']:.2f} cells/s, "
        f"rows {'identical' if rows_match else 'DIVERGED'})"
    )
    if args.json == "-":
        json.dump(metrics, sys.stdout, indent=2)
        print()
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2)
        print(f"metrics written to {args.json}")
    return 0 if rows_match else 1


if __name__ == "__main__":
    raise SystemExit(main())
