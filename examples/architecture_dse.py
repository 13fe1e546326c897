#!/usr/bin/env python3
"""Architecture design-space exploration: co-explore training strategies for a mix of
LLM workloads across the Table II wafer presets.

This is the full WATOS flow of Fig. 9, with the wafer × workload matrix expressed as
*data*: one declarative `SweepSpec` grid, expanded to one `kind="ga"` cell per
(wafer, workload) point, streamed through `session.sweep` with every completed cell
written to a queryable result store.  Interrupt it and run it again — cells already
in the store are skipped, and the report is rebuilt from the store, not from memory.

Run with::

    python examples/architecture_dse.py [results.jsonl]
"""

import sys

from repro.analysis import geomean
from repro.analysis.reporting import Report
from repro.api import Session, SweepSpec, open_result_store

WORKLOADS = [
    {"model": "llama2-30b", "global_batch_size": 128, "micro_batch_size": 4,
     "sequence_length": 4096},
    {"model": "llama3-70b", "global_batch_size": 128, "micro_batch_size": 4,
     "sequence_length": 4096},
    {"model": "gpt-175b", "global_batch_size": 64, "micro_batch_size": 4,
     "sequence_length": 2048},
]


def main() -> None:
    # The matrix is one grid: candidate architectures (three Table II presets — an
    # enumerator could be used instead) × the workload mix, every cell a scheduler
    # seed + GA refinement.  The session owns the shared evaluation cache each cell
    # prices against.  GA cells price their plans in-process; to run cells side by
    # side, pass jobs=3 to session.sweep (a pool only helps Watos and DSE cells,
    # which fan whole points out over it).
    sweep = SweepSpec(
        name="arch-dse",
        base={"kind": "ga", "population": 8, "generations": 6, "seed": 0},
        grid={
            "wafer": ["config2", "config3", "config4"],
            "workload": WORKLOADS,
        },
    )
    results_path = sys.argv[1] if len(sys.argv) > 1 else "arch_dse_results.jsonl"
    with Session(results=results_path) as session:
        for run in session.sweep(sweep):
            print(f"  done: {run.summary()}")

    # The report reads the store — a resumed run reports the whole matrix even
    # though it only priced the missing cells.
    with open_result_store(results_path) as store:
        records = store.load()

    report = Report("WATOS architecture / training-strategy co-exploration")
    rows = {}
    plans = []
    throughput_by_wafer = {}
    for cell in sweep.expand():
        result = records[cell.cell_id]["result"]
        spec = records[cell.cell_id]["spec"]
        key = f"{spec['wafer']} / {spec['workload']['model']}"
        metrics = result["metrics"]
        rows[key] = {
            "throughput_tflops": metrics.get("throughput", 0.0) / 1e12,
            "seed_throughput_tflops": metrics.get("seed_throughput", 0.0) / 1e12,
        }
        plans.append(f"{key}: {result['plan'] or 'infeasible'}")
        throughput_by_wafer.setdefault(spec["wafer"], []).append(
            metrics.get("throughput", 0.0)
        )

    best_wafer = max(throughput_by_wafer, key=lambda w: geomean(throughput_by_wafer[w]))
    report.add_table("best strategy per (wafer, workload)", rows)
    report.add_text("best plan per point:\n  " + "\n  ".join(plans))
    report.add_text(f"best wafer across the workload mix: {best_wafer}")
    report.add_text(f"result store: {results_path} (try `python -m repro results "
                    f"export {results_path} --csv -`)")
    print(report.render())


if __name__ == "__main__":
    main()
