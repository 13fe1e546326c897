#!/usr/bin/env python
"""CI smoke test for the online scenario engine (trace replay determinism).

Generates one seeded 50-job trace with a mid-trace fault storm (all-fail faults,
so running jobs really get preempted), serves it three times —

* twice on fresh serial sessions into separate stores,
* once on a ``pool=2`` session into a third store —

and asserts:

1. the result store holds exactly one row per job plus the fleet summary row;
2. the storm preempted at least one job (the fault path actually ran);
3. all three stores are **byte-identical** — virtual-clock stamping means replay
   determinism is exact, and the scheduler prices in-process on any session, so
   a session with a pool cannot change a single byte either.

Run it the way CI does::

    PYTHONPATH=src python scripts/online_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api import Session  # noqa: E402
from repro.api.results import open_result_store  # noqa: E402
from repro.online import StormSpec, generate_trace, write_trace  # noqa: E402

JOBS = 50


def build_trace():
    return generate_trace(
        jobs=JOBS,
        rate=2.0,
        seed=11,
        workloads=["tiny"],
        fleet=["tiny", "tiny"],
        iterations=(20, 60),  # long enough that the storm lands on running jobs
        deadline_s=60.0,
        storms=[
            StormSpec(
                wafer=0, at=4.0, duration=6.0,
                die_fault_rate=0.2, dead_share=1.0, mean_repair_s=3.0,
            )
        ],
        name="online-smoke",
    )


def serve(trace_path: str, store_path: str, pool) -> object:
    with Session(pool=pool) as session:
        return session.serve(trace_path, results=store_path)


def main() -> int:
    tmpdir = tempfile.mkdtemp(prefix="online-smoke-")
    trace_path = os.path.join(tmpdir, "trace.jsonl")
    stores = [os.path.join(tmpdir, f"run{i}.jsonl") for i in range(3)]
    trace = build_trace()
    write_trace(trace, trace_path)

    first = serve(trace_path, stores[0], pool=None)
    serve(trace_path, stores[1], pool=None)
    warm = serve(trace_path, stores[2], pool=2)

    with open_result_store(stores[0]) as store:
        rows = len(store.load())
    expected = JOBS + 1  # one row per job plus the fleet summary
    if rows != expected:
        print(f"FAIL: store holds {rows} rows, expected {expected}")
        return 1
    if first.preemptions < 1:
        print("FAIL: the fault storm preempted nothing — the fault path never ran")
        return 1

    blobs = []
    for path in stores:
        with open(path, "rb") as handle:
            blobs.append(handle.read())
    if blobs[0] != blobs[1]:
        print("FAIL: two serial serves of one trace wrote different stores")
        return 1
    if blobs[0] != blobs[2]:
        print("FAIL: the warm-pool serve wrote a different store than the serial one")
        return 1

    print(
        f"PASS: {JOBS} jobs served 3x ({first.completed} ok, {first.failed} failed, "
        f"{first.preemptions} preemptions, util {first.util:.1%}); "
        f"{rows} rows per store, all byte-identical (serial x2 + pool=2)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
