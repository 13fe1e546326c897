#!/usr/bin/env python
"""CI chaos smoke: a sweep under seeded fault injection must land bit-identical.

Runs one small DSE matrix (two cells of four whole design points, each fanned out
over the pool) four times:

1. **reference** — fault-free, serial (the ground truth store);
2. **chaotic** — a 2-worker pool with a seeded :class:`ChaosMonkey` killing one
   worker mid-matrix *and* stalling one tagged cell past its
   :class:`RetryPolicy` wall-clock budget (timeout → supervisor kill → retry);
3. **resume** — the chaotic store re-swept, which must run zero cells;
4. **scheduled** — the matrix again under the two-level scheduler (``jobs=2``,
   cells concurrently in flight on one shared pool) with a fresh worker-kill
   injection; the store must still match the reference bit-identically.

The gate: every injection actually fired, every cell still completed with
``status="ok"``, and the chaotic store's deterministic rows are **byte-identical**
to the reference.  Exit status is non-zero on any violation, so the hosted
``chaos_smoke`` job (and ``scripts/ci_dryrun.py``) fail loudly::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api import Session, SweepSpec, open_result_store  # noqa: E402
from repro.core.chaos import ChaosMonkey  # noqa: E402
from repro.core.retry import RetryPolicy  # noqa: E402

MATRIX = {
    "base": {"kind": "dse", "workload": "tiny", "areas_mm2": [300, 400, 500, 600],
             "aspect_ratios": [1.0]},
    "seeds": 2,
}


def rows(path: str) -> dict:
    """Deterministic result rows of a store, canonical JSON per cell."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


def fail(message: str) -> "sys.NoReturn":
    print(f"chaos_smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    sweep = SweepSpec.from_payload(MATRIX)
    cells = sweep.expand()
    stalled = cells[1].cell_id
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        reference = os.path.join(tmp, "reference.jsonl")
        with Session() as session:
            ran = list(session.sweep(sweep, results=reference))
        if len(ran) != len(cells):
            fail(f"reference run priced {len(ran)} of {len(cells)} cells")

        chaotic = os.path.join(tmp, "chaotic.jsonl")
        retry = RetryPolicy(max_attempts=3, backoff_s=0.0, timeout_s=5.0, seed=0)
        with ChaosMonkey(os.path.join(tmp, "tokens"), seed=0) as chaos:
            chaos.kill(worker=1, at_task=2, times=1)  # crash mid-cell
            chaos.delay(30.0, tag=stalled, times=1)  # stall one cell past budget
            with Session(pool=2) as session:
                runs = list(session.sweep(sweep, results=chaotic, retry=retry))
                pool = session.pool
                crashes, respawns = pool.crashes, pool.respawns
        if chaos.claimed("kill") != 1:
            fail("the worker-kill injection never fired")
        if chaos.claimed("delay") != 1:
            fail("the delay injection never fired")
        if crashes < 2:  # the chaos kill plus the timed-out straggler's kill
            fail(f"expected >=2 worker crashes (kill + straggler), saw {crashes}")
        if respawns < 2:
            fail(f"expected >=2 respawns, saw {respawns}")
        bad = [run.cell_id for run in runs if run.status != "ok"]
        if bad:
            fail(f"cells quarantined under chaos: {bad}")

        if rows(chaotic) != rows(reference):
            fail("chaotic store is not bit-identical to the fault-free reference")

        with Session() as session:
            leftover = list(session.sweep(sweep, results=chaotic))
        if leftover:
            fail(f"resume re-ran {len(leftover)} cells of a complete store")

        # Pass 4: the same matrix under the two-level scheduler, with its own
        # chaos token dir so the kill budget is fresh while cells overlap.
        scheduled = os.path.join(tmp, "scheduled.jsonl")
        with ChaosMonkey(os.path.join(tmp, "tokens-jobs"), seed=0) as chaos:
            chaos.kill(worker=1, at_task=2, times=1)
            with Session(pool=2) as session:
                runs = list(
                    session.sweep(sweep, results=scheduled, retry=retry, jobs=2)
                )
                sched_crashes = session.pool.crashes
        if chaos.claimed("kill") != 1:
            fail("the jobs=2 worker-kill injection never fired")
        if sched_crashes < 1:
            fail(f"expected >=1 worker crash under jobs=2, saw {sched_crashes}")
        bad = [run.cell_id for run in runs if run.status != "ok"]
        if bad:
            fail(f"cells quarantined under jobs=2 chaos: {bad}")
        if rows(scheduled) != rows(reference):
            fail("jobs=2 store is not bit-identical to the fault-free reference")

    print(
        f"chaos_smoke: OK — {len(cells)} cells bit-identical under "
        f"{crashes} worker crash(es) and {respawns} respawn(s), "
        f"and again with jobs=2 ({sched_crashes} crash(es))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
