#!/usr/bin/env python
"""CI profile smoke: a traced sweep must produce a useful ``repro profile`` report.

Runs one small DSE matrix (two cells of four whole design points) through the real
CLI twice:

1. **traced sweep** — ``repro sweep --trace`` on a 2-worker pool writing a result
   store and a span trace; the trace must contain the pipeline's load-bearing
   stages (pricing, dispatch, store I/O) with worker-merged spans, and
   ``repro profile --json`` must report non-zero time in each;
2. **resumed sweep** — the same matrix against the same store (zero cells re-run)
   writing a second trace; its header fingerprint (sha-256 of the expanded cell
   ids) must equal the first run's, which is what lets traces of one matrix be
   compared across resumes.

Exit status is non-zero on any violation, so the hosted ``profile_smoke`` job
(and ``scripts/ci_dryrun.py``) fail loudly::

    PYTHONPATH=src python scripts/profile_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api.cli import main as cli_main  # noqa: E402
from repro.obs.tracefile import read_trace  # noqa: E402

MATRIX = {
    "base": {"kind": "dse", "workload": "tiny", "areas_mm2": [300, 400, 500, 600],
             "aspect_ratios": [1.0]},
    "seeds": 2,
}

#: Stages the profile of a store-backed pooled sweep must show time in.
REQUIRED_STAGES = ("pricing", "dispatch", "worker.chunk", "cache.sync", "store.put", "cell")


def fail(message: str) -> "sys.NoReturn":
    print(f"profile_smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="profile-smoke-") as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(MATRIX, handle)
        results = os.path.join(tmp, "out.jsonl")
        trace_1 = os.path.join(tmp, "trace-1.jsonl")
        trace_2 = os.path.join(tmp, "trace-2.jsonl")

        status = cli_main(
            ["sweep", "--spec", spec_path, "--results", results,
             "--workers", "2", "--trace", trace_1]
        )
        if status != 0:
            fail(f"traced sweep exited {status}")

        profile_json = os.path.join(tmp, "profile.json")
        status = cli_main(["profile", trace_1, "--json", profile_json])
        if status != 0:
            fail(f"repro profile exited {status}")
        with open(profile_json, "r", encoding="utf-8") as handle:
            profile = json.load(handle)
        stages = profile.get("stages") or {}
        missing = [name for name in REQUIRED_STAGES if name not in stages]
        if missing:
            fail(f"profile is missing stages {missing} (has {sorted(stages)})")
        empty = [name for name in REQUIRED_STAGES if stages[name]["total_s"] <= 0.0]
        if empty:
            fail(f"profile reports zero time in {empty}")
        if not any(stage.get("from_workers") for stage in stages.values()):
            fail("no stage contains worker-merged spans (carry shipping broke)")
        hits = (profile.get("counters") or {}).get("cache.hit", {})
        if not hits.get("total"):
            fail("profile reports no cache.hit counter events")

        # A resume of a complete store runs zero cells but must stamp the same
        # matrix fingerprint, so traces of one sweep line up across invocations.
        status = cli_main(
            ["sweep", "--spec", spec_path, "--results", results,
             "--workers", "2", "--trace", trace_2]
        )
        if status != 0:
            fail(f"resumed sweep exited {status}")
        header_1, spans_1 = read_trace(trace_1)
        header_2, _ = read_trace(trace_2)
        if not header_1.get("fingerprint"):
            fail("trace header carries no matrix fingerprint")
        if header_1["fingerprint"] != header_2["fingerprint"]:
            fail(
                "trace fingerprint changed across a resume: "
                f"{header_1['fingerprint']} != {header_2['fingerprint']}"
            )

    print(
        f"profile_smoke: OK — {len(spans_1)} spans across "
        f"{len(stages)} stages, fingerprint {header_1['fingerprint']} "
        "stable across a resume"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
