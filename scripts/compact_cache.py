#!/usr/bin/env python
"""Compact a persistent evaluation-cache store (JSONL or sqlite).

JSONL stores grow append-only: every re-priced or re-flushed key adds a row, and only
the last row per key wins on load.  Week-long sweeps therefore accumulate dead rows
that slow every warm start.  This tool folds the history into exactly one row per
surviving key (``EvaluationCache.compact``, built on ``CacheStore.replace_all``).
Two eviction knobs compose (age first, then size):

* ``--max-age SECONDS`` expires rows whose ``priced_at`` timestamp is older than
  that (rows written before timestamps existed count as infinitely old);
* ``--max-entries N`` keeps only the newest N entries, oldest first out.

::

    PYTHONPATH=src python scripts/compact_cache.py sweep.jsonl
    PYTHONPATH=src python scripts/compact_cache.py sweep.jsonl --max-entries 50000
    PYTHONPATH=src python scripts/compact_cache.py sweep.jsonl --max-age 604800

``python -m repro cache compact`` is the same tool inside the unified CLI.  Exit
status 0 on success (the report shows rows before/after), 1 when the store cannot
be opened or a bound is out of range (``--max-age`` below 0 or NaN,
``--max-entries`` below 1).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api.cli import compact_store  # noqa: E402


def count_jsonl_rows(path: str) -> int:
    """Physical data rows of a JSONL store (header excluded); -1 when not JSONL."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return max(0, sum(1 for line in handle if line.strip()) - 1)
    except (OSError, UnicodeDecodeError):
        return -1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", help="path of the cache store (.jsonl, .sqlite, .db)")
    parser.add_argument(
        "--max-entries", type=int, default=None,
        help="also evict down to this many entries (newest kept)",
    )
    parser.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="also evict rows priced longer than this many seconds ago",
    )
    parser.add_argument(
        "--namespace", default=None,
        help="override the fingerprint namespace (default: current schema version)",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(args.store):
        print(f"no store at {args.store}", file=sys.stderr)
        return 1

    rows_before = count_jsonl_rows(args.store)
    report = compact_store(
        args.store,
        max_entries=args.max_entries,
        max_age_s=args.max_age,
        namespace=args.namespace,
    )

    before = f"{rows_before} rows" if rows_before >= 0 else "sqlite"
    print(
        f"compacted {args.store}: {before} / {report['loaded']} live entries "
        f"-> {report['kept']} entries"
        + (f" ({report['evicted']} evicted)" if report["evicted"] > 0 else "")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
