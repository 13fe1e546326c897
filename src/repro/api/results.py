"""Streaming, queryable result stores for experiment matrices.

``RunResult.to_dict()`` has always been JSON-ready; this module gives long
``Session.sweep`` matrices somewhere durable to stream it.  A :class:`ResultStore`
maps stable ``cell_id`` keys (see :func:`repro.api.sweep.cell_key`) to one record
per completed cell, written through as each cell finishes, so an interrupted sweep
resumes by skipping every id already present.

The store is an append-only JSONL file on :mod:`repro.recordlog`, the one record
log the evaluation cache uses too, and the log owns the recovery rules — a schema
bump (namespace) degrades to a cold start instead of serving stale rows, a foreign
file is preserved at ``<path>.corrupt`` rather than truncated, a torn last line is
skipped and closed before the next append, and rewrites are atomic.  This module
keeps only the row layout and the queries.

Each record separates the deterministic from the volatile:

* ``result`` — ``RunResult.to_dict(volatile=False)``: the plan, metrics and label,
  with wall-clock and session-cumulative cache counters stripped.  Pricing is pure,
  so a completed-then-resumed sweep and a fresh serial run produce *byte-identical*
  ``result`` rows per cell.
* ``spec`` — the expanded cell's :class:`ExperimentSpec` as a dict (provenance).
* ``seconds`` / ``written_at`` — the volatile sidecar, kept for reporting.
"""

from __future__ import annotations

import csv
import os
import time
from collections import Counter, OrderedDict
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.obs import tracer as _obs
from repro.recordlog import JsonlLog

__all__ = [
    "RESULTS_SCHEMA_VERSION",
    "JsonlResultStore",
    "ResultStore",
    "export_csv",
    "make_record",
    "merge_stores",
    "open_result_store",
    "record_status",
    "results_namespace",
]

#: Version of the record layout.  Bump on incompatible change; stores written under
#: a different version are discarded on load (cold start, file reset in place).
#: v2: ``result`` rows carry ``status``/``error`` (cell quarantine), records carry
#: an ``attempts`` sidecar.
RESULTS_SCHEMA_VERSION = 2


def results_namespace() -> str:
    """The namespace persisted result stores are validated against on load."""
    return f"watos-results-v{RESULTS_SCHEMA_VERSION}"


def make_record(run, spec=None, now: Optional[float] = None) -> Dict[str, Any]:
    """The stored record of one completed cell (see module docstring)."""
    return {
        "result": run.to_dict(volatile=False),
        "spec": spec.to_dict() if spec is not None else None,
        "seconds": run.seconds,
        "attempts": getattr(run, "attempts", 1),
        "written_at": time.time() if now is None else now,
    }


def record_status(record: Dict[str, Any]) -> str:
    """The cell status a stored record reports (``"ok"`` for pre-status rows)."""
    return str((record.get("result") or {}).get("status") or "ok")


class ResultStore:
    """One record per completed sweep cell, queryable and safe to interrupt.

    Append-only JSONL: one header line, then one ``{"c": cell_id, "v": record}``
    row per :meth:`put`, a single ``O(1)`` append per completed cell.  The store
    wraps one :class:`repro.recordlog.JsonlLog`, which owns the file discipline (a
    torn last line left by a kill is skipped on the next load).  :meth:`load`
    returns records in completion order with later duplicates winning — the same
    discipline as the evaluation cache's spill.
    """

    def __init__(self, path: str, namespace: Optional[str] = None) -> None:
        self.path = str(path)
        self.namespace = namespace or results_namespace()
        self._log = JsonlLog(
            self.path, {"format": "watos-results-jsonl", "namespace": self.namespace}
        )

    @staticmethod
    def _decode(row: Any) -> Tuple[str, Dict[str, Any]]:
        return str(row["c"]), dict(row["v"])

    @property
    def load_errors(self) -> int:
        """Rows skipped during the most recent :meth:`load` (corruption)."""
        return self._log.errors

    def refuse_foreign(self, action: str) -> None:
        """Raise :class:`~repro.recordlog.StoreError`, one line naming what the file
        is, when the file at the path is not a result store."""
        self._log.refuse_foreign(action)

    # ------------------------------------------------------------------ primitives
    def load(self) -> "OrderedDict[str, Dict[str, Any]]":
        """All records in completion order (``{}`` for missing/corrupt/foreign)."""
        records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for cell_id, record in self._log.rows(self._decode):
            records.pop(cell_id, None)  # later duplicates win in position
            records[cell_id] = record
        return records

    def put(self, cell_id: str, record: Dict[str, Any]) -> None:
        """Write one completed cell through to disk immediately."""
        t0 = _obs.now() if _obs.enabled else 0.0
        self._log.append([{"c": cell_id, "v": record}])
        if _obs.enabled:
            _obs.add("store.put", t0, _obs.now(), tag=cell_id)

    def get(self, cell_id: str) -> Optional[Dict[str, Any]]:
        """One record, or ``None``."""
        return self.load().get(cell_id)

    def replace_all(self, records: "OrderedDict[str, Dict[str, Any]]") -> None:
        """Atomically rewrite the store to exactly ``records``.

        A file that is not a result store raises
        :class:`~repro.recordlog.StoreError` and stays as it is.
        """
        self._log.rewrite({"c": cell_id, "v": record} for cell_id, record in records.items())

    def physical_rows(self) -> int:
        """Rows physically on disk, duplicates included (what :meth:`compact` folds)."""
        return self._log.count()

    def compact(self) -> Dict[str, int]:
        """Fold duplicate rows to one per ``cell_id`` (later wins), via replace_all.

        The store grows append-only, so every ``--no-resume`` re-run of a matrix
        appends a fresh row per cell and only the last one wins on load — the same
        dead-row accumulation the evaluation cache compacts away.  Returns
        ``{"before": raw rows, "after": rows kept, "cells": distinct cells}``.
        """
        with _obs.span("store.compact", tag=self.path):
            before = self.physical_rows()
            records = self.load()
            self.replace_all(records)
        return {"before": before, "after": len(records), "cells": len(records)}

    def close(self) -> None:
        """Nothing to release: every append opens and closes the file."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ queries
    def cell_ids(self) -> List[str]:
        """Ids of every completed cell, in completion order."""
        return list(self.load())

    def completed_ids(self, include_failed: bool = False) -> set:
        """Cell ids a resumed sweep may skip.

        By default only cells that *succeeded* count as complete — quarantined
        (``status="failed"``) rows are re-attempted on resume.  ``include_failed``
        (the ``--skip-failed`` semantics) treats failed rows as settled too.
        """
        records = self.load()
        if include_failed:
            return set(records)
        return {
            cell_id
            for cell_id, record in records.items()
            if record_status(record) != "failed"
        }

    def __len__(self) -> int:
        return len(self.load())

    def __contains__(self, cell_id: str) -> bool:
        return self.get(cell_id) is not None

    def stats(self) -> Dict[str, Any]:
        """Store-level summary: cell count, per-kind histogram, time range."""
        records = self.load()
        kinds = Counter(
            (record.get("result") or {}).get("kind", "?") for record in records.values()
        )
        statuses = Counter(record_status(record) for record in records.values())
        times = [
            record["written_at"]
            for record in records.values()
            if record.get("written_at")
        ]
        seconds = [record.get("seconds", 0.0) for record in records.values()]
        return {
            "store": self.path,
            "cells": len(records),
            "kinds": dict(sorted(kinds.items())),
            "statuses": dict(sorted(statuses.items())),
            "failed": statuses.get("failed", 0),
            "load_errors": self.load_errors,
            "oldest_written_at": min(times) if times else None,
            "newest_written_at": max(times) if times else None,
            "total_run_seconds": sum(seconds),
        }

    def tail(
        self, n: int = 10, status: Optional[str] = None, kind: Optional[str] = None
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """The last ``n`` completed cells, oldest of them first.

        ``status`` filters by recorded cell status (``"failed"`` surfaces what a
        long sweep quarantined; ``"ok"`` hides it).  ``kind`` filters by result
        kind — ``kind="dse"`` tails a mixed matrix's DSE cells without wading
        through the other cells sharing the store.
        """
        if n <= 0:
            return []
        rows = list(self.load().items())
        if status is not None:
            rows = [(cid, record) for cid, record in rows if record_status(record) == status]
        if kind is not None:
            rows = [
                (cid, record)
                for cid, record in rows
                if (record.get("result") or {}).get("kind") == kind
            ]
        return rows[-n:]


#: The same class under its format's name: the benchmark harness
#: (``cellbench/layers.py``) wraps ``JsonlResultStore.__dict__["put"]``.
JsonlResultStore = ResultStore


def open_result_store(
    path: Union[str, os.PathLike], namespace: Optional[str] = None
) -> ResultStore:
    """The result store at ``path``; a sqlite path raises :class:`~repro.recordlog.StoreError`."""
    return ResultStore(str(path), namespace)


def merge_stores(
    paths: Sequence[Union[str, os.PathLike]],
    out_path: Union[str, os.PathLike],
) -> Dict[str, Any]:
    """Fold several result stores into one.

    Parts of a matrix swept on separate hosts or in separate runs each leave a
    partial store; this merges them keyed by ``cell_id`` with **later duplicates
    winning in argument order** — the same tiebreak every append-only store in the
    repo uses, so merging is associative with re-running.  An ``out_path`` that
    holds something other than a result store is refused and left as it is.
    Returns a summary: ``{"stores": n, "cells": n, "duplicates": n, "statuses":
    {...}}``.
    """
    if not paths:
        raise ValueError("merge needs at least one input store")
    merged: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    duplicates = 0
    for path in paths:
        store = open_result_store(path)
        try:
            for cell_id, record in store.load().items():
                if cell_id in merged:
                    duplicates += 1
                    merged.pop(cell_id)  # re-append so completion order stays honest
                merged[cell_id] = record
        finally:
            store.close()
    out = open_result_store(out_path)
    try:
        out.replace_all(merged)
    finally:
        out.close()
    statuses = Counter(record_status(record) for record in merged.values())
    return {
        "stores": len(paths),
        "cells": len(merged),
        "duplicates": duplicates,
        "statuses": dict(sorted(statuses.items())),
    }


def export_csv(store: ResultStore, handle: TextIO) -> int:
    """Write one CSV row per completed cell, metrics fanned out into columns.

    The column set is the union of every cell's metric keys (sorted), so
    heterogeneous matrices (scheduler cells next to GA cells) export cleanly;
    metrics a cell did not produce are left empty.  Returns the row count.
    """
    records = store.load()
    metric_keys = sorted(
        {
            key
            for record in records.values()
            for key in ((record.get("result") or {}).get("metrics") or {})
        }
    )
    writer = csv.writer(handle)
    writer.writerow(
        [
            "cell_id", "kind", "label", "plan", "oom", "status", "attempts",
            "error", "seconds", *metric_keys,
        ]
    )
    for cell_id, record in records.items():
        result = record.get("result") or {}
        metrics = result.get("metrics") or {}
        error = str(result.get("error") or "")
        writer.writerow(
            [
                cell_id,
                result.get("kind", ""),
                result.get("label", ""),
                result.get("plan", ""),
                result.get("oom", ""),
                result.get("status", "ok"),
                record.get("attempts", ""),
                # The last traceback line carries the exception; the full text
                # would bloat the sheet and wreck column widths in spreadsheets.
                error.strip().splitlines()[-1] if error.strip() else "",
                record.get("seconds", ""),
                *[metrics.get(key, "") for key in metric_keys],
            ]
        )
    return len(records)
