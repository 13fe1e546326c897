"""Versioned JSONL span log: what ``Session(trace=...)`` writes, ``repro profile`` reads.

File layout follows the record log every store shares (:mod:`repro.recordlog`): a
single JSON header line identifying the format and schema version, then one compact
JSON object per record, written through :func:`repro.recordlog.atomic_write`.
Records use short keys to keep big traces small::

    {"format": "watos-trace-spans", "version": 1, "fingerprint": "…", "cells": 4}
    {"k": "S", "n": "pricing", "b": 12.001, "e": 12.034, "g": "", "p": 71, "w": 0, "d": 0, "v": 1.0}

The reader skips a torn line (say, from a copy cut short), the same rule the stores
use, so ``repro profile`` still works on a damaged trace.  It stays strict about
the header, though: it reads a file the user names, so a wrong file raises an
actionable error instead of reading as an empty trace.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import tracer
from repro.recordlog import atomic_write

TRACE_FORMAT = "watos-trace-spans"
TRACE_VERSION = 1

# full field name <-> compact on-disk key (same order as tracer.FIELDS)
_SHORT_KEYS = ("k", "n", "b", "e", "g", "p", "w", "d", "v")
_TO_SHORT = dict(zip(tracer.FIELDS, _SHORT_KEYS))
_TO_LONG = dict(zip(_SHORT_KEYS, tracer.FIELDS))


def write_trace(
    path: str,
    records: Sequence[Any],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a span log (header + one line per record); returns the record count.

    ``records`` may be raw tracer ring tuples or span dicts.  ``meta`` is folded
    into the header line (e.g. the sweep fingerprint, which is stable across a
    resume of the same matrix).  The file is replaced atomically
    (:func:`repro.recordlog.atomic_write`), so an interrupted write never
    corrupts an existing trace and leaves no temp file behind.
    """
    spans = tracer.as_dicts(records)
    header: Dict[str, Any] = {"format": TRACE_FORMAT, "version": TRACE_VERSION}
    for key, value in (meta or {}).items():
        if key not in ("format", "version"):
            header[key] = value
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    rows = ({_TO_SHORT[field]: span.get(field) for field in tracer.FIELDS} for span in spans)
    atomic_write(
        path,
        itertools.chain([json.dumps(header, sort_keys=True)], (json.dumps(row) for row in rows)),
    )
    return len(spans)


def read_trace(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a span log; returns ``(header, spans)`` with full-key span dicts.

    Raises :class:`ValueError` on a missing/foreign header or an unknown schema
    version.  A torn final line (no trailing record after a crash) is skipped;
    torn lines elsewhere are skipped too rather than failing the whole report.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = json.loads(lines[0])
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: not a {TRACE_FORMAT} file (wrote it with --trace?)")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"{path}: trace schema version {header.get('version')!r} "
            f"(this build reads version {TRACE_VERSION})"
        )
    spans: List[Dict[str, Any]] = []
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue  # torn line (tail of an interrupted write): skip, keep the rest
        if isinstance(row, dict):
            spans.append({_TO_LONG.get(key, key): value for key, value in row.items()})
    return header, spans
