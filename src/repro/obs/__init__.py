"""Microsecond observability: ring-buffer tracepoints, span logs, profile reports.

The subsystem is three small, stdlib-only modules:

* :mod:`repro.obs.tracer` — the process-local ring-buffer :class:`Tracer`, the
  module-level ``enabled`` fast flag, and the ``span()``/``count()``/``add()``
  instrumentation API used across core/api.
* :mod:`repro.obs.tracefile` — the versioned JSONL span log written by
  ``Session(trace=...)`` / ``repro sweep --trace`` and read by ``repro profile``.
* :mod:`repro.obs.report` — post-hoc aggregation: per-stage tables,
  ``RunResult.timings`` fold-ins and the ASCII flame/waterfall view.

Hot call sites import :mod:`repro.obs.tracer` directly (``from repro.obs import
tracer as obs``) so the ``obs.enabled`` guard is a single module-attribute read.
"""

from repro.obs.tracer import (
    DEFAULT_CAPACITY,
    Tracer,
    absorb,
    add,
    as_dicts,
    count,
    current,
    disable,
    drain,
    enable,
    is_enabled,
    mark,
    now,
    records,
    reset_in_worker,
    span,
)
from repro.obs.tracefile import TRACE_FORMAT, TRACE_VERSION, read_trace, write_trace
from repro.obs.report import aggregate, fold_timings, render_table, render_waterfall

__all__ = [
    "DEFAULT_CAPACITY",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Tracer",
    "absorb",
    "add",
    "aggregate",
    "as_dicts",
    "count",
    "current",
    "disable",
    "drain",
    "enable",
    "fold_timings",
    "is_enabled",
    "mark",
    "now",
    "read_trace",
    "records",
    "render_table",
    "render_waterfall",
    "reset_in_worker",
    "span",
    "write_trace",
]
