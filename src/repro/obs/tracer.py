"""Process-local ring-buffer tracer: microsecond span records at near-zero cost.

The design follows the ``radical.utils`` ``profile.py``/``timing.py`` idiom — a
preallocated ring of flat records stamped with a monotonic clock, aggregated
post-hoc — adapted to this codebase's fork-based worker pool:

* **Module-level fast flag.**  Hot paths guard on ``tracer.enabled`` (one module
  attribute read) and pay nothing else while tracing is off.  ``span()`` returns a
  shared no-op context manager when disabled, so ``with span("store.put"):`` is
  safe to leave inline at warm (non-innermost) call sites.  The innermost sites
  (``Evaluator.evaluate``, ``EvaluationCache.get``) use the manual
  ``if tracer.enabled: t0 = tracer.now() ... tracer.add(...)`` form instead, which
  skips the context-manager machinery entirely.
* **Preallocated flat ring.**  Record fields are written into individual slots
  of one flat preallocated list (9 slots per record) rather than as tuples: the
  hot path then allocates no GC-tracked container at all (floats and strings
  are untracked), so heavy tracing neither triggers extra gen-0 collections nor
  grows the set the collector has to scan — which costs more than the writes
  themselves on allocation-heavy workloads.  The slot index comes from
  ``itertools.count`` (atomic under the GIL), so concurrent threads — the
  two-level scheduler runs cells on threads — never block each other on a lock.
  When the ring wraps, the oldest records are overwritten and reported as
  ``dropped``.  Readers materialise 9-tuples on the (cold) way out.
* **Worker merge.**  Forked pool workers inherit the parent's flag, clear their
  ring via :func:`reset_in_worker`, and ship their records back through the
  result-pipe carry path (see ``parallel_map``); the parent absorbs them in
  worker-slot order so merged timelines are deterministic.

Record layout (index → field)::

    0 kind     "S" span | "C" counter
    1 name     stage name ("pricing", "dispatch", "store.put", ...)
    2 t_start  time.perf_counter() at entry (CLOCK_MONOTONIC: one epoch
    3 t_end    time.perf_counter() at exit   across forked processes on Linux)
    4 tag      free-form context (cell_id, ...)
    5 pid      os.getpid() of the recording process
    6 worker   pool worker index, or None in the parent/session process
    7 depth    span nesting depth in the recording thread
    8 value    counter increment (1.0 for spans)

This module depends only on the standard library so every layer of the package
(core, api) can import it without cycles.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Record = Tuple[str, str, float, float, str, int, Optional[int], int, float]

DEFAULT_CAPACITY = 65536

FIELDS = ("kind", "name", "t_start", "t_end", "tag", "pid", "worker", "depth", "value")

#: Module-level fast flag. Hot paths read this attribute directly; everything else
#: goes through enable()/disable().
enabled = False

_TRACER: Optional["Tracer"] = None
_WORKER: Optional[int] = None


def now() -> float:
    """The tracer clock: ``time.perf_counter()`` (monotonic, sub-microsecond)."""
    return time.perf_counter()


class Tracer:
    """A fixed-capacity ring of span/counter records for one process."""

    __slots__ = ("capacity", "pid", "worker", "_ring", "_next", "_n", "_drained", "_local")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, worker: Optional[int] = None):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.pid = os.getpid()
        self.worker = worker
        # One flat list, 9 slots per record: slot writes of floats/strings create
        # no GC-tracked objects, unlike appending one 9-tuple per record.
        self._ring: List[Any] = [None] * (self.capacity * 9)
        self._next = itertools.count()
        self._n = 0  # total records ever written (monotone watermark)
        self._drained = 0
        self._local = threading.local()

    # -- writing ---------------------------------------------------------------

    def add_span(self, name: str, t_start: float, t_end: float, tag: str = "", depth: int = 0) -> None:
        index = next(self._next)  # atomic under the GIL: no lock on the hot path
        ring = self._ring
        base = (index % self.capacity) * 9
        ring[base] = "S"
        ring[base + 1] = name
        ring[base + 2] = t_start
        ring[base + 3] = t_end
        ring[base + 4] = tag
        ring[base + 5] = self.pid
        ring[base + 6] = self.worker
        ring[base + 7] = depth
        ring[base + 8] = 1.0
        self._n = index + 1

    def add_count(self, name: str, value: float = 1.0, tag: str = "") -> None:
        stamp = time.perf_counter()
        index = next(self._next)
        ring = self._ring
        base = (index % self.capacity) * 9
        ring[base] = "C"
        ring[base + 1] = name
        ring[base + 2] = stamp
        ring[base + 3] = stamp
        ring[base + 4] = tag
        ring[base + 5] = self.pid
        ring[base + 6] = self.worker
        ring[base + 7] = 0
        ring[base + 8] = value
        self._n = index + 1

    def absorb(self, records: Iterable[Record]) -> None:
        """Append records produced elsewhere (a worker's drained ring), verbatim."""
        ring = self._ring
        for record in records:
            index = next(self._next)
            base = (index % self.capacity) * 9
            ring[base : base + 9] = record
            self._n = index + 1

    # -- span nesting (per recording thread) -----------------------------------

    def _enter_depth(self) -> int:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth

    def _exit_depth(self, depth: int) -> None:
        self._local.depth = depth

    # -- reading ---------------------------------------------------------------

    def mark(self) -> int:
        """Watermark for :meth:`records` — the count of records written so far."""
        return self._n

    def records(self, since: int = 0) -> List[Record]:
        """Records written at or after watermark ``since`` that still live in the ring."""
        end = self._n
        start = max(since, end - self.capacity, 0)
        ring = self._ring
        out: List[Record] = []
        for index in range(start, end):
            base = (index % self.capacity) * 9
            if ring[base] is not None:
                out.append(tuple(ring[base : base + 9]))
        return out

    def dropped(self, since: int = 0) -> int:
        """How many records after ``since`` were overwritten before being read."""
        end = self._n
        if end <= since:
            return 0
        return max(0, (end - since) - self.capacity)

    def drain(self) -> List[Record]:
        """Records written since the previous drain (worker → carry shipping)."""
        records = self.records(self._drained)
        self._drained = self._n
        return records


class _SpanContext:
    """Context manager recording one span on exit (entry-time nesting depth)."""

    __slots__ = ("_tracer", "_name", "_tag", "_t0", "_depth")

    def __init__(self, tracer: Tracer, name: str, tag: str):
        self._tracer = tracer
        self._name = name
        self._tag = tag

    def __enter__(self) -> "_SpanContext":
        self._depth = self._tracer._enter_depth()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc: object) -> bool:
        t1 = time.perf_counter()
        self._tracer._exit_depth(self._depth)
        self._tracer.add_span(self._name, self._t0, t1, self._tag, self._depth)
        return False


class _NoopSpan:
    """Shared do-nothing context manager returned by span() while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


# -- module-level API (what instrumentation sites call) ----------------------------


def enable(capacity: Optional[int] = None, worker: Optional[int] = None) -> Tracer:
    """Turn tracing on, creating the process tracer on first use.

    Idempotent: re-enabling keeps the existing ring (and its records) unless a
    different ``capacity`` is requested.  ``worker`` stamps subsequent records
    with a pool worker index (parent processes leave it ``None``).
    """
    global enabled, _TRACER, _WORKER
    if worker is not None:
        _WORKER = worker
    if _TRACER is None or (capacity is not None and _TRACER.capacity != capacity):
        _TRACER = Tracer(capacity or DEFAULT_CAPACITY, worker=_WORKER)
    else:
        _TRACER.worker = _WORKER
    enabled = True
    return _TRACER


def disable() -> None:
    """Turn tracing off. The ring is kept so already-recorded spans stay readable."""
    global enabled
    enabled = False


def is_enabled() -> bool:
    return enabled


def current() -> Optional[Tracer]:
    return _TRACER


def reset_in_worker(worker: int) -> None:
    """Reset inherited tracer state in a freshly forked pool worker.

    The fork copies the parent's ring; the worker must not re-ship the parent's
    records, so it gets a fresh ring stamped with its own pid/worker index.  The
    ``enabled`` flag is kept as inherited — the pool keeps it in sync with the
    parent through the map message protocol.
    """
    global _TRACER, _WORKER
    _WORKER = worker
    if _TRACER is not None:
        _TRACER = Tracer(_TRACER.capacity, worker=worker)


def span(name: str, tag: str = ""):
    """Nestable span context manager; a shared no-op while tracing is disabled."""
    if not enabled or _TRACER is None:
        return _NOOP
    return _SpanContext(_TRACER, name, tag)


def add(name: str, t_start: float, t_end: float, tag: str = "") -> None:
    """Record a span from explicit timestamps (the manual hot-path form)."""
    if enabled and _TRACER is not None:
        _TRACER.add_span(name, t_start, t_end, tag)


def count(name: str, value: float = 1.0, tag: str = "") -> None:
    """Record a counter event (cache hit/miss, preemption, ...)."""
    if enabled and _TRACER is not None:
        _TRACER.add_count(name, value, tag)


def mark() -> int:
    return _TRACER.mark() if _TRACER is not None else 0


def records(since: int = 0) -> List[Record]:
    return _TRACER.records(since) if _TRACER is not None else []


def drain() -> List[Record]:
    return _TRACER.drain() if _TRACER is not None else []


def absorb(record_list: Iterable[Record]) -> None:
    if _TRACER is not None:
        _TRACER.absorb(record_list)


def as_dicts(record_list: Sequence[Any]) -> List[Dict[str, Any]]:
    """Normalise ring tuples (or already-decoded dicts) to full-key span dicts."""
    out: List[Dict[str, Any]] = []
    for record in record_list:
        if isinstance(record, dict):
            out.append({field: record.get(field) for field in FIELDS})
        else:
            out.append(dict(zip(FIELDS, record)))
    return out
