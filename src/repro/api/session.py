"""The unified runtime: one object owning pools, caches and every search loop.

The paper's workflow is one pipeline — workload × wafer → plan search → DSE — and
:class:`Session` is its one entry point.  A session owns

* the process :class:`~repro.core.parallel_map.WorkerPool` (forked lazily, shared by
  every loop the session runs, joined on exit),
* the shared :class:`~repro.core.evalcache.EvaluationCache` (optionally persistent,
  compacted on exit), and
* the wafer/workload registry declarative specs resolve against.

``Session.run(spec)`` executes an :class:`~repro.api.ExperimentSpec` on any of the
four search loops and returns a uniform :class:`~repro.api.RunResult`; entering the
session (``with Session(...):``) additionally makes it *ambient*, so bare loop calls
inside the block share its pool and cache instead of building ephemeral ones.
:func:`default_session` parks one process-wide session for scripts that want
sharing without a ``with`` block.

Everything a session does is pure orchestration — pool pricing is memoization, cache
warm starts round-trip exactly — so ``Session.run`` is bit-identical to calling the
loops directly (asserted in ``tests/test_session.py``).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import queue
import threading
import time
import traceback
from typing import Any, Dict, Iterator, Optional, Union

from repro.obs import tracer as _obs
from repro.obs.report import fold_timings
from repro.obs.tracefile import write_trace

from repro.core import runtime
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import Evaluator
from repro.core.framework import Watos
from repro.core.genetic import GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.parallel_map import PoolConfig, WorkerPool, resolve_workers
from repro.core.retry import RetryPolicy
from repro.api import registry
from repro.api.result import RunResult
from repro.api.results import ResultStore, make_record, open_result_store
from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepSpec
from repro.fabric.protocol import FabricConnectionError, looks_like_endpoint, parse_endpoint

__all__ = [
    "Session",
    "SweepCellError",
    "close_default_session",
    "default_session",
]


class SweepCellError(RuntimeError):
    """A sweep cell exhausted its retries under ``keep_going=False`` (fail-fast).

    The failed cell was still recorded in the result store (so a later resume
    knows about it) before the sweep aborted.
    """

    def __init__(self, cell_id: str, label: str, error: str) -> None:
        reason = error.strip().splitlines()[-1] if error.strip() else "unknown error"
        super().__init__(f"sweep cell {cell_id} ({label or 'unnamed'}) failed: {reason}")
        self.cell_id = cell_id
        self.label = label
        self.error = error


class Session:
    """Owns the worker pool, the evaluation cache and the experiment registry.

    Every parameter is keyword-only.

    Parameters
    ----------
    pool:
        The worker runtime shared by every loop this session runs: a plain worker
        count (``None``/0/1 serial, negative = all CPUs), a
        :class:`~repro.core.parallel_map.PoolConfig`, or an existing
        :class:`WorkerPool` to adopt (the caller owns and closes it).  The pool is
        forked lazily on first use and joined when the session closes.
    cache:
        An existing :class:`EvaluationCache` to adopt (flushed but not closed on
        exit — the caller owns it).  A path here is a ``TypeError``: name a store
        path with ``store=``.
    store:
        A cache store path (``.jsonl`` / ``.sqlite``) the session opens (and
        closes) itself; a missing parent directory is created on the first write.
        With neither ``cache`` nor ``store``, the session builds a fresh in-memory
        cache.  A ``store`` of the shape ``host:port[/namespace]`` instead
        connects to a ``repro serve`` coordinator: the coordinator owns the
        authoritative cache/result stores, this session keeps an in-memory cache
        warm-started (and delta-synced) over the wire, and :meth:`sweep` claims
        cells from the coordinator's leased queue instead of walking the matrix
        locally.
    max_entries / namespace:
        Forwarded to :class:`EvaluationCache` when the session builds it.
    compact_on_exit / compact_max_entries / compact_max_age_s:
        When set, :meth:`close` compacts the attached store (fold append-only
        history to one row per key; optionally evict by count and by age).
    results:
        Either an existing :class:`~repro.api.results.ResultStore` to adopt (the
        caller owns and closes it), or a path (``.jsonl`` / ``.sqlite``) the
        session opens (and closes) itself.  The store becomes *ambient* the same
        way the cache is: every :meth:`sweep` on (or inside) this session streams
        completed cells to it unless the call names its own.
    results_compact:
        When set, :meth:`close` compacts the session's result store — folds
        duplicate rows (``--no-resume`` re-runs append one per cell) to one row
        per ``cell_id``, later wins — the result-store mirror of
        ``compact_on_exit``.
    trace:
        A path; enables the :mod:`repro.obs` tracer for this session's lifetime
        and writes the recorded spans (workers' included) there as a versioned
        JSONL span log on :meth:`close`.  ``repro profile <path>`` renders it.
        Tracing is volatile-only: results are bit-identical with it on or off.
    """

    def __init__(
        self,
        *,
        pool: Optional[Union[int, PoolConfig, WorkerPool]] = None,
        cache: Optional[EvaluationCache] = None,
        store: Optional[str] = None,
        max_entries: Optional[int] = 65536,
        namespace: Optional[str] = None,
        compact_on_exit: bool = False,
        compact_max_entries: Optional[int] = None,
        compact_max_age_s: Optional[float] = None,
        results: Optional[Union[str, os.PathLike, ResultStore]] = None,
        results_compact: bool = False,
        retry: Optional[RetryPolicy] = None,
        trace: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if isinstance(cache, (str, os.PathLike)):
            raise TypeError(
                f"cache= takes an EvaluationCache object, not the path {os.fspath(cache)!r}; "
                "pass the path as store= to open (and close) a persistent cache store"
            )
        if cache is not None and store is not None:
            raise ValueError("pass either cache= (adopted) or store= (owned), not both")
        #: Connected :class:`~repro.fabric.client.FabricClient` when ``store`` names
        #: a ``repro serve`` coordinator (``host:port[/namespace]``), else ``None``.
        self.fabric = None
        if cache is None and looks_like_endpoint(store):
            endpoint = parse_endpoint(store)  # raises the actionable bad-port error
            if namespace is not None and namespace != endpoint.namespace:
                raise ValueError(
                    f"namespace={namespace!r} conflicts with the endpoint's "
                    f"'/{endpoint.namespace}' — name the namespace in one place, "
                    f"e.g. store='{endpoint.address}/{namespace}'"
                )
            from repro.fabric.client import FabricClient

            # Fails here — not at first claim — when the coordinator is down.
            self.fabric = FabricClient(endpoint)
            store = None  # the coordinator owns the stores; local cache is in-memory
        self._owns_cache = cache is None
        self.cache: EvaluationCache = (
            cache
            if cache is not None
            else EvaluationCache(max_entries=max_entries, store=store, namespace=namespace)
        )
        self._adopted_pool = isinstance(pool, WorkerPool)
        self._pool: Optional[WorkerPool] = pool if self._adopted_pool else None
        self._pool_config: Optional[PoolConfig] = (
            pool if isinstance(pool, PoolConfig) else None
        )
        if self._adopted_pool:
            self.workers: int = pool.workers
        elif self._pool_config is not None:
            self.workers = self._pool_config.resolved()
        else:
            self.workers = resolve_workers(pool)
        self.compact_on_exit = (
            compact_on_exit or compact_max_entries is not None or compact_max_age_s is not None
        )
        self.compact_max_entries = compact_max_entries
        self.compact_max_age_s = compact_max_age_s
        self._owns_results = isinstance(results, (str, os.PathLike))
        self.results: Optional[ResultStore] = (
            open_result_store(results) if self._owns_results else results
        )
        self.results_compact = results_compact
        #: Default :class:`RetryPolicy` for this session's sweeps (a ``sweep``
        #: call's own ``retry=`` wins).  ``None`` means the built-in defaults.
        self.retry = retry
        self._trace_path: Optional[str] = os.fspath(trace) if trace is not None else None
        self._trace_meta: Dict[str, Any] = {}
        self._trace_mark = 0
        self._trace_enabled_here = False
        if self._trace_path is not None:
            self._trace_enabled_here = not _obs.is_enabled()
            _obs.enable()
            self._trace_mark = _obs.mark()
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ pool/cache
    @property
    def pool(self) -> Optional[WorkerPool]:
        """The session's persistent worker pool (``None`` when the session is serial).

        Forked on first access, bound to the session cache, reused by every loop the
        session runs — nested sweeps borrow these workers instead of building
        ephemeral pools.
        """
        if self._closed or self.workers <= 1:
            return None
        with self._pool_lock:  # concurrent cell threads must share one pool
            if self._pool is None:
                config = self._pool_config or PoolConfig(max_workers=self.workers)
                self._pool = WorkerPool(cache=self.cache, config=config)
            return self._pool

    @property
    def parallel(self) -> Optional[WorkerPool]:
        """What loops pass to the runtime layer (the session protocol attribute)."""
        return self.pool

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Join the pool, flush (and optionally compact) the store.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        runtime.pop_session(self)
        if self._pool is not None and not self._adopted_pool:
            self._pool.close()
        self.cache.flush()
        if self.compact_on_exit and self.cache.store is not None:
            self.cache.compact(
                max_entries=self.compact_max_entries, max_age_s=self.compact_max_age_s
            )
        if self._owns_cache:
            self.cache.close()
        if self.results_compact and self.results is not None:
            self.results.compact()
        if self._owns_results and self.results is not None:
            self.results.close()
        if self.fabric is not None:
            self.fabric.close()
        if self._trace_path is not None:
            # Written last: the pool is joined, so every worker ring the carries
            # shipped is already merged into this process's tracer.
            write_trace(
                self._trace_path, _obs.records(since=self._trace_mark), meta=self._trace_meta
            )
            if self._trace_enabled_here:
                _obs.disable()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        if self._closed:
            raise RuntimeError("session is closed")
        runtime.push_session(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __reduce__(self):
        raise TypeError("Session is process-local and cannot be pickled")

    # ------------------------------------------------------------------ registry
    @staticmethod
    def register_wafer(name: str, factory) -> None:
        registry.register_wafer(name, factory)

    @staticmethod
    def register_workload(name: str, factory) -> None:
        registry.register_workload(name, factory)

    # ------------------------------------------------------------------ execution
    def run(self, spec: Union[ExperimentSpec, Dict]) -> RunResult:
        """Execute one experiment spec and return a uniform :class:`RunResult`.

        Bit-identical to wiring the loop up by hand: the session only supplies the
        shared cache and pool, and both are pure memoization/transport.  The cache
        is flushed to its store (when one is attached) before returning.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        runner = {
            "scheduler": self._run_scheduler,
            "ga": self._run_ga,
            "dse": self._run_dse,
            "watos": self._run_watos,
        }[spec.kind]
        trace_mark = _obs.mark() if _obs.enabled else None
        start = time.perf_counter()
        run_result = runner(spec)
        run_result.seconds = time.perf_counter() - start
        run_result.label = spec.name or spec.kind
        run_result.cache_stats = self.cache.stats.as_dict()
        self.cache.flush()
        if trace_mark is not None and _obs.enabled:
            # Volatile diagnostics only (never stored/fingerprinted).  Under
            # jobs>1 concurrent cells share the ring, so per-run totals may
            # include sibling spans — the trace file keeps the exact timeline.
            run_result.timings = fold_timings(_obs.records(since=trace_mark))
        return run_result

    def sweep(
        self,
        sweep: Union[SweepSpec, ExperimentSpec, Dict, list, tuple],
        results: Optional[Union[str, os.PathLike, ResultStore]] = None,
        *,
        resume: bool = True,
        completed: Optional[set] = None,
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = True,
        skip_failed: bool = False,
        jobs: Optional[int] = None,
    ) -> Iterator[RunResult]:
        """Stream a :class:`SweepSpec` matrix: yield each :class:`RunResult` as it
        completes, on one shared pool and one warm cache.

        ``sweep`` is anything :meth:`SweepSpec.from_payload` takes: a
        :class:`SweepSpec`, a sweep or spec dict, one :class:`ExperimentSpec`, or a
        list/tuple of specs (an explicit cell list, exactly like
        ``SweepSpec.from_specs``).  Any other iterable — a generator, say — is a
        ``TypeError``: wrap it in ``list(...)``.

        With a result store attached — the ``results=`` argument (path or open
        :class:`~repro.api.results.ResultStore`), else the session's own
        ``Session(results=...)``, else the ambient one — every completed cell is
        written through immediately, and (unless ``resume=False``) cells whose
        ``cell_id`` the store already holds are skipped, not re-run and not
        yielded.  Pricing is pure and cell ids are content-derived, so an
        interrupted-and-resumed matrix stores byte-identical rows to a fresh run.
        ``completed=`` overrides the store lookup with a precomputed id set, so a
        caller that already read the store (the CLI) avoids a second full load.

        **Fault tolerance.**  Each cell runs under ``retry`` (the call's policy,
        else the session's, else :class:`RetryPolicy` defaults): a cell whose
        attempt raises — a task exception, a worker crash the pool could not
        absorb (:class:`~repro.core.parallel_map.WorkerCrashError`), or a
        :class:`~repro.core.runtime.CellTimeout` from the policy's ``timeout_s``
        — is retried with deterministic backoff, and after ``max_attempts`` it is
        **quarantined**: yielded (and recorded) as a ``status="failed"``
        :class:`RunResult` carrying the captured traceback, while the sweep moves
        on.  ``keep_going=False`` (fail-fast) instead raises
        :class:`SweepCellError` right after recording the failure.  On resume,
        failed cells are re-attempted unless ``skip_failed=True``.

        **Two-level scheduling.**  ``jobs=N`` (a ``jobs`` field on the
        :class:`SweepSpec` itself is the fallback) runs up to N whole cells
        concurrently on threads, while each running cell's search loop fans out on
        the shared session pool — the pool leases slots per map call, so wide
        fan-outs backfill capacity a narrow sibling leaves idle.  Results are
        still yielded in cell order (out-of-order completions are buffered), rows
        still stream to the store the moment a cell completes (possibly out of
        order — resume and export key by ``cell_id`` and never cared about row
        order), retry/quarantine still applies per cell, and every row is
        bit-identical to the serial walk because pricing is pure.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        spec = SweepSpec.from_payload(sweep)
        cells = spec.expand()
        if self._trace_path is not None:
            # Content-derived matrix fingerprint for the trace header: stable
            # across a resume of the same matrix (span timestamps are not).
            digest = hashlib.sha256(
                "\n".join(cell.cell_id for cell in cells).encode("utf-8")
            ).hexdigest()[:16]
            self._trace_meta = {"fingerprint": digest, "cells": len(cells)}
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1")
        if jobs is None:
            jobs = spec.jobs if spec.jobs is not None else 1
        owns_store = isinstance(results, (str, os.PathLike))
        store: Optional[ResultStore]
        if owns_store:
            store = open_result_store(results)
        elif results is not None:
            store = results
        elif self.results is not None:
            store = self.results
        else:
            store = runtime.current_results()
        policy = retry or self.retry or RetryPolicy()
        if self.fabric is not None:
            # Distributed mode: the coordinator owns the queue, resume semantics
            # and the authoritative store.  A local ``results=``/ambient store (if
            # any) still gets rows written through, so each host keeps a replica.
            return self._sweep_fabric_iter(
                cells, store, owns_store, policy, keep_going, skip_failed
            )
        if jobs > 1 and len(cells) > 1:
            return self._sweep_parallel_iter(
                cells, store, resume, owns_store, completed, policy, keep_going, skip_failed, jobs
            )
        return self._sweep_iter(
            cells, store, resume, owns_store, completed, policy, keep_going, skip_failed
        )

    def _sweep_iter(
        self,
        cells,
        store: Optional[ResultStore],
        resume: bool,
        owns_store: bool,
        completed: Optional[set],
        retry: RetryPolicy,
        keep_going: bool,
        skip_failed: bool,
    ) -> Iterator[RunResult]:
        try:
            if not resume:
                completed = set()
            elif completed is None:
                completed = (
                    set(store.completed_ids(include_failed=skip_failed))
                    if store is not None
                    else set()
                )
            for cell in cells:
                if cell.cell_id in completed:
                    continue
                run = self._run_cell(cell, retry)
                if store is not None:
                    store.put(cell.cell_id, make_record(run, cell.spec))
                if run.failed and not keep_going:
                    raise SweepCellError(cell.cell_id, run.label, run.error)
                yield run
        finally:
            if owns_store and store is not None:
                store.close()

    def _sweep_parallel_iter(
        self,
        cells,
        store: Optional[ResultStore],
        resume: bool,
        owns_store: bool,
        completed: Optional[set],
        retry: RetryPolicy,
        keep_going: bool,
        skip_failed: bool,
        jobs: int,
    ) -> Iterator[RunResult]:
        """Level 1 of the two-level scheduler: whole cells on concurrent threads.

        Up to ``jobs`` cell threads claim work from a shared cursor and run the
        ordinary :meth:`_run_cell` retry loop; inside each, the search loops fan
        out on the shared session pool, which leases worker slots per map call —
        so the matrix and the intra-cell parallelism share one set of workers.
        Cell state that must not leak between siblings (task tag, attempt
        deadline) is already thread-local in :mod:`repro.core.runtime`, and the
        session cache is lock-protected, so threads only meet at the pool's slot
        lease and the completion queue below.

        Only this generator thread touches the result store: completions arrive on
        a queue and are recorded immediately (rows may land out of cell order —
        resume and export never depended on row order), while yields are buffered
        back into cell order so the stream looks exactly like the serial walk.
        Early consumer exit (or fail-fast) stops the cursor, then drains — cells
        already in flight finish and their rows are recorded, matching the serial
        walk's record-before-raise contract.
        """
        try:
            if not resume:
                completed = set()
            elif completed is None:
                completed = (
                    set(store.completed_ids(include_failed=skip_failed))
                    if store is not None
                    else set()
                )
            todo = [cell for cell in cells if cell.cell_id not in completed]
            if not todo:
                return
            done_queue: "queue.Queue" = queue.Queue()
            cursor_lock = threading.Lock()
            cursor = [0]
            stop = threading.Event()

            def claim() -> Optional[int]:
                with cursor_lock:
                    if stop.is_set() or cursor[0] >= len(todo):
                        return None
                    position = cursor[0]
                    cursor[0] += 1
                    return position

            def cell_worker() -> None:
                while True:
                    position = claim()
                    if position is None:
                        return
                    cell = todo[position]
                    try:
                        run = self._run_cell(cell, retry)
                    except BaseException as exc:  # _run_cell quarantines Exceptions
                        done_queue.put((position, cell, None, exc))
                        return
                    done_queue.put((position, cell, run, None))

            threads = [
                threading.Thread(
                    target=cell_worker, name=f"sweep-cell-{index}", daemon=True
                )
                for index in range(min(jobs, len(todo)))
            ]
            for thread in threads:
                thread.start()
            buffered: Dict[int, RunResult] = {}
            next_yield = 0
            received = 0
            failure: Optional[SweepCellError] = None
            try:
                while received < len(todo) and failure is None:
                    position, cell, run, exc = done_queue.get()
                    received += 1
                    if exc is not None:
                        raise exc
                    if store is not None:
                        store.put(cell.cell_id, make_record(run, cell.spec))
                    if run.failed and not keep_going:
                        # Record first (done above), then fail fast: stop handing
                        # out new cells; in-flight siblings drain in `finally`.
                        failure = SweepCellError(cell.cell_id, run.label, run.error)
                        break
                    buffered[position] = run
                    while next_yield in buffered:
                        yield buffered.pop(next_yield)
                        next_yield += 1
                if failure is not None:
                    raise failure
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
                # Record whatever was still in flight when we stopped early —
                # completed pricing must reach the store, as in the serial walk.
                while True:
                    try:
                        position, cell, run, exc = done_queue.get_nowait()
                    except queue.Empty:
                        break
                    if run is not None and store is not None:
                        store.put(cell.cell_id, make_record(run, cell.spec))
        finally:
            if owns_store and store is not None:
                store.close()

    def _sweep_fabric_iter(
        self,
        cells,
        store: Optional[ResultStore],
        owns_store: bool,
        retry: RetryPolicy,
        keep_going: bool,
        skip_failed: bool,
    ) -> Iterator[RunResult]:
        """Distributed sweep: claim cells from the coordinator's leased queue.

        The local retry loop is replaced by the coordinator's *global* budget — one
        claim is one attempt, requeues carry the attempt count across hosts, and the
        coordinator (not this host) decides when a cell quarantines.  Each completed
        cell streams its row write-through to the coordinator plus a cache delta
        (``export_since`` watermark), so sibling hosts warm-start off each other's
        pricing.  Yield order is claim order, not matrix order: with several hosts
        draining one queue there is no meaningful global matrix order anyway.

        Degradation: losing the coordinator mid-sweep first burns the client's
        bounded reconnect/backoff budget; once spent, the in-flight cell is
        quarantined *locally* (a ``status="failed"`` row in the local store when one
        is attached — or, when the cell had already finished pricing, its real row
        is salvaged there) and the :class:`FabricConnectionError` propagates.
        """
        client = self.fabric
        by_id = {cell.cell_id: cell for cell in cells}
        current = None  # cell granted to us and not yet acknowledged
        current_run: Optional[RunResult] = None
        try:
            client.register(
                [
                    {
                        "id": cell.cell_id,
                        "kind": cell.spec.kind,
                        "label": cell.spec.name or cell.spec.kind,
                        "spec": cell.spec.to_dict(),
                    }
                    for cell in cells
                ],
                max_attempts=retry.max_attempts,
                skip_failed=skip_failed,
            )
            self.cache.seed(client.cache_pull())  # warm-start off sibling pricing
            watermark = self.cache.sync_seq
            client.start_heartbeats()
            while True:
                grant = client.claim()
                if grant.get("drained"):
                    break
                if grant.get("wait"):
                    time.sleep(float(grant.get("poll_s", 0.2)))
                    continue
                cell = by_id.get(str(grant.get("cell", "")))
                if cell is None:  # pragma: no cover - defensive; claims are host-scoped
                    continue
                attempt = int(grant.get("attempt", 1))
                current, current_run = cell, None
                run, error = self._attempt_cell(cell, retry)
                if run is not None:
                    run.attempts = attempt
                    current_run = run
                    record = make_record(run, cell.spec)
                    client.complete(cell.cell_id, record)
                    delta, watermark = self.cache.export_since(watermark)
                    client.cache_push(delta)
                    if store is not None:
                        store.put(cell.cell_id, record)
                    current = current_run = None
                    yield run
                    continue
                failed = RunResult(
                    kind=cell.spec.kind,
                    label=cell.spec.name or cell.spec.kind,
                    cell_id=cell.cell_id,
                    status="failed",
                    error=error,
                    attempts=attempt,
                )
                reply = client.fail(cell.cell_id, make_record(failed, cell.spec))
                current = None
                if reply.get("quarantined"):
                    if store is not None:
                        store.put(cell.cell_id, make_record(failed, cell.spec))
                    if not keep_going:
                        raise SweepCellError(cell.cell_id, failed.label, error)
                    yield failed
                    continue
                # Requeued (or a stale report the reaper already handled): back off
                # with the policy's deterministic delay before claiming again.
                delay = retry.delay_s(attempt, cell.cell_id)
                if delay > 0:
                    time.sleep(delay)
        except FabricConnectionError:
            if current is not None and store is not None:
                if current_run is not None:
                    # The cell finished pricing but the ack was lost: salvage the
                    # real row locally so `repro results merge` can fold it back.
                    store.put(current.cell_id, make_record(current_run, current.spec))
                else:
                    quarantined = RunResult(
                        kind=current.spec.kind,
                        label=current.spec.name or current.spec.kind,
                        cell_id=current.cell_id,
                        status="failed",
                        error=(
                            "connection to the sweep coordinator was lost while this "
                            "cell was in flight; quarantined locally"
                        ),
                        attempts=1,
                    )
                    store.put(current.cell_id, make_record(quarantined, current.spec))
            raise
        finally:
            if owns_store and store is not None:
                store.close()

    def serve(
        self,
        trace,
        *,
        fleet: Optional[list] = None,
        policy: str = "fcfs",
        results: Optional[Union[str, os.PathLike, ResultStore]] = None,
        resume: bool = True,
        flush_every: int = 1,
        max_tp: int = 0,
    ):
        """Serve a trace of arriving jobs online and return the ``ServeReport``.

        ``trace`` is a :class:`~repro.online.trace.Trace` or a path to a
        ``watos-trace`` JSONL file (``repro trace gen`` writes them).  Jobs are
        placed on the fleet by the named :mod:`~repro.online.policy` (``fcfs``,
        ``edf`` or ``affinity``), priced through this session's cache and pool by
        the paper's own :class:`~repro.core.central_scheduler.CentralScheduler`,
        and every job's queueing metrics stream write-through into the result
        store — the ``results=`` argument, else the session's own, else the
        ambient one, exactly like :meth:`sweep`.  All stored timestamps are
        *virtual*, so re-serving the same trace (same fleet, same policy) writes
        byte-identical rows; with ``resume=True`` rows already stored are skipped
        instead of rewritten.  ``fleet`` overrides the trace's own wafer list;
        ``flush_every`` batches store writes (1 = true write-through).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        from repro.online.engine import OnlineEngine  # late: avoids import cycles

        owns_store = isinstance(results, (str, os.PathLike))
        store: Optional[ResultStore]
        if owns_store:
            store = open_result_store(results)
        elif results is not None:
            store = results
        elif self.results is not None:
            store = self.results
        else:
            store = runtime.current_results()
        engine = OnlineEngine(
            self,
            fleet=fleet,
            policy=policy,
            store=store,
            resume=resume,
            flush_every=flush_every,
            max_tp=max_tp,
        )
        try:
            report = engine.serve(trace)
        finally:
            if owns_store and store is not None:
                store.close()
        self.cache.flush()
        return report

    def _attempt_cell(self, cell, retry: RetryPolicy):
        """One tagged, deadline-armed attempt: ``(run, "")`` or ``(None, traceback)``.

        The single-attempt core of :meth:`_run_cell`, reused by the fabric claim
        loop where the *coordinator* owns the retry budget.
        """
        runtime.set_task_tag(cell.cell_id)
        if retry.timeout_s is not None:
            runtime.set_deadline(time.monotonic() + retry.timeout_s)
        try:
            with _obs.span("cell", tag=cell.cell_id):
                run = self.run(cell.spec)
        except Exception:
            return None, traceback.format_exc()
        else:
            run.cell_id = cell.cell_id
            return run, ""
        finally:
            runtime.set_task_tag("")
            runtime.set_deadline(None)

    def _run_cell(self, cell, retry: RetryPolicy) -> RunResult:
        """One sweep cell under the retry policy: attempt, back off, quarantine.

        Every attempt is tagged with the cell id (the ambient
        :func:`repro.core.runtime.task_tag`, which the chaos harness targets) and,
        when the policy carries a ``timeout_s``, armed with a monotonic deadline
        that the pool supervisor and the serial fallback both enforce.  Success
        returns the (pure, bit-identical) run with only the volatile ``attempts``
        counter reflecting the bumps; exhaustion returns a quarantined
        ``status="failed"`` result carrying the last traceback instead of raising,
        so one poison cell cannot sink the matrix.
        """
        spec = cell.spec
        last_error = ""
        attempt = 0
        while True:
            attempt += 1
            run, last_error = self._attempt_cell(cell, retry)
            if run is not None:
                run.attempts = attempt
                return run
            if not retry.should_retry(attempt):
                break
            delay = retry.delay_s(attempt, cell.cell_id)
            if delay > 0:
                time.sleep(delay)
        return RunResult(
            kind=spec.kind,
            label=spec.name or spec.kind,
            cell_id=cell.cell_id,
            status="failed",
            error=last_error,
            attempts=attempt,
        )

    def _spec_parallel(self, spec: ExperimentSpec):
        """The parallelism a spec runs with: the session pool, else the spec's hint."""
        pool = self.pool
        if pool is not None:
            return pool
        return spec.workers

    def _handle(self, spec: ExperimentSpec) -> runtime.SessionHandle:
        """A session handle carrying this session's cache and the spec's parallelism."""
        return runtime.SessionHandle(
            cache=self.cache, parallel=self._spec_parallel(spec), results=self.results
        )

    def _scheduler(self, spec: ExperimentSpec, wafer, evaluator=None) -> CentralScheduler:
        kwargs: Dict[str, Any] = {"max_tp": spec.max_tp}
        split = spec.resolved_split_strategies()
        if split is not None:
            kwargs["split_strategies"] = split
        collective = spec.resolved_collective()
        if collective is not None:
            kwargs["collective"] = collective
        if evaluator is None:
            evaluator = Evaluator(wafer, cache=self.cache)
        return CentralScheduler(wafer, evaluator=evaluator, **kwargs)

    def _run_scheduler(self, spec: ExperimentSpec) -> RunResult:
        wafer = registry.resolve_wafer(spec.wafer_refs()[0])
        workload = registry.resolve_workload(spec.workload_refs()[0])
        scheduler = self._scheduler(spec, wafer)
        records = scheduler.explore(workload, session=self._handle(spec))
        feasible = [r for r in records if not r.result.oom]
        best = max(feasible, key=lambda r: r.throughput) if feasible else None
        return RunResult(
            kind=spec.kind,
            plan=best.plan if best else None,
            result=best.result if best else None,
            metrics={
                "records": len(records),
                "feasible": len(feasible),
                "throughput": best.result.throughput if best else 0.0,
                "iteration_time": best.result.iteration_time if best else float("inf"),
            },
            details=records,
        )

    def _run_ga(self, spec: ExperimentSpec) -> RunResult:
        wafer = registry.resolve_wafer(spec.wafer_refs()[0])
        workload = registry.resolve_workload(spec.workload_refs()[0])
        evaluator = Evaluator(wafer, cache=self.cache)
        scheduler = self._scheduler(spec, wafer, evaluator=evaluator)
        seed = scheduler.best(workload, session=self._handle(spec))
        if seed is None:
            return RunResult(kind=spec.kind, metrics={"feasible": 0, "throughput": 0.0})
        ga = GeneticOptimizer(evaluator, workload, spec.ga_config())
        outcome = ga.optimize(seed.plan, session=self._handle(spec))
        return RunResult(
            kind=spec.kind,
            plan=outcome.best_plan,
            result=outcome.best_result,
            metrics={
                "best_fitness": outcome.best_fitness,
                "throughput": outcome.best_result.throughput,
                "generations": outcome.generations,
                "seed_throughput": seed.result.throughput,
            },
            details=outcome,
        )

    def _run_dse(self, spec: ExperimentSpec) -> RunResult:
        workload = registry.resolve_workload(spec.workload_refs()[0])
        dse = DieGranularityDse(
            workload,
            areas_mm2=tuple(spec.areas_mm2),
            aspect_ratios=tuple(spec.aspect_ratios),
            session=self,
        )
        points = dse.sweep(
            max_tp=spec.max_tp or 8, session=self._handle(spec)
        )
        best = DieGranularityDse.best_point(points) if points else None
        metrics: Dict[str, Any] = {"points": len(points)}
        if best is not None:
            metrics.update(
                best_design=best.name,
                best_objective=best.objective,
                best_category=best.category,
            )
        return RunResult(kind=spec.kind, metrics=metrics, details=points)

    def _run_watos(self, spec: ExperimentSpec) -> RunResult:
        wafers = [registry.resolve_wafer(ref) for ref in spec.wafer_refs()]
        workloads = [registry.resolve_workload(ref) for ref in spec.workload_refs()]
        kwargs: Dict[str, Any] = {"max_tp": spec.max_tp, "use_ga": spec.use_ga}
        split = spec.resolved_split_strategies()
        if split is not None:
            kwargs["split_strategies"] = split
        collective = spec.resolved_collective()
        if collective is not None:
            kwargs["collective"] = collective
        watos = Watos(
            candidates=wafers, ga_config=spec.ga_config(), session=self, **kwargs
        )
        result = watos.explore(workloads, session=self._handle(spec))
        best_wafer = result.best_wafer()
        best = None
        for outcome in result.outcomes:
            if best is None or outcome.throughput > best.throughput:
                best = outcome
        metrics: Dict[str, Any] = {
            "outcomes": len(result.outcomes),
            "best_wafer": best_wafer,
            "throughput": best.throughput if best else 0.0,
        }
        return RunResult(
            kind=spec.kind,
            plan=best.plan if best else None,
            result=best.result if best else None,
            metrics=metrics,
            details=result,
        )

    # ------------------------------------------------------------------ default
    @classmethod
    def default(cls, **kwargs: Any) -> "Session":
        """The process-wide default session (see :func:`default_session`)."""
        return default_session(**kwargs)


def default_session(**kwargs: Any) -> Session:
    """The process-wide shared session, created on first call.

    Later calls return the same object (arguments are ignored once it exists), so
    library code and scripts can say ``default_session().run(spec)`` — or configure
    the pool once (``default_session(pool=8)``) and have every bare loop call in the
    process share it instead of building ephemeral ones.  ``kwargs`` are the
    :class:`Session` keywords.  The session is closed automatically at interpreter
    exit (joining the pool and flushing any store); :func:`close_default_session`
    closes it earlier.
    """
    existing = runtime.get_default_session()
    if existing is not None and not existing.closed:
        return existing
    session = Session(**kwargs)
    runtime.set_default_session(session)
    return session


def close_default_session() -> None:
    """Close and discard the process-wide default session (no-op without one)."""
    existing = runtime.get_default_session()
    if existing is not None:
        existing.close()
    runtime.set_default_session(None)


atexit.register(close_default_session)
