"""The unified runtime: one object owning pools, caches and every search loop.

The paper's workflow is one pipeline — workload × wafer → plan search → DSE — and
:class:`Session` is its one entry point.  A session owns

* the process :class:`~repro.core.parallel_map.WorkerPool` (forked lazily, shared by
  every point-level fan-out the session runs, joined on exit),
* the shared :class:`~repro.core.evalcache.EvaluationCache` (optionally persistent,
  compacted on exit), and
* the wafer/workload registry declarative specs resolve against.

``Session.run(spec)`` executes an :class:`~repro.api.ExperimentSpec` on any of the
four search loops and returns a uniform :class:`~repro.api.RunResult`; entering the
session (``with Session(...):``) additionally makes it *ambient*, so bare loop calls
inside the block share its cache (and, for the point-level loops, its pool).  Only
whole points reach the pool — Watos (wafer, workload) points, DSE design points and,
through :meth:`Session.sweep`, whole cells; the scheduler and the GA price their
plans in-process.
:func:`default_session` parks one process-wide session for scripts that want
sharing without a ``with`` block.

Everything a session does is pure orchestration — pool pricing is memoization, cache
warm starts round-trip exactly — so ``Session.run`` is bit-identical to calling the
loops directly (asserted in ``tests/test_session.py``).
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, wait as futures_wait
from typing import Any, Callable, Deque, Dict, Iterator, Optional, Tuple, Union

from repro.obs import tracer as _obs
from repro.obs.report import fold_timings
from repro.obs.tracefile import write_trace

from repro.core import runtime
from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import EvaluationCache, check_eviction_bounds
from repro.core.evaluator import Evaluator
from repro.core.framework import Watos
from repro.core.genetic import GeneticOptimizer
from repro.core.hardware_dse import DieGranularityDse
from repro.core.parallel_map import PoolConfig, WorkerPool
from repro.core.retry import RetryPolicy
from repro.api import registry
from repro.api.result import RunResult
from repro.api.results import ResultStore, make_record, open_result_store
from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepSpec
from repro.recordlog import StoreError

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


def _on_thread(fn: Callable[[Any], RunResult], cell) -> Future:
    """Run ``fn(cell)`` on its own daemon thread; the future holds the outcome."""
    future: Future = Future()

    def target() -> None:
        try:
            future.set_result(fn(cell))
        except BaseException as exc:  # re-raised, in cell order, by the consumer
            future.set_exception(exc)

    threading.Thread(target=target, name=f"sweep-cell-{cell.cell_id}", daemon=True).start()
    return future


class Session:
    """Owns the worker pool, the evaluation cache and the experiment registry.

    Every parameter is keyword-only.

    Parameters
    ----------
    pool:
        The worker runtime whole points fan out over (Watos points, DSE design
        points): a plain worker count (``None``/0/1 serial, negative = all CPUs), a
        :class:`~repro.core.parallel_map.PoolConfig`, or an existing
        :class:`WorkerPool` to adopt (the caller owns and closes it).  The pool is
        forked lazily on first use and joined when the session closes.
    cache:
        An existing :class:`EvaluationCache` to adopt (flushed but not closed on
        exit — the caller owns it).  A path here is a ``TypeError``: name a store
        path with ``store=``.
    store:
        A cache store path (``.jsonl``) the session opens (and closes) itself; a
        missing parent directory is created on the first write.
        With neither ``cache`` nor ``store``, the session builds a fresh in-memory
        cache.
    max_entries / namespace:
        Forwarded to :class:`EvaluationCache` when the session builds it.
    compact_on_exit / compact_max_entries / compact_max_age_s:
        When set, :meth:`close` compacts the attached store (fold append-only
        history to one row per key; optionally evict by count and by age).  An
        out-of-range bound raises ``ValueError`` here, not when the session closes.
    results:
        Either an existing :class:`~repro.api.results.ResultStore` to adopt (the
        caller owns and closes it), or a path (``.jsonl``) the session opens (and
        closes) itself.  The store becomes *ambient* the same way the cache is:
        every :meth:`sweep` on (or inside) this session streams completed cells
        to it unless the call names its own.  A result store at the cache store's
        path raises :class:`~repro.recordlog.StoreError`: each store would move
        the other's file aside.
    results_compact:
        When set, :meth:`close` compacts the session's result store — folds
        duplicate rows (``--no-resume`` re-runs append one per cell) to one row
        per ``cell_id``, later wins — the result-store mirror of
        ``compact_on_exit``.
    retry:
        The default :class:`~repro.core.retry.RetryPolicy` of this session's
        sweeps; a :meth:`sweep` call's own ``retry=`` wins.  ``None`` means the
        policy's defaults.
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
        check_eviction_bounds(compact_max_entries, compact_max_age_s)
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
        else:  # None/0/1 serial, negative = every CPU
            self.workers = 1 if pool is None else PoolConfig(max_workers=pool).resolved()
        self.compact_on_exit = (
            compact_on_exit or compact_max_entries is not None or compact_max_age_s is not None
        )
        self.compact_max_entries = compact_max_entries
        self.compact_max_age_s = compact_max_age_s
        self._refuse_cache_path(results)
        self._owns_results = isinstance(results, (str, os.PathLike))
        self.results: Optional[ResultStore] = (
            open_result_store(results) if self._owns_results else results
        )
        self.results_compact = results_compact
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
    def _refuse_cache_path(self, results) -> None:
        """Raise when ``results`` (a path or a store) names the cache store's file."""
        store = self.cache.store
        if not isinstance(results, (str, os.PathLike)):
            results = getattr(results, "path", None)
        if results is None or store is None:
            return
        path = os.fspath(results)
        if os.path.realpath(path) == os.path.realpath(store.path):
            raise StoreError(
                f"{path} cannot hold both the cache store and the result store; "
                "give each its own path"
            )

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The session's persistent worker pool (``None`` when the session is serial).

        Built on first access (its workers fork on the first map) and reused by
        every point-level fan-out the session runs, against the session cache.
        """
        if self._closed or self.workers <= 1:
            return None
        with self._pool_lock:  # concurrent cell threads must share one pool
            if self._pool is None:
                config = self._pool_config or PoolConfig(max_workers=self.workers)
                self._pool = WorkerPool(config=config)
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
        shared cache and, to the point-level loops, the pool; both are pure
        memoization/transport.  The cache is flushed to its store (when one is
        attached) before returning.
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
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = True,
        skip_failed: bool = False,
        jobs: Optional[int] = None,
    ) -> Iterator[RunResult]:
        """Stream a :class:`SweepSpec` matrix: yield each :class:`RunResult` in cell
        order, on one shared pool and one warm cache.

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
        A result store at the session's cache store path raises
        :class:`~repro.recordlog.StoreError` before any cell runs.

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

        **Two-level scheduling.**  At most ``jobs`` cells (default 1) are admitted
        and not yet yielded, and cells are admitted only while the consumer is
        pulling, so a consumer that stops after one result leaves at most
        ``1 + jobs`` rows.  ``jobs=1`` is the serial walk: each cell runs inline in
        the calling thread when it is pulled, so the stream is lazy and Ctrl-C
        interrupts the running cell.  Above 1, each cell runs on its own daemon
        thread; a cell whose loop fans out whole points (``watos``, ``dse``) maps
        them onto the shared session pool, which leases slots per map call, so wide
        fan-outs backfill capacity a narrow sibling leaves idle.  ``scheduler`` and
        ``ga`` cells price in their own thread.  Rows reach the store the moment a
        cell finishes (possibly out of cell order — resume and export key by
        ``cell_id``), also for cells still in flight when the stream closes or
        fails fast; yields stay in cell order, retry/quarantine applies per cell,
        and every row is bit-identical to the serial walk because pricing is pure.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        cells = SweepSpec.from_payload(sweep).expand()
        jobs = 1 if jobs is None else jobs
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self._trace_path is not None:
            # Content-derived matrix fingerprint for the trace header: stable
            # across a resume of the same matrix (span timestamps are not).
            digest = hashlib.sha256(
                "\n".join(cell.cell_id for cell in cells).encode("utf-8")
            ).hexdigest()[:16]
            self._trace_meta = {"fingerprint": digest, "cells": len(cells)}
        store = results if results is not None else self.results
        if store is None:
            store = runtime.current_results()
        self._refuse_cache_path(store)
        owns_store = isinstance(store, (str, os.PathLike))
        if owns_store:
            store = open_result_store(store)
        policy = retry or self.retry or RetryPolicy()
        return self._stream(
            cells, store, owns_store, resume, skip_failed, policy, jobs, keep_going
        )

    def _stream(
        self, cells, store, owns_store, resume, skip_failed, retry, jobs, keep_going
    ) -> Iterator[RunResult]:
        """The one cell loop: every cell the store does not settle, in cell order.

        Admission is bounded by ``jobs`` and paced by the consumer (see
        :meth:`sweep`).  A ``jobs=1`` cell runs inline when it is pulled; above 1
        each cell runs on its own daemon thread.  Cell state that must not leak
        between siblings (task tag, attempt deadline) is thread-local in
        :mod:`repro.core.runtime` and the session cache is lock-protected, so
        threads only meet at the pool's slot lease and the store lock below.

        A failed cell's row is recorded before the fail-fast raise.  Closing the
        stream waits for the cells in flight, whose rows land as they finish, and
        then closes an owned store, also when one of those rows could not be
        written.
        """
        store_lock = threading.Lock()

        def finish(cell) -> RunResult:
            run = self._run_cell(cell, retry)
            if store is not None:
                with store_lock:
                    store.put(cell.cell_id, make_record(run, cell.spec))
            return run

        admitted: Deque[Tuple[Any, Optional[Future]]] = deque()
        try:
            completed = (
                store.completed_ids(include_failed=skip_failed)
                if resume and store is not None
                else set()
            )
            todo = (cell for cell in cells if cell.cell_id not in completed)
            while True:
                for cell in itertools.islice(todo, jobs - len(admitted)):
                    admitted.append((cell, None if jobs == 1 else _on_thread(finish, cell)))
                if not admitted:
                    return
                cell, future = admitted.popleft()
                run = finish(cell) if future is None else future.result()
                if run.failed and not keep_going:
                    raise SweepCellError(cell.cell_id, run.label, run.error)
                yield run
        finally:
            try:
                futures_wait([future for _, future in admitted])
                for _, future in admitted:
                    future.result()  # a row that could not be written still raises
            finally:
                if owns_store:
                    store.close()

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
        for attempt in itertools.count(1):
            runtime.set_task_tag(cell.cell_id)
            if retry.timeout_s is not None:
                runtime.set_deadline(time.monotonic() + retry.timeout_s)
            try:
                with _obs.span("cell", tag=cell.cell_id):
                    run = self.run(cell.spec)
            except Exception:
                if not retry.should_retry(attempt):
                    return RunResult(
                        kind=cell.spec.kind,
                        label=cell.spec.name or cell.spec.kind,
                        cell_id=cell.cell_id,
                        status="failed",
                        error=traceback.format_exc(),
                        attempts=attempt,
                    )
            else:
                run.cell_id = cell.cell_id
                run.attempts = attempt
                return run
            finally:
                runtime.set_task_tag("")
                runtime.set_deadline(None)
            delay = retry.delay_s(attempt, cell.cell_id)
            if delay > 0:
                time.sleep(delay)

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
        records = scheduler.explore(workload)
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
        seed = scheduler.best(workload)
        if seed is None:
            return RunResult(kind=spec.kind, metrics={"feasible": 0, "throughput": 0.0})
        ga = GeneticOptimizer(evaluator, workload, spec.ga_config())
        outcome = ga.optimize(seed.plan)
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
        points = dse.sweep(max_tp=spec.max_tp or 8)
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
        result = watos.explore(workloads)
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
    the pool once (``default_session(pool=8)``) and have every bare point-level loop
    call in the process (``Watos.explore``, ``DieGranularityDse.sweep``) share it.
    ``kwargs`` are the :class:`Session` keywords.  The session is closed
    automatically at interpreter exit (joining the pool and flushing any store);
    :func:`close_default_session` closes it earlier.
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
