"""Persistent worker runtime for the search loops (GA, central scheduler, DSE, Watos).

All the searchers are embarrassingly parallel across candidates: each candidate is
priced by a pure function of picklable inputs (wafer/workload/plan dataclasses).  This
module provides the execution runtime they share:

* :class:`WorkerPool` — a **long-lived**, fixed-size fork pool that survives an
  entire search (or a whole experiment matrix), sized by a :class:`PoolConfig` and
  forked in full on first use.  Each worker owns a private, *resident*
  :class:`~repro.core.evalcache.EvaluationCache` shard that persists across
  submissions.  Shards are seeded once when the pool first syncs, and thereafter kept
  coherent **delta-only** in both directions: the parent ships entries priced since a
  per-worker watermark (:meth:`EvaluationCache.export_since`), and workers ship back
  only their freshly priced entries (:meth:`EvaluationCache.take_carry`).  Entries a
  worker itself priced are never echoed back to it.
* :func:`parallel_map` — ordered map over a pool (a :class:`WorkerPool` or an
  ephemeral one built from an integer worker count).
* :func:`parallel_map_merge` — the scatter/gather convention of the scale-out sweeps:
  tasks price whole points against the cache returned by :func:`task_cache` — the
  parent's cache *directly* on the serial path (zero copies), the worker's resident
  shard inside a pool — and the runtime, not the task, moves cache state around.

:meth:`WorkerPool.map` is **thread-safe**: the two-level sweep scheduler runs whole
cells on concurrent threads, and each cell's search loop maps onto the same shared
pool.  A map call *leases* a fair share of the idle worker slots (``ceil(workers /
concurrent maps)``, at least one), supervises only its leased slots, and releases
them when the chunks drain — so wide fan-outs backfill idle capacity and a narrow
cell can never starve its siblings.  The per-attempt deadline and task tag are
thread-local (:mod:`repro.core.runtime`), so one cell's timeout kills only the
workers *its* map leased.

The pool is **supervised**: a worker killed mid-task (OOM, segfault, SIGKILL) is
detected by dead-pipe/EOF, respawned in place, and the chunk it held is re-dispatched
— :meth:`WorkerPool.map` returns complete results after a crash, bit-identical to a
crash-free run, because pricing is pure.  A chunk that *repeatedly* kills its worker
(a poison task) exhausts a bounded respawn budget and raises
:class:`WorkerCrashError` instead of looping forever; the pool itself stays usable.
A respawned worker's shard is merely cold: its watermark resets to zero, so the next
delta sync re-seeds it from the parent through the ordinary ``export_since`` path.
If a replacement worker cannot be forked at all (ulimits, fork bombs), the chunk —
and, once every slot is dead, the whole map — degrades to in-process serial
execution with a single warning instead of crashing the sweep.

Conventions that keep results identical to the serial path:

* mapping preserves input order, so selection logic downstream sees the same sequence;
* the mapped callable must be picklable — a module-level function, a
  ``functools.partial`` over one, or an instance of a module-level class;
* worker carries are merged in worker-index order (deterministic for any schedule,
  and pricing is pure, so merge order can never change a value);
* ``workers in (None, 0, 1)`` short-circuits to a plain serial loop, which keeps unit
  tests deterministic and avoids pool startup for small searches.

On Linux the ``fork`` start method shares the parent's imported modules with near-zero
startup; where ``fork`` is unavailable the default context is used.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.core import runtime
from repro.core.evalcache import EvaluationCache
from repro.obs import tracer as _obs

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "PoolConfig",
    "WorkerCrashError",
    "WorkerPool",
    "parallel_map",
    "parallel_map_merge",
    "resolve_workers",
    "set_spawn_hook",
    "set_task_hook",
    "task_cache",
]

#: Per-thread fan-out context.  ``cache`` is the evaluation cache tasks should price
#: against right now: the worker's resident shard inside a pool worker, the parent's
#: shared cache on the serial path of :func:`parallel_map_merge`, ``None`` outside
#: any fan-out context.  Thread-local so concurrent sweep-cell threads pricing
#: serially never see each other's context.
_TLS = threading.local()

#: Worker-side fault-injection hook: ``hook(worker_index, task_no, tag)`` runs before
#: every task (``task_no`` counts tasks over the worker process's lifetime, ``tag`` is
#: the ambient :func:`repro.core.runtime.task_tag` the parent stamped on the map
#: message).  Installed by the chaos harness; inherited by workers at fork time.
_TASK_HOOK: Optional[Callable[[int, int, str], None]] = None
#: Parent-side fault-injection hook: ``hook(worker_index)`` runs before every fork
#: (initial spawns and respawns); raising simulates an unspawnable worker.
_SPAWN_HOOK: Optional[Callable[[int], None]] = None


def set_task_hook(hook: Optional[Callable[[int, int, str], None]]) -> None:
    """Install (or clear) the worker-side per-task hook (see :mod:`repro.core.chaos`)."""
    global _TASK_HOOK
    _TASK_HOOK = hook


def set_spawn_hook(hook: Optional[Callable[[int], None]]) -> None:
    """Install (or clear) the parent-side spawn hook (see :mod:`repro.core.chaos`)."""
    global _SPAWN_HOOK
    _SPAWN_HOOK = hook


class WorkerCrashError(RuntimeError):
    """One map chunk killed its worker more times than the respawn budget allows.

    Raised by :meth:`WorkerPool.map` after the poison chunk's worker has been
    respawned (the pool stays usable); the sweep retry loop treats it like any
    other failed attempt and eventually quarantines the offending cell.
    """


def task_cache() -> Optional[EvaluationCache]:
    """The cache the current fan-out task should evaluate against (or ``None``)."""
    return getattr(_TLS, "cache", None)


def resolve_workers(parallel: Union[int, "WorkerPool", None]) -> int:
    """Normalise a ``parallel=`` argument to an effective worker count.

    ``None``, 0 and 1 mean serial; negative values mean "use every available CPU";
    a :class:`WorkerPool` means that pool's capacity (``max_workers``).
    """
    if parallel is None:
        return 1
    if isinstance(parallel, WorkerPool):
        return parallel.workers
    if parallel < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, parallel)


@dataclass(frozen=True)
class PoolConfig:
    """Sizing and supervision knobs of a :class:`WorkerPool`.

    ``max_workers`` is the number of workers (``None`` = every available CPU,
    negative likewise); all of them fork on first use.  ``chunk_retries`` bounds how
    many times one map chunk may kill (and have respawned) its worker before the
    chunk is declared poison.
    """

    max_workers: Optional[int] = None
    chunk_retries: int = 1

    def __post_init__(self) -> None:
        if self.chunk_retries < 0:
            raise ValueError("chunk_retries cannot be negative")

    def resolved(self) -> int:
        """The effective worker count on this machine."""
        return resolve_workers(-1 if self.max_workers is None else self.max_workers)


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ---------------------------------------------------------------------- worker side
def _worker_main(task_conn, result_conn, index: int = 0) -> None:
    """Loop of one long-lived pool worker: sync messages interleave with map work.

    The worker's resident shard lives here, across submissions; ``seed`` adopts a
    parent delta (never re-shipped back), ``map`` runs a chunk with the shard exposed
    through :func:`task_cache` and returns the shard's incremental carry.

    The channels are pipes, not queues, on purpose: ``Connection.send`` pickles in
    the calling thread, so an unpicklable payload or exception raises *here*, where
    the fallback below can still ship the traceback — a queue's feeder thread would
    drop the message silently and leave the parent waiting forever.
    """
    # The fork copied the parent's session state (active stack, default session);
    # any pool it references is unusable here, and a bare loop call inside a task
    # must never resolve to it — nested pools would deadlock.
    runtime.reset_for_worker()
    # The fork also copied the parent's trace ring; the worker must not re-ship
    # the parent's spans, so it starts a fresh ring stamped with its slot index.
    _obs.reset_in_worker(index)
    _TLS.cache = None
    shard: Optional[EvaluationCache] = None
    tasks_seen = 0
    while True:
        try:
            message = task_conn.recv()
        except EOFError:  # parent went away
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "reset":
            shard = None
        elif kind == "seed":
            if shard is None:
                shard = EvaluationCache(max_entries=None)
            shard.seed(message[1])
        elif kind == "map":
            func, chunk, use_shard = message[1], message[2], message[3]
            tag = message[4] if len(message) > 4 else ""
            # The parent's tracing flag rides on every map message: workers fork
            # before tracing may be enabled (or after, before it is disabled), so
            # this is what keeps long-lived rings in step with the parent.
            trace_on = bool(message[5]) if len(message) > 5 else False
            if trace_on != _obs.enabled:
                _obs.enable(worker=index) if trace_on else _obs.disable()
            if use_shard and shard is None:
                shard = EvaluationCache(max_entries=None)
            _TLS.cache = shard if use_shard else None
            try:
                chunk_t0 = _obs.now() if _obs.enabled else 0.0
                payloads = []
                for item in chunk:
                    tasks_seen += 1
                    if _TASK_HOOK is not None:
                        _TASK_HOOK(index, tasks_seen, tag)
                    payloads.append(func(item))
                if _obs.enabled:
                    _obs.add("worker.chunk", chunk_t0, _obs.now(), tag=tag)
                carry = shard.take_carry() if use_shard else None
                if _obs.enabled:
                    # Flush this submission's spans back through the carry path so
                    # they merge into the parent's timeline (worker-slot order).
                    spans = _obs.drain()
                    if spans:
                        if carry is None:
                            carry = {"delta": {}, "stats": {}}
                        carry["spans"] = spans
                result_conn.send(("ok", payloads, carry))
            except BaseException as exc:
                detail = traceback.format_exc()
                try:
                    result_conn.send(("err", detail, exc))
                except Exception:  # unpicklable payload/exception: ship the text
                    result_conn.send(("err", detail, None))
            finally:
                _TLS.cache = None


# ---------------------------------------------------------------------- parent side
class WorkerPool:
    """A long-lived, supervised fork pool with worker-resident cache shards.

    Create one pool per search — or per whole experiment matrix — and hand it to
    the loops through a session (``Session(pool=8)`` builds and owns one itself)::

        with WorkerPool(config=PoolConfig(max_workers=8)) as pool:
            with Session(pool=pool) as session:
                ga.optimize(seed_plan, session=session)
                scheduler.explore(workload, session=session)

    Sizing comes from a :class:`PoolConfig` (``None`` = every CPU); every worker
    forks on first use.

    :meth:`bind` attaches the shared :class:`EvaluationCache` whose contents the
    shards mirror; binding a *different* cache resets the shards (correct, merely
    cold — but never re-bind while maps are in flight).  Entries always flow as
    deltas: the parent keeps one watermark per worker and an origin map so no entry
    is ever shipped twice to the same worker — :attr:`CacheStats.shipped` counts
    exactly the entries that crossed.  Pools are process-local and refuse pickling.

    Supervision (see the module docstring): a worker that dies mid-task is respawned
    and its chunk re-dispatched, up to ``chunk_retries`` respawns per chunk per map;
    beyond that the map raises :class:`WorkerCrashError` while the pool stays whole.
    ``pool.crashes`` / ``pool.respawns`` count lifetime fault events for tests and
    observability.  :meth:`map` may be called from several threads at once; each
    call leases its fair share of idle slots and supervises only those.
    """

    def __init__(
        self,
        *,
        config: Optional[PoolConfig] = None,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        #: The :class:`PoolConfig` this pool was built from.
        self.config = config if config is not None else PoolConfig()
        self.workers = self.config.resolved()
        #: How many times one chunk may kill (and have respawned) its worker within
        #: a single :meth:`map` before the chunk is declared poison.
        self.chunk_retries = self.config.chunk_retries
        #: Lifetime count of worker deaths the supervisor observed.
        self.crashes = 0
        #: Lifetime count of successful worker respawns.
        self.respawns = 0
        self._cache: Optional[EvaluationCache] = None
        self._watermarks: List[int] = [0] * self.workers
        self._origin: Dict[str, int] = {}
        self._procs: List[Optional[multiprocessing.Process]] = []
        self._task_conns: List[Any] = []
        self._result_conns: List[Any] = []
        #: Slots whose worker could not be (re)spawned; served serially in-parent.
        self._dead: List[bool] = [False] * self.workers
        #: Slots currently leased by an in-flight :meth:`map` call.
        self._busy: List[bool] = [False] * self.workers
        self._active_maps = 0
        self._lock = threading.RLock()
        self._slot_free = threading.Condition(self._lock)
        self._started = False
        self._closed = False
        self._warned_degraded = False
        if cache is not None:
            self.bind(cache)

    def __reduce__(self):
        raise TypeError("WorkerPool is process-local and cannot be pickled")

    # ------------------------------------------------------------------ lifecycle
    def _spawn_worker(self, index: int):
        """Fork one worker for ``index`` and return ``(proc, task_conn, result_conn)``.

        Raises whatever the spawn hook or the OS raises; callers decide whether a
        failure is fatal (initial start never is — the slot degrades to serial).
        """
        if _SPAWN_HOOK is not None:
            _SPAWN_HOOK(index)
        ctx = _context()
        # Pipes, not queues: sends pickle synchronously in the sending process,
        # so bad payloads raise where they can be handled instead of being
        # dropped by a queue feeder thread (which would hang the other side).
        task_parent, task_child = ctx.Pipe()
        result_parent, result_child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(task_child, result_child, index), daemon=True
        )
        proc.start()
        task_child.close()
        result_child.close()
        return proc, task_parent, result_parent

    def _spawn_into(self, index: int) -> bool:
        """Fork a worker into slot ``index``; ``False`` marks the slot dead."""
        try:
            proc, task_conn, result_conn = self._spawn_worker(index)
        except Exception:  # unspawnable: degrade, don't crash
            self._procs[index] = None
            self._task_conns[index] = None
            self._result_conns[index] = None
            self._dead[index] = True
            return False
        self._procs[index] = proc
        self._task_conns[index] = task_conn
        self._result_conns[index] = result_conn
        self._dead[index] = False
        return True

    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._started:
                return
            self._started = True
            self._procs = [None] * self.workers
            self._task_conns = [None] * self.workers
            self._result_conns = [None] * self.workers
            for index in range(self.workers):
                self._spawn_into(index)

    def _respawn(self, index: int) -> bool:
        """Replace the dead worker in slot ``index``; ``False`` if the fork failed.

        The replacement starts with a cold shard: its watermark drops to zero so the
        next delta sync re-seeds it through the ordinary ``export_since`` path, and
        every origin record naming the dead worker is purged (the entries it priced
        died with it — the new process must be shipped them like anyone else).
        """
        with self._lock:
            old = self._procs[index]
            if old is not None:
                old.join(timeout=1)
            for conns in (self._task_conns, self._result_conns):
                if conns[index] is not None:
                    try:
                        conns[index].close()
                    except Exception:  # pragma: no cover - already broken
                        pass
            self._origin = {key: who for key, who in self._origin.items() if who != index}
            self._watermarks[index] = 0
            if self._closed or not self._spawn_into(index):
                self._procs[index] = None
                self._task_conns[index] = None
                self._result_conns[index] = None
                self._dead[index] = True
                return False
            self.respawns += 1
            return True

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop and reap the workers with bounded escalation (idempotent).

        Each worker gets a cooperative ``stop`` and a bounded join; one that is
        still alive is terminated, and one that shrugs off SIGTERM is killed — so a
        wedged worker can never hang interpreter exit through the ``__del__`` /
        ``atexit`` path.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._slot_free.notify_all()
            if not self._started:
                return
            procs = list(self._procs)
            task_conns = list(self._task_conns)
            result_conns = list(self._result_conns)
        for proc, task_conn in zip(procs, task_conns):
            if proc is not None and proc.is_alive() and task_conn is not None:
                try:
                    task_conn.send(("stop",))
                except Exception:  # pragma: no cover - broken pipe on dead worker
                    pass
        for proc in procs:
            if proc is None:
                continue
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
            if proc.is_alive():  # SIGTERM ignored/blocked: escalate to SIGKILL
                proc.kill()
                proc.join(timeout=1)
        for conn in task_conns + result_conns:
            if conn is not None:
                conn.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(join_timeout=1.0)
        except Exception:
            pass

    # ------------------------------------------------------------------ cache sync
    def bind(self, cache: Optional[EvaluationCache]) -> None:
        """Attach the shared cache the worker shards mirror.

        Re-binding the same object is free (watermarks survive — that is what makes
        a reused pool cheap).  Binding a different cache resets the shards; never
        do that while maps are in flight on other threads.
        """
        with self._lock:
            if cache is self._cache:
                return
            self._cache = cache
            self._watermarks = [0] * self.workers
            self._origin = {}
            if self._started:
                for index in self._live_slots():
                    self._task_conns[index].send(("reset",))

    def _live_slots(self) -> List[int]:
        return [index for index in range(self.workers) if not self._dead[index]]

    def _sync_shards(self, cache: EvaluationCache) -> None:
        """Ship each idle worker the entries priced since its watermark (delta-only).

        Watermarks normally advance in lock-step (:meth:`bind` and this method set
        them together), so one export serves every worker and only the origin filter
        is per-worker.  A respawned worker breaks the lock-step — its watermark is
        back at zero — so drifted watermarks fall through to a
        per-worker export: the newcomer is re-seeded with the full resident history
        while its healthy siblings still receive only the fresh delta.  Slots busy
        under a sibling map are skipped (their pipes are mid-chunk); they catch up
        at their own next sync, which the watermarks make exact.
        """
        live = [index for index in self._live_slots() if not self._busy[index]]
        if not live:
            return
        marks = {self._watermarks[index] for index in live}
        if len(marks) == 1:
            entries, seq = cache.export_since(marks.pop())
            for index in live:
                self._watermarks[index] = seq
            if not entries:
                return
            if not self._origin and len(live) == self.workers:
                # The expensive case — first sync of a warm-started cache — sends
                # the same (potentially large) delta everywhere: pickle once, fan
                # bytes out.
                blob = multiprocessing.reduction.ForkingPickler.dumps(("seed", entries))
                for index in live:
                    self._task_conns[index].send_bytes(blob)
                cache.stats.shipped += len(entries) * len(live)
                return
            for index in live:
                view = {
                    key: value
                    for key, value in entries.items()
                    if self._origin.get(key) != index
                }
                if not view:
                    continue
                self._task_conns[index].send(("seed", view))
                cache.stats.shipped += len(view)
            return
        # Drifted watermarks (a worker was respawned): per-worker incremental export.
        for index in live:
            entries, seq = cache.export_since(self._watermarks[index])
            self._watermarks[index] = seq
            view = {
                key: value
                for key, value in entries.items()
                if self._origin.get(key) != index
            }
            if view:
                self._task_conns[index].send(("seed", view))
                cache.stats.shipped += len(view)

    # ------------------------------------------------------------------ scheduling
    def _lease(self, nitems: int) -> List[int]:
        """Claim a fair share of idle slots for one map call (caller holds the lock).

        The share is ``ceil(workers / concurrent maps)`` bounded by the item count —
        one map alone gets the whole pool, two concurrent cells split it, and a
        narrow map never hoards slots a wide sibling could fill.  No idle slot at
        all waits for a sibling to release — unless every slot is dead, which
        degrades the map to in-process serial (empty lease).
        """
        while True:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            idle = [index for index in self._live_slots() if not self._busy[index]]
            share = -(-self.workers // (self._active_maps + 1))  # ceil division
            want = max(1, min(nitems, share))
            if idle:
                idle.sort()
                take = idle[:want]
                for index in take:
                    self._busy[index] = True
                self._active_maps += 1
                return take
            if not self._live_slots():
                return []  # total collapse: the caller serves the map in-process
            self._slot_free.wait(timeout=0.1)

    def _release(self, slots: Sequence[int]) -> None:
        with self._lock:
            for index in slots:
                self._busy[index] = False
            self._active_maps -= 1
            self._slot_free.notify_all()

    # ------------------------------------------------------------------ mapping
    def map(
        self,
        func: Callable[[T], R],
        items: Sequence[T],
        merge: Optional[Callable[[Dict[str, Any]], None]] = None,
        sync: bool = True,
    ) -> List[R]:
        """Map ``func`` over ``items`` on the resident workers, preserving order.

        With a bound cache (and ``sync=True``) the shards are delta-synced before
        dispatch and their carries folded back afterwards — through ``merge`` when
        given (e.g. entries-only absorption), else ``cache.absorb_carry`` — in
        worker-index order.  Items are split into contiguous, balanced chunks over
        the slots this call leases (see :meth:`_lease`); concurrent calls from
        sweep-cell threads share the pool without stepping on each other.

        Worker deaths are survived (respawn + re-dispatch, see the class
        docstring); a chunk that keeps killing workers raises
        :class:`WorkerCrashError`, and an armed :func:`runtime.set_deadline` that
        expires raises :class:`runtime.CellTimeout` after killing-and-respawning
        the straggling workers this call leased — sibling cells' workers are left
        alone.  Either way the pool remains usable.
        """
        items = list(items)
        if not items:
            return []
        with self._lock:
            self._ensure_started()
            cache = self._cache if sync else None
            if cache is not None:
                with _obs.span("cache.sync", tag="ship"):
                    self._sync_shards(cache)
            slots = self._lease(len(items))
        if not slots:
            # Total pool collapse: serve the whole map in-process, once-warned.
            return self._serial_map(func, items, cache, merge)
        try:
            return self._run_on_slots(func, items, slots, cache, merge)
        finally:
            self._release(slots)

    def _run_on_slots(
        self,
        func: Callable[[T], R],
        items: List[T],
        slots: List[int],
        cache: Optional[EvaluationCache],
        merge: Optional[Callable[[Dict[str, Any]], None]],
    ) -> List[R]:
        """Dispatch, supervise and reassemble one map over its leased slots."""
        tag = runtime.task_tag()
        use_shard = cache is not None
        chunks: Dict[int, List[T]] = {}
        base, extra = divmod(len(items), len(slots))
        lo = 0
        for position, slot in enumerate(slots):
            hi = lo + base + (1 if position < extra else 0)
            chunks[slot] = items[lo:hi]
            lo = hi
        trace_on = _obs.enabled
        with self._lock:
            with _obs.span("dispatch", tag=tag):
                for slot in slots:
                    self._task_conns[slot].send(
                        ("map", func, chunks[slot], use_shard, tag, trace_on)
                    )

        payloads: Dict[int, List[R]] = {}
        carries: List[Tuple[int, Optional[Dict[str, Any]]]] = []
        pending: Dict[int, List[T]] = dict(chunks)
        crashes: Dict[int, int] = {slot: 0 for slot in slots}
        orphaned: Dict[int, List[T]] = {}  # slots lost to failed respawns
        task_failure: Optional[Tuple[str, Optional[BaseException]]] = None
        crash_failure: Optional[str] = None
        timed_out = False
        drain_t0 = _obs.now() if trace_on else 0.0
        try:
            while pending:
                limit = runtime.deadline()
                if limit is not None and time.monotonic() > limit:
                    # Kill every straggler this call leased and respawn it: the
                    # attempt is over, but the pool must survive for the retry —
                    # and sibling cells' workers keep running untouched.
                    with self._lock:
                        for slot in list(pending):
                            proc = self._procs[slot]
                            if proc is not None and proc.is_alive():
                                proc.kill()
                            self.crashes += 1
                            self._respawn(slot)
                            del pending[slot]
                    timed_out = True
                    break
                conn_map = {self._result_conns[slot]: slot for slot in pending}
                ready = mp_connection.wait(list(conn_map), timeout=0.2)
                dead: List[int] = []
                for conn in ready:
                    slot = conn_map[conn]
                    try:
                        message = conn.recv()
                    except EOFError:
                        dead.append(slot)
                        continue
                    except Exception as exc:
                        # recv_bytes preserved the message boundary, so the channel
                        # is still aligned — only this chunk's result is lost to
                        # the unpickle failure.
                        message = (
                            "err",
                            f"failed to unpickle worker {slot}'s result: {exc!r}",
                            None,
                        )
                    status, payload, carry = message
                    del pending[slot]
                    if status == "err":
                        # Task raised (worker survived): drain the rest, stay usable.
                        if task_failure is None:
                            task_failure = (payload, carry)
                    else:
                        payloads[slot] = payload
                        carries.append((slot, carry))
                if not ready:
                    # Nothing readable: sweep for silent deaths (a SIGKILLed
                    # sibling whose pipe EOF we might otherwise miss).  Checking
                    # *all* pending slots is what keeps several simultaneous
                    # deaths from wedging the drain on one closed pipe.
                    for slot in list(pending):
                        proc = self._procs[slot]
                        proc_dead = proc is None or not proc.is_alive()
                        if proc_dead and not self._result_conns[slot].poll():
                            dead.append(slot)
                for slot in dead:
                    if slot not in pending:
                        continue
                    with self._lock:
                        self.crashes += 1
                        crashes[slot] += 1
                        alive = self._respawn(slot)
                        if crashes[slot] > self.chunk_retries:
                            # Poison chunk: stop feeding it workers.  The slot
                            # itself was respawned above, so the *pool* stays whole.
                            if crash_failure is None:
                                crash_failure = (
                                    f"pool worker {slot} died mid-task "
                                    f"({crashes[slot]} crash(es) on the same chunk of "
                                    f"{len(pending[slot])} task(s); "
                                    f"respawn budget {self.chunk_retries} exhausted)"
                                )
                            del pending[slot]
                        elif alive:
                            self._task_conns[slot].send(
                                ("map", func, pending[slot], use_shard, tag, trace_on)
                            )
                        else:
                            # No replacement worker to be had: fall back to pricing
                            # this chunk in-process once the drain settles.
                            orphaned[slot] = pending.pop(slot)
        except BaseException:
            # Anything escaping the drain (e.g. KeyboardInterrupt) leaves result
            # pipes with unread messages; a later map() would read stale payloads.
            self.close()
            raise

        if trace_on:
            _obs.add("drain", drain_t0, _obs.now(), tag=tag)

        # Absorb the successful workers' carries even when another worker failed:
        # their shards already marked those entries as shipped (take_carry), so
        # dropping the carries here would lose the priced work for good.
        carries.sort(key=lambda pair: pair[0])
        with self._lock:
            for slot, carry in carries:
                if not carry:
                    continue
                # Worker span rings ride the carry; absorb them here — in the
                # deterministic worker-slot order the sort just established — and
                # not in merge(), which callers may no-op (see evaluate_many).
                spans = carry.pop("spans", None)
                if spans:
                    _obs.absorb(spans)
                    if not carry["delta"] and not carry["stats"]:
                        continue  # trace-only carry (sync=False map): nothing to merge
                for key in carry["delta"]:
                    self._origin[key] = slot
                if merge is not None:
                    merge(carry)
                elif cache is not None:
                    cache.absorb_carry(carry)

        for slot, chunk in orphaned.items():
            if task_failure is not None or crash_failure is not None or timed_out:
                break  # the map is failing anyway; don't run orphans serially
            self._warn_degraded()
            status, payload, exc = self._run_chunk_inline(func, chunk, cache)
            if status == "err":
                task_failure = (payload, exc)
            else:
                payloads[slot] = payload

        if task_failure is not None:
            detail, exc = task_failure
            if isinstance(exc, BaseException):
                # Chain the worker-side traceback text: the re-raised exception's
                # own stack ends here in the parent, which is useless on its own.
                raise exc from RuntimeError(f"worker-side traceback:\n{detail}")
            raise RuntimeError(f"pool worker failed:\n{detail}")
        if crash_failure is not None:
            raise WorkerCrashError(crash_failure)
        if timed_out:
            raise runtime.CellTimeout(
                "map overran its wall-clock budget; straggling workers were "
                "killed and respawned"
            )
        results: List[R] = []
        for slot in slots:
            results.extend(payloads[slot])
        return results

    # ------------------------------------------------------------- degraded serial
    def _warn_degraded(self) -> None:
        if self._warned_degraded:
            return
        self._warned_degraded = True
        warnings.warn(
            "WorkerPool could not (re)spawn workers; falling back to in-process "
            "serial execution",
            RuntimeWarning,
            stacklevel=3,
        )

    def _run_chunk_inline(
        self, func: Callable[[T], R], chunk: Sequence[T], cache: Optional[EvaluationCache]
    ):
        """Price one chunk in the parent (last resort), against the parent cache.

        Entries land directly in the shared cache — the exact serial-path
        convention of :func:`parallel_map_merge` — so results stay bit-identical;
        there is no carry to merge and no origin to record.
        """
        previous = getattr(_TLS, "cache", None)
        _TLS.cache = cache
        try:
            payloads = []
            for item in chunk:
                runtime.check_deadline()
                payloads.append(func(item))
            return "ok", payloads, None
        except BaseException as exc:
            return "err", traceback.format_exc(), exc
        finally:
            _TLS.cache = previous

    def _serial_map(
        self,
        func: Callable[[T], R],
        items: Sequence[T],
        cache: Optional[EvaluationCache],
        merge: Optional[Callable[[Dict[str, Any]], None]],
    ) -> List[R]:
        """The whole-map fallback once every worker slot is unspawnable."""
        del merge  # entries go straight into the parent cache; nothing to merge
        self._warn_degraded()
        status, payloads, exc = self._run_chunk_inline(func, items, cache)
        if status == "err":
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"pool worker failed:\n{payloads}")
        return payloads


# ---------------------------------------------------------------------- functional API
def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T],
    parallel: Union[int, WorkerPool, None] = None,
) -> List[R]:
    """Map ``func`` over ``items``, optionally on a worker pool, preserving order.

    ``parallel`` is a :class:`WorkerPool` (reused, workers stay warm) or an integer
    (an ephemeral pool is created for the call).  The serial fallback (``parallel in
    (None, 0, 1)`` or fewer than two items) runs the exact same function in-process,
    so parallel and serial runs return identical results whenever ``func`` is
    deterministic.  Items are split into contiguous balanced chunks.
    """
    if isinstance(parallel, WorkerPool):
        return parallel.map(func, items, sync=False)
    workers = resolve_workers(parallel)
    if workers <= 1 or len(items) < 2:
        results = []
        for item in items:
            runtime.check_deadline()
            results.append(func(item))
        return results
    with WorkerPool(config=PoolConfig(max_workers=min(workers, len(items)))) as pool:
        return pool.map(func, items, sync=False)


def parallel_map_merge(
    func: Callable[[T], R],
    items: Sequence[T],
    parallel: Union[int, WorkerPool, None] = None,
    cache: Optional[EvaluationCache] = None,
) -> List[R]:
    """Fan whole-point tasks out with a shared evaluation cache, returning payloads.

    This is the convention the scale-out sweeps share.  Tasks obtain their cache via
    :func:`task_cache` instead of carrying (or being pickled with) a snapshot:

    * **serial** — the task sees ``cache`` itself; nothing is copied at all;
    * **pool** — the task sees the worker's resident shard, which the pool keeps
      coherent with ``cache`` by watermarked deltas and whose carry (freshly priced
      entries + counter increments) is absorbed back in worker-index order.

    Results and cache end state are identical for any worker count because pricing
    is a pure function of the point — the cache only changes *what is recomputed*.
    """
    if isinstance(parallel, WorkerPool):
        parallel.bind(cache)
        return parallel.map(func, items)
    workers = resolve_workers(parallel)
    if workers <= 1 or len(items) < 2:
        previous = getattr(_TLS, "cache", None)
        _TLS.cache = cache
        try:
            results = []
            for item in items:
                runtime.check_deadline()
                results.append(func(item))
            return results
        finally:
            _TLS.cache = previous
    pool_config = PoolConfig(max_workers=min(workers, len(items)))
    with WorkerPool(cache=cache, config=pool_config) as pool:
        return pool.map(func, items)
