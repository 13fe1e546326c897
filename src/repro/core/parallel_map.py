"""Persistent worker runtime for whole search points (Watos points, DSE designs).

The co-exploration fans out over independent points — (wafer, workload) pairs, die
designs, wafer slices, whole sweep cells — each priced by a pure function of picklable
inputs.  Plans inside one point are priced in-process by the searchers themselves;
this module provides the runtime the point-level fan-out shares:

* :class:`WorkerPool` — a **long-lived**, fixed-size fork pool that survives an
  entire experiment matrix, sized by a :class:`PoolConfig` and forked in full on
  first use.  Each worker reads the :class:`~repro.core.evalcache.EvaluationCache`
  a map names as it was when the worker forked: a copy-on-write image, nothing
  pickled.  Each chunk prices into a fresh cache whose misses fall through to what
  the worker priced in earlier chunks, then to that fork-time copy, and carries
  back only what it priced plus its counters.  Every cache key covers the wafer and
  the workload, so a worker never needs what another worker priced, and nothing
  flows from the parent to a worker after the fork.
* :func:`parallel_map_merge` — the scatter/gather convention of the scale-out sweeps:
  tasks price whole points against the cache returned by :func:`task_cache` — the
  parent's cache *directly* on the serial path (zero copies), the chunk's cache
  inside a pool — and the runtime, not the task, moves cache state around.

:meth:`WorkerPool.map` is **thread-safe**: the two-level sweep scheduler runs whole
cells on concurrent threads, and each cell's point fan-out maps onto the same shared
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
A respawned worker forks from the parent's cache as it is at the respawn, which
already holds what the dead worker's earlier chunks carried back.
If a replacement worker cannot be forked at all (ulimits, fork bombs), the chunk —
and, once every slot is dead, the whole map — degrades to in-process serial
execution with a single warning instead of crashing the sweep.

Conventions that keep results identical to the serial path:

* mapping preserves input order, so selection logic downstream sees the same sequence;
* the mapped callable must be picklable — a module-level function, a
  ``functools.partial`` over one, or an instance of a module-level class;
* worker carries are merged in worker-index order (deterministic for any schedule,
  and pricing is pure, so merge order can never change a value);
* ``parallel=None`` runs :func:`parallel_map_merge` as a plain serial loop; a pool
  comes only from ``Session(pool=N)`` or a :class:`WorkerPool` the caller builds.

On Linux the ``fork`` start method shares the parent's imported modules and caches
with near-zero startup; where ``fork`` is unavailable the default context is used,
and the cache a worker reads is pickled into it without its store.
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.core import runtime
from repro.core.evalcache import CacheKey, EvaluationCache
from repro.obs import tracer as _obs

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "PoolConfig",
    "WorkerCrashError",
    "WorkerPool",
    "parallel_map_merge",
    "set_spawn_hook",
    "set_task_hook",
    "task_cache",
]

#: Per-thread fan-out context.  ``cache`` is the evaluation cache tasks should price
#: against right now: the chunk's cache inside a pool worker, the parent's shared
#: cache on the serial path of :func:`parallel_map_merge`, ``None`` outside any
#: fan-out context.  Thread-local so concurrent sweep-cell threads pricing
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
        """The effective worker count on this machine (at least one)."""
        if self.max_workers is None or self.max_workers < 0:
            return max(1, os.cpu_count() or 1)
        return max(1, self.max_workers)


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ---------------------------------------------------------------------- worker side
class _ChunkCache(EvaluationCache):
    """What one chunk prices in a pool worker, over what the worker can already read.

    A key the chunk has not priced falls through to ``earlier`` (what the worker
    priced in earlier chunks), then to ``forked`` (the cache the worker forked
    with).  ``forked`` is read through :meth:`~EvaluationCache.peek` only, which
    takes no lock and moves no rows (a store row no value key has claimed yet is
    read under its digest): another parent thread may have held that cache's lock
    at the fork, and no thread of this process could ever release it.  A key found
    there is lent to the chunk, so the lookup counts once, as a hit, through
    :meth:`EvaluationCache.get`; :meth:`priced` leaves lent keys out of the carry.
    """

    def __init__(self, earlier: Dict[CacheKey, Any], forked: EvaluationCache) -> None:
        super().__init__()
        self._fallthrough = (earlier.get, forked.peek)
        self._lent: Set[CacheKey] = set()

    def get(self, key: CacheKey) -> Optional[Any]:
        if key not in self._entries:
            for lookup in self._fallthrough:
                entry = lookup(key)
                if entry is not None:
                    self._entries[key] = entry
                    self._lent.add(key)
                    break
        return super().get(key)

    def priced(self) -> Dict[CacheKey, Any]:
        """The entries this chunk priced itself: what its carry ships back."""
        return {key: value for key, value in self._entries.items() if key not in self._lent}


def _worker_main(task_conn, result_conn, index: int, cache: Optional[EvaluationCache]) -> None:
    """Loop of one long-lived pool worker: ``map`` runs a chunk, ``stop`` ends it.

    ``cache`` is the cache the worker forked with.  A chunk whose map names a cache
    prices into a fresh :class:`_ChunkCache` over it, exposed through
    :func:`task_cache`; the carry is what the chunk priced plus the chunk cache's
    counters.

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
    earlier: Dict[CacheKey, Any] = {}  # what this worker priced (and carried) before
    tasks_seen = 0
    while True:
        try:
            message = task_conn.recv()
        except EOFError:  # parent went away
            break
        if message[0] == "stop":
            break
        _, func, chunk, use_cache, tag, trace_on = message
        # The parent's tracing flag rides on every map message: workers fork
        # before tracing may be enabled (or after, before it is disabled), so
        # this is what keeps long-lived rings in step with the parent.
        if trace_on != _obs.enabled:
            _obs.enable(worker=index) if trace_on else _obs.disable()
        chunk_cache = _ChunkCache(earlier, cache) if use_cache else None
        _TLS.cache = chunk_cache
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
            carry: Dict[str, Any] = {}
            if chunk_cache is not None:
                carry["delta"] = chunk_cache.priced()
                carry["stats"] = chunk_cache.stats.as_dict()
            if _obs.enabled:
                # Flush this submission's spans back through the carry path so
                # they merge into the parent's timeline (worker-slot order).
                spans = _obs.drain()
                if spans:
                    carry["spans"] = spans
            result_conn.send(("ok", payloads, carry))
            earlier.update(carry.get("delta", ()))
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
    """A long-lived, supervised fork pool whose workers read the cache they forked with.

    Create one pool per experiment matrix and hand it to the point-level loops
    through a session (``Session(pool=8)`` builds and owns one itself)::

        with WorkerPool(config=PoolConfig(max_workers=8)) as pool:
            with Session(pool=pool) as session:
                Watos(candidates=wafers).explore(workloads)
                DieGranularityDse(workload).sweep()

    Sizing comes from a :class:`PoolConfig` (``None`` = every CPU); every worker
    forks on first use.

    A worker reads the :class:`EvaluationCache` a :meth:`map` call names as it was
    when the worker forked.  A map naming a different cache from the one a leased
    slot's worker forked with re-forks that slot before dispatch (stop, join,
    spawn), so a worker always reads the cache its map names; maps that keep
    naming one cache never re-fork.  Each chunk carries back what it priced, and
    :attr:`CacheStats.shipped` counts those entries.  Pools are process-local and
    refuse pickling.

    Supervision (see the module docstring): a worker that dies mid-task is respawned
    and its chunk re-dispatched, up to ``chunk_retries`` respawns per chunk per map;
    beyond that the map raises :class:`WorkerCrashError` while the pool stays whole.
    ``pool.crashes`` / ``pool.respawns`` count lifetime fault events for tests and
    observability.  :meth:`map` may be called from several threads at once; each
    call leases its fair share of idle slots and supervises only those.
    """

    def __init__(self, *, config: Optional[PoolConfig] = None) -> None:
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
        #: The cache each slot's worker forked with: what its chunks fall through to.
        self._forked_with: List[Optional[EvaluationCache]] = [None] * self.workers
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
            target=_worker_main,
            args=(task_child, result_child, index, self._forked_with[index]),
            daemon=True,
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

    def _ensure_started(self, cache: Optional[EvaluationCache] = None) -> None:
        """Fork every worker on first use; they read ``cache``, the first map's."""
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._started:
                return
            self._started = True
            self._procs = [None] * self.workers
            self._task_conns = [None] * self.workers
            self._result_conns = [None] * self.workers
            self._forked_with = [cache] * self.workers
            for index in range(self.workers):
                self._spawn_into(index)

    def _respawn(self, index: int) -> bool:
        """Replace the dead worker in slot ``index``; ``False`` if the fork failed.

        The replacement forks from the slot's cache as it is now, which holds what
        the dead worker's earlier chunks carried back.
        """
        with self._lock:
            self._reap([index], join_timeout=1.0)
            if self._closed:
                self._dead[index] = True
                return False
            if not self._spawn_into(index):
                return False
            self.respawns += 1
            return True

    def _refork(self, slots: Sequence[int], cache: EvaluationCache) -> None:
        """Re-fork each of ``slots`` whose worker forked with another cache.

        The caller holds the lock and has leased ``slots``, so their workers are
        idle.  Stop, join, spawn: the new worker reads ``cache`` as it is now.  A
        slot whose fork fails is dead, and its chunk is priced in-process.
        """
        stale = [index for index in slots if self._forked_with[index] is not cache]
        self._reap(stale, join_timeout=5.0)
        for index in stale:
            self._forked_with[index] = cache
            self._spawn_into(index)

    def _reap(self, slots: Sequence[int], join_timeout: float) -> None:
        """Stop the workers in ``slots`` with bounded escalation; close their pipes.

        Each worker gets a cooperative ``stop`` and a bounded join; one that is
        still alive is terminated, and one that shrugs off SIGTERM is killed — so a
        wedged worker can never hang the caller.
        """
        procs = [self._procs[index] for index in slots]
        for proc, index in zip(procs, slots):
            if proc is not None and proc.is_alive():
                try:
                    self._task_conns[index].send(("stop",))
                except Exception:  # broken pipe on a dying worker
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
        for index in slots:
            for conn in (self._task_conns[index], self._result_conns[index]):
                if conn is not None:
                    conn.close()

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop and reap every worker (idempotent; see :meth:`_reap`).

        The bounded escalation is what keeps a wedged worker from hanging
        interpreter exit through the ``__del__`` / ``atexit`` path.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._slot_free.notify_all()
            if not self._started:
                return
        self._reap(range(self.workers), join_timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(join_timeout=1.0)
        except Exception:
            pass

    # ------------------------------------------------------------------ scheduling
    def _live_slots(self) -> List[int]:
        return [index for index in range(self.workers) if not self._dead[index]]

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
        cache: Optional[EvaluationCache] = None,
    ) -> List[R]:
        """Map ``func`` over ``items`` on the pool's workers, preserving order.

        With a ``cache``, each leased worker reads ``cache`` as it was when the
        worker forked (see the class docstring), tasks see their chunk's cache
        through :func:`task_cache`, and the chunks' carries are folded back into
        ``cache`` in worker-index order; without one the tasks ship plain.  Items
        are split into contiguous, balanced chunks over the slots this call leases
        (see :meth:`_lease`); concurrent calls from sweep-cell threads share the
        pool without stepping on each other.

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
            self._ensure_started(cache)
            slots = self._lease(len(items))
            if cache is not None:
                self._refork(slots, cache)
        if not slots:
            # Total pool collapse: serve the whole map in-process, once-warned.
            self._warn_degraded()
            return _map_inline(func, items, cache)
        try:
            return self._run_on_slots(func, items, slots, cache)
        finally:
            self._release(slots)

    def _run_on_slots(
        self,
        func: Callable[[T], R],
        items: List[T],
        slots: List[int],
        cache: Optional[EvaluationCache],
    ) -> List[R]:
        """Dispatch, supervise and reassemble one map over its leased slots."""
        tag = runtime.task_tag()
        use_cache = cache is not None
        chunks: Dict[int, List[T]] = {}
        base, extra = divmod(len(items), len(slots))
        lo = 0
        for position, slot in enumerate(slots):
            hi = lo + base + (1 if position < extra else 0)
            chunks[slot] = items[lo:hi]
            lo = hi
        trace_on = _obs.enabled
        pending: Dict[int, List[T]] = {}
        orphaned: Dict[int, List[T]] = {}  # slots lost to failed (re)spawns
        with self._lock:
            with _obs.span("dispatch", tag=tag):
                for slot in slots:
                    if self._dead[slot]:  # its re-fork failed
                        orphaned[slot] = chunks[slot]
                        continue
                    self._task_conns[slot].send(
                        ("map", func, chunks[slot], use_cache, tag, trace_on)
                    )
                    pending[slot] = chunks[slot]

        payloads: Dict[int, List[R]] = {}
        carries: List[Tuple[int, Dict[str, Any]]] = []
        crashes: Dict[int, int] = {slot: 0 for slot in slots}
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
                                ("map", func, pending[slot], use_cache, tag, trace_on)
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
        # each carry is the only copy of what its chunk priced.  Worker span rings
        # ride the carry too; both are absorbed in the deterministic worker-slot
        # order the sort establishes.
        carries.sort(key=lambda pair: pair[0])
        for _, carry in carries:
            spans = carry.pop("spans", None)
            if spans:
                _obs.absorb(spans)
        if cache is not None:
            with _obs.span("cache.sync", tag="absorb"):
                for _, carry in carries:
                    cache.absorb_carry(carry)

        for slot, chunk in orphaned.items():
            if task_failure is not None or crash_failure is not None or timed_out:
                break  # the map is failing anyway; don't run orphans serially
            self._warn_degraded()
            try:
                payloads[slot] = _map_inline(func, chunk, cache)
            except BaseException as exc:
                task_failure = (traceback.format_exc(), exc)

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


def _map_inline(
    func: Callable[[T], R], items: Sequence[T], cache: Optional[EvaluationCache]
) -> List[R]:
    """Run ``func`` over ``items`` in this process, with ``cache`` as the task cache.

    The serial path of :func:`parallel_map_merge` and the pool's last resort:
    entries land directly in the shared cache, so results stay bit-identical and
    there is no carry to merge.
    """
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


# ---------------------------------------------------------------------- functional API
def parallel_map_merge(
    func: Callable[[T], R],
    items: Sequence[T],
    parallel: Optional[WorkerPool] = None,
    cache: Optional[EvaluationCache] = None,
) -> List[R]:
    """Fan whole-point tasks out with a shared evaluation cache, returning payloads.

    This is the convention the scale-out sweeps share.  Tasks obtain their cache via
    :func:`task_cache` instead of carrying (or being pickled with) a snapshot:

    * **serial** (``parallel=None``) — the task sees ``cache`` itself; nothing is
      copied at all;
    * **pool** (a :class:`WorkerPool`) — the task sees its chunk's cache, which falls
      through to what its worker priced in earlier chunks and then to ``cache`` as
      it was when the worker forked; each chunk's carry (what it priced + counter
      increments) is absorbed back in worker-index order.

    Results and cache end state are identical for any worker count because pricing
    is a pure function of the point — the cache only changes *what is recomputed*.
    """
    if isinstance(parallel, WorkerPool):
        return parallel.map(func, items, cache=cache)
    if parallel is not None:
        raise runtime.not_a_pool(parallel)
    return _map_inline(func, items, cache)
