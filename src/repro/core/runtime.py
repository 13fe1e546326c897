"""Process-wide runtime state shared by the Session API and the search loops.

The :class:`~repro.api.Session` object (``src/repro/api``) owns the worker pool and
the shared evaluation cache for a whole experiment; the four search loops — ``Watos``,
``CentralScheduler``, ``DieGranularityDse``, ``GeneticOptimizer`` — live in
``repro.core`` and must be importable *before* the API package exists.  This module is
the thin, dependency-free meeting point between the two layers:

* the **active-session stack** — ``with Session(...):`` pushes the session here, so
  bare loop calls (no ``session=``) inside the block share the session's cache, and
  the point-level loops its pool;
* the **default session** slot — ``repro.api.default_session()`` parks the
  process-wide session here; it is the fallback when no ``with`` block is active;
* :class:`SessionHandle` — the minimal session protocol (``.cache`` / ``.parallel``)
  the loops actually consume, so a caller can hand a loop one cache or one worker
  pool without building a whole session;
* the **worker reset** — pool workers are forked from a parent that may hold an
  active session whose :class:`~repro.core.parallel_map.WorkerPool` is meaningless
  (and dangerous — nested pools) in the child.  The pool's worker loop calls
  :func:`reset_for_worker` before it takes any work.

Nothing here imports from the rest of the package, which is what keeps the layering
acyclic: ``repro.core.* → repro.core.runtime ← repro.api``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Optional

__all__ = [
    "CellTimeout",
    "SessionHandle",
    "check_deadline",
    "current_results",
    "current_session",
    "deadline",
    "not_a_pool",
    "pop_session",
    "push_session",
    "reset_for_worker",
    "resolve_loop_session",
    "set_deadline",
    "set_task_tag",
    "task_tag",
]

#: Innermost-last stack of entered sessions (``with Session(...)``).
_ACTIVE_SESSIONS: List[Any] = []
#: The process-wide default session installed by ``repro.api.default_session()``.
_DEFAULT_SESSION: Optional[Any] = None
#: Per-thread ambient attempt state.  ``tag`` labels the unit of work currently
#: executing (a sweep's cell id) — the pool forwards it to workers with every map
#: message, so fault injectors (and any future tracing) can target work by *what*
#: it is, not by racey wall-clock timing.  ``deadline`` is the monotonic deadline
#: of the current attempt (``None`` = unbounded), polled via :func:`check_deadline`.
#: Thread-local, not global: the two-level sweep scheduler runs several cells on
#: concurrent threads, and one cell's timeout must never kill a sibling's attempt.
_AMBIENT = threading.local()


class CellTimeout(RuntimeError):
    """The current cell overran its :class:`~repro.core.retry.RetryPolicy` budget."""


# ------------------------------------------------------------------ ambient attempt
def set_task_tag(tag: str) -> None:
    """Label the work dispatched from now on (sweeps tag each cell's attempt).

    The label is scoped to the calling thread: concurrent sweep cells each tag
    their own dispatches without clobbering each other.
    """
    _AMBIENT.tag = str(tag or "")


def task_tag() -> str:
    """The calling thread's work label (empty outside a tagged region)."""
    return getattr(_AMBIENT, "tag", "")


def set_deadline(at: Optional[float]) -> None:
    """Arm (or clear, with ``None``) the wall-clock deadline of the current attempt.

    ``at`` is an absolute :func:`time.monotonic` timestamp, scoped to the calling
    thread (each concurrent sweep cell arms its own).  The supervisor in
    :meth:`WorkerPool.map` kills and respawns overdue workers; serial loops check
    between items via :func:`check_deadline`.  Either way the overrun surfaces as
    :class:`CellTimeout`, which the sweep retry loop treats as a failed attempt.
    """
    _AMBIENT.deadline = at


def deadline() -> Optional[float]:
    """The calling thread's armed deadline (monotonic seconds), or ``None``."""
    return getattr(_AMBIENT, "deadline", None)


def check_deadline() -> None:
    """Raise :class:`CellTimeout` when the armed deadline has passed."""
    at = getattr(_AMBIENT, "deadline", None)
    if at is not None and time.monotonic() > at:
        raise CellTimeout(
            f"cell overran its wall-clock budget (deadline {at:.3f} passed)"
        )


def not_a_pool(parallel: Any) -> TypeError:
    """The error for a ``parallel=`` that is not a worker pool (a worker count, say)."""
    return TypeError(
        f"parallel= takes a WorkerPool or None, not {parallel!r}; build a pool with "
        "Session(pool=N) or WorkerPool(config=PoolConfig(max_workers=N))"
    )


class SessionHandle:
    """The minimal session protocol the search loops consume.

    A full :class:`repro.api.Session` provides the same attributes (plus much
    more); this bare holder gives a loop one cache or one
    :class:`~repro.core.parallel_map.WorkerPool` (``parallel=``, ``None`` for
    serial).  A worker count is a ``TypeError``: ``Session(pool=N)`` builds and
    owns a pool of that size.
    """

    __slots__ = ("cache", "parallel")

    def __init__(self, cache: Any = None, parallel: Any = None) -> None:
        if parallel is not None and not callable(getattr(parallel, "map", None)):
            raise not_a_pool(parallel)
        self.cache = cache
        #: What the point-level loops pass to ``parallel=`` (a pool or ``None``).
        self.parallel = parallel


# ---------------------------------------------------------------------- active stack
def push_session(session: Any) -> None:
    """Make ``session`` the innermost active session (``Session.__enter__``)."""
    _ACTIVE_SESSIONS.append(session)


def pop_session(session: Any) -> None:
    """Remove ``session`` from the active stack (``Session.__exit__``)."""
    if session in _ACTIVE_SESSIONS:
        _ACTIVE_SESSIONS.remove(session)


def set_default_session(session: Optional[Any]) -> None:
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = session


def get_default_session() -> Optional[Any]:
    return _DEFAULT_SESSION


def current_session() -> Optional[Any]:
    """The session bare loop calls should use: innermost active, else the default."""
    if _ACTIVE_SESSIONS:
        return _ACTIVE_SESSIONS[-1]
    return _DEFAULT_SESSION


def current_results() -> Optional[Any]:
    """The ambient result store, walking active sessions innermost-first.

    ``Session(results=...)`` makes the store ambient the same way the cache is: a
    sweep that names no store of its own streams to the innermost enclosing session
    that has one (then the default session's).  ``None`` when nobody does.
    """
    for session in reversed(_ACTIVE_SESSIONS):
        results = getattr(session, "results", None)
        if results is not None:
            return results
    return getattr(_DEFAULT_SESSION, "results", None)


def reset_for_worker() -> None:
    """Clear inherited session state in a freshly forked pool worker.

    The parent's sessions hold a :class:`WorkerPool` whose pipes are useless in the
    child; a bare loop call inside a fan-out task must never resolve to it (nested
    pools would deadlock).  Workers price against :func:`parallel_map.task_cache`
    instead: a fresh cache per chunk over the cache the worker forked with.
    """
    global _DEFAULT_SESSION
    _ACTIVE_SESSIONS.clear()
    _DEFAULT_SESSION = None
    # The parent's deadline is the *supervisor's* to enforce (it kills overdue
    # workers); a forked copy ticking inside the worker would make task results
    # depend on wall-clock timing.  The fork keeps only the forking thread, so
    # clearing that thread's ambient state clears everything.
    _AMBIENT.deadline = None
    _AMBIENT.tag = ""


# ---------------------------------------------------------------------- loop sessions
def resolve_loop_session(session: Optional[Any], fallback: Optional[Any] = None) -> Optional[Any]:
    """The session a loop entry point runs on.

    An explicit ``session=`` wins, then ``fallback`` (a session stored on the owning
    object at construction), then the ambient :func:`current_session`.  Returns
    ``None`` when no session exists anywhere — the loop runs standalone.
    """
    if session is not None:
        return session
    if fallback is not None:
        return fallback
    return current_session()
