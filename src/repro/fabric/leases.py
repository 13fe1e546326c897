"""Leased cell queue: grants, heartbeat renewal, expiry, and the recovery journal.

A *lease* is the coordinator's claim record for one in-flight sweep cell: which host
holds it, which (global) attempt it is, and when it expires.  Hosts renew every lease
they hold with one heartbeat; a host that misses its window has its leases
**expired** — the cells go back on the queue with the attempt count carried, so the
retry budget spans hosts exactly the way a single-box
:class:`~repro.core.retry.RetryPolicy` spans worker crashes.

The :class:`LeaseJournal` is the tiny append-only half of coordinator crash
recovery.  The result store already records every *completed* cell; the journal
records the queue's other transitions (cell registered, lease granted, cell
requeued, cell settled), so a restarted coordinator can rebuild exactly the pending
set and per-cell attempt counts — no cell lost, none forgotten mid-lease.  Rows are
JSON lines in a :class:`~repro.recordlog.JsonlLog`, the record log every store in
the repo shares: a row cut short by a kill is skipped on replay (costing at most
one transition, which lease expiry re-derives) and the next append starts on a
fresh line, and a file that is not a journal is moved to ``<path>.corrupt``
rather than appended into.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.recordlog import JsonlLog

__all__ = ["CellState", "Lease", "LeaseJournal", "LeaseTable"]

#: Journal format marker (first line of the file).
_JOURNAL_FORMAT = "watos-lease-journal"


def _decode_event(row: Any) -> Tuple[str, str, Dict[str, Any]]:
    return str(row["e"]), str(row["c"]), row


@dataclass
class Lease:
    """One granted cell: who holds it, which attempt, and when it expires."""

    cell_id: str
    host: str
    attempt: int
    expires_at: float  # time.monotonic() deadline, renewed by heartbeats

    def expired(self, now: Optional[float] = None) -> bool:
        return (time.monotonic() if now is None else now) > self.expires_at


@dataclass
class CellState:
    """Everything the coordinator tracks for one registered cell."""

    cell_id: str
    #: Provenance shipped at registration (kind/label/spec dict) — enough to write
    #: a quarantine row for a cell whose final attempt died with its host.
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Global attempts consumed so far (bumped at grant time, carried by requeues).
    attempts: int = 0
    #: Hosts that registered this cell (only they can claim it — hosts running
    #: different matrices share one queue without being handed foreign work).
    hosts: set = field(default_factory=set)


class LeaseTable:
    """In-memory lease state, owned by the coordinator's single dispatcher thread.

    Not thread-safe by design: every mutation happens on the dispatcher, which is
    what makes grant/renew/expire ordering deterministic under test.
    """

    def __init__(self, lease_s: float = 10.0) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be positive")
        self.lease_s = lease_s
        self._leases: Dict[str, Lease] = {}  # cell_id -> lease

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, cell_id: str) -> bool:
        return cell_id in self._leases

    def get(self, cell_id: str) -> Optional[Lease]:
        return self._leases.get(cell_id)

    def grant(self, cell_id: str, host: str, attempt: int) -> Lease:
        """Lease one cell to one host.  Double-granting a live lease is a bug."""
        if cell_id in self._leases:
            raise RuntimeError(f"cell {cell_id} is already leased to {self._leases[cell_id].host}")
        lease = Lease(cell_id, host, attempt, time.monotonic() + self.lease_s)
        self._leases[cell_id] = lease
        return lease

    def renew(self, host: str, now: Optional[float] = None) -> int:
        """One heartbeat: push every lease the host holds out by the lease window."""
        now = time.monotonic() if now is None else now
        renewed = 0
        for lease in self._leases.values():
            if lease.host == host:
                lease.expires_at = now + self.lease_s
                renewed += 1
        return renewed

    def release(self, cell_id: str) -> Optional[Lease]:
        """Drop the lease on a settled (completed/failed/requeued) cell."""
        return self._leases.pop(cell_id, None)

    def expired(self, now: Optional[float] = None) -> List[Lease]:
        """Leases whose host missed its heartbeat window (not yet released)."""
        now = time.monotonic() if now is None else now
        return [lease for lease in self._leases.values() if lease.expired(now)]

    def held_by(self, host: str) -> List[Lease]:
        return [lease for lease in self._leases.values() if lease.host == host]


class LeaseJournal:
    """Append-only queue-transition log for coordinator restart recovery.

    Events (one JSON object per line, ``e`` is the event tag):

    * ``reg``     — cell registered: ``{"e": "reg", "c": id, "m": meta}``
    * ``grant``   — lease granted:   ``{"e": "grant", "c": id, "h": host, "a": attempt}``
    * ``requeue`` — cell back on the queue (failed attempt / dead host), attempts
      carried: ``{"e": "requeue", "c": id, "a": attempts}``
    * ``done``    — cell settled (ok or quarantined): ``{"e": "done", "c": id}``
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._log = JsonlLog(self.path, {"format": _JOURNAL_FORMAT})

    @property
    def replay_errors(self) -> int:
        """Rows skipped during the most recent :meth:`replay` (torn tail, noise)."""
        return self._log.errors

    # ------------------------------------------------------------------ writing
    def append(self, event: str, cell_id: str, **fields: Any) -> None:
        """Record one transition; it reaches the OS before this returns."""
        self._log.append([{"e": event, "c": cell_id, **fields}])

    def close(self) -> None:
        self._log.close()

    # ------------------------------------------------------------------ replay
    def replay(self) -> Tuple[Dict[str, CellState], List[str], List[str]]:
        """Rebuild queue state: ``(cells, pending_ids, interrupted_ids)``.

        ``pending_ids`` are cells registered or requeued but not granted/settled at
        the crash, in arrival order.  ``interrupted_ids`` are cells that were *under
        lease* when the coordinator died — their hosts may or may not still be
        alive, so the caller requeues them (attempts carried); if the original host
        later completes one anyway, the result store's later-duplicates-win put
        makes the double harmless.
        """
        cells: Dict[str, CellState] = {}
        pending: List[str] = []
        leased: List[str] = []
        done: set = set()
        for event, cell_id, row in self._log.rows(_decode_event):
            if event == "reg":
                if cell_id not in cells:
                    cells[cell_id] = CellState(cell_id, meta=dict(row.get("m") or {}))
                    pending.append(cell_id)
            elif event == "grant":
                state = cells.setdefault(cell_id, CellState(cell_id))
                state.attempts = int(row.get("a", state.attempts + 1))
                if cell_id in pending:
                    pending.remove(cell_id)
                if cell_id not in leased:
                    leased.append(cell_id)
            elif event == "requeue":
                state = cells.setdefault(cell_id, CellState(cell_id))
                state.attempts = int(row.get("a", state.attempts))
                if cell_id in leased:
                    leased.remove(cell_id)
                if cell_id not in pending:
                    pending.append(cell_id)
            elif event == "done":
                done.add(cell_id)
                if cell_id in pending:
                    pending.remove(cell_id)
                if cell_id in leased:
                    leased.remove(cell_id)
        for cell_id in done:
            cells.pop(cell_id, None)
        return cells, pending, leased
