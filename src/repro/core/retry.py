"""Retry policy for sweep cells: bounded attempts, deterministic backoff, timeouts.

The fault-tolerant sweep runtime retries a failed cell a bounded number of times
before quarantining it (recording a ``status="failed"`` row instead of aborting the
sweep).  :class:`RetryPolicy` is the knob bundle that governs one cell's lifecycle:

* ``max_attempts`` — how many times a cell is run before it is quarantined;
* ``backoff_s`` / ``backoff_factor`` / ``max_backoff_s`` — exponential backoff
  between attempts (``backoff_s * factor**(attempt-1)``, capped);
* ``jitter`` — a ± fraction applied to each delay, drawn from a *seeded* stream so
  two runs of the same sweep sleep the same schedule (the same discipline
  :class:`~repro.hardware.faults.FaultModel` uses to seed die/link faults);
* ``timeout_s`` — optional per-attempt wall-clock budget, enforced by the pool
  supervisor (see :func:`repro.core.runtime.set_deadline`): a cell that overruns is
  killed, its workers respawned, and the attempt counted as a failure.

The policy is a frozen dataclass so it can ride inside specs and be shared across
threads; all delay computation is pure (``(seed, key, attempt) -> seconds``).  That
purity is load-bearing under the two-level sweep scheduler (``Session.sweep(jobs=N)``):
every cell thread evaluates its own retry/backoff schedule concurrently against the
same shared policy object, and because each delay is keyed by the cell's own
``(seed, key, attempt)`` the schedule any one cell observes is independent of which
sibling cells happen to be in flight — retries and quarantine decisions are
bit-identical whether a sweep runs serially or with ``jobs > 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a sweep cell is retried, backed off, and bounded in time."""

    #: Total attempts per cell (1 = no retry).  The cell is quarantined after this.
    max_attempts: int = 3
    #: Base delay before the second attempt (0 disables sleeping entirely).
    backoff_s: float = 0.0
    #: Multiplier applied per further attempt (exponential backoff).
    backoff_factor: float = 2.0
    #: Hard cap on any single delay.
    max_backoff_s: float = 30.0
    #: ± fraction of jitter applied to each delay (0.1 = up to 10% either way).
    jitter: float = 0.1
    #: Seed of the jitter stream — same seed, same key, same attempt: same delay.
    seed: int = 0
    #: Per-attempt wall-clock budget (``None`` = unbounded).
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with NaN is false, so a
        # NaN timeout would never fire.
        if not self.max_attempts >= 1:
            raise ValueError("max_attempts must be at least 1")
        for name in ("backoff_s", "backoff_factor", "max_backoff_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive (or None)")

    def should_retry(self, attempt: int) -> bool:
        """Whether another attempt follows ``attempt`` (1-based) failing."""
        return attempt < self.max_attempts

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Seconds to sleep after attempt ``attempt`` (1-based) failed.

        Deterministic: the jitter factor is drawn from a stream seeded by
        ``(seed, key, attempt)``, so resuming or replaying a sweep produces the
        exact same backoff schedule for every cell.
        """
        if self.backoff_s <= 0:
            return 0.0
        delay = self.backoff_s * (self.backoff_factor ** max(0, attempt - 1))
        delay = min(delay, self.max_backoff_s)
        if self.jitter:
            stream = random.Random(f"{self.seed}:{key}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * stream.random() - 1.0)
        return min(delay, self.max_backoff_s)
