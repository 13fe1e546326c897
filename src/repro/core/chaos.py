"""Deterministic chaos harness for the fault-tolerant sweep runtime.

The paper's robustness study (§VI-D) injects die/link faults through a *seeded*
:class:`~repro.hardware.faults.FaultModel` so every degradation experiment replays
bit-for-bit.  This module applies the same discipline to the execution runtime
itself: :class:`ChaosMonkey` injects worker kills, task delays, spawn denials and
torn store appends at **deterministic points** (the Nth task of a worker, a specific
sweep cell, a bounded number of firings) instead of racey wall-clock timing, so
every recovery path in :class:`~repro.core.parallel_map.WorkerPool` and
:meth:`Session.sweep <repro.api.Session.sweep>` can be exercised under test::

    with ChaosMonkey(tmp_path) as chaos:
        chaos.kill(worker=1, at_task=3)          # SIGKILL-equivalent, fires once
        chaos.delay(0.5, tag=cell_id)            # stall that cell past its budget
        chaos.deny_spawns()                      # make every respawn fail
        list(session.sweep(spec))                # drive through the PUBLIC api

Mechanics: the monkey installs two hooks in :mod:`repro.core.parallel_map` — a
worker-side per-task hook (inherited by workers at fork time, so install the monkey
*before* the pool first maps) and a parent-side spawn hook.  Bounded injections
(``times=N``) claim **token files** in a scratch directory with ``O_CREAT|O_EXCL``,
which makes the budget atomic across every worker process and across respawns — a
respawned worker cannot re-fire a kill whose tokens are spent.  ``tag`` matches
against the ambient :func:`repro.core.runtime.task_tag` (a sweep stamps each cell's
``cell_id`` there), so faults can target *what* is running, not when.

Nothing here is imported by the runtime unless a test (or the chaos_smoke CI job)
asks for it; production pools run with both hooks unset.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core import parallel_map

__all__ = ["ChaosMonkey", "KILL_EXIT_CODE", "tear_last_append"]

#: Exit status of a chaos-killed worker (distinguishable from real crashes in logs).
KILL_EXIT_CODE = 23


@dataclass
class _Injection:
    """One armed fault: where it fires and how often."""

    kind: str  # "kill" | "delay" | "deny"
    at_task: int = 1  # fire on the worker's Nth matching task (1-based)
    tag: str = ""  # substring of the ambient task tag ("" matches everything)
    worker: Optional[int] = None  # restrict to one worker slot (None = any)
    times: Optional[int] = 1  # total firings across all processes (None = always)
    seconds: float = 0.0  # delay duration (kind == "delay")
    name: str = ""  # token-file prefix (unique per injection)
    #: Per-process count of matching tasks seen, keyed by worker index.  Forked
    #: workers inherit the current value and count on independently — deterministic,
    #: because chunk dispatch is deterministic.
    seen: dict = field(default_factory=dict)

    def matches(self, worker: int, tag: str) -> bool:
        if self.worker is not None and worker != self.worker:
            return False
        return self.tag in (tag or "")

    def due(self, worker: int) -> bool:
        count = self.seen.get(worker, 0) + 1
        self.seen[worker] = count
        return count >= self.at_task


class ChaosMonkey:
    """Seeded, token-bounded fault injector for the worker runtime.

    ``scratch_dir`` holds the claim tokens that bound each injection's firings; use
    a per-test temporary directory so runs never share budgets.  ``seed`` feeds
    :attr:`rng` for tests that want randomized-but-replayable fault points (e.g.
    ``chaos.kill(at_task=chaos.rng.randint(1, 8))``).
    """

    def __init__(self, scratch_dir: Optional[str] = None, seed: int = 0) -> None:
        self.scratch = str(scratch_dir) if scratch_dir else tempfile.mkdtemp(prefix="chaos-")
        os.makedirs(self.scratch, exist_ok=True)
        self.seed = seed
        self.rng = random.Random(seed)
        self._injections: List[_Injection] = []
        self._deny_spawns: Optional[_Injection] = None
        self._installed = False

    # ------------------------------------------------------------------ arming
    def kill(
        self,
        *,
        worker: Optional[int] = None,
        at_task: int = 1,
        tag: str = "",
        times: Optional[int] = 1,
    ) -> "ChaosMonkey":
        """Arm a worker kill: the matching worker ``os._exit``\\ s mid-chunk.

        Indistinguishable from an OOM kill or segfault as far as the parent is
        concerned — the result pipe just goes EOF.
        """
        self._injections.append(
            _Injection(
                kind="kill",
                worker=worker,
                at_task=at_task,
                tag=tag,
                times=times,
                name=f"kill-{len(self._injections)}",
            )
        )
        return self

    def delay(
        self,
        seconds: float,
        *,
        worker: Optional[int] = None,
        at_task: int = 1,
        tag: str = "",
        times: Optional[int] = 1,
    ) -> "ChaosMonkey":
        """Arm a task delay: the matching task stalls ``seconds`` before running.

        Long enough a delay pushes the cell past its :class:`RetryPolicy` timeout,
        which is how the supervisor's kill-and-respawn path is tested.
        """
        self._injections.append(
            _Injection(
                kind="delay",
                worker=worker,
                at_task=at_task,
                tag=tag,
                times=times,
                seconds=seconds,
                name=f"delay-{len(self._injections)}",
            )
        )
        return self

    def deny_spawns(self, times: Optional[int] = None) -> "ChaosMonkey":
        """Make worker (re)spawns fail — the fork-bomb / ulimit-exhausted scenario.

        ``times=None`` denies every spawn from now on; a bounded count lets the
        first N respawns fail and later ones succeed.
        """
        self._deny_spawns = _Injection(kind="deny", times=times, name="deny-spawn")
        return self

    # ------------------------------------------------------------------ hooks
    def _claim(self, injection: _Injection) -> bool:
        """Atomically claim one firing token (cross-process, cross-respawn)."""
        if injection.times is None:
            return True
        for slot in range(injection.times):
            token = os.path.join(self.scratch, f"{injection.name}.{slot}")
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def claimed(self, kind: str = "") -> int:
        """How many tokens have been claimed so far (``kind`` filters by prefix)."""
        return sum(
            1 for name in os.listdir(self.scratch) if name.startswith(kind or "")
        )

    def _on_task(self, worker: int, task_no: int, tag: str) -> None:
        del task_no  # injections keep their own per-worker matching-task counters
        for injection in self._injections:
            if not injection.matches(worker, tag):
                continue
            if not injection.due(worker):
                continue
            if not self._claim(injection):
                continue
            if injection.kind == "delay":
                time.sleep(injection.seconds)
            elif injection.kind == "kill":
                os._exit(KILL_EXIT_CODE)

    def _on_spawn(self, worker: int) -> None:
        denial = self._deny_spawns
        if denial is None:
            return
        if self._claim(denial):
            raise OSError(f"chaos: spawn of worker {worker} denied")

    # ------------------------------------------------------------------ lifecycle
    def install(self) -> "ChaosMonkey":
        """Install the hooks.  Do this *before* the pool forks its workers."""
        parallel_map.set_task_hook(self._on_task)
        parallel_map.set_spawn_hook(self._on_spawn)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            parallel_map.set_task_hook(None)
            parallel_map.set_spawn_hook(None)
            self._installed = False

    def __enter__(self) -> "ChaosMonkey":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ---------------------------------------------------------------------- store chaos
def tear_last_append(path: str) -> bool:
    """Simulate a result-store writer killed mid-``append``.

    The last row is cut mid-line (no trailing newline), exactly the bytes a
    SIGKILL between ``write`` and the closing newline leaves behind.  The next
    load must heal: the torn cell is simply absent, so a resumed sweep re-prices
    exactly that cell and nothing else.  Returns ``False`` when there was nothing
    to tear (missing or empty store).
    """
    if not os.path.exists(path):
        return False
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.splitlines(keepends=True)
    # Skip the header (line 0); tear the last record roughly in half.
    if len(lines) < 2:
        return False
    last = lines[-1]
    torn = last[: max(1, len(last) // 2)].rstrip(b"\n")
    with open(path, "wb") as handle:
        handle.write(b"".join(lines[:-1]) + torn)
    return True
