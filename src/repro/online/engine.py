"""The online serving loop: a trace of arriving jobs onto a fleet of wafers.

:class:`OnlineEngine` is a deterministic discrete-event simulation.  Every trace
event (arrivals and faults) is pushed into the ``(time, seq)``-ordered
:class:`~repro.online.events.EventQueue` up front; the loop then pops events,
advances the :class:`~repro.online.clock.VirtualClock`, and reacts:

* **arrival** — the job joins the pending queue and the
  :class:`~repro.online.policy.OnlinePolicy` is asked to place work on idle
  wafers;
* **fault** — the wafer's :class:`~repro.hardware.faults.FaultModel` folds the
  event in.  A hard fail (``die_fail``/``link_fail``) *preempts* the running job
  back into the queue (it restarts from scratch — wafer-scale training state is
  gone); a degrade or repair re-times the running job's completion from its
  accrued remaining work at the wafer's new effective speed; a wafer at speed 0
  stalls until repaired;
* **completion** — validated against a per-wafer epoch counter (bumped on every
  preempt/re-time, so stale completions are dropped), then the job's metrics row
  streams into the result store and the wafer picks up the next placement.

Placements are priced through the paper's own scheduler —
:meth:`CentralScheduler.best` on the session's shared evaluation cache — and the
engine memoizes one price per distinct ``(wafer, workload)`` pair, which is what
lets thousands of scheduled jobs amortize a handful of real searches (the
``jobs_per_sec`` bench gate).  All timestamps in stored rows are *virtual*, so
serving the same trace twice writes byte-identical stores.  The scheduler prices in
this process, so a session with a worker pool serves exactly what a serial one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.central_scheduler import CentralScheduler
from repro.core.evalcache import fingerprint
from repro.hardware.faults import FaultEvent, FaultModel
from repro.obs import tracer as _obs
from repro.online.clock import VirtualClock
from repro.online.events import EventQueue
from repro.online.metrics import JobMetrics, fleet_summary
from repro.online.policy import OnlinePolicy, resolve_policy
from repro.online.trace import JobRequest, Trace, TraceEvent, as_trace

__all__ = ["OnlineEngine", "ServeReport"]

#: Hard fault kinds: the running job is preempted, not merely slowed.
_PREEMPTING = ("die_fail", "link_fail")


@dataclass
class _Pending:
    """A job admitted but not currently running (the policy's pending view)."""

    job: JobRequest
    arrival: float
    seq: int
    deadline_abs: Optional[float]


@dataclass
class _Wafer:
    """One fleet wafer's live state (the policy's idle view exposes a subset)."""

    index: int
    name: str
    config: Any  # resolved WaferConfig
    faults: FaultModel = field(default_factory=FaultModel)
    speed: float = 1.0
    #: Bumped on every preemption/re-time; completions carry the epoch they were
    #: scheduled under and are dropped when it no longer matches.
    epoch: int = 0
    running: Optional[_Pending] = None
    #: Nominal seconds of work left on the running job (accrued at speed changes).
    work_remaining: float = 0.0
    #: Virtual instant ``work_remaining`` was last accrued at.
    last_update: float = 0.0
    busy_since: float = 0.0
    busy_s: float = 0.0
    last_workload_key: Optional[str] = None

    def accrue(self, now: float) -> None:
        """Fold elapsed progress at the current speed into ``work_remaining``."""
        if self.running is not None:
            elapsed = max(0.0, now - self.last_update)
            self.work_remaining = max(0.0, self.work_remaining - elapsed * self.speed)
        self.last_update = now


def _check_fault_target(event: TraceEvent, config: Any) -> None:
    """Reject a trace fault on a die or link that the targeted wafer does not have."""
    dies_x, dies_y = config.dies_x, config.dies_y
    dies = {(x, y) for x in range(dies_x) for y in range(dies_y)}
    fault = event.fault
    if fault.die is not None:
        if fault.die in dies:
            return
        kind, target = "die", str(fault.die)
    else:
        a, b = fault.link
        if a in dies and b in dies and abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1:
            return
        kind, target = "link", f"{a}-{b}"
    raise ValueError(
        f"fault event at t={event.time:g} targets {kind} {target}, which is not a "
        f"{kind} of wafer {event.wafer}'s {dies_x}x{dies_y} die grid"
    )


@dataclass
class ServeReport:
    """What one :meth:`OnlineEngine.serve` run produced (all times virtual)."""

    trace: str
    fingerprint: str
    policy: str
    fleet: List[str]
    jobs: int
    completed: int
    failed: int
    slo_misses: int
    preemptions: int
    makespan_s: float
    util: float
    rows_written: int
    rows_skipped: int
    prices: int
    price_hits: int
    job_metrics: List[JobMetrics]
    summary: Any  # the kind="trace_fleet" RunResult

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready summary (per-job detail lives in the result store)."""
        return {
            "trace": self.trace,
            "fingerprint": self.fingerprint,
            "policy": self.policy,
            "fleet": list(self.fleet),
            "jobs": self.jobs,
            "completed": self.completed,
            "failed": self.failed,
            "slo_misses": self.slo_misses,
            "preemptions": self.preemptions,
            "makespan_s": self.makespan_s,
            "util": self.util,
            "rows_written": self.rows_written,
            "rows_skipped": self.rows_skipped,
            "prices": self.prices,
            "price_hits": self.price_hits,
            "metrics": dict(self.summary.metrics),
        }

    def summary_line(self) -> str:
        """One human line for CLI output."""
        return (
            f"{self.trace or self.fingerprint}  policy={self.policy}  "
            f"jobs={self.jobs} ok={self.completed} failed={self.failed} "
            f"slo_miss={self.slo_misses} preempt={self.preemptions}  "
            f"makespan={self.makespan_s:.1f}s util={self.util:.1%}  "
            f"rows={self.rows_written}(+{self.rows_skipped} resumed)"
        )


class OnlineEngine:
    """Serve traces against a fleet on one session's cache.

    ``fleet`` overrides the trace's own fleet (wafer registry names); ``store``
    receives one row per job plus a closing fleet-summary row, keyed by
    :func:`~repro.online.metrics.trace_cell_id` under a run key that covers the
    trace content, the fleet and the policy — so re-serving the same scenario
    resumes (``resume=True`` skips ids already stored) while a different policy
    or fleet writes fresh rows.  ``flush_every`` batches store writes (1 = true
    write-through); batching only affects I/O, never row content or order.
    """

    def __init__(
        self,
        session,
        *,
        fleet: Optional[List[str]] = None,
        policy: Union[str, OnlinePolicy] = "fcfs",
        store=None,
        resume: bool = True,
        flush_every: int = 1,
        max_tp: int = 0,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be at least 1")
        self.session = session
        self.fleet_override = list(fleet) if fleet is not None else None
        self.policy = resolve_policy(policy)
        self.store = store
        self.resume = resume
        self.flush_every = flush_every
        self.max_tp = max_tp
        # Pricing memo: (wafer name, workload key) -> iteration_time | None.
        self._prices: Dict[Tuple[str, str], Optional[float]] = {}
        self._price_hits = 0
        self._schedulers: Dict[str, CentralScheduler] = {}
        self._workloads: Dict[str, Any] = {}

    # ------------------------------------------------------------------ pricing
    def _workload(self, job: JobRequest):
        key = job.workload_key()
        if key not in self._workloads:
            from repro.api import registry  # late: avoids import cycles

            self._workloads[key] = registry.resolve_workload(job.workload)
        return self._workloads[key]

    def _price(self, wafer: _Wafer, job: JobRequest) -> Optional[float]:
        """Healthy-wafer seconds per iteration for this workload (``None`` = infeasible).

        One real :meth:`CentralScheduler.best` search per distinct
        ``(wafer, workload)`` pair; every further job is a dictionary hit.
        """
        key = (wafer.name, job.workload_key())
        cached = self._prices.get(key, _MISSING)
        if cached is not _MISSING:
            self._price_hits += 1
            return cached
        scheduler = self._schedulers.get(wafer.name)
        if scheduler is None:
            scheduler = CentralScheduler(
                wafer.config, session=self.session, max_tp=self.max_tp
            )
            self._schedulers[wafer.name] = scheduler
        record = scheduler.best(self._workload(job))
        price = record.result.iteration_time if record is not None else None
        self._prices[key] = price
        return price

    # ------------------------------------------------------------------ serving
    def serve(self, trace: Union[Trace, str]) -> ServeReport:
        """Run one trace to completion and return the :class:`ServeReport`."""
        trace = as_trace(trace)
        fleet = self.fleet_override if self.fleet_override is not None else list(trace.fleet)
        if not fleet:
            raise ValueError(
                "the trace names no fleet and no fleet= override was given"
            )
        for event in trace.events:
            if event.kind == "fault" and event.wafer >= len(fleet):
                raise ValueError(
                    f"fault event at t={event.time:g} targets wafer {event.wafer} "
                    f"but the serving fleet has only {len(fleet)} wafers"
                )
        from repro.api import registry  # late: avoids import cycles

        self._run_key = fingerprint(
            {"trace": trace.fingerprint, "fleet": fleet, "policy": self.policy.name}
        )[:16]
        self._wafers = [
            _Wafer(index=index, name=str(name), config=registry.resolve_wafer(name))
            for index, name in enumerate(fleet)
        ]
        for event in trace.events:
            if event.kind == "fault":
                _check_fault_target(event, self._wafers[event.wafer].config)
        self._pending: List[_Pending] = []
        self._metrics: Dict[str, JobMetrics] = {}
        self._queue = EventQueue()
        self._clock = VirtualClock()
        self._buffer: List[Tuple[str, Dict[str, Any]]] = []
        self._rows_written = 0
        self._rows_skipped = 0
        self._completed_ids = (
            self.store.completed_ids(include_failed=True)
            if self.resume and self.store is not None
            else set()
        )

        # Trace events first: pushed up front they hold the lowest seqs, so at an
        # equal instant they are handled before any engine-scheduled completion.
        admit_seq = 0
        for event in trace.events:
            if event.kind == "arrival":
                deadline = (
                    event.time + event.job.deadline_s
                    if event.job.deadline_s is not None
                    else None
                )
                self._queue.push(
                    event.time,
                    (
                        "arrival",
                        _Pending(
                            job=event.job,
                            arrival=event.time,
                            seq=admit_seq,
                            deadline_abs=deadline,
                        ),
                    ),
                )
                admit_seq += 1
            else:
                self._queue.push(event.time, ("fault", event.wafer, event.fault))

        while self._queue:
            time, _seq, payload = self._queue.pop()
            self._clock.advance(time)
            kind = payload[0]
            if kind == "arrival":
                self._on_arrival(payload[1])
            elif kind == "fault":
                self._on_fault(payload[1], payload[2])
            else:  # "complete"
                self._on_complete(payload[1], payload[2])

        self._drain_leftovers(trace)
        makespan = self._clock.now
        for wafer in self._wafers:  # close busy accounting for stalled runners
            if wafer.running is not None:
                wafer.busy_s += makespan - wafer.busy_since
                wafer.running = None
        jobs = list(self._metrics.values())
        summary = fleet_summary(
            jobs,
            fleet_size=len(self._wafers),
            busy_s=[wafer.busy_s for wafer in self._wafers],
            makespan=makespan,
            policy=self.policy.name,
            trace_fingerprint=self._run_key,
        )
        self._record(summary, spec={"trace": trace.fingerprint, "policy": self.policy.name})
        self._flush(force=True)
        return ServeReport(
            trace=trace.name,
            fingerprint=trace.fingerprint,
            policy=self.policy.name,
            fleet=[wafer.name for wafer in self._wafers],
            jobs=len(jobs),
            completed=sum(1 for job in jobs if job.status == "ok" and job.finish is not None),
            failed=sum(1 for job in jobs if job.status == "failed"),
            slo_misses=sum(1 for job in jobs if job.slo_miss),
            preemptions=sum(job.preemptions for job in jobs),
            makespan_s=makespan,
            util=float(summary.metrics["util"]),
            rows_written=self._rows_written,
            rows_skipped=self._rows_skipped,
            prices=len(self._prices),
            price_hits=self._price_hits,
            job_metrics=jobs,
            summary=summary,
        )

    # ------------------------------------------------------------------ handlers
    def _on_arrival(self, pending: _Pending) -> None:
        job = pending.job
        if job.id in self._metrics:
            raise ValueError(f"duplicate job id {job.id!r} in trace")
        self._metrics[job.id] = JobMetrics(
            job_id=job.id,
            workload_key=job.workload_key(),
            arrival=pending.arrival,
            iterations=job.iterations,
            deadline_abs=pending.deadline_abs,
        )
        self._pending.append(pending)
        self._dispatch()

    def _on_fault(self, wafer_index: int, event: FaultEvent) -> None:
        wafer = self._wafers[wafer_index]
        now = self._clock.now
        wafer.accrue(now)
        wafer.faults.apply_event(event)
        wafer.speed = wafer.faults.effective_speed(
            wafer.config.dies_x, wafer.config.dies_y
        )
        if wafer.running is not None:
            wafer.epoch += 1  # whatever was scheduled is now mistimed
            if event.kind in _PREEMPTING:
                pending = wafer.running
                metrics = self._metrics[pending.job.id]
                metrics.preemptions += 1
                _obs.count("online.preempt", tag=pending.job.id)
                wafer.busy_s += now - wafer.busy_since
                wafer.running = None
                # Restart from scratch: training state died with the die/link.
                self._pending.append(pending)
            elif wafer.speed > 0.0:
                self._queue.push(
                    now + wafer.work_remaining / wafer.speed,
                    ("complete", wafer.index, wafer.epoch),
                )
            # else: stalled at speed 0 — wait for a repair to re-time it.
        self._dispatch()

    def _on_complete(self, wafer_index: int, epoch: int) -> None:
        wafer = self._wafers[wafer_index]
        if wafer.epoch != epoch or wafer.running is None:
            return  # stale: the job was preempted or re-timed after scheduling
        now = self._clock.now
        pending = wafer.running
        metrics = self._metrics[pending.job.id]
        metrics.finish = now
        wafer.busy_s += now - wafer.busy_since
        wafer.last_workload_key = pending.job.workload_key()
        wafer.running = None
        wafer.work_remaining = 0.0
        self._record(metrics.to_run_result(self._run_key), job=pending.job)
        self._dispatch()

    # ------------------------------------------------------------------ placement
    def _dispatch(self) -> None:
        """Ask the policy to fill idle wafers until it declines (or nothing fits)."""
        while self._pending:
            idle = [
                wafer
                for wafer in self._wafers
                if wafer.running is None and wafer.speed > 0.0
            ]
            if not idle:
                return
            choice = self.policy.select(tuple(self._pending), tuple(idle))
            if choice is None:
                return
            job_index, wafer_index = choice
            if not (0 <= job_index < len(self._pending) and 0 <= wafer_index < len(idle)):
                raise ValueError(
                    f"policy {self.policy.name!r} selected out-of-range indices "
                    f"({job_index}, {wafer_index}) for {len(self._pending)} pending "
                    f"jobs and {len(idle)} idle wafers"
                )
            pending = self._pending.pop(job_index)
            self._place(pending, idle[wafer_index])

    def _place(self, pending: _Pending, wafer: _Wafer) -> None:
        now = self._clock.now
        metrics = self._metrics[pending.job.id]
        metrics.wafer = wafer.index
        metrics.wafer_name = wafer.name
        with _obs.span("online.place", tag=pending.job.id):
            price = self._price(wafer, pending.job)
        if price is None:
            # Every candidate pruned or OOM on this wafer: the job cannot run
            # there, and retrying elsewhere would make completion order depend on
            # policy internals — fail it deterministically instead.
            metrics.status = "failed"
            metrics.error = (
                f"workload is infeasible on wafer {wafer.name!r} "
                "(every (TP, PP) candidate pruned or OOM)"
            )
            self._record(metrics.to_run_result(self._run_key), job=pending.job)
            return
        metrics.iteration_time = price
        if metrics.start is None:
            metrics.start = now
        wafer.running = pending
        wafer.work_remaining = price * pending.job.iterations
        wafer.last_update = now
        wafer.busy_since = now
        self._queue.push(
            now + wafer.work_remaining / wafer.speed,
            ("complete", wafer.index, wafer.epoch),
        )

    def _drain_leftovers(self, trace: Trace) -> None:
        """Fail jobs the trace left stranded: never dispatched, or stalled forever."""
        now = self._clock.now
        for wafer in self._wafers:
            if wafer.running is not None and wafer.speed <= 0.0:
                metrics = self._metrics[wafer.running.job.id]
                metrics.status = "failed"
                metrics.error = (
                    f"wafer {wafer.name!r} was down (effective speed 0) when the "
                    "trace ended; the job never completed"
                )
                self._record(metrics.to_run_result(self._run_key), job=wafer.running.job)
        for pending in self._pending:
            metrics = self._metrics[pending.job.id]
            if metrics.status == "ok" and metrics.finish is None:
                metrics.status = "failed"
                metrics.error = (
                    "the trace ended with this job still queued "
                    f"(arrived t={pending.arrival:g}, never completed)"
                )
                self._record(metrics.to_run_result(self._run_key), job=pending.job)

    # ------------------------------------------------------------------ recording
    def _record(self, run, job: Optional[JobRequest] = None, spec=None) -> None:
        """Queue one row for the store (virtual ``written_at``; resume-aware skip)."""
        if self.store is None:
            return
        from repro.api.results import make_record

        if run.cell_id in self._completed_ids:
            self._rows_skipped += 1
            return
        record = make_record(run, None, now=self._clock.now)
        record["spec"] = (
            spec
            if spec is not None
            else {"trace": self._run_key, "job": job.to_dict() if job else None}
        )
        self._buffer.append((run.cell_id, record))
        self._rows_written += 1
        if len(self._buffer) >= self.flush_every:
            self._flush()

    def _flush(self, force: bool = False) -> None:
        if self.store is None or not self._buffer:
            return
        if force or len(self._buffer) >= self.flush_every:
            self.store.put_many(self._buffer)
            self._buffer = []


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
