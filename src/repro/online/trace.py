"""The JSONL trace format: replayable request streams for the online engine.

A trace is one header line plus one event line per arrival or fault, in
non-decreasing time order::

    {"format": "watos-trace", "version": 1, "name": "...", "seed": 0, "fleet": ["tiny", "tiny"]}
    {"t": 0.31, "event": "arrival", "job": {"id": "job-00000", "workload": "tiny", "iterations": 4, "deadline_s": 60.0}}
    {"t": 10.02, "event": "fault", "wafer": 0, "fault": {"kind": "die_fail", "die": [1, 2], "value": 0.0}}

The fault vocabulary is :class:`repro.hardware.faults.FaultEvent` verbatim — the
paper's §VI-D fault model with a time axis — so traces and the static robustness
study share one model.  :func:`read_trace` validates the header (actionable errors,
never a bare ``KeyError``) and the time ordering; :func:`generate_trace` builds
seeded synthetic streams: Poisson or diurnal arrivals, mixed model fleets drawn
from the workload registry, and fault storms scheduled through
:class:`~repro.hardware.faults.FaultInjector`.  Generation is pure given the seed,
which is what the golden-file tests pin down.

A trace's identity is its :attr:`Trace.fingerprint` — a content digest over the
fleet and the events, *excluding* the display name — and per-job result rows key
off it, so renaming a trace file never invalidates a result store.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.evalcache import fingerprint
from repro.hardware.faults import FaultEvent, FaultInjector
from repro.recordlog import atomic_write

__all__ = [
    "JobRequest",
    "StormSpec",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceEvent",
    "as_trace",
    "generate_trace",
    "read_trace",
    "write_trace",
]

TRACE_FORMAT = "watos-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class JobRequest:
    """One arriving job: a workload to train for ``iterations`` iterations.

    ``workload`` is any reference the registry resolves — a registered name, a
    model-zoo name, or a batching mapping.  ``deadline_s`` is the SLO, relative to
    the arrival instant (``None`` = no deadline, never an SLO miss).
    """

    id: str
    workload: Union[str, Dict[str, Any]]
    iterations: int = 1
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("job id must be non-empty")
        if self.iterations < 1:
            raise ValueError(f"job {self.id}: iterations must be at least 1")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ValueError(f"job {self.id}: deadline_s must be positive (or null)")

    def workload_key(self) -> str:
        """The content key of this job's workload (what pricing memoizes on)."""
        return fingerprint(self.workload)[:16]

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"id": self.id, "workload": self.workload}
        if self.iterations != 1:
            data["iterations"] = self.iterations
        if self.deadline_s is not None:
            data["deadline_s"] = self.deadline_s
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRequest":
        workload = data.get("workload")
        if workload is None:
            raise ValueError(f"job {data.get('id', '?')!r} names no workload")
        deadline = data.get("deadline_s")
        return cls(
            id=str(data.get("id", "")),
            workload=workload if isinstance(workload, dict) else str(workload),
            iterations=int(data.get("iterations", 1)),
            deadline_s=float(deadline) if deadline is not None else None,
        )


@dataclass(frozen=True)
class TraceEvent:
    """One trace line: a job arrival or a fault on one fleet wafer."""

    time: float
    kind: str  # "arrival" | "fault"
    job: Optional[JobRequest] = None
    wafer: Optional[int] = None
    fault: Optional[FaultEvent] = None

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"event time must be non-negative, not {self.time:g}")
        if self.kind == "arrival":
            if self.job is None:
                raise ValueError("arrival events carry a job")
        elif self.kind == "fault":
            if self.fault is None or self.wafer is None:
                raise ValueError("fault events carry a wafer index and a fault")
            if self.wafer < 0:
                raise ValueError("fault wafer index must be non-negative")
        else:
            raise ValueError(f"event kind must be 'arrival' or 'fault', not {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"t": self.time, "event": self.kind}
        if self.kind == "arrival":
            data["job"] = self.job.to_dict()
        else:
            data["wafer"] = self.wafer
            data["fault"] = self.fault.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        time = float(data.get("t", -1.0))
        kind = str(data.get("event", ""))
        if kind == "arrival":
            return cls(time=time, kind=kind, job=JobRequest.from_dict(data.get("job") or {}))
        if kind == "fault":
            return cls(
                time=time,
                kind=kind,
                wafer=int(data.get("wafer", -1)),
                fault=FaultEvent.from_dict(time, data.get("fault") or {}),
            )
        raise ValueError(f"event kind must be 'arrival' or 'fault', not {kind!r}")


@dataclass
class Trace:
    """A parsed (or generated) trace: the fleet, the seed and the event stream."""

    events: List[TraceEvent] = field(default_factory=list)
    fleet: List[str] = field(default_factory=list)
    seed: int = 0
    name: str = ""
    #: Generator provenance (rates, storm specs…), carried for reporting only.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        last = 0.0
        for event in self.events:
            if event.time < last:
                raise ValueError(
                    f"trace events must be in non-decreasing time order "
                    f"({event.time:g} after {last:g})"
                )
            last = event.time
        for event in self.events:
            if event.kind == "fault" and self.fleet and event.wafer >= len(self.fleet):
                raise ValueError(
                    f"fault event at t={event.time:g} targets wafer {event.wafer} "
                    f"but the fleet has only {len(self.fleet)} wafers"
                )

    @property
    def jobs(self) -> List[JobRequest]:
        return [event.job for event in self.events if event.kind == "arrival"]

    @property
    def horizon(self) -> float:
        """The time of the last event (0 for an empty trace)."""
        return self.events[-1].time if self.events else 0.0

    @property
    def fingerprint(self) -> str:
        """Content digest over fleet + events (name-blind, like sweep cell ids)."""
        return fingerprint(
            {
                "fleet": list(self.fleet),
                "events": [event.to_dict() for event in self.events],
            }
        )[:16]

    def header(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "name": self.name,
            "seed": self.seed,
            "fleet": list(self.fleet),
        }
        if self.meta:
            data["meta"] = self.meta
        return data


def write_trace(trace: Trace, path: Union[str, os.PathLike]) -> int:
    """Serialize a trace to a JSONL file, atomically; returns the event count.

    An interrupted rewrite leaves the previous file intact, never a shorter trace
    that :func:`read_trace` would accept.
    """
    atomic_write(
        path,
        itertools.chain(
            [json.dumps(trace.header())], (json.dumps(event.to_dict()) for event in trace.events)
        ),
    )
    return len(trace.events)


def read_trace(path: Union[str, os.PathLike]) -> Trace:
    """Parse a JSONL trace file (actionable errors, never a bare ``KeyError``)."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"{path} is not a {TRACE_FORMAT} file (generate one with "
                "`repro trace gen` or repro.online.generate_trace)"
            )
        version = header.get("version")
        if version != TRACE_VERSION:
            raise ValueError(
                f"{path} is trace format version {version!r}; this build reads "
                f"version {TRACE_VERSION} — regenerate the trace"
            )
        events: List[TraceEvent] = []
        for number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: bad trace event: {exc}") from exc
    return Trace(
        events=events,
        fleet=[str(name) for name in header.get("fleet") or []],
        seed=int(header.get("seed", 0)),
        name=str(header.get("name", "")),
        meta=dict(header.get("meta") or {}),
    )


def as_trace(trace: Union[Trace, str, os.PathLike]) -> Trace:
    """Coerce a ``Session.serve`` trace argument (path or object) to a :class:`Trace`."""
    if isinstance(trace, Trace):
        return trace
    return read_trace(trace)


# ------------------------------------------------------------------ generators
@dataclass(frozen=True)
class StormSpec:
    """One seeded fault storm: a burst of §VI-D fault events on one fleet wafer.

    ``die_fault_rate`` / ``link_fault_rate`` etc. configure the underlying
    :class:`~repro.hardware.faults.FaultInjector`; the storm's events land inside
    ``[at, at + duration)``, with repairs (when ``mean_repair_s`` > 0) possibly
    trailing inside the same window.
    """

    wafer: int = 0
    at: float = 0.0
    duration: float = 10.0
    die_fault_rate: float = 0.2
    link_fault_rate: float = 0.0
    degraded_fraction: float = 0.5
    dead_share: float = 0.2
    mean_repair_s: float = 0.0

    def __post_init__(self) -> None:
        if self.wafer < 0:
            raise ValueError("storm wafer index must be non-negative")
        if self.at < 0.0 or self.duration <= 0.0:
            raise ValueError("storm needs at >= 0 and duration > 0")


def _arrival_times(
    rng: random.Random,
    jobs: int,
    rate: float,
    arrival: str,
    period_s: float,
    amplitude: float,
) -> List[float]:
    """``jobs`` seeded arrival instants under the named process.

    ``poisson`` — homogeneous, exponential inter-arrivals at ``rate`` jobs/s.
    ``diurnal`` — inhomogeneous Poisson with intensity
    ``rate * (1 + amplitude * sin(2πt / period_s))``, drawn by thinning, so load
    swells and ebbs like a day/night cycle compressed to ``period_s``.
    """
    times: List[float] = []
    t = 0.0
    if arrival == "poisson":
        for _ in range(jobs):
            t += rng.expovariate(rate)
            times.append(t)
        return times
    if arrival == "diurnal":
        peak = rate * (1.0 + amplitude)
        while len(times) < jobs:
            t += rng.expovariate(peak)
            intensity = rate * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period_s))
            if rng.random() * peak < intensity:
                times.append(t)
        return times
    raise ValueError(f"arrival must be 'poisson' or 'diurnal', not {arrival!r}")


def generate_trace(
    *,
    jobs: int,
    rate: float = 1.0,
    seed: int = 0,
    arrival: str = "poisson",
    workloads: Sequence[Union[str, Dict[str, Any]]] = ("tiny",),
    iterations: Union[int, Tuple[int, int]] = 1,
    deadline_s: Optional[float] = None,
    deadline_jitter: float = 0.25,
    fleet: Sequence[str] = ("tiny",),
    storms: Sequence[StormSpec] = (),
    period_s: float = 60.0,
    amplitude: float = 0.8,
    name: str = "",
) -> Trace:
    """A seeded synthetic trace (pure: same arguments ⇒ the same trace, bit for bit).

    Each job draws its workload uniformly from ``workloads`` (mixed model fleets),
    its iteration count from ``iterations`` (an int, or an inclusive ``(lo, hi)``
    range), and — when ``deadline_s`` is set — an SLO jittered by
    ``±deadline_jitter`` around it.  Fault storms are scheduled per
    :class:`StormSpec` through :class:`~repro.hardware.faults.FaultInjector`, each
    on its own derived seed, against the named fleet wafer's real die grid.
    """
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    if rate <= 0.0:
        raise ValueError("rate must be positive (jobs per second)")
    if not fleet:
        raise ValueError("fleet must name at least one wafer")
    if not workloads:
        raise ValueError("workloads must name at least one workload")
    # A string seed hashes through SHA-512 (stable across processes); tuples would
    # go through hash(), which PYTHONHASHSEED randomises between runs.
    rng = random.Random(f"{int(seed)}:trace-arrivals")
    events: List[TraceEvent] = []
    for index, t in enumerate(
        _arrival_times(rng, jobs, rate, arrival, period_s, amplitude)
    ):
        workload = workloads[rng.randrange(len(workloads))]
        if isinstance(iterations, tuple):
            count = rng.randint(iterations[0], iterations[1])
        else:
            count = int(iterations)
        deadline = None
        if deadline_s is not None:
            deadline = deadline_s * rng.uniform(1.0 - deadline_jitter, 1.0 + deadline_jitter)
        events.append(
            TraceEvent(
                time=round(t, 6),
                kind="arrival",
                job=JobRequest(
                    id=f"job-{index:05d}",
                    workload=workload,
                    iterations=count,
                    deadline_s=round(deadline, 6) if deadline is not None else None,
                ),
            )
        )

    from repro.api.registry import resolve_wafer  # late: avoids import cycles

    for storm_index, storm in enumerate(storms):
        if storm.wafer >= len(fleet):
            raise ValueError(
                f"storm {storm_index} targets wafer {storm.wafer} but the fleet "
                f"has only {len(fleet)} wafers"
            )
        config = resolve_wafer(fleet[storm.wafer])
        injector = FaultInjector(
            dies_x=config.dies_x,
            dies_y=config.dies_y,
            die_fault_rate=storm.die_fault_rate,
            link_fault_rate=storm.link_fault_rate,
            degraded_fraction=storm.degraded_fraction,
            dead_share=storm.dead_share,
            mean_repair_s=storm.mean_repair_s,
        )
        storm_seed = zlib.crc32(f"{int(seed)}:storm:{storm_index}".encode("ascii"))
        for fault in injector.schedule(
            seed=storm_seed,
            horizon=storm.duration,
            start=storm.at,
        ):
            rounded = FaultEvent(
                time=round(fault.time, 6),
                kind=fault.kind,
                die=fault.die,
                link=fault.link,
                value=fault.value,
            )
            events.append(
                TraceEvent(
                    time=rounded.time, kind="fault", wafer=storm.wafer, fault=rounded
                )
            )

    events.sort(key=lambda event: event.time)  # stable: equal instants keep order
    return Trace(
        events=events,
        fleet=[str(wafer) for wafer in fleet],
        seed=int(seed),
        name=name,
        meta={
            "generator": {
                "jobs": jobs,
                "rate": rate,
                "arrival": arrival,
                "workloads": list(workloads),
                "storms": len(storms),
            }
        },
    )
