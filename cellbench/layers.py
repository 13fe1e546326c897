"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` swaps each layer module's public entry points for thin wrappers
that record one span per call through the public :mod:`repro.obs.tracer` API;
:meth:`Installed.restore` puts every original back.  A name imported into
another module is wrapped where it is looked up: ``global_cost`` in
``core.placement`` (the placement optimizer) and in ``core.genetic`` (GA
fitness), ``simulate_1f1b`` in ``core.evaluator``, ``fold_timings`` in
``api.session``.

Each span's tag carries its layer, its own id, its caller's id and an outcome,
so self time (a span minus the part of it that its child spans cover) is exact
when cells run on several threads.  ``WorkerPool.map`` ships its task wrapped in
:class:`Linked`, which parents the worker's spans under the map call; the
worker's ring comes back over the pool's existing carry path.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import tracer

#: Counter name a pool worker records when its ring wrapped during one task.
DROPPED = "cellbench.dropped"

#: The pricing layers (memory check, TP engine, PP engine, 1F1B simulator, lookup).
PRICING = ("core.evaluator", "core.tp_engine", "core.pp_engine", "parallelism.pipeline",
           "predictor.lookup")

#: Layers that make up the cell loop itself; every other layer is below it.
CELL_LAYERS = ("api.session", "bench.cell")
LOOP_LAYERS = CELL_LAYERS + ("api.results",)

#: (layer, module the name is looked up in, attribute path, caller label).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("api.session", "repro.api.session", "Session.run", ""),
    ("api.results", "repro.api.results", "JsonlResultStore.put", ""),
    ("core.central_scheduler", "repro.core.central_scheduler", "CentralScheduler.explore", ""),
    ("core.central_scheduler", "repro.core.central_scheduler", "CentralScheduler.build_plan", ""),
    ("core.central_scheduler", "repro.core.central_scheduler",
     "CentralScheduler.needs_downstream", ""),
    ("core.recomputation", "repro.core.recomputation", "GcmrScheduler.schedule", ""),
    ("workloads.memory", "repro.workloads.memory", "TrainingMemoryModel.stage_breakdown", ""),
    ("workloads.memory", "repro.workloads.memory", "TrainingMemoryModel.pipeline_breakdown", ""),
    ("core.placement", "repro.core.placement", "PlacementOptimizer.optimize", ""),
    ("core.placement", "repro.core.placement", "global_cost", "optimizer"),
    ("core.placement", "repro.core.genetic", "global_cost", "fitness"),
    ("core.dram_allocation", "repro.core.dram_allocation", "DramAllocator.__init__", ""),
    ("core.dram_allocation", "repro.core.dram_allocation", "DramAllocator.allocate", ""),
    ("core.genetic", "repro.core.genetic", "GeneticOptimizer.optimize", ""),
    ("core.genetic", "repro.core.genetic", "GeneticOptimizer.mutate", ""),
    ("core.genetic", "repro.core.genetic", "GeneticOptimizer.crossover", ""),
    ("core.evaluator", "repro.core.evaluator", "Evaluator.evaluate", ""),
    ("core.evalcache", "repro.core.evaluator", "Evaluator.fingerprint", ""),
    ("core.evalcache", "repro.core.evalcache", "EvaluationCache.get", ""),
    ("core.evalcache", "repro.core.evalcache", "EvaluationCache.put", ""),
    ("core.tp_engine", "repro.core.tp_engine", "TPEngine.stage_times", ""),
    ("core.pp_engine", "repro.core.pp_engine", "PPEngine.plan", ""),
    ("parallelism.pipeline", "repro.core.evaluator", "simulate_1f1b", ""),
    ("predictor.lookup", "repro.predictor.lookup", "OperatorProfileTable.latency", ""),
    ("predictor.lookup", "repro.predictor.lookup", "OperatorProfileTable.latencies", ""),
    ("core.parallel_map", "repro.core.parallel_map", "WorkerPool.map", ""),
    # Folds a traced cell's records into RunResult.timings; runs only while tracing.
    ("obs.report", "repro.api.session", "fold_timings", ""),
)

#: Every layer the benchmark reports, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS)) + (
    "bench.cell",
)

_LOCAL = threading.local()
_IDS = itertools.count()


def _stack() -> List[str]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class _Open:
    """One span in flight on this thread: pushed on entry, recorded by :meth:`close`."""

    __slots__ = ("parent", "sid", "t0")

    def __init__(self) -> None:
        stack = _stack()
        self.parent = stack[-1] if stack else ""
        self.sid = f"{os.getpid()}.{next(_IDS)}"  # unique across forked workers too
        stack.append(self.sid)
        self.t0 = time.perf_counter()

    def close(self, layer: str, entry: str, outcome: str) -> None:
        t1 = time.perf_counter()
        _stack().pop()
        tracer.add(entry, self.t0, t1, tag=f"{layer}|{self.sid}|{self.parent}|{outcome}")


def _classifier(entry: str) -> Callable[[Any], str]:
    """The outcome a call records (``built``/``hit``/…), from its result."""
    if entry == "CentralScheduler.build_plan":
        return lambda result: "built" if result is not None else "rejected"
    if entry in ("GcmrScheduler.schedule", "DramAllocator.allocate"):
        return lambda result: "feasible" if result.feasible else "infeasible"
    if entry == "EvaluationCache.get":
        return lambda result: "hit" if result is not None else "miss"
    return lambda result: ""


def _wrap(layer: str, entry: str, fn: Callable) -> Callable:
    classify = _classifier(entry)

    def wrapper(*args, **kwargs):
        span = _Open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.close(layer, entry, "error")
            raise
        span.close(layer, entry, classify(result))
        return result

    return wrapper


def _wrap_evaluate(fn: Callable) -> Callable:
    """``Evaluator.evaluate``: a call that raised ``raw_evaluations`` is pricing
    (``core.evaluator``); one that did not was served by the cache."""

    def evaluate(self, *args, **kwargs):
        before = self.raw_evaluations
        span = _Open()
        try:
            result = fn(self, *args, **kwargs)
        except BaseException:
            span.close("core.evaluator", "Evaluator.evaluate", "error")
            raise
        if self.raw_evaluations > before:
            span.close("core.evaluator", "Evaluator.evaluate", "priced")
        else:
            span.close("core.evalcache", "Evaluator.evaluate", "served")
        return result

    return evaluate


class Linked:
    """A pool task that parents the worker's spans under the map call that shipped it.

    Picklable (module-level class), so it crosses to the worker in place of the
    original task.  It also reports, as a ``cellbench.dropped`` counter, any
    records the worker's ring overwrote while the task ran.
    """

    def __init__(self, func: Callable, parent: str) -> None:
        self.func = func
        self.parent = parent

    def __call__(self, item):
        saved = getattr(_LOCAL, "stack", None)
        _LOCAL.stack = [self.parent]
        mark = tracer.mark()
        try:
            return self.func(item)
        finally:
            _LOCAL.stack = saved if saved is not None else []
            ring = tracer.current()
            lost = ring.dropped(since=mark) if ring is not None else 0
            if lost:
                tracer.count(DROPPED, float(lost))


def _wrap_map(fn: Callable) -> Callable:
    """``WorkerPool.map``: ships the task as :class:`Linked`; the outcome is the task count."""

    def map(self, func, items, *args, **kwargs):
        items = list(items)
        span = _Open()
        try:
            result = fn(self, Linked(func, span.sid), items, *args, **kwargs)
        except BaseException:
            span.close("core.parallel_map", "WorkerPool.map", "error")
            raise
        span.close("core.parallel_map", "WorkerPool.map", str(len(items)))
        return result

    return map


class cell_span:
    """Records one benchmark-level cell (layer ``bench.cell``) while tracing is on.

    For workloads that call a search loop directly rather than through
    ``Session.sweep``.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self._span: Optional[_Open] = None

    def __enter__(self) -> "cell_span":
        if tracer.is_enabled():
            self._span = _Open()
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._span is not None:
            self._span.close("bench.cell", self.label, "")
        return False


# ---------------------------------------------------------------------- install
def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw(owner: Any, attr: str) -> Any:
    """The attribute exactly as stored (class ``__dict__`` entry or module global)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Installed:
    """The wrapped entry points; :meth:`restore` puts the originals back."""

    def __init__(self, saved: List[Tuple[Any, str, Any]]) -> None:
        self.saved = saved

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)

    def leftovers(self) -> List[str]:
        """Entry points that still do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.saved
            if _raw(owner, attr) is not original
        ]


def install() -> Installed:
    """Wrap every entry point; the caller must :meth:`Installed.restore` them."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for layer, module_name, path, caller in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            original = _raw(owner, attr)
            if path == "Evaluator.evaluate":
                wrapped = _wrap_evaluate(original)
            elif path == "WorkerPool.map":
                wrapped = _wrap_map(original)
            else:
                wrapped = _wrap(layer, f"{path}@{caller}" if caller else path, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
    except BaseException:
        Installed(saved).restore()
        raise
    return Installed(saved)


# ---------------------------------------------------------------------- attribution
@dataclass
class Span:
    sid: str
    parent: str
    layer: str
    entry: str
    outcome: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def parse(records: Iterable[Sequence[Any]]) -> Tuple[List[Span], float]:
    """The benchmark's spans among ring records, and the worker-reported drop count."""
    spans: List[Span] = []
    dropped = 0.0
    for kind, name, t0, t1, tag, *rest in records:
        if kind == "C":
            if name == DROPPED:
                dropped += float(rest[-1])  # the counter's value field
            continue
        fields = str(tag).split("|")
        if kind != "S" or len(fields) != 4 or fields[0] not in LAYERS:
            continue  # in-program spans (pricing, dispatch, cell, …)
        layer, sid, parent, outcome = fields
        spans.append(Span(sid, parent, layer, str(name), outcome, float(t0), float(t1)))
    return spans, dropped


def covered(t0: float, t1: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, t0), min(end, t1)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


@dataclass
class Attribution:
    """Per-layer totals of one traced run (see :func:`attribute`)."""

    calls: Dict[str, int]
    busy_s: Dict[str, float]
    self_s: Dict[str, float]
    outcomes: Dict[Tuple[str, str], int]
    #: ``global_cost`` seconds and calls by caller (``optimizer`` / ``fitness``).
    cost_s: Dict[str, float]
    cost_calls: Dict[str, int]
    #: ``Evaluator.evaluate`` calls under a GA span, and how many of them priced.
    fitness_evals: int
    fitness_pricings: int
    #: Busy time of the :data:`PRICING` layers taken together.
    pricing_s: float
    #: Each cell's span duration, and the time no cell was running.
    cell_s: List[float]
    loop_overhead_s: float
    span_count: int

    @property
    def below_cell_s(self) -> float:
        return sum(v for layer, v in self.self_s.items() if layer not in LOOP_LAYERS)

    @property
    def lane_s(self) -> float:
        """The cell loop's time: every cell's span plus the time no cell ran."""
        return sum(self.cell_s) + self.loop_overhead_s


def attribute(spans: Sequence[Span], wall_s: float) -> Attribution:
    """Self and busy time per layer over a span forest (parents linked by id).

    ``busy_s`` counts only a layer's outermost spans (none of its ancestors is in
    the same layer), so recursion into a layer is not counted twice.
    """
    by_id = {span.sid: span for span in spans}
    children: Dict[str, List[Span]] = defaultdict(list)
    roots: List[Span] = []
    for span in spans:
        if span.parent and span.parent in by_id:
            children[span.parent].append(span)
        else:
            roots.append(span)

    calls: Counter = Counter()
    busy: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    outcomes: Counter = Counter()
    cost_s: Dict[str, float] = defaultdict(float)
    cost_calls: Counter = Counter()
    fitness_evals = fitness_pricings = 0
    pricing_s = 0.0
    active: Counter = Counter()
    stack: List[Tuple[Span, bool]] = [(root, True) for root in roots]
    while stack:
        span, entering = stack.pop()
        if not entering:
            active[span.layer] -= 1
            continue
        calls[span.layer] += 1
        outcomes[(span.layer, span.outcome)] += 1
        kids = children.get(span.sid, ())
        self_s[span.layer] += span.duration - covered(
            span.t0, span.t1, ((kid.t0, kid.t1) for kid in kids)
        )
        if active[span.layer] == 0:
            busy[span.layer] += span.duration
        if span.layer in PRICING and not any(active[layer] for layer in PRICING):
            pricing_s += span.duration
        if span.entry.startswith("global_cost@"):
            caller = span.entry.partition("@")[2]
            cost_s[caller] += span.duration
            cost_calls[caller] += 1
        if span.entry == "Evaluator.evaluate" and active["core.genetic"]:
            fitness_evals += 1
            fitness_pricings += span.outcome == "priced"
        active[span.layer] += 1
        stack.append((span, False))
        stack.extend((kid, True) for kid in kids)

    cells = [span for span in spans if span.layer in CELL_LAYERS]
    cell_union = covered(
        min((c.t0 for c in cells), default=0.0),
        max((c.t1 for c in cells), default=0.0),
        ((c.t0, c.t1) for c in cells),
    )
    return Attribution(
        calls=dict(calls),
        busy_s=dict(busy),
        self_s=dict(self_s),
        outcomes=dict(outcomes),
        cost_s=dict(cost_s),
        cost_calls=dict(cost_calls),
        fitness_evals=fitness_evals,
        fitness_pricings=fitness_pricings,
        pricing_s=pricing_s,
        cell_s=[c.duration for c in cells],
        loop_overhead_s=max(0.0, wall_s - cell_union),
        span_count=len(spans),
    )
