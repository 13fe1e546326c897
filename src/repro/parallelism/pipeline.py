"""1F1B pipeline-parallel schedule simulator (paper §II-B, Fig. 8).

The simulator builds the dependency graph of forward/backward micro-batch tasks under
the one-forward-one-backward schedule and computes the iteration makespan, per-stage
busy time and bubble time.  Stage execution times may differ per stage (which is exactly
what recomputation and memory balancing perturb), so a closed-form bubble formula is not
enough — the event-driven simulation below handles heterogeneous stages and inter-stage
communication delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class PipelineCostInputs:
    """Per-stage costs feeding the 1F1B simulation.

    ``forward`` / ``backward`` are per-micro-batch execution times per stage (backward
    should already include any recomputation overhead).  ``comm`` holds the inter-stage
    activation transfer time between stage ``i`` and ``i+1`` (length ``pp - 1``).
    """

    forward: Sequence[float]
    backward: Sequence[float]
    comm: Sequence[float]
    num_microbatches: int

    def __post_init__(self) -> None:
        pp = len(self.forward)
        if pp == 0:
            raise ValueError("need at least one pipeline stage")
        if len(self.backward) != pp:
            raise ValueError("forward/backward stage counts differ")
        if len(self.comm) != max(0, pp - 1):
            raise ValueError("need exactly pp - 1 inter-stage communication times")
        # Written so that NaN fails too: every comparison with NaN is false.
        if not self.num_microbatches > 0:
            raise ValueError("need at least one micro-batch")
        if not all(t >= 0 for t in (*self.forward, *self.backward, *self.comm)):
            raise ValueError("times must be non-negative numbers")

    @property
    def num_stages(self) -> int:
        return len(self.forward)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of simulating one 1F1B iteration."""

    iteration_time: float
    stage_busy_time: Tuple[float, ...]
    stage_finish_time: Tuple[float, ...]

    @property
    def num_stages(self) -> int:
        return len(self.stage_busy_time)

    @property
    def bubble_time(self) -> float:
        """Total idle time summed over stages."""
        return sum(self.iteration_time - busy for busy in self.stage_busy_time)

    @property
    def bubble_fraction(self) -> float:
        total = self.iteration_time * self.num_stages
        return self.bubble_time / total if total > 0 else 0.0

    def stage_utilization(self, stage: int) -> float:
        if self.iteration_time == 0:
            return 0.0
        return self.stage_busy_time[stage] / self.iteration_time


Task = Tuple[str, int, int]  # (kind, stage, microbatch)


def _stage_task_order(stage: int, pp: int, n: int) -> List[Task]:
    """The 1F1B task order for one stage: warmup forwards, steady 1F1B pairs, cooldown."""
    warmup = min(pp - stage - 1, n)
    order: List[Task] = [("F", stage, m) for m in range(warmup)]
    next_fwd, next_bwd = warmup, 0
    # Steady state: alternate one forward, one backward.
    while next_fwd < n:
        order.append(("F", stage, next_fwd))
        next_fwd += 1
        order.append(("B", stage, next_bwd))
        next_bwd += 1
    # Cooldown: remaining backwards.
    while next_bwd < n:
        order.append(("B", stage, next_bwd))
        next_bwd += 1
    return order


@lru_cache(maxsize=64)
def _topo_schedule(pp: int, n: int) -> Tuple[Tuple[int, bool, int], ...]:
    """A topological order of the 1F1B task graph as (stage, is_forward, microbatch).

    The dependency graph is *structural* — it depends only on (pp, n), never on the
    stage times — so one event-driven scheduling pass per (pp, n) shape yields an
    execution order every simulation call can replay with pure arithmetic.  The pass
    itself is the classic ready-queue scheme: each stage consumes its fixed 1F1B order
    and a worklist of stages whose head task has all cross-stage dependencies met
    executes tasks as completions unblock them, O(tasks) overall.
    """
    orders: List[List[Tuple[bool, int]]] = [
        [(kind == "F", micro) for kind, _, micro in _stage_task_order(s, pp, n)]
        for s in range(pp)
    ]
    pointers = [0] * pp
    done_f = [[False] * n for _ in range(pp)]
    done_b = [[False] * n for _ in range(pp)]

    def head_ready(stage: int) -> bool:
        ptr = pointers[stage]
        if ptr >= len(orders[stage]):
            return False
        is_forward, micro = orders[stage][ptr]
        if is_forward:
            return stage == 0 or done_f[stage - 1][micro]
        if stage == pp - 1:
            return done_f[stage][micro]
        return done_b[stage + 1][micro]

    ready = [stage for stage in range(pp) if head_ready(stage)]
    queued = [stage in ready for stage in range(pp)]
    schedule: List[Tuple[int, bool, int]] = []
    while ready:
        stage = ready.pop()
        queued[stage] = False
        is_forward, micro = orders[stage][pointers[stage]]
        (done_f if is_forward else done_b)[stage][micro] = True
        pointers[stage] += 1
        schedule.append((stage, is_forward, micro))
        # A completion can unblock this stage's own next task (including the last
        # stage's B(m) waiting on its own F(m)) and one cross-stage dependent.
        if head_ready(stage):
            ready.append(stage)
            queued[stage] = True
        neighbor = stage + 1 if is_forward else stage - 1
        if 0 <= neighbor < pp and not queued[neighbor] and head_ready(neighbor):
            ready.append(neighbor)
            queued[neighbor] = True

    if len(schedule) != 2 * pp * n:
        raise RuntimeError("1F1B schedule deadlocked; dependency graph is inconsistent")
    return tuple(schedule)


def simulate_1f1b(inputs: PipelineCostInputs) -> PipelineResult:
    """Simulate one iteration of the 1F1B schedule and return its makespan.

    Dependencies honoured:

    * ``F(s, m)`` waits for ``F(s-1, m)`` plus the inter-stage transfer;
    * ``B(s, m)`` waits for ``B(s+1, m)`` plus the inter-stage transfer;
    * every task waits for the previous task in its own stage's 1F1B order.

    The simulator is event-driven in two halves: :func:`_topo_schedule` runs the
    ready-queue scheduling pass once per (pp, µbatches) shape and memoizes the resulting
    topological task order, and each call replays that order with one arithmetic step
    per task — O(tasks) instead of the former O(pp² · µbatches) polling scan.  Because
    every stage serialises its own tasks through ``stage_free`` and a task's start time
    depends only on already-finished dependencies, any topological replay computes
    times identical to the reference simulator's (``simulate_1f1b_reference``).
    """
    pp, n = inputs.num_stages, inputs.num_microbatches
    forward, backward = list(inputs.forward), list(inputs.backward)
    comm = list(inputs.comm)
    finish_f = [[0.0] * n for _ in range(pp)]
    finish_b = [[0.0] * n for _ in range(pp)]
    stage_free = [0.0] * pp
    stage_busy = [0.0] * pp
    last = pp - 1

    for stage, is_forward, micro in _topo_schedule(pp, n):
        if is_forward:
            dep = 0.0 if stage == 0 else finish_f[stage - 1][micro] + comm[stage - 1]
            duration = forward[stage]
        else:
            if stage == last:
                dep = finish_f[stage][micro]
            else:
                dep = finish_b[stage + 1][micro] + comm[stage]
            duration = backward[stage]
        start = stage_free[stage]
        if dep > start:
            start = dep
        end = start + duration
        if is_forward:
            finish_f[stage][micro] = end
        else:
            finish_b[stage][micro] = end
        stage_free[stage] = end
        stage_busy[stage] += duration

    iteration_time = max(stage_free)
    return PipelineResult(
        iteration_time=iteration_time,
        stage_busy_time=tuple(stage_busy),
        stage_finish_time=tuple(stage_free),
    )


def simulate_1f1b_reference(inputs: PipelineCostInputs) -> PipelineResult:
    """The original O(pp² · µbatches) polling-scan simulator.

    Kept as the oracle for randomized equivalence tests of the event-driven scheduler
    above; produces bit-for-bit identical results.
    """
    pp, n = inputs.num_stages, inputs.num_microbatches
    orders = [_stage_task_order(s, pp, n) for s in range(pp)]
    pointers = [0] * pp
    finish: Dict[Task, float] = {}
    stage_free = [0.0] * pp
    stage_busy = [0.0] * pp
    remaining = sum(len(order) for order in orders)

    def dependency_ready(task: Task) -> Tuple[bool, float]:
        kind, stage, micro = task
        if kind == "F":
            if stage == 0:
                return True, 0.0
            upstream = finish.get(("F", stage - 1, micro))
            if upstream is None:
                return False, 0.0
            return True, upstream + inputs.comm[stage - 1]
        if stage == pp - 1:
            upstream = finish.get(("F", stage, micro))
            if upstream is None:
                return False, 0.0
            return True, upstream
        downstream = finish.get(("B", stage + 1, micro))
        if downstream is None:
            return False, 0.0
        return True, downstream + inputs.comm[stage]

    while remaining > 0:
        progressed = False
        for stage in range(pp):
            if pointers[stage] >= len(orders[stage]):
                continue
            task = orders[stage][pointers[stage]]
            ready, dep_time = dependency_ready(task)
            if not ready:
                continue
            kind = task[0]
            duration = inputs.forward[stage] if kind == "F" else inputs.backward[stage]
            start = max(stage_free[stage], dep_time)
            end = start + duration
            finish[task] = end
            stage_free[stage] = end
            stage_busy[stage] += duration
            pointers[stage] += 1
            remaining -= 1
            progressed = True
        if not progressed:
            raise RuntimeError("1F1B schedule deadlocked; dependency graph is inconsistent")

    iteration_time = max(stage_free)
    return PipelineResult(
        iteration_time=iteration_time,
        stage_busy_time=tuple(stage_busy),
        stage_finish_time=tuple(stage_free),
    )


def analytic_1f1b_time(
    forward: float, backward: float, pp: int, num_microbatches: int
) -> float:
    """Closed-form 1F1B iteration time for homogeneous stages (used as a cross-check)."""
    if pp <= 0 or num_microbatches <= 0:
        raise ValueError("stages and micro-batches must be positive")
    per_micro = forward + backward
    return (num_microbatches + pp - 1) * per_micro
