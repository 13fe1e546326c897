"""GCMR recomputation frontiers against their per-stage reference, at paper scale.

``GcmrScheduler._frontiers`` builds every stage's frontier in one pass per
``schedule`` call; ``GcmrScheduler._stage_options_reference`` rebuilds one stage's
frontier from scratch on a TP engine with no memos.  Every comparison here is an
exact ``==``: recompute sets, footprints and stage times must match bit for bit,
and so must the plan ``schedule`` derives from them.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from repro.core.recomputation import GcmrPlan, GcmrScheduler
from repro.core.tp_engine import TPEngine
from repro.hardware.configs import wafer_config2, wafer_config3
from repro.parallelism.strategies import enumerate_tp_pp
from repro.predictor.lookup import OperatorProfileTable
from repro.workloads.memory import TrainingMemoryModel

from repro_testlib import fig25_wafer, paper_workloads, scale_dram

WORKLOADS = paper_workloads()
WAFERS = {
    "config2": wafer_config2(),
    "config3": wafer_config3(),
    "die200-ar1.0": fig25_wafer(200.0, 1.0),
}
#: Per-die DRAM as built, then with every DRAM chiplet shrunk: the smaller wafers
#: force recomputation, Sender→Helper balancing and infeasible splits.
DRAM_SCALES = (1.0, 0.3, 0.2)


def _cases():
    """One (TP, PP) split per (wafer, DRAM scale, workload), rotating through the
    splits ``enumerate_tp_pp`` yields with ``max_tp=8`` so every split is covered
    without pricing the whole cross product against the slow reference."""
    rotation = itertools.count()
    for (wafer_name, wafer), scale in itertools.product(WAFERS.items(), DRAM_SCALES):
        for model_name, workload in WORKLOADS.items():
            splits = list(
                enumerate_tp_pp(wafer.num_dies, workload.model.num_layers, max_tp=8)
            )
            tp, pp = splits[next(rotation) % len(splits)]
            yield pytest.param(
                wafer_name, scale, model_name, tp, pp,
                id=f"{wafer_name}-x{scale}-{model_name}-tp{tp}-pp{pp}",
            )


CASES = list(_cases())


def _inputs(wafer_name, scale, model_name):
    workload = WORKLOADS[model_name]
    return scale_dram(WAFERS[wafer_name], scale), workload, workload.num_microbatches(1)


def _outcomes(plan: GcmrPlan) -> set:
    """Which of the four outcomes a plan shows (pairs come with or without recompute)."""
    if not plan.feasible:
        return {"infeasible"}
    outcomes = {"recompute" if any(plan.recompute.stages) else "no recompute"}
    return outcomes | ({"pairs"} if plan.mem_pairs else set())


@pytest.mark.parametrize("wafer_name, scale, model_name, tp, pp", CASES)
def test_frontiers_and_plan_match_the_reference(
    wafer_name, scale, model_name, tp, pp, monkeypatch
):
    wafer, workload, n = _inputs(wafer_name, scale, model_name)
    scheduler = GcmrScheduler(wafer)
    plan = scheduler.schedule(workload, tp, pp, n)
    frontiers = scheduler._frontiers(workload, tp, pp, n)

    reference = GcmrScheduler(wafer, TPEngine(wafer, memoize=False))
    expected = [
        reference._stage_options_reference(workload, stage, tp, pp, n) for stage in range(pp)
    ]
    assert len(frontiers) == pp
    for stage, (got, want) in enumerate(zip(frontiers, expected)):
        assert [option.recomputed for option in got] == [o.recomputed for o in want], stage
        assert [option.memory_bytes for option in got] == [o.memory_bytes for o in want], stage
        assert [option.stage_time for option in got] == [o.stage_time for o in want], stage

    # The plan chosen over the reference frontiers is the plan schedule returned.
    monkeypatch.setattr(reference, "_frontiers", lambda *args: expected)
    assert reference.schedule(workload, tp, pp, n) == plan


def test_cases_hit_every_outcome():
    outcomes = Counter()
    for case in CASES:
        wafer_name, scale, model_name, tp, pp = case.values
        wafer, workload, n = _inputs(wafer_name, scale, model_name)
        outcomes.update(_outcomes(GcmrScheduler(wafer).schedule(workload, tp, pp, n)))
    assert set(outcomes) == {"no recompute", "recompute", "pairs", "infeasible"}, outcomes


def _count_calls(monkeypatch, owner, name):
    """Count every ``owner.name`` call from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.perf_smoke
def test_schedule_builds_each_stage_once(monkeypatch):
    """gpt-175b at TP=1, PP=56 on config3: K = 8 recomputable operators, two layer
    counts and two edge flags, so at most four stage-time signatures."""
    workload = WORKLOADS["gpt-175b"]
    scheduler = GcmrScheduler(wafer_config3())
    recomputable = sum(op.recomputable for op in workload.layer_operators())
    assert recomputable == 8
    breakdowns = _count_calls(monkeypatch, TrainingMemoryModel, "stage_breakdown")
    stage_times = _count_calls(monkeypatch, TPEngine, "stage_times")
    latencies = _count_calls(monkeypatch, OperatorProfileTable, "latencies")

    plan = scheduler.schedule(workload, tp=1, pp=56)

    assert plan.feasible and len(plan.stage_memory_bytes) == 56
    assert len(breakdowns) <= 56
    assert len(stage_times) <= 4 * (recomputable + 1)
    assert len(latencies) <= 1
