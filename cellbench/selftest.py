"""Fast self-test of the benchmark harness on the ``tiny`` preset.

Run from the repository root::

    python3 cellbench/selftest.py

It checks the self-time arithmetic on hand-built nested spans, that a traced
pass (serial and on a two-worker pool) restores every wrapped entry point and
links pool-worker spans to the map call that shipped them, and that the output
checks catch a tampered row and an oversized plan.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.api import SweepSpec  # noqa: E402

from cellbench import layers, run, workloads  # noqa: E402


def tiny_sweep(seed: int) -> SweepSpec:
    return SweepSpec(
        base={"kind": "watos", "wafer": "tiny", "population": 6, "generations": 3,
              "seed": seed},
        grid={"workload": ["tiny", {"model": "tiny", "global_batch_size": 64,
                                    "micro_batch_size": 8, "sequence_length": 2048}]},
    )


def tiny_workload(pool=None) -> workloads.Workload:
    def run_tiny(seed: int, workdir: str) -> workloads.Outcome:
        store = os.path.join(workdir, "tiny.jsonl")
        jobs = 2 if pool else None
        return workloads.watos_outcome(*workloads.run_sweep(tiny_sweep(seed), store, pool, jobs))

    return workloads.Workload("tiny", "self-test", run_tiny, lambda seed: None)


def span(sid, parent, layer, t0, t1, entry="f", outcome=""):
    return layers.Span(sid, parent, layer, entry, outcome, t0, t1)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_and_clips_intervals(self):
        self.assertAlmostEqual(layers.covered(0, 10, [(1, 4), (3, 6), (8, 12)]), 7.0)
        self.assertAlmostEqual(layers.covered(0, 10, [(1, 6), (2, 3)]), 5.0)
        self.assertAlmostEqual(layers.covered(0, 10, []), 0.0)
        self.assertAlmostEqual(layers.covered(2, 3, [(0, 10)]), 1.0)

    def test_nested_spans(self):
        spans = [
            span("1.0", "", "api.session", 0.0, 10.0),
            span("1.1", "1.0", "core.central_scheduler", 1.0, 4.0),
            span("1.2", "1.0", "core.placement", 3.0, 6.0),      # overlaps its sibling
            span("1.3", "1.1", "core.central_scheduler", 2.0, 3.0),  # same-layer child
            span("2.0", "1.2", "core.placement", 3.5, 4.5),      # pool-worker child
        ]
        result = layers.attribute(spans, wall_s=12.0)
        self.assertAlmostEqual(result.self_s["api.session"], 10.0 - 5.0)
        self.assertAlmostEqual(result.self_s["core.central_scheduler"], (3.0 - 1.0) + 1.0)
        self.assertAlmostEqual(result.self_s["core.placement"], (3.0 - 1.0) + 1.0)
        # busy counts a layer's outermost spans only.
        self.assertAlmostEqual(result.busy_s["core.central_scheduler"], 3.0)
        self.assertAlmostEqual(result.busy_s["core.placement"], 3.0)
        self.assertEqual(result.calls["core.central_scheduler"], 2)
        self.assertEqual(result.cell_s, [10.0])
        self.assertAlmostEqual(result.loop_overhead_s, 2.0)
        self.assertAlmostEqual(result.below_cell_s, 6.0)
        self.assertAlmostEqual(result.lane_s, 12.0)

    def test_pricing_counts_nested_pricing_layers_once(self):
        spans = [
            span("1.0", "", "api.session", 0.0, 10.0),
            span("1.1", "1.0", "core.evaluator", 1.0, 5.0),
            span("1.2", "1.1", "core.tp_engine", 2.0, 3.0),
            span("1.3", "1.0", "core.recomputation", 5.5, 8.0),
            span("1.4", "1.3", "core.tp_engine", 6.0, 7.0),
        ]
        self.assertAlmostEqual(layers.attribute(spans, 10.0).pricing_s, 4.0 + 1.0)

    def test_orphans_are_roots_and_foreign_records_are_skipped(self):
        records = [
            ("S", "f", 0.0, 2.0, "core.genetic|9.1|9.0|", 9, None, 0, 1.0),  # parent lost
            ("S", "pricing", 0.0, 1.0, "", 9, None, 0, 1.0),               # in-program span
            ("C", layers.DROPPED, 1.0, 1.0, "", 9, 0, 0, 3.0),
        ]
        spans, dropped = layers.parse(records)
        self.assertEqual([s.sid for s in spans], ["9.1"])
        self.assertEqual(dropped, 3.0)
        self.assertAlmostEqual(layers.attribute(spans, 2.0).self_s["core.genetic"], 2.0)


class TracedPassTest(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(dir=HERE, prefix=".selftest-")
        self.originals = [
            layers._raw(*layers._resolve(module, path))
            for _, module, path, _ in layers.ENTRY_POINTS
        ]

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def assert_restored(self):
        now = [layers._raw(*layers._resolve(module, path))
               for _, module, path, _ in layers.ENTRY_POINTS]
        for before, after in zip(self.originals, now):
            self.assertIs(before, after)

    def test_serial_pass_restores_wrappers_and_matches_untraced(self):
        workload = tiny_workload()
        untraced = run.run_pass(workload, 3, self.workdir, 0)
        traced, _, attribution, dropped, leftovers = run.traced_pass(
            workload, 3, self.workdir, 1
        )
        self.assert_restored()
        self.assertEqual(leftovers, [])
        self.assertEqual(dropped, 0)
        self.assertEqual(run.check_outputs("tiny", 3, [untraced, traced]), [])
        metrics = run.layer_metrics([attribution], [traced], [1.0], [1.1], dropped)
        self.assertEqual(list(metrics), [name for name, _, _ in run.per_layer_spec()])
        self.assertEqual(attribution.calls["api.session"], 2)
        self.assertGreater(attribution.calls["core.genetic"], 0)
        self.assertGreater(attribution.below_cell_s / attribution.lane_s, 0.5)

    def test_pool_worker_spans_link_to_the_map_call(self):
        traced, _, attribution, dropped, leftovers = run.traced_pass(
            tiny_workload(pool=2), 3, self.workdir, 0
        )
        self.assert_restored()
        self.assertEqual((leftovers, dropped, traced.errors), ([], 0, []))
        self.assertEqual(attribution.calls["core.parallel_map"], 2)
        # The map spans' self time excludes the worker's scheduler and GA spans.
        self.assertLess(attribution.self_s["core.parallel_map"],
                        attribution.busy_s["core.parallel_map"] / 2)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            self.assertEqual(json.load(handle), run.manifest())

    def test_end_to_end_metrics_match_the_manifest(self):
        outcome = workloads.Outcome(designs={"m": [(1.0, 2.0)]})
        metrics = run.end_to_end_metrics([outcome], [1.0], [0.5])
        self.assertEqual(list(metrics), [name for name, *_ in run.END_TO_END])


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = tempfile.mkdtemp(dir=HERE, prefix=".selftest-")
        cls.outcome = run.run_pass(tiny_workload(), 5, cls.workdir, 0)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def test_clean_outcome_passes(self):
        self.assertEqual(self.outcome.errors, [])
        self.assertEqual(run.check_outputs("tiny", 5, [self.outcome, self.outcome]), [])

    def test_tampered_row_fails(self):
        tampered = copy.deepcopy(self.outcome)
        cell_id = sorted(tampered.rows)[0]
        tampered.rows[cell_id] = tampered.rows[cell_id].replace('"ok"', '"okay"', 1)
        self.assertNotEqual(tampered.rows, self.outcome.rows)
        failures = run.check_outputs("tiny", 5, [self.outcome, tampered])
        self.assertTrue(any("differ between repeated passes" in f for f in failures))
        failures = run.check_outputs("tiny", 5, [tampered], reference=self.outcome)
        self.assertTrue(any("rows differ" in f for f in failures))

    def test_oversized_plan_fails(self):
        tampered = copy.deepcopy(self.outcome)
        label, result, capacity = tampered.plans[0]
        bloated = dataclasses.replace(
            result, stage_memory_bytes=(capacity * 1.01,) + result.stage_memory_bytes[1:]
        )
        tampered.plans[0] = (label, bloated, capacity)
        failures = run.check_outputs("tiny", 5, [tampered])
        self.assertTrue(any("exceeds per-die DRAM" in f for f in failures))


if __name__ == "__main__":
    unittest.main()
