"""Tests for the ``repro.obs`` observability subsystem: ring-buffer tracer
semantics (nesting, wraparound, worker merge), the versioned trace-file format
(round-trip, torn-tail tolerance), store lifecycle hygiene (result-store
compaction), and — the invariant everything hangs on — bit-identity of sweep
results with tracing on versus off.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.api import Session, SweepSpec, close_default_session, open_result_store
from repro.api.cli import main as cli_main
from repro.core.parallel_map import PoolConfig, WorkerPool
from repro.obs import tracer
from repro.obs.report import aggregate, fold_timings, render_table, render_waterfall
from repro.obs.tracefile import TRACE_FORMAT, read_trace, write_trace


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled (module-global flag)."""
    tracer.disable()
    close_default_session()
    yield
    tracer.disable()
    close_default_session()


SWEEP_PAYLOAD = {
    "base": {
        "kind": "ga", "wafer": "tiny", "workload": "tiny",
        "population": 4, "generations": 2,
    },
    "seeds": 2,
}

#: Two DSE cells whose four design points each fan out over a pool.
DSE_SWEEP_PAYLOAD = {
    "base": {"kind": "dse", "workload": "tiny", "areas_mm2": [300, 400, 500, 600],
             "aspect_ratios": [1.0]},
    "seeds": 2,
}


# ------------------------------------------------------------------------ tracer core
class TestTracer:
    def test_span_nesting_records_inner_first_with_depths(self):
        tracer.enable()
        mark = tracer.mark()
        with tracer.span("outer", tag="o"):
            with tracer.span("inner", tag="i"):
                pass
        records = tracer.records(since=mark)
        assert [r[1] for r in records] == ["inner", "outer"]  # inner exits first
        by_name = {r[1]: r for r in records}
        assert by_name["inner"][7] == 1  # depth
        assert by_name["outer"][7] == 0
        # The outer span brackets the inner one in time.
        assert by_name["outer"][2] <= by_name["inner"][2]
        assert by_name["inner"][3] <= by_name["outer"][3]

    def test_ring_wraparound_keeps_newest_and_counts_dropped(self):
        ring = tracer.Tracer(capacity=4)
        for i in range(10):
            ring.add_count("tick", float(i))
        records = ring.records()
        assert len(records) == 4
        assert [r[8] for r in records] == [6.0, 7.0, 8.0, 9.0]  # newest survive
        assert ring.dropped() == 6

    def test_drain_is_incremental(self):
        ring = tracer.Tracer(capacity=16)
        ring.add_count("a")
        assert [r[1] for r in ring.drain()] == ["a"]
        assert ring.drain() == []  # nothing new since
        ring.add_count("b")
        assert [r[1] for r in ring.drain()] == ["b"]

    def test_disabled_sites_record_nothing(self):
        assert not tracer.enabled
        before = tracer.mark()
        with tracer.span("quiet"):
            tracer.count("quiet.count")
            tracer.add("quiet.add", 0.0, 1.0)
        assert tracer.records(since=before) == []

    def test_absorb_merges_foreign_records_verbatim(self):
        ring = tracer.Tracer(capacity=8)
        ring.add_span("pricing", 1.0, 2.0, tag="x")
        host = tracer.Tracer(capacity=8)
        host.absorb(ring.drain())
        assert host.records() == ring.records()

    def test_fold_timings_sums_spans_and_prefixes_counters(self):
        records = [
            ("S", "pricing", 0.0, 0.5, "", 1, None, 0, 1.0),
            ("S", "pricing", 1.0, 1.25, "", 1, None, 0, 1.0),
            ("C", "cache.hit", 0.1, 0.1, "", 1, None, 0, 3.0),
        ]
        folded = fold_timings(records)
        assert folded["pricing"] == 0.75
        assert folded["#cache.hit"] == 3.0


# -------------------------------------------------------------------- worker shipping
def _traced_square(x: int) -> int:
    with obs.span("task", tag=str(x)):
        return x * x


class TestWorkerMerge:
    def test_worker_spans_ship_through_carry_in_slot_order(self):
        tracer.enable()
        mark = tracer.mark()
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            assert pool.map(_traced_square, list(range(8))) == [
                x * x for x in range(8)
            ]
        spans = [r for r in tracer.records(since=mark) if r[1] == "task"]
        assert len(spans) == 8
        workers = [r[6] for r in spans]
        assert set(workers) == {0, 1}
        # Absorbed in worker-slot order: all of worker 0's spans, then worker 1's.
        assert workers == sorted(workers)

    def test_workers_stay_silent_when_parent_tracing_is_off(self):
        assert not tracer.enabled
        mark = tracer.mark()
        with WorkerPool(config=PoolConfig(max_workers=2)) as pool:
            pool.map(_traced_square, list(range(4)))
        assert [r for r in tracer.records(since=mark) if r[1] == "task"] == []


# ------------------------------------------------------------------------- trace file
class TestTraceFile:
    def test_round_trip_preserves_spans_and_meta(self, tmp_path):
        ring = tracer.Tracer(capacity=8)
        ring.add_span("pricing", 1.0, 2.0, tag="cell-1")
        ring.add_count("cache.hit", 2.0)
        path = tmp_path / "trace.jsonl"
        written = write_trace(path, ring.records(), meta={"fingerprint": "abc"})
        assert written == 2
        header, spans = read_trace(path)
        assert header["format"] == TRACE_FORMAT
        assert header["fingerprint"] == "abc"
        assert [s["name"] for s in spans] == ["pricing", "cache.hit"]
        assert spans[0]["tag"] == "cell-1"
        assert spans[1]["value"] == 2.0

    def test_torn_tail_is_skipped(self, tmp_path):
        ring = tracer.Tracer(capacity=8)
        ring.add_span("pricing", 1.0, 2.0)
        ring.add_span("dispatch", 2.0, 3.0)
        path = tmp_path / "trace.jsonl"
        write_trace(path, ring.records())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"k": "S", "n": "torn')  # crash mid-write
        header, spans = read_trace(path)
        assert [s["name"] for s in spans] == ["pricing", "dispatch"]

    def test_foreign_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"hello": "world"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a .*trace"):
            read_trace(path)

    def test_report_renders_merged_stages(self):
        records = [
            ("S", "cell", 0.0, 1.0, "c1", 1, None, 0, 1.0),
            ("S", "pricing", 0.2, 0.6, "", 2, 0, 0, 1.0),
            ("C", "cache.hit", 0.3, 0.3, "", 2, 0, 0, 4.0),
        ]
        agg = aggregate(tracer.as_dicts(records))
        assert agg["stages"]["pricing"]["from_workers"]
        table = render_table(agg)
        assert "pricing" in table and "cell" in table
        waterfall = render_waterfall(tracer.as_dicts(records))
        assert "w0" in waterfall and "main" in waterfall


# --------------------------------------------------------------- session integration
class TestSessionTracing:
    def test_sweep_results_are_bit_identical_tracing_on_vs_off(self, tmp_path):
        sweep = SweepSpec.from_payload(SWEEP_PAYLOAD)

        def rows(results_path, trace):
            store = open_result_store(results_path)
            with Session(trace=trace) as session:
                runs = list(session.sweep(sweep, results=store))
            assert all(runs)
            if trace is not None:
                assert all(run.timings.get("pricing", 0.0) > 0 for run in runs)
                assert all("#cache.hit" in run.timings for run in runs)
            else:
                assert all(run.timings == {} for run in runs)
            loaded = store.load()
            store.close()
            return {
                cell_id: record["result"] for cell_id, record in loaded.items()
            }

        plain = rows(str(tmp_path / "plain.jsonl"), trace=None)
        traced = rows(
            str(tmp_path / "traced.jsonl"), trace=str(tmp_path / "trace.jsonl")
        )
        assert plain == traced  # stored records never see the tracer

    def test_session_trace_writes_profile_readable_file(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        sweep = SweepSpec.from_payload(DSE_SWEEP_PAYLOAD)
        with Session(pool=2, trace=str(trace_path)) as session:
            list(session.sweep(sweep))
        assert not tracer.enabled  # the session disables what it enabled
        header, spans = read_trace(trace_path)
        assert header["cells"] == 2
        names = {s["name"] for s in spans}
        assert {"cell", "pricing", "cache.sync", "dispatch", "worker.chunk"} <= names
        # Worker rings were merged into the session timeline before the write.
        assert any(s["worker"] is not None for s in spans)

    def test_trace_fingerprint_is_stable_across_resume(self, tmp_path):
        sweep = SweepSpec.from_payload(SWEEP_PAYLOAD)
        results = str(tmp_path / "out.jsonl")
        headers = []
        for name in ("t1.jsonl", "t2.jsonl"):
            store = open_result_store(results)
            with Session(trace=str(tmp_path / name)) as session:
                list(session.sweep(sweep, results=store))
            store.close()
            headers.append(read_trace(tmp_path / name)[0])
        assert headers[0]["fingerprint"] == headers[1]["fingerprint"]


# ------------------------------------------------------------------- store lifecycle
class TestResultStoreCompaction:
    def _store_with_duplicates(self, path):
        store = open_result_store(path)
        store.put("cell-a", {"result": {"metrics": {"v": 1}}, "status": "ok"})
        store.put("cell-b", {"result": {"metrics": {"v": 2}}, "status": "ok"})
        store.put("cell-a", {"result": {"metrics": {"v": 3}}, "status": "ok"})
        return store

    @pytest.mark.parametrize("suffix", [".jsonl"])
    def test_compact_folds_duplicates_later_wins(self, tmp_path, suffix):
        store = self._store_with_duplicates(str(tmp_path / f"out{suffix}"))
        assert store.physical_rows() == 3  # every put appends a row
        report = store.compact()
        assert report == {"before": 3, "after": 2, "cells": 2}
        assert store.physical_rows() == 2
        loaded = store.load()
        assert loaded["cell-a"]["result"]["metrics"]["v"] == 3
        store.close()

    def test_session_results_compact_folds_on_close(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        store = self._store_with_duplicates(path)
        store.close()
        with Session(results=path, results_compact=True):
            pass  # the compaction knob acts at close, mirroring compact_on_exit
        reopened = open_result_store(path)
        assert reopened.physical_rows() == 2
        reopened.close()

    def test_cli_results_compact_reports_counts(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        store = self._store_with_duplicates(path)
        store.close()
        assert cli_main(["results", "compact", path]) == 0
        out = capsys.readouterr().out
        assert "3 rows -> 2" in out and "1 duplicate rows folded" in out

    def test_cli_no_resume_rerun_keeps_store_bounded(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SWEEP_PAYLOAD), encoding="utf-8")
        results = str(tmp_path / "out.jsonl")
        for _ in range(2):
            assert cli_main(
                ["sweep", "--spec", str(spec_path), "--results", results,
                 "--no-resume"]
            ) == 0
        store = open_result_store(results)
        assert store.physical_rows() == 2  # re-runs folded, not appended
        store.close()


# -------------------------------------------------------------------------- CLI
class TestProfileCli:
    def test_profile_reports_stage_breakdown(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SWEEP_PAYLOAD), encoding="utf-8")
        trace_path = str(tmp_path / "trace.jsonl")
        assert cli_main(
            ["sweep", "--spec", str(spec_path), "--trace", trace_path,
             "--results", str(tmp_path / "out.jsonl")]
        ) == 0
        json_out = str(tmp_path / "profile.json")
        assert cli_main(["profile", trace_path, "--json", json_out]) == 0
        out = capsys.readouterr().out
        assert "pricing" in out and "store.put" in out
        with open(json_out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["stages"]["pricing"]["total_s"] > 0
        assert payload["header"]["cells"] == 2

    def test_profile_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "nope.jsonl"
        path.write_text('{"cells": 1}\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="repro profile"):
            cli_main(["profile", str(path)])
