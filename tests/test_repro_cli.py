"""The ``python -m repro`` CLI (run / sweep / cache) and the perf-gate tolerance fix."""

from __future__ import annotations

import json
import os
import sys

import pytest

import repro
from repro.api import open_result_store
from repro.api.cli import main as repro_main
from repro.core.evalcache import EvaluationCache, open_store

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _clean_runtime():
    from repro.api import close_default_session

    close_default_session()
    yield
    close_default_session()


# ------------------------------------------------------------------------------- run
class TestRunCommand:
    def test_inline_tiny_spec(self, tmp_path, capsys):
        out = str(tmp_path / "run.json")
        status = repro_main(
            ["run", "--kind", "scheduler", "--wafer", "tiny", "--workload", "tiny",
             "--json", out]
        )
        assert status == 0
        payload = json.loads(open(out).read())
        assert payload["plan"] and payload["metrics"]["throughput"] > 0
        assert payload["metrics"]["records"] > 0
        assert "scheduler" in capsys.readouterr().out

    def test_spec_file_and_store(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"kind": "ga", "wafer": "tiny", "workload": "tiny",
             "population": 4, "generations": 2, "name": "tiny-ga"}
        ))
        store = str(tmp_path / "run.jsonl")
        out = str(tmp_path / "run.json")
        assert repro_main(["run", "--spec", str(spec), "--store", store,
                           "--json", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["label"] == "tiny-ga"
        assert payload["metrics"]["best_fitness"] > 0
        # The session flushed its cache to the store on exit.
        warm = EvaluationCache(store=store)
        assert warm.stats.loaded > 0
        warm.close()

    def test_missing_wafer_is_a_clear_error(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "--kind", "scheduler", "--workload", "tiny"])

    def test_sweep_runs_specs_on_one_session(self, tmp_path):
        specs = tmp_path / "matrix.json"
        specs.write_text(json.dumps([
            {"kind": "scheduler", "wafer": "tiny", "workload": "tiny", "name": "a"},
            {"kind": "scheduler", "wafer": "tiny", "workload": "tiny", "name": "b"},
        ]))
        out = str(tmp_path / "sweep.json")
        assert repro_main(["sweep", "--spec", str(specs), "--json", out]) == 0
        payload = json.loads(open(out).read())
        assert [run["label"] for run in payload["runs"]] == ["a", "b"]
        # Second spec hit the shared warm cache: zero extra misses.
        first, second = payload["runs"]
        assert second["cache_stats"]["misses"] == first["cache_stats"]["misses"]
        assert second["cache_stats"]["hits"] > first["cache_stats"]["hits"]

    def test_spec_from_stdin(self, tmp_path, monkeypatch):
        import io

        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO(json.dumps(
                {"kind": "scheduler", "wafer": "tiny", "workload": "tiny"}
            )),
        )
        out = str(tmp_path / "run.json")
        assert repro_main(["run", "--spec", "-", "--json", out]) == 0
        assert json.loads(open(out).read())["metrics"]["throughput"] > 0


# ----------------------------------------------------------------------------- sweep
MATRIX = {
    "base": {"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
    "grid": {"scheduler.max_tp": [2, 4], "wafer": ["tiny"]},
    "seeds": 2,
}


class TestSweepCommand:
    def test_matrix_expands_streams_and_resumes(self, tmp_path, capsys):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        results = str(tmp_path / "results.jsonl")

        # First invocation stops after one cell (a simulated kill mid-matrix).
        assert repro_main(["sweep", "--spec", str(spec), "--results", results,
                           "--max-cells", "1"]) == 0
        assert "4 cells — 1 run, 0 failed, 0 already complete, 3 pending" in capsys.readouterr().out

        # The resumed invocation runs only the remaining cells.
        out = str(tmp_path / "sweep.json")
        assert repro_main(["sweep", "--spec", str(spec), "--results", results,
                           "--json", out]) == 0
        assert "4 cells — 3 run, 0 failed, 1 already complete" in capsys.readouterr().out
        payload = json.loads(open(out).read())
        assert payload["cells"] == 4 and payload["skipped"] == 1
        assert len(payload["runs"]) == 3

        with open_result_store(results) as store:
            assert len(store) == 4  # exactly one row per cell

    def test_one_file_for_both_stores_is_a_one_line_error(self, tmp_path):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        path = str(tmp_path / "both.jsonl")
        assert repro_main(["sweep", "--spec", str(spec), "--results", path,
                           "--max-cells", "1"]) == 0
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(SystemExit, match="cannot hold both the cache store and") as caught:
            repro_main(["sweep", "--spec", str(spec), "--store", path, "--results", path])
        assert "\n" not in str(caught.value)
        with open(path, "rb") as handle:
            assert handle.read() == before  # no cell ran, no row was written
        assert sorted(os.listdir(tmp_path)) == ["both.jsonl", "matrix.json"]

    @pytest.mark.parametrize("flag", ["--store", "--results"])
    def test_sqlite_path_is_a_one_line_error(self, tmp_path, flag):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        path = str(tmp_path / "old.sqlite")
        with pytest.raises(SystemExit, match=r"old\.sqlite: sqlite stores are no longer") as caught:
            repro_main(["sweep", "--spec", str(spec), flag, path])
        assert "\n" not in str(caught.value)
        assert sorted(os.listdir(tmp_path)) == ["matrix.json"]

    def test_max_cells_zero_runs_nothing(self, tmp_path, capsys):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        results = str(tmp_path / "results.jsonl")
        assert repro_main(["sweep", "--spec", str(spec), "--results", results,
                           "--max-cells", "0"]) == 0
        assert "4 cells — 0 run, 0 failed, 0 already complete, 4 pending" in capsys.readouterr().out
        assert not os.path.exists(results)  # nothing ran, nothing written

    def test_early_stop_summary_counts_rows_the_drain_recorded(self, tmp_path, capsys):
        # --jobs 2 --max-cells 1 closes the stream with a cell still in flight;
        # its row lands anyway, and the summary counts it as run, not pending.
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        results = str(tmp_path / "results.jsonl")
        out = tmp_path / "sweep.json"
        assert repro_main(["sweep", "--spec", str(spec), "--results", results,
                           "--jobs", "2", "--max-cells", "1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        with open_result_store(results) as store:
            stored = len(store)
        assert payload["pending"] == payload["cells"] - stored
        assert (f"4 cells — {stored} run, 0 failed, 0 already complete, "
                f"{payload['pending']} pending") in capsys.readouterr().out

    def test_matrix_from_stdin(self, tmp_path, monkeypatch, capsys):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(MATRIX)))
        assert repro_main(["sweep", "--spec", "-"]) == 0
        assert "4 cells — 4 run" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jobs", "0"),
            ("--retries", "0"),
            ("--retry-backoff", "-1"),
            ("--retry-backoff", "nan"),
            ("--cell-timeout", "-1"),
            ("--cell-timeout", "nan"),
        ],
    )
    def test_out_of_range_flag_is_a_one_line_error(self, tmp_path, flag, value):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        results = tmp_path / "results.jsonl"
        with pytest.raises(SystemExit, match=f"^repro sweep: {flag} must be") as caught:
            repro_main(["sweep", "--spec", str(spec), "--results", str(results), flag, value])
        assert "\n" not in str(caught.value)
        assert not results.exists()  # rejected before any store was opened

    def test_bad_knob_path_fails_with_suggestion(self, tmp_path):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(
            {"base": MATRIX["base"], "grid": {"scheduler.max_pt": [2]}}
        ))
        with pytest.raises(ValueError, match="max_pt.*did you mean"):
            repro_main(["sweep", "--spec", str(spec)])


# --------------------------------------------------------------------------- results
class TestResultsCommand:
    def _store(self, tmp_path):
        spec = tmp_path / "matrix.json"
        spec.write_text(json.dumps(MATRIX))
        results = str(tmp_path / "results.jsonl")
        assert repro_main(["sweep", "--spec", str(spec), "--results", results]) == 0
        return results

    def test_stats_tail_export(self, tmp_path, capsys):
        results = self._store(tmp_path)
        capsys.readouterr()

        assert repro_main(["results", "stats", results]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cells"] == 4 and stats["kinds"] == {"scheduler": 4}

        assert repro_main(["results", "tail", results, "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all("scheduler" in line for line in lines)
        for kind, shown in (("scheduler", 2), ("dse", 0)):
            assert repro_main(["results", "tail", results, "-n", "2", "--kind", kind]) == 0
            assert len(capsys.readouterr().out.splitlines()) == shown

        csv_out = str(tmp_path / "cells.csv")
        assert repro_main(["results", "export", results, "--csv", csv_out]) == 0
        rows = open(csv_out).read().strip().splitlines()
        assert len(rows) == 5  # header + one row per cell
        assert rows[0].startswith("cell_id,kind,label,plan,oom,status,attempts,error,seconds,")
        assert "throughput" in rows[0]

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert repro_main(["results", "stats", str(tmp_path / "absent.jsonl")]) == 1
        assert "no result store" in capsys.readouterr().err


# ----------------------------------------------------------------------------- cache
class TestCacheCommand:
    def test_stats_and_compact_with_max_age(self, tmp_path, capsys):
        path = str(tmp_path / "store.jsonl")
        store = open_store(path)
        store.append({"old": 1}, {"old": 50.0})
        store.append({"new": 2})  # stamped now
        store.close()

        assert repro_main(["cache", "stats", path]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["oldest_priced_at"] == 50.0

        assert repro_main(["cache", "compact", path, "--max-age", "3600"]) == 0
        assert "1 kept" in capsys.readouterr().out
        survivors = open_store(path).load()
        assert survivors == {"new": 2}

    @pytest.mark.parametrize(
        "flag, value", [("--max-age", "-1"), ("--max-age", "nan"), ("--max-entries", "0")]
    )
    def test_out_of_range_bound_is_a_one_line_error(self, tmp_path, flag, value):
        path = str(tmp_path / "store.jsonl")
        store = open_store(path)
        store.append({"old": 1}, {"old": 50.0})
        store.append({"new": 2})
        store.close()
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(SystemExit, match=f"^repro cache compact: {flag} must be") as caught:
            repro_main(["cache", "compact", path, flag, value])
        assert "\n" not in str(caught.value)
        with open(path, "rb") as handle:
            assert handle.read() == before  # rejected before the store was opened

    @pytest.mark.parametrize(
        "verb, other", [("cache", "watos-evalcache-jsonl"), ("results", "watos-results-jsonl")]
    )
    def test_compacting_the_other_kind_of_store_is_a_one_line_error(self, tmp_path, verb, other):
        # `repro cache compact` on a result store and `repro results compact` on a
        # cache store: the file is left byte-identical, not moved to .corrupt.
        path = str(tmp_path / "store.jsonl")
        if verb == "cache":
            with open_result_store(path) as results:
                results.put("cell", {"result": {"kind": "ga"}, "written_at": 1.0})
        else:
            with open_store(path) as cache_store:
                cache_store.append({"key": 1}, {"key": 1.0})
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(SystemExit, match=f"store.jsonl is not a {other} file") as caught:
            repro_main([verb, "compact", path])
        assert "\n" not in str(caught.value)
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["store.jsonl"]

    def test_missing_store_fails_cleanly(self, tmp_path, capsys):
        assert repro_main(["cache", "stats", str(tmp_path / "absent.jsonl")]) == 1
        assert "no store" in capsys.readouterr().err


# ------------------------------------------------------------------------- perf gate
@pytest.fixture()
def perf_gate():
    sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))
    try:
        import perf_gate as gate
    finally:
        sys.path.pop(0)
    return gate


class TestPerfGateTolerance:
    def _files(self, tmp_path, current: dict, baseline: dict):
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        cur.write_text(json.dumps(current))
        base.write_text(json.dumps(baseline))
        return str(cur), str(base)

    def test_metric_missing_from_current_fails_with_message(
        self, perf_gate, tmp_path, capsys
    ):
        cur, base = self._files(
            tmp_path,
            {"evals_per_sec": 100.0},
            {"evals_per_sec": 10.0, "parallel_evals_per_sec": 10.0},
        )
        assert perf_gate.check(cur, base, max_drop=0.3) == 1
        out = capsys.readouterr().out
        assert "re-run the benchmark" in out and "Traceback" not in out

    def test_metric_missing_from_baseline_is_skipped(self, perf_gate, tmp_path, capsys):
        cur, base = self._files(
            tmp_path, {"evals_per_sec": 100.0}, {"evals_per_sec": 10.0}
        )
        assert perf_gate.check(cur, base, max_drop=0.3) == 0
        assert "SKIP" in capsys.readouterr().out


# -------------------------------------------------------------------- package metadata
def test_version_matches_pyproject():
    with open(os.path.join(REPO_ROOT, "pyproject.toml")) as handle:
        lines = [line.strip() for line in handle if line.startswith("version = ")]
    assert lines == [f'version = "{repro.__version__}"']
