"""Sweep grammar + result store + resumable streaming sweep (ISSUE 5).

The contract under test:

* ``SweepSpec`` expands deterministically — grid axes cartesian (rightmost
  fastest), ``zip`` axes locked-step, ``seeds=N`` fanned through the
  ``GAConfig.stream`` convention — to stable content-derived ``cell_id``s.
* Mistyped knob paths and spec fields fail with a did-you-mean suggestion, never a
  bare ``KeyError``.
* ``ResultStore`` round-trips ``RunResult.to_dict()`` rows exactly, recovers
  cold from corrupt stores, and later duplicates win.  The recovery cases also
  drive the evaluation-cache store, which shares the result store's record log;
  both refuse a sqlite path, where earlier builds kept their stores.
* ``Session.sweep`` streams results, writes through to the store, and a
  kill-and-resume produces byte-identical rows to a fresh serial run for all four
  loop kinds.
* ``merge_stores`` (``repro results merge``) folds stores swept on separate hosts
  or runs into one, later duplicates winning.
"""

from __future__ import annotations

import json
import time
import types

import pytest

from repro.api import (
    ExperimentSpec,
    Session,
    SweepSpec,
    close_default_session,
    export_csv,
    merge_stores,
    open_result_store,
)
from repro.api.cli import main as repro_main
from repro.api.results import make_record, results_namespace
from repro.api.sweep import apply_knob, cell_key, resolve_knob, stream_seed
from repro.core import runtime
from repro.core.evalcache import open_store as open_cache_store
from repro.core.genetic import GAConfig


@pytest.fixture(autouse=True)
def _clean_runtime():
    close_default_session()
    yield
    close_default_session()


# ------------------------------------------------------------------------- grammar
class TestExpansion:
    def test_grid_is_cartesian_rightmost_fastest(self):
        sweep = SweepSpec(
            base={"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
            grid={"max_tp": [2, 4], "ga.seed": [0, 1]},
        )
        cells = sweep.expand()
        assert len(cells) == len(sweep) == 4
        assert [(c.spec.max_tp, c.spec.seed) for c in cells] == [
            (2, 0), (2, 1), (4, 0), (4, 1)
        ]

    def test_zip_axes_are_locked_step(self):
        sweep = SweepSpec(
            base={"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
            zip={"max_tp": [2, 4, 8], "ga.seed": [10, 11, 12]},
        )
        cells = sweep.expand()
        assert [(c.spec.max_tp, c.spec.seed) for c in cells] == [
            (2, 10), (4, 11), (8, 12)
        ]

    def test_zip_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="same length"):
            SweepSpec(zip={"max_tp": [2, 4], "ga.seed": [0]})

    def test_seed_fan_uses_the_stream_convention(self):
        sweep = SweepSpec(
            base={"kind": "ga", "wafer": "tiny", "workload": "tiny", "seed": 7},
            seeds=3,
        )
        cells = sweep.expand()
        expected = [GAConfig(seed=7).stream(i).seed for i in range(3)]
        assert [c.spec.seed for c in cells] == expected
        assert cells[0].spec.seed == 7  # stream 0 is the base seed itself
        assert stream_seed(7, 1) == GAConfig(seed=7).stream(1).seed

    def test_seeds_vary_fastest(self):
        sweep = SweepSpec(
            base={"kind": "ga", "wafer": "tiny", "workload": "tiny"},
            grid={"ga.population": [4, 6]},
            seeds=2,
        )
        cells = sweep.expand()
        assert [(c.spec.population, c.spec.seed) for c in cells] == [
            (4, stream_seed(0, 0)), (4, stream_seed(0, 1)),
            (6, stream_seed(0, 0)), (6, stream_seed(0, 1)),
        ]

    def test_nested_mapping_knob(self):
        sweep = SweepSpec(
            base={"kind": "scheduler", "wafer": "tiny",
                  "workload": {"model": "tiny", "global_batch_size": 32}},
            grid={"workload.sequence_length": [1024, 2048]},
        )
        cells = sweep.expand()
        assert [c.spec.workload["sequence_length"] for c in cells] == [1024, 2048]
        # The base mapping is copied per cell, never mutated in place.
        assert all(c.spec.workload["global_batch_size"] == 32 for c in cells)
        assert "sequence_length" not in sweep.base["workload"]

    def test_expansion_is_deterministic(self):
        sweep = SweepSpec(
            base={"kind": "ga", "wafer": "tiny", "workload": "tiny"},
            grid={"ga.population": [4, 6], "ga.generations": [2, 3]},
            seeds=2,
        )
        first, second = sweep.expand(), sweep.expand()
        assert [c.cell_id for c in first] == [c.cell_id for c in second]
        assert [c.spec.to_dict() for c in first] == [c.spec.to_dict() for c in second]

    def test_duplicate_cells_are_an_error(self):
        with pytest.raises(ValueError, match="duplicate cell"):
            SweepSpec(
                base={"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
                grid={"max_tp": [4, 4]},
            ).expand()

    def test_explicit_spec_list_and_payloads(self):
        specs = [
            ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"),
            ExperimentSpec(kind="dse", workload="tiny"),
        ]
        cells = SweepSpec.from_specs(specs).expand()
        assert [c.spec.kind for c in cells] == ["scheduler", "dse"]
        # from_payload: array -> explicit list, bare object -> one cell,
        # grammar object -> SweepSpec.
        assert len(SweepSpec.from_payload([s.to_dict() for s in specs]).expand()) == 2
        assert len(SweepSpec.from_payload(specs[0].to_dict()).expand()) == 1
        grammar = SweepSpec.from_payload(
            {"base": {"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
             "grid": {"max_tp": [2, 4]}}
        )
        assert len(grammar.expand()) == 2

    def test_specs_cannot_mix_with_grammar(self):
        with pytest.raises(ValueError, match="explicit cell list"):
            SweepSpec(specs=[], grid={"max_tp": [2]})


class TestCellIds:
    def test_cell_id_is_content_derived_and_name_blind(self):
        spec = ExperimentSpec(kind="ga", wafer="tiny", workload="tiny", name="a")
        renamed = ExperimentSpec(kind="ga", wafer="tiny", workload="tiny", name="b")
        changed = ExperimentSpec(kind="ga", wafer="tiny", workload="tiny", seed=1)
        assert cell_key(spec) == cell_key(renamed)
        assert cell_key(spec) != cell_key(changed)

    def test_distinct_objects_sharing_a_name_do_not_collide(self):
        # to_dict reduces config objects to their names; cell ids must not,
        # or a resumed sweep would serve one config's rows as the other's.
        from dataclasses import replace

        from repro.api import tiny_workload

        base = tiny_workload()
        small = replace(base, model=replace(base.model, num_layers=4))
        large = replace(base, model=replace(base.model, num_layers=8))
        assert small.model.name == large.model.name
        cells = SweepSpec(
            base={"kind": "scheduler", "wafer": "tiny"},
            grid={"workload": [small, large]},
        ).expand()
        assert cells[0].cell_id != cells[1].cell_id

    def test_cell_ids_survive_matrix_edits(self):
        base = {"kind": "ga", "wafer": "tiny", "workload": "tiny"}
        small = SweepSpec(base=base, grid={"ga.population": [4, 6]}).expand()
        grown = SweepSpec(base=base, grid={"ga.population": [8, 4, 6]}).expand()
        ids = {c.cell_id for c in small}
        assert ids < {c.cell_id for c in grown}  # old cells keep their ids


class TestKnobErrors:
    def test_unknown_knob_suggests_the_real_one(self):
        with pytest.raises(ValueError, match=r"ga\.populatoin: unknown knob.*ga\.population"):
            SweepSpec(grid={"ga.populatoin": [4]})

    def test_group_alone_is_an_error(self):
        with pytest.raises(ValueError, match="knob group"):
            resolve_knob("ga")

    def test_aliases_resolve_to_flat_fields(self):
        assert resolve_knob("ga.population") == ("population", ())
        assert resolve_knob("scheduler.max_tp") == ("max_tp", ())
        assert resolve_knob("dse.areas_mm2") == ("areas_mm2", ())
        assert resolve_knob("wafer") == ("wafer", ())
        assert resolve_knob("workload.model") == ("workload", ("model",))

    def test_cannot_descend_into_scalar_field(self):
        with pytest.raises(ValueError, match="cannot descend"):
            apply_knob({"population": 4}, "population.x", 1)

    def test_cannot_descend_past_a_scalar_knob(self):
        with pytest.raises(ValueError, match="scalar knob"):
            resolve_knob("workload.sequence_length.tokens")
        with pytest.raises(ValueError, match="scalar knob"):
            SweepSpec(grid={"workload.sequence_length.tokens": [256]})

    def test_nested_subpath_typo_fails_fast(self):
        # The workload resolver silently drops unknown mapping keys, so the knob
        # layer must catch the typo — otherwise the axis configures nothing.
        with pytest.raises(
            ValueError, match=r"workload\.sequence_legnth.*workload\.sequence_length"
        ):
            SweepSpec(grid={"workload.sequence_legnth": [2048, 4096]})

    def test_sweep_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="gird: unknown SweepSpec field.*grid"):
            SweepSpec.from_dict({"gird": {"max_tp": [2]}})

    def test_experiment_spec_typo_vs_genuine_extra(self):
        with pytest.raises(ValueError, match="populatoin.*population"):
            ExperimentSpec.from_dict({"kind": "ga", "populatoin": 4})
        # Keys nowhere near a real field still pass through to extras.
        spec = ExperimentSpec.from_dict({"kind": "ga", "w2w_bandwidth_gbps": 400})
        assert spec.extras == {"w2w_bandwidth_gbps": 400}


# --------------------------------------------------------------------- result store
class _FakeRun:
    """A RunResult stand-in with a deterministic to_dict."""

    def __init__(self, label, metrics, kind="ga"):
        self.label = label
        self.metrics = metrics
        self.kind = kind
        self.seconds = 0.5

    def to_dict(self, volatile=True):
        data = {"kind": self.kind, "label": self.label, "metrics": dict(self.metrics)}
        if volatile:
            data["seconds"] = self.seconds
        return data


# The result store and the evaluation-cache store share one record log
# (repro.recordlog), so the recovery tests below drive both through one
# surface: write keys as rows, read the keys back in load order.
class _ResultRows:
    name = "results"

    def __init__(self, path):
        self.store = open_result_store(path)

    def write(self, keys):
        for key in keys:
            self.store.put(key, make_record(_FakeRun(key, {}), now=1.0))

    def read(self):
        return list(self.store.load())

    def errors(self):
        return self.store.load_errors

    def close(self):
        self.store.close()


class _CacheRows(_ResultRows):
    name = "cache"

    def __init__(self, path):
        self.store = open_cache_store(path)

    def write(self, keys):
        self.store.append({key: 1 for key in keys}, {key: 1.0 for key in keys})


FAMILIES = (_ResultRows, _CacheRows)


@pytest.mark.parametrize("suffix", [".jsonl"])
class TestResultStore:
    def test_round_trip_is_exact(self, tmp_path, suffix):
        path = str(tmp_path / f"results{suffix}")
        record = make_record(
            _FakeRun("a", {"throughput": 0.1 + 0.2, "iteration_time": float("inf")}),
            now=123.0,
        )
        with open_result_store(path) as store:
            store.put("cell-a", record)
        with open_result_store(path) as store:
            loaded = store.load()
            assert list(loaded) == ["cell-a"]
            assert loaded["cell-a"] == record
            assert loaded["cell-a"]["result"]["metrics"]["throughput"] == 0.1 + 0.2
            assert loaded["cell-a"]["result"]["metrics"]["iteration_time"] == float("inf")
            assert store.get("cell-a") == record
            assert "cell-a" in store and len(store) == 1

    def test_later_duplicates_win_in_position(self, tmp_path, suffix):
        path = str(tmp_path / f"results{suffix}")
        with open_result_store(path) as store:
            store.put("a", make_record(_FakeRun("a", {"v": 1}), now=1.0))
            store.put("b", make_record(_FakeRun("b", {"v": 2}), now=2.0))
            store.put("a", make_record(_FakeRun("a", {"v": 3}), now=3.0))
        with open_result_store(path) as store:
            loaded = store.load()
            assert list(loaded) == ["b", "a"]
            assert loaded["a"]["result"]["metrics"]["v"] == 3
            assert [cid for cid, _ in store.tail(1)] == ["a"]

    def test_tail_zero_is_empty(self, tmp_path, suffix):
        path = str(tmp_path / f"results{suffix}")
        with open_result_store(path) as store:
            for cell_id, kind in (("a", "ga"), ("d1", "dse"), ("b", "ga"), ("d2", "dse")):
                store.put(cell_id, make_record(_FakeRun(cell_id, {}, kind), now=1.0))
            for kind, last_two in ((None, ["b", "d2"]), ("ga", ["a", "b"]), ("dse", ["d1", "d2"])):
                assert store.tail(0, kind=kind) == []
                assert store.tail(-1, kind=kind) == []
                assert [cid for cid, _ in store.tail(2, kind=kind)] == last_two
            assert store.tail(2, kind="watos") == []

    def test_stats(self, tmp_path, suffix):
        path = str(tmp_path / f"results{suffix}")
        with open_result_store(path) as store:
            store.put("a", make_record(_FakeRun("a", {}), now=10.0))
            store.put("b", make_record(_FakeRun("b", {}), now=20.0))
            stats = store.stats()
        assert stats["cells"] == 2
        assert stats["kinds"] == {"ga": 2}
        assert stats["oldest_written_at"] == 10.0
        assert stats["newest_written_at"] == 20.0

    def test_foreign_file_is_preserved_not_truncated(self, tmp_path, suffix):
        for family in FAMILIES:
            path = str(tmp_path / f"{family.name}{suffix}")
            with open(path, "wb") as handle:  # not even UTF-8
                handle.write(b"precious user data, definitely not a result store\n\xff\xfe\n")
            rows = family(path)
            assert rows.read() == [], family.name  # cold start, no error
            rows.write(["a"])
            assert rows.read() == ["a"], family.name
            rows.close()
            with open(path + ".corrupt", "rb") as handle:
                assert b"precious" in handle.read(), family.name

    def test_blind_put_never_appends_to_a_foreign_file(self, tmp_path, suffix):
        # The resume=False path writes without ever calling load(); the store must
        # still notice a foreign file and move it aside instead of polluting it.
        for family in FAMILIES:
            path = str(tmp_path / f"{family.name}{suffix}")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("precious user data, definitely not a result store\n")
            rows = family(path)
            rows.write(["a"])
            rows.close()
            rows = family(path)
            assert rows.read() == ["a"], family.name
            rows.close()
            with open(path + ".corrupt", encoding="utf-8") as handle:
                assert "precious" in handle.read(), family.name

    def test_first_write_creates_a_missing_directory(self, tmp_path, suffix):
        for family in FAMILIES:
            parent = tmp_path / family.name
            path = str(parent / "missing" / f"{family.name}{suffix}")
            rows = family(path)
            assert rows.read() == [], family.name
            assert not parent.exists(), family.name  # reads never create anything
            rows.write(["a"])
            rows.close()
            rows = family(path)
            assert rows.read() == ["a"], family.name
            rows.close()

    def test_blind_put_resets_a_stale_namespace_file(self, tmp_path, suffix):
        path = str(tmp_path / f"results{suffix}")
        with open_result_store(path, namespace="watos-results-v999") as store:
            store.put("old", make_record(_FakeRun("old", {}), now=1.0))
        with open_result_store(path) as store:  # current namespace, no load()
            store.put("new", make_record(_FakeRun("new", {}), now=2.0))
        with open_result_store(path) as store:
            assert list(store.load()) == ["new"]  # not silently discarded

    def test_namespace_mismatch_degrades_to_cold_start(self, tmp_path, suffix):
        path = str(tmp_path / f"results{suffix}")
        with open_result_store(path, namespace="watos-results-v999") as store:
            store.put("a", make_record(_FakeRun("a", {}), now=1.0))
        with open_result_store(path) as store:
            assert store.namespace == results_namespace()
            assert store.load() == {}


def test_foreign_valid_sqlite_database_is_preserved(tmp_path):
    import sqlite3

    for family in FAMILIES:
        path = str(tmp_path / f"users-{family.name}.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE mydata (id INTEGER PRIMARY KEY, payload TEXT)")
        conn.execute("INSERT INTO mydata VALUES (1, 'precious')")
        conn.commit()
        conn.close()
        with open(path, "rb") as handle:
            before = handle.read()

        # A sqlite path is refused before anything is read or written.
        with pytest.raises(ValueError, match=r"use a \.jsonl path"):
            family(path)
        with open(path, "rb") as handle:
            assert handle.read() == before, family.name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "users-cache.sqlite", "users-results.sqlite"]  # nothing moved aside


def test_jsonl_torn_last_line_is_skipped(tmp_path):
    path = str(tmp_path / "results.jsonl")
    with open_result_store(path) as store:
        store.put("a", make_record(_FakeRun("a", {"v": 1}), now=1.0))
        store.put("b", make_record(_FakeRun("b", {"v": 2}), now=2.0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"c": "torn", "v": {"result"')  # interrupted mid-write
    with open_result_store(path) as store:
        loaded = store.load()
        assert list(loaded) == ["a", "b"]
        assert store.load_errors == 1


def test_jsonl_append_after_torn_line_does_not_concatenate(tmp_path):
    # The kill-and-resume workflow: the killed run left a torn last line, the
    # resumed run appends again — the first new row must start on its own line,
    # not merge into the fragment and lose both.
    for family in FAMILIES:
        path = str(tmp_path / f"{family.name}.jsonl")
        rows = family(path)
        rows.write(["a"])
        rows.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"c": "b", "v": {"result"')  # torn mid-write by a kill
        rows = family(path)
        rows.write(["c", "d"])
        rows.close()
        rows = family(path)
        assert rows.read() == ["a", "c", "d"], family.name
        assert rows.errors() == 1, family.name  # only the torn fragment was sacrificed


def test_csv_export_one_row_per_cell(tmp_path):
    import io

    path = str(tmp_path / "results.jsonl")
    with open_result_store(path) as store:
        store.put("a", make_record(_FakeRun("a", {"throughput": 1.5}), now=1.0))
        store.put("b", make_record(_FakeRun("b", {"best_fitness": 0.25}), now=2.0))
        out = io.StringIO()
        assert export_csv(store, out) == 2
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == (
        "cell_id,kind,label,plan,oom,status,attempts,error,seconds,"
        "best_fitness,throughput"
    )
    assert len(lines) == 3
    assert lines[1].startswith("a,ga,a,") and lines[1].endswith(",1.5")
    assert ",0.25," in lines[2]


# ------------------------------------------------------------------ streaming sweep
ALL_KINDS_SPECS = [
    {"kind": "scheduler", "wafer": "tiny", "workload": "tiny"},
    {"kind": "ga", "wafer": "tiny", "workload": "tiny",
     "population": 4, "generations": 2},
    {"kind": "dse", "workload": "tiny", "areas_mm2": [300.0, 500.0],
     "aspect_ratios": [1.0], "max_tp": 16},
    {"kind": "watos", "wafers": ["tiny"], "workloads": ["tiny"],
     "population": 4, "generations": 2, "seed": 3},
]


def _rows(path):
    """The deterministic result rows of a store, as canonical JSON per cell."""
    with open_result_store(path) as store:
        return {
            cell_id: json.dumps(record["result"], sort_keys=True)
            for cell_id, record in store.load().items()
        }


class TestStreamingSweep:
    def test_sweep_streams_and_writes_through(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        sweep = SweepSpec.from_specs(ALL_KINDS_SPECS[:1])
        with Session() as session:
            stream = session.sweep(sweep, results=path)
            run = next(stream)
            assert run.cell_id and run.plan is not None
            # Written through before the next cell starts, not at exit.
            assert run.cell_id in _rows(path)
            assert list(stream) == []

    def test_resume_is_bit_identical_across_all_four_kinds(self, tmp_path):
        sweep = SweepSpec.from_specs(ALL_KINDS_SPECS)
        fresh = str(tmp_path / "fresh.jsonl")
        with Session() as session:
            fresh_runs = list(session.sweep(sweep, results=fresh))
        assert len(fresh_runs) == 4

        # Interrupted after two cells (a kill mid-matrix), then resumed in a new
        # session with a cold cache.
        resumed = str(tmp_path / "resumed.jsonl")
        with Session() as session:
            stream = session.sweep(sweep, results=resumed)
            next(stream), next(stream)
            stream.close()
        assert len(_rows(resumed)) == 2
        with Session() as session:
            second = list(session.sweep(sweep, results=resumed))
        assert len(second) == 2  # only the missing cells ran

        assert _rows(resumed) == _rows(fresh)

        # A third, fully-warm invocation runs nothing and changes nothing.
        before = _rows(resumed)
        with Session() as session:
            assert list(session.sweep(sweep, results=resumed)) == []
        assert _rows(resumed) == before

    @pytest.mark.parametrize("suffix", [".jsonl"])
    def test_stores_under_missing_directories_price_the_cell_once(self, tmp_path, suffix):
        results = str(tmp_path / "no-results-dir" / f"cells{suffix}")
        store = str(tmp_path / "no-cache-dir" / f"cache{suffix}")
        sweep = SweepSpec.from_specs(ALL_KINDS_SPECS[:1])
        with Session(store=store) as session:
            (run,) = list(session.sweep(sweep, results=results))
        assert not run.failed and run.attempts == 1
        assert len(_rows(results)) == 1
        with Session(store=store) as session:
            assert session.cache.stats.loaded > 0  # the cache store was written too

    def test_no_resume_reruns_everything(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        sweep = SweepSpec.from_specs(ALL_KINDS_SPECS[:1])
        with Session() as session:
            assert len(list(session.sweep(sweep, results=path))) == 1
            assert len(list(session.sweep(sweep, results=path, resume=False))) == 1

    def test_spec_list_streams_like_from_specs(self, tmp_path):
        # Specs differing only in name are fine in an explicit list: the repeated
        # cell gets a position suffix instead of colliding on one cell id.
        spec = dict(ALL_KINDS_SPECS[0])
        specs = [ExperimentSpec(**spec, name="a"), ExperimentSpec(**spec, name="b")]
        listed = str(tmp_path / "listed.jsonl")
        wrapped = str(tmp_path / "wrapped.jsonl")
        with Session() as session:
            stream = session.sweep(specs, results=listed)
            assert isinstance(stream, types.GeneratorType)
            runs = list(stream)
            assert [run.label for run in runs] == ["a", "b"]
            assert runs[0].cell_id != runs[1].cell_id
            # A second call resumes: both cells are in the store already.
            assert list(session.sweep(specs, results=listed)) == []
            list(session.sweep(SweepSpec.from_specs(specs), results=wrapped))
        assert _rows(listed) == _rows(wrapped)

        with Session() as session:
            with pytest.raises(TypeError, match="list of specs"):
                session.sweep(ExperimentSpec(**spec) for _ in range(2))

    def test_session_results_is_ambient(self, tmp_path):
        path = str(tmp_path / "ambient.jsonl")
        sweep = SweepSpec.from_specs(ALL_KINDS_SPECS[:1])
        with Session(results=path) as session:
            runs = list(session.sweep(sweep))
        assert session.closed
        assert len(_rows(path)) == len(runs) == 1
        # An inner session without a store inherits the ambient one.
        inner_path = str(tmp_path / "outer.jsonl")
        with Session(results=inner_path):
            with Session() as inner:
                assert runtime.current_results() is not None
                list(inner.sweep(SweepSpec.from_specs(ALL_KINDS_SPECS[:1])))
        assert len(_rows(inner_path)) == 1

    def test_stored_rows_match_run_to_dict(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        sweep = SweepSpec.from_specs(ALL_KINDS_SPECS[:1])
        with Session() as session:
            (run,) = list(session.sweep(sweep, results=path))
        with open_result_store(path) as store:
            record = store.get(run.cell_id)
        assert record["result"] == json.loads(json.dumps(run.to_dict(volatile=False)))
        assert record["spec"]["kind"] == "scheduler"
        assert record["seconds"] == run.seconds

    def test_sweep_on_closed_session_raises(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError):
            session.sweep(SweepSpec.from_specs(ALL_KINDS_SPECS[:1]))


# ---------------------------------------------------------------------- merge
def _record(cell_id, status="ok"):
    return {
        "result": {"kind": "ga", "label": cell_id, "cell_id": cell_id, "plan": None,
                   "oom": None, "status": status, "error": "", "metrics": {}},
        "spec": {"x": 1},
        "seconds": 0.0,
        "attempts": 1,
        "written_at": time.time(),
    }


class TestMerge:
    def test_later_duplicates_win_in_argument_order(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        out = str(tmp_path / "merged.jsonl")
        with open_result_store(a) as store:
            store.put("c1", _record("c1"))
            store.put("c2", _record("c2", status="failed"))
        with open_result_store(b) as store:
            store.put("c2", _record("c2"))  # the healed re-run wins
            store.put("c3", _record("c3"))
        summary = merge_stores([a, b], out)
        assert summary == {
            "stores": 2, "cells": 3, "duplicates": 1, "statuses": {"ok": 3}}
        rows = _rows(out)
        assert set(rows) == {"c1", "c2", "c3"}
        assert json.loads(rows["c2"])["status"] == "ok"

    def test_cli_merge_prints_histogram(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        with open_result_store(a) as store:
            store.put("c1", _record("c1"))
            store.put("c2", _record("c2", status="failed"))
        out = str(tmp_path / "merged.jsonl")
        assert repro_main(["results", "merge", a, "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "2 cells" in printed and "ok=1" in printed and "failed=1" in printed

    def test_cli_merge_refuses_an_output_that_is_not_a_result_store(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        with open_result_store(a) as store:
            store.put("c1", _record("c1"))
        out = str(tmp_path / "cache.jsonl")
        with open_cache_store(out) as cache_store:
            cache_store.append({"key": 1}, {"key": 1.0})
        with open(out, "rb") as handle:
            before = handle.read()
        with pytest.raises(SystemExit, match="cache.jsonl is not a watos-results-jsonl file"):
            repro_main(["results", "merge", a, "-o", out])
        with open(out, "rb") as handle:
            assert handle.read() == before  # not moved aside to .corrupt
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "cache.jsonl"]

    def test_cli_merge_missing_input(self, tmp_path, capsys):
        assert repro_main(
            ["results", "merge", str(tmp_path / "ghost.jsonl"),
             "-o", str(tmp_path / "out.jsonl")]
        ) == 1
        assert "no store at" in capsys.readouterr().err
