"""The one record log (``repro.recordlog``) under every store family.

* **Format pins.**  The bytes a JSONL store writes — header plus rows, and
  again after a compaction — are fixed: files written by earlier builds must
  keep loading, and these expectations were taken from the build before the
  stores shared one log.  Each pin is checked both ways: the current code writes
  exactly these bytes, and loads them back unchanged.  Cache rows of earlier
  builds also carried a ``"t"`` timestamp; those bytes are pinned too, and load
  the same entries.
* **Sqlite paths are refused.**  Earlier builds kept sqlite stores at ``.sqlite``,
  ``.sqlite3`` and ``.db`` paths; opening one raises a one-line ``ValueError``
  and leaves the file as it is, and no module imports ``sqlite3``.
* **Atomic rewrites.**  Every whole-file writer (the span trace, store
  compaction) goes through one temp-file/fsync/rename path: an exception
  mid-write leaves the previous file byte-identical and no temp file.
* **Appends reach the OS.**  A row is readable by another reader as soon as the
  append returns, without closing the store.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import OrderedDict

import pytest

import repro
from repro.api.results import JsonlResultStore
from repro.core.evalcache import CacheStore
from repro.obs import tracer
from repro.obs.tracefile import write_trace as write_span_trace

CACHE_VALUES = {"a": 1, "b": (0.1 + 0.2, float("inf")), "c": ["x", None]}


def _record(label, written_at):
    return {"result": {"kind": "ga", "label": label, "metrics": {"v": 0.1 + 0.2}},
            "written_at": written_at}


def _write_cache(store):
    store.append(CACHE_VALUES)
    store.append({"a": 2})  # a re-priced key: later row wins


def _compact_cache(store):
    store.replace_all(store.load())


def _write_results(store):
    store.put("a", _record("a", 1.0))
    store.put("b", _record("b", 2.0))
    store.put("a", _record("a2", 3.0))  # a --no-resume re-run: later row wins


# ------------------------------------------------------------------ format pins
CACHE_JSONL = (
    b'{"format": "watos-evalcache-jsonl", "namespace": "watos-evalcache-v1"}\n'
    b'{"k": "a", "v": 1}\n'
    b'{"k": "b", "v": {"__tuple__": [0.30000000000000004, Infinity]}}\n'
    b'{"k": "c", "v": {"__list__": ["x", null]}}\n'
    b'{"k": "a", "v": 2}\n'
)
CACHE_JSONL_COMPACTED = (
    b'{"format": "watos-evalcache-jsonl", "namespace": "watos-evalcache-v1"}\n'
    b'{"k": "b", "v": {"__tuple__": [0.30000000000000004, Infinity]}}\n'
    b'{"k": "c", "v": {"__list__": ["x", null]}}\n'
    b'{"k": "a", "v": 2}\n'
)
#: The same store as earlier builds wrote it, with a ``"t"`` timestamp per row.
CACHE_JSONL_TIMESTAMPED = (
    b'{"format": "watos-evalcache-jsonl", "namespace": "watos-evalcache-v1"}\n'
    b'{"k": "a", "v": 1, "t": 100.0}\n'
    b'{"k": "b", "v": {"__tuple__": [0.30000000000000004, Infinity]}, "t": 200.5}\n'
    b'{"k": "c", "v": {"__list__": ["x", null]}, "t": 300.0}\n'
    b'{"k": "a", "v": 2, "t": 400.0}\n'
)
RESULTS_JSONL = (
    b'{"format": "watos-results-jsonl", "namespace": "watos-results-v2"}\n'
    b'{"c": "a", "v": {"result": {"kind": "ga", "label": "a", "metrics": '
    b'{"v": 0.30000000000000004}}, "written_at": 1.0}}\n'
    b'{"c": "b", "v": {"result": {"kind": "ga", "label": "b", "metrics": '
    b'{"v": 0.30000000000000004}}, "written_at": 2.0}}\n'
    b'{"c": "a", "v": {"result": {"kind": "ga", "label": "a2", "metrics": '
    b'{"v": 0.30000000000000004}}, "written_at": 3.0}}\n'
)
RESULTS_JSONL_COMPACTED = (
    b'{"format": "watos-results-jsonl", "namespace": "watos-results-v2"}\n'
    b'{"c": "b", "v": {"result": {"kind": "ga", "label": "b", "metrics": '
    b'{"v": 0.30000000000000004}}, "written_at": 2.0}}\n'
    b'{"c": "a", "v": {"result": {"kind": "ga", "label": "a2", "metrics": '
    b'{"v": 0.30000000000000004}}, "written_at": 3.0}}\n'
)


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _write_bytes(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


class TestJsonlFormatPins:
    def test_cache_store_bytes(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with CacheStore(path) as store:
            _write_cache(store)
            assert _read_bytes(path) == CACHE_JSONL
            _compact_cache(store)
        assert _read_bytes(path) == CACHE_JSONL_COMPACTED

    def test_cache_store_loads_pinned_bytes(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        for pinned in (CACHE_JSONL, CACHE_JSONL_TIMESTAMPED):
            _write_bytes(path, pinned)
            with CacheStore(path) as store:
                entries = store.load()
                assert list(entries) == ["b", "c", "a"]
                assert entries == {**CACHE_VALUES, "a": 2}
                assert store.load_errors == 0
            assert _read_bytes(path) == pinned  # a pure read never rewrites

    def test_result_store_bytes(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with JsonlResultStore(path) as store:
            _write_results(store)
            assert _read_bytes(path) == RESULTS_JSONL
            assert store.compact() == {"before": 3, "after": 2, "cells": 2}
        assert _read_bytes(path) == RESULTS_JSONL_COMPACTED

    def test_result_store_loads_pinned_bytes(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        _write_bytes(path, RESULTS_JSONL)
        with JsonlResultStore(path) as store:
            records = store.load()
            assert list(records) == ["b", "a"]
            assert records["a"] == _record("a2", 3.0)
            assert store.physical_rows() == 3
        assert _read_bytes(path) == RESULTS_JSONL


# -------------------------------------------------------- sqlite paths are refused
@pytest.mark.parametrize("name", ["x.sqlite", "x.SQLITE3", "x.db"])
def test_sqlite_paths_are_refused_and_left_as_they_are(tmp_path, name):
    path = str(tmp_path / name)
    data = b"SQLite format 3\x00 a store an earlier build wrote"
    _write_bytes(path, data)
    for store_cls in (CacheStore, JsonlResultStore):
        with pytest.raises(ValueError, match=r"use a \.jsonl path") as caught:
            store_cls(path)
        message = str(caught.value)
        assert "\n" not in message and "repro results merge old.sqlite -o new.jsonl" in message
    assert _read_bytes(path) == data
    assert os.listdir(tmp_path) == [name]  # nothing moved aside, nothing created


def test_other_suffixes_stay_jsonl(tmp_path):
    for name in ("x.jsonl", "x.sqlite.bak", "x.dbx"):
        with JsonlResultStore(str(tmp_path / name)) as store:
            store.put("a", _record("a", 1.0))
        assert _read_bytes(str(tmp_path / name)).startswith(b'{"format": "watos-results-jsonl"')


def test_importing_the_api_and_chaos_loads_no_sqlite3():
    # A subprocess: this test session may already have imported sqlite3.
    script = "import sys, repro.api, repro.core.chaos; print('sqlite3' in sys.modules)"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -------------------------------------------------------------- atomic rewrites
def _span_trace_writer(path, fail):
    ring = tracer.Tracer(capacity=64)
    for index in range(50):
        ring.add_span("pricing", float(index), index + 0.5, tag=f"cell-{index}")
    records = list(ring.records())
    if fail:
        # An unserializable tag on the 21st record: json.dumps raises mid-file.
        bad = list(records[20])
        bad[4] = object()
        records[20] = tuple(bad)
    write_span_trace(path, records)


def _compaction_writer(path, fail):
    store = JsonlResultStore(path)
    records = OrderedDict((f"c{index}", {"written_at": float(index)}) for index in range(50))
    if fail:
        records["c20"] = {"unserializable": object()}
    store.replace_all(records)


@pytest.mark.parametrize(
    "write", [_span_trace_writer, _compaction_writer], ids=["span-trace", "store-compaction"],
)
def test_interrupted_rewrite_keeps_the_previous_file(tmp_path, write):
    path = str(tmp_path / "out.jsonl")
    write(path, fail=False)
    before = _read_bytes(path)
    assert before.count(b"\n") == 51  # header + 50 rows
    with pytest.raises(TypeError):
        write(path, fail=True)
    assert _read_bytes(path) == before
    assert os.listdir(tmp_path) == ["out.jsonl"]  # no temp file left behind


# ------------------------------------------------------------ appends reach the OS
@pytest.mark.parametrize("family", ["cache", "results"])
def test_append_is_readable_before_close(tmp_path, family):
    path = str(tmp_path / f"{family}.jsonl")
    if family == "cache":
        store = CacheStore(path)
        store.append({"k": 1})
    else:
        store = JsonlResultStore(path)
        store.put("k", _record("k", 1.0))
    lines = _read_bytes(path).splitlines()
    assert len(lines) == 2 and b'"k"' in lines[1]
    store.close()
