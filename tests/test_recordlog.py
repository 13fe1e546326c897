"""The one record log (``repro.recordlog``) under every store family.

* **Format pins.**  The bytes a JSONL store writes — header plus rows, and
  again after a compaction — and the sqlite schema are fixed: files written by
  earlier builds must keep loading, and these expectations were taken from the
  build before the stores shared one log.  Each pin is checked both ways: the
  current code writes exactly these bytes, and loads them back unchanged.
* **Atomic rewrites.**  Every whole-file writer (the span trace, store
  compaction) goes through one temp-file/fsync/rename path: an exception
  mid-write leaves the previous file byte-identical and no temp file.
* **Appends reach the OS.**  A row is readable by another reader as soon as the
  append returns, without closing the store.
* **One sqlite connection, many threads.**  A threaded sweep's cell threads all
  use the store's one connection; no row may be lost.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
from collections import OrderedDict

import pytest

from repro.api.results import JsonlResultStore, SqliteResultStore
from repro.core.evalcache import JsonlCacheStore, SqliteCacheStore
from repro.obs import tracer
from repro.obs.tracefile import write_trace as write_span_trace
from repro.recordlog import is_sqlite_path

CACHE_VALUES = {"a": 1, "b": (0.1 + 0.2, float("inf")), "c": ["x", None]}
CACHE_TIMES = {"a": 100.0, "b": 200.5, "c": 300.0}


def _record(label, written_at):
    return {"result": {"kind": "ga", "label": label, "metrics": {"v": 0.1 + 0.2}},
            "written_at": written_at}


def _write_cache(store):
    store.append(CACHE_VALUES, CACHE_TIMES)
    store.append({"a": 2}, {"a": 400.0})  # a re-priced key: later row wins


def _compact_cache(store):
    store.replace_all(store.load(), store.row_times)


def _write_results(store):
    store.put("a", _record("a", 1.0))
    store.put("b", _record("b", 2.0))
    store.put("a", _record("a2", 3.0))  # a --no-resume re-run: later row wins


# ------------------------------------------------------------------ format pins
CACHE_JSONL = (
    b'{"format": "watos-evalcache-jsonl", "namespace": "watos-evalcache-v1"}\n'
    b'{"k": "a", "v": 1, "t": 100.0}\n'
    b'{"k": "b", "v": {"__tuple__": [0.30000000000000004, Infinity]}, "t": 200.5}\n'
    b'{"k": "c", "v": {"__list__": ["x", null]}, "t": 300.0}\n'
    b'{"k": "a", "v": 2, "t": 400.0}\n'
)
CACHE_JSONL_COMPACTED = (
    b'{"format": "watos-evalcache-jsonl", "namespace": "watos-evalcache-v1"}\n'
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
CACHE_SQLITE_SCHEMA = [
    ("table", "meta", "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"),
    ("table", "entries",
     "CREATE TABLE entries (key TEXT PRIMARY KEY, value TEXT, priced_at REAL DEFAULT 0)"),
]
RESULTS_SQLITE_SCHEMA = [
    ("table", "meta", "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)"),
    ("table", "results",
     "CREATE TABLE results (cell_id TEXT PRIMARY KEY, record TEXT, written_at REAL DEFAULT 0)"),
]


def _read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _write_bytes(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


class TestJsonlFormatPins:
    def test_cache_store_bytes(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with JsonlCacheStore(path) as store:
            _write_cache(store)
            assert _read_bytes(path) == CACHE_JSONL
            _compact_cache(store)
        assert _read_bytes(path) == CACHE_JSONL_COMPACTED

    def test_cache_store_loads_pinned_bytes(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        _write_bytes(path, CACHE_JSONL)
        with JsonlCacheStore(path) as store:
            entries = store.load()
            assert list(entries) == ["b", "c", "a"]
            assert entries == {**CACHE_VALUES, "a": 2}
            assert store.row_times == {**CACHE_TIMES, "a": 400.0}
            assert store.load_errors == 0
        assert _read_bytes(path) == CACHE_JSONL  # a pure read never rewrites

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


def _schema(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT type, name, sql FROM sqlite_master WHERE type = 'table' ORDER BY rowid"
        ).fetchall(), dict(conn.execute("SELECT key, value FROM meta"))
    finally:
        conn.close()


class TestSqliteFormatPins:
    def test_cache_store_schema(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        with SqliteCacheStore(path) as store:
            _write_cache(store)
            _compact_cache(store)
        tables, meta = _schema(path)
        assert tables == CACHE_SQLITE_SCHEMA
        assert meta == {"namespace": "watos-evalcache-v1"}
        conn = sqlite3.connect(path)
        rows = conn.execute("SELECT key, value, priced_at FROM entries ORDER BY rowid").fetchall()
        conn.close()
        assert rows == [
            ("b", '{"__tuple__": [0.30000000000000004, Infinity]}', 200.5),
            ("c", '{"__list__": ["x", null]}', 300.0),
            ("a", "2", 400.0),
        ]

    def test_result_store_schema(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        with SqliteResultStore(path) as store:
            _write_results(store)
            store.compact()
        tables, meta = _schema(path)
        assert tables == RESULTS_SQLITE_SCHEMA
        assert meta == {"namespace": "watos-results-v2"}
        conn = sqlite3.connect(path)
        rows = conn.execute("SELECT cell_id, record, written_at FROM results ORDER BY rowid")
        rows = [(cell_id, json.loads(record), at) for cell_id, record, at in rows]
        conn.close()
        assert rows == [("b", _record("b", 2.0), 2.0), ("a", _record("a2", 3.0), 3.0)]

    def test_every_sqlite_suffix_selects_sqlite(self):
        for name in ("x.sqlite", "x.SQLITE3", "x.db"):
            assert is_sqlite_path(name)
        assert not is_sqlite_path("x.jsonl") and not is_sqlite_path("x.sqlite.bak")


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
        store = JsonlCacheStore(path)
        store.append({"k": 1}, {"k": 1.0})
    else:
        store = JsonlResultStore(path)
        store.put("k", _record("k", 1.0))
    lines = _read_bytes(path).splitlines()
    assert len(lines) == 2 and b'"k"' in lines[1]
    store.close()


# ------------------------------------------------------- one sqlite connection, many threads
def test_sqlite_store_shared_by_threads_loses_no_rows(tmp_path):
    store = SqliteCacheStore(str(tmp_path / "cache.sqlite"))
    errors = []

    def writer(index):
        try:
            for step in range(25):
                key = f"t{index}-{step}"
                store.append({key: step}, {key: 1.0})
                # A point read through the log, which holds the connection lock.
                assert store._log.get(key, store._decode)[1] == step
        except BaseException as exc:  # surfaced below; a thread cannot fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(store.load()) == 8 * 25
    store.close()
