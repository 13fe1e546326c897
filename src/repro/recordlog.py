"""One record log: the file discipline every persistent store in the repo shares.

The evaluation cache (:mod:`repro.core.evalcache`) and the sweep result store
(:mod:`repro.api.results`) persist their records through one of two logs here;
each store family keeps only its row layout, value codec and queries.

* :class:`JsonlLog` — one JSON header line (``{"format": …}``, plus
  ``"namespace"`` for namespaced stores), then one JSON object per line,
  append-only.  Later rows with the same key win on load.
* :class:`SqliteLog` — a ``meta`` table holding the namespace and one keyed
  table ``(key TEXT PRIMARY KEY, value TEXT, time REAL DEFAULT 0)`` whose
  writes are upserts; values are JSON text.

The recovery rules are the same for every store:

* a file that is not ours (another format, someone else's sqlite database,
  junk) is never written into: reads treat it as empty, and the first write
  moves it to ``<path>.corrupt`` and starts a fresh file;
* a file of ours under a stale namespace is reset in place (a cold start);
* a path under a missing directory reads as empty and creates nothing; the
  first write creates the directory;
* a row that fails to parse or decode is skipped and counted in ``errors``.
  That includes a torn last line left by a killed writer, and the next append
  closes that line first, so only the fragment is lost;
* every append reaches the OS before it returns, and a whole-file rewrite
  (:func:`atomic_write`) goes through a temp file, fsync and rename, so a crash
  leaves either the old file or the new one.

This is a leaf module: it imports nothing from ``repro``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sqlite3
import threading
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

__all__ = ["JsonlLog", "SqliteLog", "atomic_write", "is_sqlite_path"]

#: Path suffixes that select the sqlite backend; any other path is JSONL.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: What parsing or decoding a corrupt or stale row may raise (skipped, counted).
_ROW_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ImportError)

T = TypeVar("T")


def is_sqlite_path(path: Any) -> bool:
    """Whether ``path`` selects the sqlite backend (suffix, case-insensitive)."""
    return str(path).lower().endswith(_SQLITE_SUFFIXES)


def _damaged(exc: sqlite3.DatabaseError) -> bool:
    """Whether a sqlite error condemns the file itself.

    True for "not a database", "malformed" and another program's tables (raised
    by :meth:`SqliteLog._attach`), which all raise the base ``DatabaseError``.  A
    lock, an I/O error or misuse raise subclasses and never move a file aside.
    """
    return type(exc) is sqlite3.DatabaseError


def _move_aside(path: str) -> None:
    """Preserve whatever sits at ``path`` as ``<path>.corrupt``.

    A mistyped store path must never destroy user data: recovery means starting
    cold, not truncating the file.
    """
    if os.path.exists(path):
        os.replace(path, path + ".corrupt")


def _make_parent(path: str) -> None:
    """Create the missing directories above ``path`` (before its first write)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def atomic_write(path: Union[str, os.PathLike], lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines``, each followed by a newline.

    The lines go to a temp file beside ``path``, which is fsync'd and renamed
    over it, keeping the permissions of the file it replaces.  An exception or a
    crash mid-write leaves the previous file as it was, and an exception leaves
    no temp file behind.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            for line in lines:
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class JsonlLog:
    """An append-only JSON-lines file: a header line, then one object per row.

    ``header`` is the object on the first line.  A file is *ours* when its
    header has the same ``format``, and *current* when every key of ``header``
    matches; a namespace bump makes it stale.
    """

    def __init__(self, path: str, header: Dict[str, Any]) -> None:
        self.path = str(path)
        self.header = header
        #: Rows skipped by the most recent :meth:`rows` (torn tail, corruption).
        self.errors = 0
        self._checked = False  # the header has been classified
        self._foreign = False  # a file that is not ours sits at the path

    def _check(self, first: bytes) -> bool:
        """Classify the file from its first line; ``True`` when its rows are ours."""
        self._checked, self._foreign = True, False
        if not first:
            return False  # missing or empty: the next append writes the header
        try:
            header = json.loads(first)
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != self.header["format"]:
            self._foreign = True  # left untouched until a write needs the path
            return False
        if any(header.get(key) != value for key, value in self.header.items()):
            self.rewrite(())  # ours, stale namespace: reset in place
            return False
        return True

    def _claim(self) -> None:
        """Before a write: classify the file once, move a foreign one aside and
        create a missing parent directory.

        Writes never append blind: a writer can reach its first write without
        any read (a sweep with ``resume=False``), and appending to a foreign or
        stale file would corrupt it or add rows the next read discards.
        """
        if not self._checked:
            try:
                with open(self.path, "rb") as handle:
                    first = handle.readline()
            except FileNotFoundError:
                first = b""
                _make_parent(self.path)
            self._check(first)
        if self._foreign:
            _move_aside(self.path)
            self._foreign = False

    def rows(self, decode: Callable[[Any], T]) -> Iterator[T]:
        """``decode(row)`` for each row in append order.

        Yields nothing for a missing, foreign or stale file.  Rows that fail to
        parse or decode are skipped and counted in :attr:`errors`, whose count is
        final once the iterator is exhausted.
        """
        self.errors = 0
        try:
            handle = open(self.path, "rb")
        except OSError:
            return
        with handle:
            if not self._check(handle.readline()):
                return
            for line in handle:
                if line.strip():
                    try:
                        # An explicit decode skips json's per-call encoding sniffing.
                        yield decode(json.loads(line.decode("utf-8")))
                    except _ROW_ERRORS:
                        self.errors += 1

    def count(self) -> int:
        """Rows on disk, duplicates and undecodable rows included."""
        return sum(1 for _ in self.rows(lambda row: None)) + self.errors

    def append(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Append ``rows``; they reach the OS before this returns."""
        data = "".join(json.dumps(row) + "\n" for row in rows)
        if not data:
            return
        self._claim()
        with open(self.path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end == 0:
                data = json.dumps(self.header) + "\n" + data
            else:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    data = "\n" + data  # close a torn last line: only the fragment is lost
            handle.write(data.encode("utf-8"))

    def rewrite(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Atomically replace the file with the header and ``rows``."""
        self._claim()
        atomic_write(
            self.path,
            itertools.chain([json.dumps(self.header)], (json.dumps(row) for row in rows)),
        )

    def close(self) -> None:
        """Nothing to release: every append opens and closes the file."""


class SqliteLog:
    """A keyed sqlite table plus a ``meta`` row holding the namespace.

    ``columns`` names the table's ``(key, value, time)`` columns.  Rows are
    ``(key, value, time)`` triples whose value is stored as JSON text.  Writes
    are keyed upserts, so a rewritten key moves to the end of rowid order.  One
    connection serves every thread (a threaded sweep prices and flushes from
    its cell threads); each use of it holds the log's lock.
    """

    def __init__(
        self, path: str, namespace: str, table: str, columns: Tuple[str, str, str]
    ) -> None:
        self.path = str(path)
        self.namespace = namespace
        self.table = table
        self.key, self.value, self.time = columns
        self._select = f"SELECT {self.key}, {self.value}, {self.time} FROM {table}"
        #: Rows skipped by the most recent :meth:`rows`, plus failed lookups.
        self.errors = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.RLock()

    def __getstate__(self) -> Dict[str, Any]:
        # Connections and locks are process-local; an unpickled log reconnects lazily.
        state = self.__dict__.copy()
        state["_conn"] = None
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def _attach(self) -> sqlite3.Connection:
        """Open (or create, parent directory included) the database and make it a
        current store of ours, or raise."""
        _make_parent(self.path)
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            tables = {
                row[0]
                for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            }
            if tables and not {"meta", self.table}.issubset(tables):
                raise sqlite3.DatabaseError(f"{self.path} holds another program's tables")
            conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {self.table} "
                f"({self.key} TEXT PRIMARY KEY, {self.value} TEXT, {self.time} REAL DEFAULT 0)"
            )
            # Tables from before the time column gain it in place; their rows
            # report time 0 (oldest).
            columns = {row[1] for row in conn.execute(f"PRAGMA table_info({self.table})")}
            if self.time not in columns:
                conn.execute(f"ALTER TABLE {self.table} ADD COLUMN {self.time} REAL DEFAULT 0")
            stored = conn.execute("SELECT value FROM meta WHERE key = 'namespace'").fetchone()
            if stored is not None and stored[0] != self.namespace:
                # Ours, stale namespace: reset in place.
                conn.execute(f"DELETE FROM {self.table}")
                self._stamp(conn)
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _stamp(self, conn: sqlite3.Connection) -> None:
        conn.execute("INSERT OR REPLACE INTO meta VALUES ('namespace', ?)", (self.namespace,))

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            try:
                self._conn = self._attach()
            except sqlite3.DatabaseError as exc:
                if not _damaged(exc):
                    raise
                # Unreadable, or someone else's database: preserve it, start fresh.
                _move_aside(self.path)
                self._conn = self._attach()
        return self._conn

    def _read(self, sql: str, args: Tuple = ()) -> List[Tuple]:
        """A query's rows; none for a missing file (reads never create one)."""
        with self._lock:
            if self._conn is None and not os.path.exists(self.path):
                return []
            try:
                return self._connect().execute(sql, args).fetchall()
            except sqlite3.DatabaseError as exc:
                if not _damaged(exc):
                    raise
                # Damaged past the header (e.g. truncated): preserve it, start cold.
                self.close()
                _move_aside(self.path)
                return []

    def rows(self, decode: Callable[[Tuple[Any, Any, float]], T]) -> Iterator[T]:
        """``decode((key, value, time))`` for each row in write order.

        Rows whose value fails to parse or decode are skipped and counted in
        :attr:`errors`, whose count is final once the iterator is exhausted.
        """
        self.errors = 0
        yield from self._decoded(decode, self._read(f"{self._select} ORDER BY rowid"))

    def get(self, key: str, decode: Callable[[Tuple[Any, Any, float]], T]) -> Optional[T]:
        """The decoded row stored under ``key``, or ``None``."""
        found = self._read(f"{self._select} WHERE {self.key} = ?", (str(key),))
        return next(self._decoded(decode, found), None)

    def _decoded(self, decode: Callable[[Tuple[Any, Any, float]], T], found: List[Tuple]):
        for key, value, time in found:
            try:
                yield decode((key, json.loads(value), time))
            except _ROW_ERRORS:
                self.errors += 1

    def count(self) -> int:
        """Rows in the table (keyed upserts never hold duplicates)."""
        found = self._read(f"SELECT COUNT(*) FROM {self.table}")
        return int(found[0][0]) if found else 0

    def _write(self, rows: Iterable[Tuple[Any, Any, float]], replace: bool) -> None:
        values = [(key, json.dumps(value), time) for key, value, time in rows]
        if not values and not replace:
            return
        with self._lock:
            conn = self._connect()
            with conn:  # one transaction: committed whole, or rolled back
                if replace:
                    conn.execute(f"DELETE FROM {self.table}")
                self._stamp(conn)
                conn.executemany(f"INSERT OR REPLACE INTO {self.table} VALUES (?, ?, ?)", values)

    def append(self, rows: Iterable[Tuple[Any, Any, float]]) -> None:
        """Upsert ``rows`` in one transaction (later keys win)."""
        self._write(rows, replace=False)

    def rewrite(self, rows: Iterable[Tuple[Any, Any, float]]) -> None:
        """Replace every row with ``rows`` in one transaction."""
        self._write(rows, replace=True)

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
