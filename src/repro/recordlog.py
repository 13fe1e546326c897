"""One record log: the file discipline every persistent store in the repo shares.

The evaluation cache (:mod:`repro.core.evalcache`) and the sweep result store
(:mod:`repro.api.results`) persist their records through :class:`JsonlLog`; each
store family keeps only its row layout, value codec and queries.  A log is one
JSON header line (``{"format": …, "namespace": …}``), then one JSON object per
line, append-only.  Later rows with the same key win on load.

The recovery rules are the same for every store:

* a path ending in ``.sqlite``, ``.sqlite3`` or ``.db`` is refused with
  :class:`StoreError`: earlier builds kept sqlite stores there, and reading one
  as JSONL would start its matrix over and move the database aside;
* a file that is not ours (another store family, another format, junk) is never
  written into: reads treat it as empty, the first append moves it to
  ``<path>.corrupt`` and starts a fresh file, and a rewrite (a compaction, a
  merge's output) refuses it with :class:`StoreError` and leaves it as it is;
* a file of ours under a stale namespace reads as empty and is left as it is;
  the first append or rewrite resets it in place (a cold start);
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
from typing import Any, Callable, Dict, Iterable, Iterator, TypeVar, Union

__all__ = ["JsonlLog", "StoreError", "atomic_write"]

#: Suffixes of the sqlite stores earlier builds wrote; a log refuses them.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: What parsing or decoding a corrupt or stale row may raise (skipped, counted).
_ROW_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ImportError)

T = TypeVar("T")


class StoreError(ValueError):
    """A store refuses a path or the file at it, before writing anything.

    The message is one line; ``python -m repro`` exits with it.
    """


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
        if str(path).lower().endswith(_SQLITE_SUFFIXES):
            raise StoreError(
                f"{path}: sqlite stores are no longer supported, use a .jsonl path "
                "(convert an old result store with an earlier build's "
                "`repro results merge old.sqlite -o new.jsonl`)"
            )
        self.path = str(path)
        self.header = header
        #: Rows skipped by the most recent :meth:`rows` (torn tail, corruption).
        self.errors = 0
        self._checked = False  # the header has been classified
        self._foreign = False  # a file that is not ours sits at the path
        self._stale = False  # a file of ours under another namespace sits there
        self._found = ""  # the format that file's header names, if it names one

    def _check(self, first: bytes) -> bool:
        """Classify the file from its first line; ``True`` when its rows are ours."""
        self._checked, self._foreign, self._stale, self._found = True, False, False, ""
        if not first:
            return False  # missing or empty: the next append writes the header
        try:
            header = json.loads(first)
        except ValueError:
            header = None
        found = header.get("format") if isinstance(header, dict) else None
        if found != self.header["format"]:
            self._foreign = True  # left untouched until a write needs the path
            self._found = found if isinstance(found, str) else ""
            return False
        if any(header.get(key) != value for key, value in self.header.items()):
            self._stale = True  # left untouched until a write resets it
            return False
        return True

    def _claim(self) -> None:
        """Before a write: classify the file once and create a missing parent
        directory.

        Writes never go blind: a writer can reach its first write without any
        read (a sweep with ``resume=False``), and writing over a foreign or stale
        file would destroy it or add rows the next read discards.
        """
        if not self._checked:
            try:
                with open(self.path, "rb") as handle:
                    first = handle.readline()
            except FileNotFoundError:
                first = b""
                _make_parent(self.path)
            self._check(first)

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
        if self._foreign:
            # A mistyped path must never destroy user data: keep the file, start cold.
            os.replace(self.path, self.path + ".corrupt")
            self._foreign = False
        elif self._stale:
            self.rewrite(())  # reset in place: this write starts the store cold
        with open(self.path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end == 0:
                data = json.dumps(self.header) + "\n" + data
            else:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    data = "\n" + data  # close a torn last line: only the fragment is lost
            handle.write(data.encode("utf-8"))

    def refuse_foreign(self, action: str) -> None:
        """Raise :class:`StoreError` when a file that is not ours sits at the path.

        The one-line message names the format the file's header declares, if any,
        and ends with ``action``.  The file stays as it is.
        """
        self._claim()
        if self._foreign:
            found = f" (it is a {self._found} file)" if self._found else ""
            raise StoreError(
                f"{self.path} is not a {self.header['format']} file{found}; {action}"
            )

    def rewrite(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Atomically replace the file with the header and ``rows``.

        A file that is not ours raises :class:`StoreError` and stays as it is:
        a rewrite folds or merges what a store holds, and this file holds none.
        """
        self.refuse_foreign("refusing to replace it")
        atomic_write(
            self.path,
            itertools.chain([json.dumps(self.header)], (json.dumps(row) for row in rows)),
        )
        self._stale = False
