"""Content-addressed evaluation cache for the plan-search hot path.

Every search loop in the reproduction — the GA (§IV-D), the central scheduler's
(TP, PP, strategy, collective) co-exploration and the die-granularity hardware DSE
(Fig. 25) — funnels through :meth:`Evaluator.evaluate`.  Those loops revisit identical
candidates constantly: GA elites survive unchanged between generations, crossover
produces exact clones of parents, and scheduler probes re-price the same (TP, PP) split
under several collectives that collapse to the same plan.

:class:`EvaluationCache` memoizes evaluation results behind a *content-addressed*
fingerprint of everything that determines the outcome:

* the wafer configuration (die geometry, DRAM, link bandwidths, fault state);
* the workload (model shape, batching, sequence length);
* the training plan (parallelism degrees, TP shape, collective, split strategy,
  recomputation config, stage placement, Mem_pairs, host offload).

Fingerprints are structural, not identity-based: two plans built independently but
describing the same strategy share one cache entry.  The cache is a bounded LRU and
exposes hit/miss counters so benchmarks can track search efficiency.

**Persistence.**  A cache can be attached to a JSONL :class:`CacheStore` (see
:func:`open_store`) so repeated DSE sweeps across *processes* start warm:
entries loaded from disk are reported in :attr:`CacheStats.loaded`, new results are
spilled with :meth:`EvaluationCache.flush`, and stores carry a versioned fingerprint
namespace — bumping :data:`CACHE_SCHEMA_VERSION` (or evaluating with a different
fingerprint vocabulary) invalidates stale stores instead of serving wrong results.
The file discipline — namespace check, ``<path>.corrupt`` preservation, torn-tail
recovery, atomic rewrites — is :mod:`repro.recordlog`'s, shared with the result
store; this module keeps only the row layout and value codec.

**Scale-out.**  Worker processes evaluate against a private cache seeded from the
parent's entries (:meth:`seed`), and the parent merges each worker's freshly priced
entries back (:meth:`absorb_carry`), so one shared store serves a whole multi-wafer
or wafer×workload fan-out.  Entries carry monotonic sequence numbers so both
directions of that flow are delta-only: :meth:`export_since` ships only entries
adopted after a watermark — the parent's per-worker watermark on the way out, the
worker shard's own watermark at the start of a chunk on the way back.

A cache keeps per-key state only for resident entries and for entries still waiting
to be flushed to its store, so ``max_entries`` bounds the memory of a cache without
a store exactly.
"""

from __future__ import annotations

import bisect
import enum
import functools
import hashlib
import importlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs import tracer as _obs
from repro.recordlog import JsonlLog

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EvaluationCache",
    "CacheStats",
    "CacheStore",
    "CanonicalTexts",
    "JsonlCacheStore",
    "canonicalize",
    "check_eviction_bounds",
    "combine_fingerprints",
    "default_namespace",
    "fingerprint",
    "hardware_fingerprint",
    "evaluation_fingerprint",
    "open_store",
]

#: Version of the fingerprint vocabulary + stored-value encoding.  Bump whenever either
#: changes incompatibly; stores written under a different version are discarded on load.
CACHE_SCHEMA_VERSION = 1


def default_namespace() -> str:
    """The namespace persisted stores are validated against on load."""
    return f"watos-evalcache-v{CACHE_SCHEMA_VERSION}"


# ---------------------------------------------------------------------- canonical form
def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a nested tuple of primitives with a deterministic repr.

    Handles the vocabulary the evaluator's inputs are built from: frozen (and mutable)
    dataclasses, enums, dicts, sets and sequences.  Floats are kept exact — the cache
    must never merge two plans whose byte volumes differ even in the last ulp.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        # hex() is lossless and avoids repr ambiguity across float formatting rules.
        return ("f", value.hex())
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple((f.name, canonicalize(getattr(value, f.name))) for f in fields(value)),
        )
    if isinstance(value, dict):
        items = [(canonicalize(k), canonicalize(v)) for k, v in value.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonicalize(v) for v in value), key=repr)))
    if isinstance(value, (tuple, list)):
        return tuple(canonicalize(v) for v in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} for fingerprinting")


def fingerprint(*values: Any) -> str:
    """SHA-256 content address of one or more canonicalizable values."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(repr(canonicalize(value)).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


#: Entries each memo of one :class:`CanonicalTexts` keeps; a full memo starts over.
TEXT_MEMO_SIZE = 4096


class CanonicalTexts:
    """:func:`fingerprint` of dataclass values, with their fields' texts memoised.

    ``fingerprint(value)`` hashes ``repr(canonicalize(value))``.  For a dataclass
    that text is assembled here from one text per field, so a plan that keeps its
    parent's placement, recompute config or parallelism re-canonicalises only what
    changed; sha256 is fed exactly the bytes :func:`fingerprint` feeds it.

    Two memos serve a lookup, and a digest never depends on what was looked up
    before:

    * **By identity**, for values that cannot change in place: exact primitives,
      enum members, and exact tuples and frozensets of, or frozen dataclasses
      over, such values all the way down (:func:`_cannot_change`).  A field value's
      text, and a whole value's digest, are kept under ``id(value)`` together with
      the value itself, so the id cannot be reused while the entry lives.  A GA
      child keeps most of its parent's component objects, so most of its key is
      found here; a whole value's digest is kept only when asked (``hold``).
    * **By pickle**, for every other dataclass field value, and for fixed ones the
      identity memo has not seen.  Equal pickles load as values of the same types
      and contents, so they canonicalise to the same text and are equally fixed;
      values that compare equal but are typed differently (``1``, ``1.0``,
      ``True``) pickle differently and get their own entries.  A value that can
      change in place (a placement built on lists, say) is pickled on every
      lookup, so it is looked up under its current contents.  A value pickle
      cannot write is canonicalised without this memo.
    """

    def __init__(self) -> None:
        #: ``pickle -> (text, fixed)`` of dataclass field values.
        self._texts: Dict[bytes, Tuple[str, bool]] = {}
        #: ``id(value) -> (value, text)`` of fixed field values.
        self._field_texts: Dict[int, Tuple[Any, str]] = {}
        #: ``id(value) -> (value, digest)`` of fixed whole values fingerprinted with
        #: ``hold=True``.
        self._digests: Dict[int, Tuple[Any, str]] = {}

    def fingerprint(self, value: Any, hold: bool = False) -> str:
        """Exactly :func:`fingerprint` ``(value)``.

        ``hold=True`` also keeps the digest under ``id(value)`` when ``value`` cannot
        change in place: for a long-lived value, such as the workload every plan of
        a search is priced under.  A plan is seen once and is not held.
        """
        held = self._digests.get(id(value))
        if held is not None and held[0] is value:
            return held[1]
        if not _is_dataclass_value(value):
            return fingerprint(value)
        cls = type(value)
        fixed = cls.__dataclass_params__.frozen
        items = []
        for name in _field_names(cls):
            text, field_fixed = self._field_text(getattr(value, name))
            fixed = fixed and field_fixed
            items.append(f"({name!r}, {text})")
        text = f"({cls.__name__!r}, {_tuple_repr(items)})"
        digest = hashlib.sha256(text.encode("utf-8") + b"\x00").hexdigest()
        if hold and fixed:
            _hold(self._digests, value, digest)
        return digest

    def _field_text(self, value: Any) -> Tuple[str, bool]:
        """``repr(canonicalize(value))``, and whether it is fixed (:func:`_cannot_change`)."""
        held = self._field_texts.get(id(value))
        if held is not None and held[0] is value:
            return held[1], True
        if type(value) in _ATOMS:
            return repr(canonicalize(value)), True
        entry = self._pickled(value) if _is_dataclass_value(value) else None
        if entry is None:
            entry = repr(canonicalize(value)), _cannot_change(value)
        if entry[1]:
            _hold(self._field_texts, value, entry[0])
        return entry

    def _pickled(self, value: Any) -> Optional[Tuple[str, bool]]:
        """:meth:`_field_text` of a dataclass value, memoised under its pickle.

        ``None`` when pickle cannot write the value.
        """
        try:
            key = pickle.dumps(value, protocol=4)
        except (pickle.PicklingError, TypeError, AttributeError):  # e.g. a local class
            return None
        entry = self._texts.get(key)
        if entry is None:
            entry = repr(canonicalize(value)), _cannot_change(value)
            if len(self._texts) >= TEXT_MEMO_SIZE:
                self._texts.clear()
            self._texts[key] = entry
        return entry


def _hold(memo: Dict[int, Tuple[Any, str]], value: Any, text: str) -> None:
    """Keep ``text`` under ``id(value)`` in an identity memo, holding ``value``."""
    if len(memo) >= TEXT_MEMO_SIZE:
        memo.clear()
    memo[id(value)] = (value, text)


#: Types :func:`canonicalize` tests before its dataclass branch.
_BEFORE_DATACLASS = (bool, int, str, bytes, float, enum.Enum)

#: Exact types whose values never change and that :func:`canonicalize` keeps whole.
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})


def _is_dataclass_value(value: Any) -> bool:
    """Whether :func:`canonicalize` takes its dataclass branch for ``value``."""
    return hasattr(type(value), "__dataclass_fields__") and not isinstance(
        value, _BEFORE_DATACLASS
    )


def _cannot_change(value: Any) -> bool:
    """Whether ``repr(canonicalize(value))`` stays the same for as long as ``value`` lives.

    True for exact primitives, enum members, and exact tuples and frozensets of, or
    frozen dataclasses over, such values all the way down.  A list, set or dict
    anywhere, a mutable dataclass, or a subclass of a builtin container or primitive
    (which could change what :func:`canonicalize` reads) makes it False.
    """
    cls = type(value)
    if cls in _ATOMS or isinstance(value, enum.Enum):
        return True
    if cls is tuple or cls is frozenset:
        return _ATOMS.issuperset(map(type, value)) or all(map(_cannot_change, value))
    if _is_dataclass_value(value) and cls.__dataclass_params__.frozen:
        return all(_cannot_change(getattr(value, name)) for name in _field_names(cls))
    return False


@functools.lru_cache(maxsize=64)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _tuple_repr(item_reprs: List[str]) -> str:
    """``repr`` of a tuple, given the ``repr`` of each item."""
    if len(item_reprs) == 1:
        return f"({item_reprs[0]},)"
    return f"({', '.join(item_reprs)})"


def hardware_fingerprint(wafer, faults, fault_aware: bool) -> str:
    """Content address of the hardware half of an evaluation: wafer + fault state."""
    fault_state: Tuple = ()
    if faults is not None and not faults.is_empty:
        fault_state = (
            tuple(sorted((link, f.quality) for link, f in faults.link_faults.items())),
            tuple(sorted((die, f.throughput) for die, f in faults.die_faults.items())),
        )
    return fingerprint(wafer, fault_state, bool(fault_aware))


def evaluation_fingerprint(wafer, faults, fault_aware: bool, workload, plan) -> str:
    """The cache key of one :meth:`Evaluator.evaluate` call.

    Covers every input the evaluation depends on: the hardware (including the fault
    state and whether the scheduler is fault-aware), the workload and the full plan —
    recompute config, placement, mem-pairs, parallelism, collective, split strategy
    and host offload all flow in through the plan dataclass.
    """
    return combine_fingerprints(
        hardware_fingerprint(wafer, faults, fault_aware),
        fingerprint(workload),
        fingerprint(plan),
    )


def combine_fingerprints(*digests: str) -> str:
    """Merge component content addresses into one key (cheap — no canonicalization)."""
    merged = hashlib.sha256()
    for digest in digests:
        merged.update(digest.encode("ascii"))
        merged.update(b"\x00")
    return merged.hexdigest()


# ---------------------------------------------------------------------- value codec
# Stored values are encoded to a JSON-compatible form that round-trips the evaluator's
# result dataclasses *exactly* (Python's json floats are shortest-round-trip, and the
# module accepts Infinity/NaN), so a warm-started search is bit-identical to a cold one.


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-serialisable form (markers for non-JSON types)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": _type_ref(type(value)), "name": value.name}
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": _type_ref(type(value)),
            "fields": {f.name: encode_value(getattr(value, f.name)) for f in fields(value)},
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(v) for v in value]
        return {"__set__": sorted(encoded, key=repr)}
    if isinstance(value, dict):
        return {"__map__": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    raise TypeError(f"cannot encode {type(value).__name__} for cache persistence")


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`; raises ``ValueError`` on malformed input."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, dict):
        if "__enum__" in encoded:
            cls = _resolve_type(encoded["__enum__"])
            if not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
                raise ValueError(f"{encoded['__enum__']} is not an enum")
            return cls[encoded["name"]]
        if "__dataclass__" in encoded:
            cls = _resolve_type(encoded["__dataclass__"])
            if not is_dataclass(cls):
                raise ValueError(f"{encoded['__dataclass__']} is not a dataclass")
            kwargs = {name: decode_value(v) for name, v in encoded["fields"].items()}
            return cls(**kwargs)
        if "__tuple__" in encoded:
            return tuple(decode_value(v) for v in encoded["__tuple__"])
        if "__list__" in encoded:
            return [decode_value(v) for v in encoded["__list__"]]
        if "__set__" in encoded:
            return frozenset(decode_value(v) for v in encoded["__set__"])
        if "__map__" in encoded:
            return {decode_value(k): decode_value(v) for k, v in encoded["__map__"]}
        raise ValueError(f"unknown cache encoding markers: {sorted(encoded)}")
    raise ValueError(f"cannot decode {type(encoded).__name__}")


def _type_ref(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_type(ref: str) -> type:
    module_name, _, qualname = ref.partition(":")
    if not module_name.startswith("repro") and module_name != "builtins":
        raise ValueError(f"refusing to resolve type outside the repro package: {ref}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


# ---------------------------------------------------------------------- disk stores
class CacheStore:
    """Persists cache entries across processes: an append-only JSONL spill, one
    header line, then one ``{"k": key, "v": encoded value, "t": priced_at}`` row each.

    The store wraps one :class:`repro.recordlog.JsonlLog`, which owns the file
    discipline: a store under another namespace loads empty and is reset, a
    foreign file is preserved at ``<path>.corrupt``, a torn last line is skipped,
    and rewrites are atomic.  Append-only writes keep the warm-start path a single
    sequential read.  Rows that fail to decode are skipped and counted in
    :attr:`load_errors`.
    """

    def __init__(self, path: str, namespace: Optional[str] = None) -> None:
        self.path = str(path)
        self.namespace = namespace or default_namespace()
        #: ``priced_at`` unix timestamp per key, refreshed by :meth:`load`.  Rows
        #: written before timestamps existed report 0.0 (treated as oldest by the
        #: age-based eviction in :meth:`EvaluationCache.compact`).
        self.row_times: Dict[str, float] = {}
        self._log = JsonlLog(
            self.path, {"format": "watos-evalcache-jsonl", "namespace": self.namespace}
        )

    @property
    def load_errors(self) -> int:
        """Rows skipped during the most recent :meth:`load` (corruption / stale classes)."""
        return self._log.errors

    @staticmethod
    def _decode(row: Any) -> Tuple[str, Any, float]:
        return str(row["k"]), decode_value(row["v"]), float(row.get("t", 0.0))

    def load(self) -> Dict[str, Any]:
        """All valid entries, or ``{}`` for a missing/corrupt/foreign-namespace store."""
        entries: Dict[str, Any] = {}
        self.row_times = {}
        for key, value, priced_at in self._log.rows(self._decode):
            # Later duplicates win in *position* too: a re-appended key must rank
            # as newest for compact(max_entries=) eviction.
            entries.pop(key, None)
            entries[key] = value
            self.row_times[key] = priced_at
        return entries

    def append(
        self, entries: Mapping[str, Any], times: Optional[Mapping[str, float]] = None
    ) -> None:
        """Persist new entries (later appends with the same key win on load).

        ``times`` carries per-key ``priced_at`` timestamps; keys without one are
        stamped with the current time.
        """
        self._log.append(self._rows(entries, times))

    def replace_all(
        self, entries: Mapping[str, Any], times: Optional[Mapping[str, float]] = None
    ) -> None:
        """Atomically rewrite the store to exactly ``entries`` (compaction).

        A file that is not a cache store raises
        :class:`~repro.recordlog.StoreError` and stays as it is.
        """
        self._log.rewrite(self._rows(entries, times))

    @staticmethod
    def _rows(entries: Mapping[str, Any], times: Optional[Mapping[str, float]]):
        now = time.time()
        times = times or {}
        for key, value in entries.items():
            priced = times.get(key)
            yield {"k": key, "v": encode_value(value), "t": now if priced is None else priced}

    def close(self) -> None:
        """Nothing to release: every append opens and closes the file."""

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: The same class under its format's name, like ``repro.api.results.JsonlResultStore``.
JsonlCacheStore = CacheStore


def open_store(path: str, namespace: Optional[str] = None) -> CacheStore:
    """The cache store at ``path``; a sqlite path raises :class:`~repro.recordlog.StoreError`."""
    return CacheStore(path, namespace)


def check_eviction_bounds(max_entries: Optional[int], max_age_s: Optional[float]) -> None:
    """Raise ``ValueError`` unless each :meth:`EvaluationCache.compact` bound is in range.

    ``max_age_s`` must be non-negative (a negative age expires every row) and
    ``max_entries`` at least 1 (``None`` means no bound).  Written so that NaN
    fails too: every comparison with NaN is false.
    """
    if max_age_s is not None and not max_age_s >= 0:
        raise ValueError(f"max_age_s must be non-negative, not {max_age_s:g}")
    if max_entries is not None and not max_entries >= 1:
        raise ValueError(f"max_entries must be at least 1, not {max_entries:g}")


class CacheStats:
    """Mutable hit/miss accounting shared by cache users."""

    __slots__ = ("hits", "misses", "evictions", "loaded", "flushed", "shipped")

    #: Counter fields folded by :meth:`add_counts` and shipped in worker carries.
    COUNT_FIELDS = ("hits", "misses", "evictions", "loaded", "flushed", "shipped")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries warm-started from a persistent store.
        self.loaded = 0
        #: Entries written back to the persistent store.
        self.flushed = 0
        #: Entries shipped to pool workers via watermarked incremental export —
        #: the delta-sync replacement for pickling a full snapshot per fan-out.
        self.shipped = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def add_counts(self, counts: Mapping[str, float]) -> None:
        """Fold a worker's exported counters into this one (hit_rate is derived)."""
        for name in self.COUNT_FIELDS:
            setattr(self, name, getattr(self, name) + int(counts.get(name, 0)))

    def as_dict(self) -> Dict[str, float]:
        counts: Dict[str, float] = {name: getattr(self, name) for name in self.COUNT_FIELDS}
        counts["hit_rate"] = self.hit_rate
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, loaded={self.loaded})"
        )


class EvaluationCache:
    """Bounded LRU cache from evaluation fingerprints to evaluation results.

    ``max_entries`` bounds memory for week-long DSE sweeps; 0 or ``None`` means
    unbounded.  The cache stores whatever the evaluator produced (an
    :class:`~repro.core.evaluator.EvaluationResult`), treating it as immutable.

    With ``store`` attached (a :class:`CacheStore` or a path accepted by
    :func:`open_store`), construction warm-starts from disk and :meth:`flush` spills
    every entry priced since the last flush — including entries the LRU has since
    evicted, so disk coverage can exceed the in-memory bound.  Without a store there
    is nothing to spill: an evicted entry is gone.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 65536,
        store: Optional[object] = None,
        namespace: Optional[str] = None,
    ) -> None:
        if max_entries is not None and not max_entries >= 0:  # written so that NaN fails too
            raise ValueError(f"max_entries must be non-negative, not {max_entries:g}")
        self.max_entries = max_entries or None
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        #: Entries priced since the last :meth:`flush` (survives LRU eviction);
        #: kept only while a store is attached to flush them to.
        self._dirty: Dict[str, Any] = {}
        #: Monotonic pricing sequence: every entry adopted via :meth:`put`/:meth:`seed`
        #: gets the next number, so :meth:`export_since` can ship watermark deltas.
        self._seq = 0
        self._entry_seq: Dict[str, int] = {}
        self._log_seqs: List[int] = []
        self._log_keys: List[str] = []
        #: ``priced_at`` unix timestamp per resident/dirty key — flushed to the store
        #: so :meth:`compact` can expire rows by age (``max_age_s``).
        self._priced_at: Dict[str, float] = {}
        #: Guards every structural mutation: the two-level sweep scheduler runs
        #: cells on concurrent threads that all price against (and flush) the one
        #: session cache.  Reentrant because flush/compact/close nest.
        self._lock = threading.RLock()
        self.store: Optional[CacheStore] = (
            open_store(store, namespace) if isinstance(store, (str, os.PathLike)) else store
        )
        if self.store is not None:
            loaded = self.store.load()
            self.seed(loaded)
            # Warm-started entries keep the timestamp of their original pricing,
            # so repeated warm runs never rejuvenate old rows.
            row_times = self.store.row_times
            self._priced_at.update((key, row_times[key]) for key in self._entries)
            self.stats.loaded = len(loaded)

    # ------------------------------------------------------------------ dict protocol
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------ access
    def get(self, key: str) -> Optional[Any]:
        """Return the cached result for ``key``, counting a hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if _obs.enabled:
                    _obs.count("cache.hit")
                return entry
            self.stats.misses += 1
            if _obs.enabled:
                _obs.count("cache.miss")
            return None

    def peek(self, key: str) -> Optional[Any]:
        """Like :meth:`get` but without touching the counters or LRU order."""
        return self._entries.get(key)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.store is not None:
                self._dirty[key] = value
            self._priced_at[key] = time.time()
            self._assign_seq(key)
            self._evict_over_bound()

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used entries beyond ``max_entries`` (caller holds the lock).

        An evicted entry keeps its ``priced_at`` stamp only while it still waits in
        the dirty set for the next :meth:`flush`.
        """
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._entry_seq.pop(evicted, None)
            if evicted not in self._dirty:
                self._priced_at.pop(evicted, None)
            self.stats.evictions += 1

    def get_or_compute(self, key: str, compute) -> Any:
        """Return the cached value for ``key``, computing and storing it on a miss.

        ``compute`` runs *outside* the lock: pricing is pure, so two threads
        racing on the same miss at worst compute the value twice and store the
        same bits — whereas holding the lock through a slow pricing call would
        serialize every concurrent sweep cell.
        """
        entry = self.get(key)
        if entry is not None:
            return entry
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries (the counters survive so long-run stats stay meaningful).

        The pricing sequence is *not* reset: it must stay monotonic so watermarks
        held by long-lived pool workers never see it regress.
        """
        with self._lock:
            self._entries.clear()
            self._dirty.clear()
            self._entry_seq.clear()
            self._log_seqs.clear()
            self._log_keys.clear()
            self._priced_at.clear()

    # ------------------------------------------------------------------ sequence log
    def _assign_seq(self, key: str) -> None:
        self._seq += 1
        self._entry_seq[key] = self._seq
        self._log_seqs.append(self._seq)
        self._log_keys.append(key)
        # Re-priced keys leave dead rows behind; rebuild once they dominate the log.
        if len(self._log_seqs) > 1024 and len(self._log_seqs) > 4 * len(self._entry_seq):
            live = sorted((seq, key) for key, seq in self._entry_seq.items())
            self._log_seqs = [seq for seq, _ in live]
            self._log_keys = [key for _, key in live]

    # ------------------------------------------------------------------ scale-out
    def __getstate__(self):
        """Pickled caches (shipped to pool workers) drop the store.

        Workers must never write the store — deltas flow back through the parent,
        which keeps the one live store.
        """
        state = self.__dict__.copy()
        state["store"] = None
        # Locks are process-local (and unpicklable); the worker recreates one.
        state["_lock"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def seed(self, entries: Mapping[str, Any]) -> int:
        """Adopt warm entries without touching hit/miss counters or the dirty set.

        Used for store warm-starts and for handing a parent cache's contents to a
        worker process.  ``max_entries`` still bounds the in-memory result: when a
        persisted store has outgrown the bound, only the newest entries stay
        resident (the store keeps everything).
        """
        with self._lock:
            adopted = 0
            for key, value in entries.items():
                if key not in self._entries:
                    self._entries[key] = value
                    self._assign_seq(key)
                    adopted += 1
            self._evict_over_bound()
            return adopted

    @property
    def sync_seq(self) -> int:
        """The current pricing sequence number — the watermark of a fresh export."""
        return self._seq

    def export_since(self, watermark: int) -> Tuple[Dict[str, Any], int]:
        """Resident entries adopted after ``watermark`` plus the new watermark.

        This is the parent→worker half of the delta-only sync: a pool tracks one
        watermark per worker and ships ``export_since(previous)`` instead of a full
        snapshot.  Monotonically advancing watermarks partition the
        entry stream — nothing is shipped twice, nothing is missed.  Entries the LRU
        has already evicted are skipped (the store, not the workers, keeps history).
        """
        with _obs.span("cache.sync", tag="export_since"), self._lock:
            if watermark >= self._seq:
                return {}, self._seq
            entries: Dict[str, Any] = {}
            start = bisect.bisect_right(self._log_seqs, watermark)
            for index in range(start, len(self._log_seqs)):
                key = self._log_keys[index]
                # Skip superseded log rows and evicted entries.
                if self._entry_seq.get(key) == self._log_seqs[index] and key in self._entries:
                    entries[key] = self._entries[key]
            return entries, self._seq

    def absorb(self, delta: Mapping[str, Any]) -> int:
        """Merge a worker's delta; new entries count toward the next :meth:`flush`."""
        with self._lock:
            adopted = 0
            for key, value in delta.items():
                if key not in self._entries and key not in self._dirty:
                    self.put(key, value)
                    adopted += 1
            return adopted

    def absorb_carry(self, carry: Mapping[str, Any]) -> None:
        """Fold a worker's carry (``{"delta": entries, "stats": increments}``) in."""
        with self._lock:
            self.absorb(carry["delta"])
            self.stats.add_counts(carry["stats"])

    # ------------------------------------------------------------------ persistence
    def flush(self) -> int:
        """Spill entries priced since the last flush to the attached store."""
        with self._lock:
            if self.store is None or not self._dirty:
                return 0
            with _obs.span("cache.flush", tag=str(len(self._dirty))):
                self.store.append(
                    self._dirty,
                    {k: self._priced_at[k] for k in self._dirty if k in self._priced_at},
                )
            written = len(self._dirty)
            self.stats.flushed += written
            # Timestamps of spilled keys the LRU has already evicted now live in the
            # store; dropping them keeps _priced_at bounded by the resident set on
            # long store-backed sweeps (put() keeps dirty-but-evicted stamps alive
            # only until this flush).
            for key in self._dirty:
                if key not in self._entries:
                    self._priced_at.pop(key, None)
            self._dirty.clear()
            return written

    def compact(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Rewrite the attached store to exactly one row per surviving key.

        JSONL stores grow append-only — a re-priced or re-flushed key adds a row and
        only the *last* one wins on load — so week-long sweeps accumulate dead rows.
        Compaction folds that history through :meth:`CacheStore.replace_all` (later
        duplicates win, same rule as load).  In-memory entries are flushed first so
        freshly priced results are never lost, and they are re-appended last so the
        resident working set counts as newest.

        Two eviction knobs compose (age first, then size):

        * ``max_age_s`` expires rows whose ``priced_at`` timestamp is older than
          ``now - max_age_s`` (``now`` defaults to the current time).  Rows written
          before timestamps existed carry ``priced_at`` 0 and count as infinitely
          old — re-run the sweep once to stamp them.
        * ``max_entries`` keeps only the newest that many entries, oldest first out
          (append order).

        Returns the number of entries the store holds afterwards.  An out-of-range
        bound raises ``ValueError`` (:func:`check_eviction_bounds`) before anything
        is flushed or rewritten.
        """
        check_eviction_bounds(max_entries, max_age_s)
        with self._lock:
            if self.store is None:
                return 0
            self.flush()
            entries = self.store.load()
            times = dict(self.store.row_times)
            for key, value in self._entries.items():
                entries.pop(key, None)  # re-append so resident entries rank newest
                entries[key] = value
                if key in self._priced_at:
                    times[key] = self._priced_at[key]
            if max_age_s is not None:
                cutoff = (time.time() if now is None else now) - max_age_s
                for key in [k for k in entries if times.get(k, 0.0) < cutoff]:
                    del entries[key]
            if max_entries is not None and len(entries) > max_entries:
                for key in list(entries)[: len(entries) - max_entries]:
                    del entries[key]
            self.store.replace_all(entries, {k: times[k] for k in entries if k in times})
            return len(entries)

    def close(self) -> None:
        """Flush and release the attached store (no-op without one)."""
        if self.store is not None:
            self.flush()
            self.store.close()

    def __enter__(self) -> "EvaluationCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ reporting
    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate
