"""Content-addressed evaluation cache for the plan-search hot path.

Every search loop in the reproduction — the GA (§IV-D), the central scheduler's
(TP, PP, strategy, collective) co-exploration and the die-granularity hardware DSE
(Fig. 25) — funnels through :meth:`Evaluator.evaluate`.  Those loops revisit identical
candidates constantly: GA elites survive unchanged between generations, crossover
produces exact clones of parents, and scheduler probes re-price the same (TP, PP) split
under several collectives that collapse to the same plan.

:class:`EvaluationCache` memoizes evaluation results under everything that
determines the outcome:

* the wafer configuration (die geometry, DRAM, link bandwidths, fault state);
* the workload (model shape, batching, sequence length);
* the training plan (parallelism degrees, TP shape, collective, split strategy,
  recomputation config, stage placement, Mem_pairs, host offload).

In memory the key is the evaluation's value: ``(hardware digest, workload digest,
plan)``, the plan compared by ``==`` and ``hash`` (a plan hashes once per object).
Keys are structural, not identity-based: two plans built independently but
describing the same strategy share one cache entry.  Plans equal under ``==``
share one entry even where their digests differ, which happens only for equal
numbers written as different types (``1``, ``1.0``, ``True``); the GA's fitness
memo, the footprint memo and the PP engine's route memo key on the same
equality.  A plan that does not hash (a placement or recompute config built on
lists) is looked up under its digest, so a change in place is priced under the
plan's new contents.  The cache keeps everything its owner priced or loaded
(pricing is pure, and a paper-scale run makes a few hundred distinct pricings)
and exposes hit/miss counters so benchmarks can track search efficiency.

**Persistence.**  A cache can be attached to a JSONL :class:`CacheStore` (see
:func:`open_store`) so repeated DSE sweeps across *processes* start warm:
entries loaded from disk are reported in :attr:`CacheStats.loaded`, new results are
spilled with :meth:`EvaluationCache.flush`, and stores carry a versioned fingerprint
namespace — bumping :data:`CACHE_SCHEMA_VERSION` (or evaluating with a different
fingerprint vocabulary) invalidates stale stores instead of serving wrong results.
Store rows are content-addressed: each is keyed by the sha256
:func:`evaluation_fingerprint` of its evaluation, so typed-differently numbers
keep their own rows.  Only the store boundary computes these digests: a flush
digests each entry it writes, and a lookup that misses while loaded rows are
still unclaimed digests its key to find one.  A cache without a store computes
no plan digest at all.
The file discipline — namespace check, ``<path>.corrupt`` preservation, torn-tail
recovery, atomic rewrites — is :mod:`repro.recordlog`'s, shared with the result
store; this module keeps only the row layout and value codec.

**Scale-out.**  A pool worker reads the parent's cache as it was when the worker
forked, and the parent folds each chunk's freshly priced entries back in
(:meth:`absorb_carry`), so one shared store serves a whole multi-wafer or
wafer×workload fan-out (see :mod:`repro.core.parallel_map`).
"""

from __future__ import annotations

import enum
import functools
import hashlib
import importlib
import os
import pickle
import threading
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs import tracer as _obs
from repro.recordlog import JsonlLog

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EvaluationCache",
    "CacheKey",
    "CacheStats",
    "CacheStore",
    "CanonicalTexts",
    "canonicalize",
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
    changed; sha256 is fed exactly the bytes :func:`fingerprint` feeds it.  It
    digests the workloads cache keys carry and the plans of store row keys; the
    in-memory cache compares plans by value and never asks it for one.

    Two memos serve a lookup, and a digest never depends on what was looked up
    before:

    * **By identity**, for values that cannot change in place: exact primitives,
      enum members, and exact tuples and frozensets of, or frozen dataclasses
      over, such values all the way down (:func:`_cannot_change`).  A field value's
      text, and a whole value's digest, are kept under ``id(value)`` together with
      the value itself, so the id cannot be reused while the entry lives.  A GA
      child keeps most of its parent's component objects, so most of its digest
      is found here; a whole value's digest is kept only when asked (``hold``).
    * **By pickle**, for every other dataclass field value, and for fixed ones the
      identity memo has not seen.  Equal pickles load as values of the same types
      and contents, so they canonicalise to the same text and are equally fixed;
      values that compare equal but are typed differently (``1``, ``1.0``,
      ``True``) pickle differently and get their own entries.  A plan or
      placement pickles the same whether or not it was hashed.  A value that can
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
    header line, then one ``{"k": key, "v": encoded value}`` row each.

    The store wraps one :class:`repro.recordlog.JsonlLog`, which owns the file
    discipline: a store under another namespace loads empty and is reset, a
    foreign file is preserved at ``<path>.corrupt``, a torn last line is skipped,
    and rewrites are atomic.  Append-only writes keep the warm-start path a single
    sequential read.  Rows that fail to decode are skipped and counted in
    :attr:`load_errors`.  Earlier builds also wrote a ``"t"`` timestamp per row;
    it is ignored, so their stores load unchanged.
    """

    def __init__(self, path: str, namespace: Optional[str] = None) -> None:
        self.path = str(path)
        self.namespace = namespace or default_namespace()
        self._log = JsonlLog(
            self.path, {"format": "watos-evalcache-jsonl", "namespace": self.namespace}
        )

    @property
    def load_errors(self) -> int:
        """Rows skipped during the most recent :meth:`load` (corruption / stale classes)."""
        return self._log.errors

    def refuse_foreign(self, action: str) -> None:
        """Raise :class:`~repro.recordlog.StoreError`, one line naming what the file
        is, when the file at the path is not a cache store."""
        self._log.refuse_foreign(action)

    @staticmethod
    def _decode(row: Any) -> Tuple[str, Any]:
        return str(row["k"]), decode_value(row["v"])

    def load(self) -> Dict[str, Any]:
        """All valid entries, or ``{}`` for a missing/corrupt/foreign-namespace store."""
        entries: Dict[str, Any] = {}
        for key, value in self._log.rows(self._decode):
            # Later duplicates win in *position* too, as in the result store, so a
            # compaction keeps the rows in the order they were last written.
            entries.pop(key, None)
            entries[key] = value
        return entries

    def physical_rows(self) -> int:
        """Rows on disk, duplicates included (what :meth:`EvaluationCache.compact` folds)."""
        return self._log.count()

    def append(self, entries: Mapping[str, Any]) -> None:
        """Persist new entries (later appends with the same key win on load)."""
        self._log.append(self._rows(entries))

    def replace_all(self, entries: Mapping[str, Any]) -> None:
        """Atomically rewrite the store to exactly ``entries`` (compaction).

        A file that is not a cache store raises
        :class:`~repro.recordlog.StoreError` and stays as it is.
        """
        self._log.rewrite(self._rows(entries))

    @staticmethod
    def _rows(entries: Mapping[str, Any]):
        for key, value in entries.items():
            yield {"k": key, "v": encode_value(value)}

    def close(self) -> None:
        """Nothing to release: every append opens and closes the file."""

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def open_store(path: str, namespace: Optional[str] = None) -> CacheStore:
    """The cache store at ``path``; a sqlite path raises :class:`~repro.recordlog.StoreError`."""
    return CacheStore(path, namespace)


class CacheStats:
    """Mutable hit/miss accounting shared by cache users."""

    __slots__ = ("hits", "misses", "loaded", "flushed", "shipped")

    #: Counter fields folded by :meth:`add_counts` and shipped in worker carries.
    COUNT_FIELDS = ("hits", "misses", "loaded", "flushed", "shipped")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        #: Entries warm-started from a persistent store.
        self.loaded = 0
        #: Entries written back to the persistent store.
        self.flushed = 0
        #: Entries pool chunks carried back to this cache (:meth:`EvaluationCache.absorb_carry`),
        #: counted whether or not the cache adopted them.
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
        return f"CacheStats(hits={self.hits}, misses={self.misses}, loaded={self.loaded})"


#: An :class:`EvaluationCache` key: a value key ``(hardware digest, workload digest,
#: plan)``, or a string that is its own row key.
CacheKey = Union[str, Tuple[str, str, Any]]


class EvaluationCache:
    """Cache from evaluations to their results.

    A key is a value key ``(hardware digest, workload digest, plan)``, the plan
    compared by ``==`` and ``hash`` (what :meth:`Evaluator.evaluate` looks up), or
    a string, which is its own row key (a plan that does not hash is looked up
    under its digest).  The cache keeps every entry its owner priced or loaded; it
    stores whatever the evaluator produced (an
    :class:`~repro.core.evaluator.EvaluationResult`), treating it as immutable.

    With ``store`` attached (a :class:`CacheStore` or a path accepted by
    :func:`open_store`), construction warm-starts from disk and :meth:`flush` spills
    every entry priced since the last flush.  Rows are keyed by sha256 digests,
    which only this boundary computes: :meth:`flush` digests each entry it writes,
    and a value key that misses while loaded rows are still unclaimed is looked up
    under its digest (:meth:`_row_key`).  :meth:`get` then re-keys the row under
    the value key; :meth:`peek` reads it in place.
    """

    def __init__(self, store: Optional[object] = None, namespace: Optional[str] = None) -> None:
        self.stats = CacheStats()
        #: Entries by key; rows loaded from the store sit under their row keys
        #: until a value key claims them.
        self._entries: Dict[CacheKey, Any] = {}
        #: Entries priced since the last :meth:`flush`; kept only while a store is
        #: attached to flush them to.
        self._dirty: Dict[CacheKey, Any] = {}
        #: Loaded rows no value key has claimed yet; while any remain, a value key
        #: that misses is looked up under its row key.
        self._unclaimed = 0
        #: Plan digests for row keys, with their components' texts memoised.
        self._texts = CanonicalTexts()
        #: Guards every structural mutation: the two-level sweep scheduler runs
        #: cells on concurrent threads that all price against (and flush) the one
        #: session cache.  Reentrant because flush/compact/close nest.
        self._lock = threading.RLock()
        self.store: Optional[CacheStore] = (
            open_store(store, namespace) if isinstance(store, (str, os.PathLike)) else store
        )
        if self.store is not None:
            self._entries = self.store.load()
            self.stats.loaded = self._unclaimed = len(self._entries)

    def _row_key(self, key: CacheKey) -> str:
        """The store row key of ``key``: a string is its own, and a value key's is
        :func:`evaluation_fingerprint` of the evaluation it names."""
        if isinstance(key, str):
            return key
        hardware, workload, plan = key
        return combine_fingerprints(hardware, workload, self._texts.fingerprint(plan))

    # ------------------------------------------------------------------ dict protocol
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return self.peek(key) is not None

    # ------------------------------------------------------------------ access
    def get(self, key: CacheKey) -> Optional[Any]:
        """Return the cached result for ``key``, counting a hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None and self._unclaimed and not isinstance(key, str):
                entry = self._entries.pop(self._row_key(key), None)
                if entry is not None:  # claim the loaded row
                    self._entries[key] = entry
                    self._unclaimed -= 1
            if entry is not None:
                self.stats.hits += 1
                if _obs.enabled:
                    _obs.count("cache.hit")
                return entry
            self.stats.misses += 1
            if _obs.enabled:
                _obs.count("cache.miss")
            return None

    def peek(self, key: CacheKey) -> Optional[Any]:
        """Like :meth:`get` but without touching the counters, and lock-free: a
        loaded row is read under its row key and stays there."""
        entry = self._entries.get(key)
        if entry is None and self._unclaimed and not isinstance(key, str):
            entry = self._entries.get(self._row_key(key))
        return entry

    def put(self, key: CacheKey, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            if self.store is not None:
                self._dirty[key] = value

    # ------------------------------------------------------------------ scale-out
    def __getstate__(self):
        """A pickled cache drops its store.

        Where the ``fork`` start method is unavailable, a pool worker gets the
        cache it reads this way.  Workers must never write the store: what they
        price flows back through the parent, which keeps the one live store.
        """
        state = self.__dict__.copy()
        state["store"] = None
        # Locks are process-local (and unpicklable), and the text memos are keyed
        # by object ids; the worker recreates both.
        state["_lock"] = state["_texts"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._texts = CanonicalTexts()

    def absorb_carry(self, carry: Mapping[str, Any]) -> int:
        """Fold a pool chunk's carry (``{"delta": entries, "stats": increments}``) in.

        Every carried entry counts in :attr:`CacheStats.shipped`; those the cache
        does not hold are adopted (and flushed next).  Returns how many were adopted.
        """
        delta = carry["delta"]
        with self._lock:
            adopted = 0
            for key, value in delta.items():
                if key not in self:
                    self.put(key, value)
                    adopted += 1
            self.stats.add_counts(carry["stats"])
            self.stats.shipped += len(delta)
            return adopted

    # ------------------------------------------------------------------ persistence
    def flush(self) -> int:
        """Spill entries priced since the last flush to the attached store."""
        with self._lock:
            if self.store is None or not self._dirty:
                return 0
            with _obs.span("cache.flush", tag=str(len(self._dirty))):
                rows = {self._row_key(key): value for key, value in self._dirty.items()}
                self.store.append(rows)
            written = len(rows)
            self.stats.flushed += written
            self._dirty.clear()
            return written

    def compact(self) -> int:
        """Rewrite the attached store to exactly one row per key.

        JSONL stores grow append-only — a re-priced or re-flushed key adds a row and
        only the *last* one wins on load — so long sweeps accumulate dead rows.
        Compaction flushes first, so freshly priced results are never lost, then
        folds that history through :meth:`CacheStore.replace_all` (later duplicates
        win, same rule as load).  Returns the number of entries the store holds
        afterwards.
        """
        with self._lock:
            if self.store is None:
                return 0
            self.flush()
            entries = self.store.load()
            self.store.replace_all(entries)
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
