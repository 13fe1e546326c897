"""Declarative sweep grammar over :class:`~repro.api.ExperimentSpec` matrices.

The paper's headline results are matrices, not single runs — the wafer×workload
product of Alg. 1, the die-granularity sweep of Fig. 25, the multi-wafer GA of
Fig. 24 — and :class:`SweepSpec` is the grammar that describes one compactly:

* ``base`` — the :class:`ExperimentSpec` defaults every cell starts from;
* ``grid`` — cartesian-product axes, ``{knob path: [values…]}``;
* ``zip`` — locked-step axes that vary together (all lists the same length);
* ``seeds`` — fan every cell into N decorrelated RNG streams via the existing
  :meth:`GAConfig.stream(i) <repro.core.genetic.GAConfig.stream>` convention.

Knob paths are dotted: plain spec fields (``wafer``, ``population``) or the grouped
aliases ``ga.population``, ``scheduler.max_tp``, ``dse.areas_mm2`` …; paths may also
reach into mapping-valued fields (``workload.global_batch_size``).  A mistyped path
fails at construction with a did-you-mean suggestion, never a bare ``KeyError``.

:meth:`SweepSpec.expand` is deterministic: grid axes in declaration order (rightmost
fastest), then the zipped row, then the seed index, each cell an ordered
``(cell_id, ExperimentSpec)`` pair.  The ``cell_id`` is a stable content-derived key
(a fingerprint of the expanded spec, minus its display name), which is what makes
``Session.sweep(..., results=...)`` resumable: a restarted sweep skips every cell
whose id is already in the result store, and relabeling or reordering the matrix
never invalidates completed work.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.evalcache import fingerprint
from repro.core.genetic import GAConfig
from repro.api.spec import ExperimentSpec, did_you_mean

__all__ = ["SweepCell", "SweepSpec", "stream_seed"]

#: Dotted knob groups: ``ga.population`` etc. alias the flat ExperimentSpec fields.
KNOB_GROUPS: Dict[str, Tuple[str, ...]] = {
    "ga": (
        "population",
        "generations",
        "omega",
        "mutation_rate",
        "crossover_rate",
        "seed",
        "use_ga",
    ),
    "scheduler": ("max_tp", "split_strategies", "collective"),
    "dse": ("areas_mm2", "aspect_ratios"),
}


#: Sub-keys a nested knob path may set inside mapping-valued spec fields.  The
#: resolvers silently drop unknown mapping keys, so an unvalidated sub-path typo
#: would configure nothing — exactly the failure mode knob paths exist to prevent.
NESTED_KNOBS: Dict[str, Tuple[str, ...]] = {
    "workload": ("model", "global_batch_size", "micro_batch_size", "sequence_length"),
}


def _spec_fields() -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(ExperimentSpec))


def _knob_vocabulary() -> List[str]:
    """Every path a grid/zip axis may name (for did-you-mean suggestions)."""
    paths = [name for name in _spec_fields() if name != "extras"]
    for group, knobs in KNOB_GROUPS.items():
        paths.extend(f"{group}.{knob}" for knob in knobs)
    for fieldname, subkeys in NESTED_KNOBS.items():
        paths.extend(f"{fieldname}.{key}" for key in subkeys)
    return paths


def resolve_knob(path: str) -> Tuple[str, Tuple[str, ...]]:
    """A dotted knob path → ``(spec field, nested sub-path)``.

    ``ga.population`` → ``("population", ())``; ``workload.model`` →
    ``("workload", ("model",))``.  Unknown paths raise a ``ValueError`` naming the
    offending path and the closest real knob.
    """
    head, _, rest = str(path).partition(".")
    fields = _spec_fields()
    if head in KNOB_GROUPS:
        if not rest:
            knobs = ", ".join(f"{head}.{k}" for k in KNOB_GROUPS[head])
            raise ValueError(f"{path}: names a knob group, not a knob; pick one of {knobs}")
        if rest not in KNOB_GROUPS[head]:
            return _unknown_knob(path)
        return rest, ()
    if head in fields and head != "extras":
        if not rest:
            return head, ()
        subpath = tuple(rest.split("."))
        known = NESTED_KNOBS.get(head)
        if known is not None:
            if subpath[0] not in known:
                return _unknown_knob(path)
            if len(subpath) > 1:
                # The known sub-keys are scalar; descending further would clobber
                # one with a dict and blow up deep inside workload resolution.
                raise ValueError(
                    f"{path}: {head}.{subpath[0]} is a scalar knob; "
                    "it has no sub-keys"
                )
        return head, subpath
    return _unknown_knob(path)


def _unknown_knob(path: str) -> Tuple[str, Tuple[str, ...]]:
    hint = did_you_mean(str(path), _knob_vocabulary())
    suggestion = f"; did you mean {hint}?" if hint else ""
    raise ValueError(
        f"{path}: unknown knob{suggestion} (knobs are ExperimentSpec fields or "
        "the ga./scheduler./dse. aliases)"
    )


def apply_knob(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``path`` to ``value`` in a spec-shaped dict (nested mapping paths copy)."""
    fieldname, subpath = resolve_knob(path)
    if not subpath:
        data[fieldname] = value
        return
    node = data.get(fieldname)
    if node is None:
        node = {}
    if not isinstance(node, Mapping):
        raise ValueError(
            f"{path}: cannot descend into {fieldname!r} "
            f"(it holds {type(node).__name__}, not a mapping)"
        )
    root = dict(node)
    data[fieldname] = root
    for part in subpath[:-1]:
        child = root.get(part)
        if child is not None and not isinstance(child, Mapping):
            raise ValueError(
                f"{path}: cannot descend through {part!r} "
                f"(it holds {type(child).__name__}, not a mapping)"
            )
        child = dict(child) if isinstance(child, Mapping) else {}
        root[part] = child
        root = child
    root[subpath[-1]] = value


def stream_seed(base_seed: int, index: int) -> int:
    """The per-cell RNG seed of fan index ``index`` (the ``GAConfig.stream`` convention).

    Stream 0 is the base seed itself, so ``seeds=1`` is a no-op and a seed fan's
    first cell is bit-identical to the unfanned sweep.
    """
    return GAConfig(seed=int(base_seed)).stream(index).seed


def _value_label(value: Any) -> str:
    """A compact human label for one axis value (used in synthesized cell names)."""
    if isinstance(value, Mapping):
        value = value.get("model", "…")
    name = getattr(value, "name", None)
    if name is None:
        model = getattr(value, "model", None)
        name = getattr(model, "name", None)
    if name is not None and not isinstance(value, (str, int, float, bool)):
        return str(name)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_value_label(v) for v in value) + "]"
    return str(value)


class SweepCell(NamedTuple):
    """One expanded cell: a stable content-derived id and the spec it runs."""

    cell_id: str
    spec: ExperimentSpec


def cell_key(spec: ExperimentSpec) -> str:
    """The stable content-derived id of one cell.

    A fingerprint of the expanded spec *minus its display name* — renaming or
    reordering a matrix never changes what a cell is, so completed cells in a
    result store stay valid across cosmetic edits.  Fields are fingerprinted at
    full value (``canonicalize`` descends into wafer/workload config objects), not
    through the lossy name reduction of ``to_dict`` — two distinct configs that
    happen to share a display name must never collide on one cell id, or a
    resumed sweep would serve one config's stored rows as the other's results.
    Fields still at their defaults are dropped, so adding a spec knob later never
    invalidates existing stores.
    """
    data: Dict[str, Any] = {}
    for spec_field in dataclasses.fields(spec):
        if spec_field.name == "name":
            continue
        value = getattr(spec, spec_field.name)
        if spec_field.default is not dataclasses.MISSING and value == spec_field.default:
            continue
        if spec_field.default is dataclasses.MISSING and not value:
            continue  # default_factory fields (extras): empty means default
        data[spec_field.name] = value
    return fingerprint(data)[:16]


@dataclass
class SweepSpec:
    """A compact description of an experiment matrix (see module docstring).

    ``specs`` is the escape hatch for matrices that are already an explicit list of
    :class:`ExperimentSpec` cells (what ``Session.sweep([...])`` wraps a list in);
    it cannot be combined with the grammar axes.
    """

    base: Union[Dict[str, Any], ExperimentSpec] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    zip: Dict[str, Sequence[Any]] = field(default_factory=dict)
    seeds: int = 1
    name: str = ""
    specs: Optional[List[Union[Dict[str, Any], ExperimentSpec]]] = None

    #: The keys :meth:`from_dict` accepts (everything else is a typo).
    FIELDS = ("base", "grid", "zip", "seeds", "name", "specs")

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")
        if self.specs is not None and (self.grid or self.zip or self.seeds != 1 or self.base):
            raise ValueError(
                "specs= is an explicit cell list; it cannot be combined with "
                "base/grid/zip/seeds"
            )
        for axis, paths in (("grid", self.grid), ("zip", self.zip)):
            for path, values in paths.items():
                resolve_knob(path)  # fail at construction, naming the path
                if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                    raise ValueError(f"{path}: {axis} values must be a list, not {values!r}")
                if not values:
                    raise ValueError(f"{path}: {axis} axis is empty")
        if self.zip:
            lengths = {path: len(values) for path, values in self.zip.items()}
            if len(set(lengths.values())) > 1:
                detail = ", ".join(f"{p}={n}" for p, n in lengths.items())
                raise ValueError(f"zip axes must be the same length ({detail})")

    # ------------------------------------------------------------------ expansion
    def expand(self) -> List[SweepCell]:
        """The ordered ``(cell_id, ExperimentSpec)`` cells of this matrix.

        Deterministic: grid axes in declaration order with the rightmost varying
        fastest (``itertools.product``), then the zipped row, then the seed index.
        Duplicate *grammar* cells (identical expanded content) are an error — they
        would silently collapse to one row in a result store; repeats in an
        explicit ``specs`` list instead get a deterministic ``-N`` id suffix.
        """
        if self.specs is not None:
            # Explicit lists are user-authored, so repeated content is allowed;
            # repeats get a deterministic position suffix instead of an error.
            cells: List[SweepCell] = []
            occurrences: Dict[str, int] = {}
            for item in self.specs:
                spec = self._as_spec(item)
                key = cell_key(spec)
                occurrences[key] = occurrences.get(key, 0) + 1
                if occurrences[key] > 1:
                    key = f"{key}-{occurrences[key]}"
                cells.append(SweepCell(key, spec))
            return cells
        base = self.base.to_dict() if isinstance(self.base, ExperimentSpec) else dict(self.base)
        grid_paths = list(self.grid)
        zip_paths = list(self.zip)
        zip_rows: List[Tuple[Any, ...]] = (
            [tuple(row) for row in zip(*(self.zip[p] for p in zip_paths))] if zip_paths else [()]
        )
        cells = []
        for combo in itertools.product(*(self.grid[p] for p in grid_paths)):
            for zip_row in zip_rows:
                assignments = list(zip(grid_paths, combo)) + list(zip(zip_paths, zip_row))
                for index in range(self.seeds):
                    data = copy.deepcopy(base)
                    labels = []
                    for path, value in assignments:
                        apply_knob(data, path, copy.deepcopy(value))
                        labels.append(f"{path}={_value_label(value)}")
                    if self.seeds > 1:
                        data["seed"] = stream_seed(data.get("seed", 0), index)
                        labels.append(f"seed[{index}]")
                    bits = [str(data.get("name") or self.name or "")] + labels
                    name = " ".join(bit for bit in bits if bit)
                    if name:
                        data["name"] = name
                    cells.append(self._cell(ExperimentSpec.from_dict(data)))
        return self._checked(cells)

    def __len__(self) -> int:
        if self.specs is not None:
            return len(self.specs)
        cells = 1
        for values in self.grid.values():
            cells *= len(values)
        if self.zip:
            cells *= len(next(iter(self.zip.values())))
        return cells * self.seeds

    @staticmethod
    def _as_spec(item: Union[Dict[str, Any], ExperimentSpec]) -> ExperimentSpec:
        return item if isinstance(item, ExperimentSpec) else ExperimentSpec.from_dict(dict(item))

    @staticmethod
    def _cell(spec: ExperimentSpec) -> SweepCell:
        return SweepCell(cell_key(spec), spec)

    @staticmethod
    def _checked(cells: List[SweepCell]) -> List[SweepCell]:
        seen: Dict[str, str] = {}
        for cell in cells:
            if cell.cell_id in seen:
                raise ValueError(
                    f"duplicate cell {cell.cell_id} "
                    f"({cell.spec.name or cell.spec.kind!r} repeats "
                    f"{seen[cell.cell_id] or cell.spec.kind!r}); every cell must be unique"
                )
            seen[cell.cell_id] = cell.spec.name
        return cells

    # ------------------------------------------------------------------ codecs
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a sweep from a plain dict; unknown keys error with a suggestion."""
        if "jobs" in data:
            raise ValueError(
                "jobs: a sweep does not set its own cell concurrency; pass jobs= to "
                "Session.sweep or --jobs to repro sweep"
            )
        for key in data:
            if key not in cls.FIELDS:
                hint = did_you_mean(str(key), cls.FIELDS)
                suggestion = f"; did you mean {hint}?" if hint else ""
                raise ValueError(
                    f"{key}: unknown SweepSpec field{suggestion} "
                    f"(fields: {', '.join(cls.FIELDS)})"
                )
        kwargs = dict(data)
        if "grid" in kwargs:
            kwargs["grid"] = dict(kwargs["grid"])
        if "zip" in kwargs:
            kwargs["zip"] = dict(kwargs["zip"])
        return cls(**kwargs)

    @classmethod
    def from_specs(
        cls, specs: Sequence[Union[Dict[str, Any], ExperimentSpec]], name: str = ""
    ) -> "SweepSpec":
        """Wrap an explicit spec list as a trivial (pre-expanded) sweep."""
        return cls(name=name, specs=list(specs))

    @classmethod
    def from_payload(cls, payload: Any) -> "SweepSpec":
        """Normalise any spec-file payload to a sweep.

        A JSON array is an explicit cell list (the pre-grammar ``repro sweep``
        format); an object with any grammar key is a :class:`SweepSpec`; any other
        object is a single :class:`ExperimentSpec` cell.  A top-level ``"jobs"``
        key is an error in either shape (see :meth:`from_dict`).
        """
        if isinstance(payload, SweepSpec):
            return payload
        if isinstance(payload, ExperimentSpec):
            return cls.from_specs([payload])
        if isinstance(payload, (list, tuple)):
            return cls.from_specs(list(payload))
        if isinstance(payload, Mapping):
            if "jobs" in payload or any(key in payload for key in cls.FIELDS if key != "name"):
                return cls.from_dict(payload)
            return cls.from_specs([ExperimentSpec.from_dict(dict(payload))])
        raise TypeError(
            f"cannot build a SweepSpec from {type(payload).__name__}; pass a SweepSpec, "
            "a dict, an ExperimentSpec or a list of specs"
        )

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "SweepSpec":
        """Load a sweep (or a plain spec array / single spec) from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_payload(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict (inverse of :meth:`from_dict`)."""
        data: Dict[str, Any] = {}
        if self.specs is not None:
            data["specs"] = [self._as_spec(item).to_dict() for item in self.specs]
        else:
            base = self.base.to_dict() if isinstance(self.base, ExperimentSpec) else dict(self.base)
            if base:
                data["base"] = base
            if self.grid:
                data["grid"] = {path: list(values) for path, values in self.grid.items()}
            if self.zip:
                data["zip"] = {path: list(values) for path, values in self.zip.items()}
            if self.seeds != 1:
                data["seeds"] = self.seeds
        if self.name:
            data["name"] = self.name
        return data
