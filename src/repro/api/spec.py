"""Declarative experiment descriptions (:class:`ExperimentSpec`).

A spec says *what* to run — the search kind, the workload, the wafer(s) and the
search hyper-parameters — and nothing about *how*: pools, caches and stores belong to
the :class:`~repro.api.Session` executing it.  Specs are plain dataclasses, loadable
from a dict or a JSON file, so the same experiment can be launched from Python, from
``python -m repro run``, or committed to a repo as a reviewable artifact.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.genetic import GAConfig
from repro.hardware.template import WaferConfig
from repro.interconnect.collectives import CollectiveAlgorithm
from repro.parallelism.partition import TPSplitStrategy
from repro.workloads.workload import TrainingWorkload

__all__ = ["ExperimentSpec", "KINDS", "did_you_mean"]

#: The four search loops a spec can name.
KINDS = ("scheduler", "ga", "dse", "watos")


def did_you_mean(name: str, candidates: Iterable[str]) -> Optional[str]:
    """The closest real name to a probable typo, or ``None`` when nothing is close.

    Shared by every layer that resolves user-supplied names — spec fields, sweep
    knob paths, registry wafer/workload names — so a mistyped key fails with
    ``populatoin: unknown …; did you mean population?`` instead of a bare
    ``KeyError``.
    """
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one search run, minus the runtime plumbing.

    ``kind`` selects the loop: ``"scheduler"`` (central scheduler §IV-A), ``"ga"``
    (scheduler seed + genetic refinement §IV-D), ``"dse"`` (die-granularity hardware
    DSE Fig. 25) or ``"watos"`` (the full wafer × workload co-exploration, Fig. 9).
    Wafers and workloads are references resolved through
    :mod:`repro.api.registry` — registered names, model-zoo names, mappings or
    ready config objects.
    """

    kind: str = "scheduler"
    #: Workload reference (name / mapping / TrainingWorkload).  ``watos`` accepts a
    #: list in :attr:`workloads` instead; a bare :attr:`workload` also works.
    workload: Union[str, Dict, TrainingWorkload, None] = None
    workloads: Optional[List[Union[str, Dict, TrainingWorkload]]] = None
    #: Wafer reference (name / WaferConfig).  ``watos`` accepts a list in
    #: :attr:`wafers`; ``dse`` builds its own wafers and ignores both.
    wafer: Union[str, WaferConfig, None] = None
    wafers: Optional[List[Union[str, WaferConfig]]] = None

    # ------------------------------------------------------------ scheduler knobs
    max_tp: int = 0
    split_strategies: Optional[Sequence[Union[str, TPSplitStrategy]]] = None
    collective: Union[str, CollectiveAlgorithm, None] = None

    # ------------------------------------------------------------ GA knobs
    population: int = 16
    generations: int = 30
    omega: float = 0.5
    mutation_rate: float = 0.7
    crossover_rate: float = 0.5
    seed: int = 0
    #: Whether the ``watos`` kind refines scheduler plans with the GA.
    use_ga: bool = True

    # ------------------------------------------------------------ DSE knobs
    areas_mm2: Sequence[float] = (200.0, 300.0, 400.0, 500.0, 600.0)
    aspect_ratios: Sequence[float] = (1.0, 1.6)

    # ------------------------------------------------------------ runtime hints
    #: Worker count to use when the executing session has no pool of its own
    #: (ephemeral; a session pool always wins).
    workers: Optional[int] = None
    #: Free-form label carried into :class:`RunResult` and reports.
    name: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, not {self.kind!r}")

    # ------------------------------------------------------------------ accessors
    def ga_config(self) -> GAConfig:
        return GAConfig(
            population_size=self.population,
            generations=self.generations,
            omega=self.omega,
            mutation_rate=self.mutation_rate,
            crossover_rate=self.crossover_rate,
            seed=self.seed,
        )

    def workload_refs(self) -> List[Union[str, Dict, TrainingWorkload]]:
        """The workload references this spec names (``workloads`` wins over ``workload``)."""
        if self.workloads:
            return list(self.workloads)
        if self.workload is not None:
            return [self.workload]
        raise ValueError(f"spec {self.name or self.kind!r} names no workload")

    def wafer_refs(self) -> List[Union[str, WaferConfig]]:
        if self.wafers:
            return list(self.wafers)
        if self.wafer is not None:
            return [self.wafer]
        raise ValueError(f"spec {self.name or self.kind!r} names no wafer")

    def resolved_collective(self) -> Optional[CollectiveAlgorithm]:
        if self.collective is None or isinstance(self.collective, CollectiveAlgorithm):
            return self.collective
        return CollectiveAlgorithm[str(self.collective).upper()]

    def resolved_split_strategies(self) -> Optional[Sequence[TPSplitStrategy]]:
        if self.split_strategies is None:
            return None
        return tuple(
            s if isinstance(s, TPSplitStrategy) else TPSplitStrategy[str(s).upper()]
            for s in self.split_strategies
        )

    # ------------------------------------------------------------------ codecs
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a plain dict.

        Unknown keys land in :attr:`extras` — *except* when one is a near-miss of a
        real field (``populatoin``), which is almost certainly a typo that would
        otherwise silently configure nothing; those raise a ``ValueError`` naming
        the key and the suggested spelling.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                hint = did_you_mean(key, known - {"extras"})
                if hint is not None:
                    raise ValueError(
                        f"{key}: unknown spec field; did you mean {hint}? "
                        "(genuinely custom keys belong under 'extras')"
                    )
        kwargs = {k: v for k, v in data.items() if k in known}
        extras = {k: v for k, v in data.items() if k not in known}
        if extras:
            kwargs.setdefault("extras", {}).update(extras)
        return cls(**kwargs)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> List["ExperimentSpec"]:
        """Load one spec (JSON object) or several (JSON array) from a file."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, list):
            return [cls.from_dict(item) for item in data]
        return [cls.from_dict(data)]

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict (object references are reduced to their names)."""

        def ref(value: Any) -> Any:
            if isinstance(value, WaferConfig):
                return value.name
            if isinstance(value, TrainingWorkload):
                return {
                    "model": value.model.name,
                    "global_batch_size": value.global_batch_size,
                    "micro_batch_size": value.micro_batch_size,
                    "sequence_length": value.seq_len,
                }
            if isinstance(value, (CollectiveAlgorithm, TPSplitStrategy)):
                return value.name.lower()
            return value

        data: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            if f.name == "extras":
                continue
            value = getattr(self, f.name)
            if value is None or value == f.default:
                continue
            if isinstance(value, (list, tuple)):
                data[f.name] = [ref(v) for v in value]
            elif isinstance(value, dict) and f.name != "extras":
                data[f.name] = value
            else:
                data[f.name] = ref(value)
        if self.extras:
            data.update(self.extras)
        data["kind"] = self.kind
        return data
