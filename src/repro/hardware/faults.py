"""Fault injection model for the robustness study (paper §VI-D, Fig. 22).

Two fault classes are modelled:

* **link faults** — a mesh link between two adjacent dies either degrades (its usable
  bandwidth drops to a fraction of nominal) or fails completely.
* **die faults** — a die either degrades (its cores run at a fraction of nominal
  throughput) or fails completely, in which case the die and all of its links are
  excluded from workload allocation.

The model is deterministic given a seed so that experiments are reproducible:
:meth:`FaultModel.random` draws one static fault population, the shape the Fig. 22
robustness sweep prices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]


def _canonical(link: Link) -> Link:
    a, b = link
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FaultyLink:
    """A degraded or dead mesh link.  ``quality`` is the remaining bandwidth fraction."""

    link: Link
    quality: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError("link quality must be within [0, 1]")


@dataclass(frozen=True)
class FaultyDie:
    """A degraded or dead die.  ``throughput`` is the remaining compute fraction."""

    die: Coord
    throughput: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.throughput <= 1.0:
            raise ValueError("die throughput must be within [0, 1]")


@dataclass
class FaultModel:
    """A set of injected faults plus helpers to query effective capacities."""

    link_faults: Dict[Link, FaultyLink] = field(default_factory=dict)
    die_faults: Dict[Coord, FaultyDie] = field(default_factory=dict)

    def add_link_fault(self, link: Link, quality: float) -> None:
        key = _canonical(link)
        self.link_faults[key] = FaultyLink(key, quality)

    def add_die_fault(self, die: Coord, throughput: float) -> None:
        self.die_faults[die] = FaultyDie(die, throughput)

    def clear_link_fault(self, link: Link) -> None:
        """Restore a link to nominal."""
        self.link_faults.pop(_canonical(link), None)

    def link_quality(self, link: Link) -> float:
        """Remaining bandwidth fraction of a link (also zero if either endpoint is dead)."""
        key = _canonical(link)
        a, b = key
        if self.die_throughput(a) == 0.0 or self.die_throughput(b) == 0.0:
            return 0.0
        fault = self.link_faults.get(key)
        return fault.quality if fault is not None else 1.0

    def die_throughput(self, die: Coord) -> float:
        fault = self.die_faults.get(die)
        return fault.throughput if fault is not None else 1.0

    def dead_dies(self) -> FrozenSet[Coord]:
        return frozenset(c for c, f in self.die_faults.items() if f.throughput == 0.0)

    def dead_links(self) -> FrozenSet[Link]:
        return frozenset(l for l, f in self.link_faults.items() if f.quality == 0.0)

    @property
    def is_empty(self) -> bool:
        return not self.link_faults and not self.die_faults

    @classmethod
    def random(
        cls,
        dies_x: int,
        dies_y: int,
        link_fault_rate: float = 0.0,
        die_fault_rate: float = 0.0,
        degraded_fraction: float = 0.5,
        dead_share: float = 0.2,
        seed: int = 0,
    ) -> "FaultModel":
        """Inject faults uniformly at random.

        ``link_fault_rate`` / ``die_fault_rate`` are the fraction of links / dies that are
        faulty.  Of the faulty population, ``dead_share`` fail completely; the rest degrade
        to ``degraded_fraction`` of nominal capability.
        """
        if not 0.0 <= link_fault_rate <= 1.0 or not 0.0 <= die_fault_rate <= 1.0:
            raise ValueError("fault rates must be within [0, 1]")
        rng = random.Random(seed)
        model = cls()

        links: List[Link] = []
        for x in range(dies_x):
            for y in range(dies_y):
                if x + 1 < dies_x:
                    links.append(((x, y), (x + 1, y)))
                if y + 1 < dies_y:
                    links.append(((x, y), (x, y + 1)))
        faulty_links = rng.sample(links, int(round(link_fault_rate * len(links))))
        for link in faulty_links:
            quality = 0.0 if rng.random() < dead_share else degraded_fraction
            model.add_link_fault(link, quality)

        dies = [(x, y) for x in range(dies_x) for y in range(dies_y)]
        faulty_dies = rng.sample(dies, int(round(die_fault_rate * len(dies))))
        for die in faulty_dies:
            throughput = 0.0 if rng.random() < dead_share else degraded_fraction
            model.add_die_fault(die, throughput)
        return model
