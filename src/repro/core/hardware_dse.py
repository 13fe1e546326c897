"""Die-granularity hardware DSE (paper §VI-F "Hardware DSE", Fig. 25).

The sweep explores compute-die areas between 200 mm² and 600 mm², classified as Small
(< 400 mm²) or Large and as Square (aspect ratio < 1.2) or Rectangle.  For each die
design the wafer is re-tiled under the area model, the co-exploration picks the best
training strategy, and the DSE objective is the product of normalised memory capacity
and normalised throughput — the metric the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.central_scheduler import CentralScheduler
from repro.core.evaluator import Evaluator
from repro.core.parallel_map import parallel_map_merge, task_cache
from repro.core.runtime import resolve_loop_session
from repro.hardware.area import AreaModel
from repro.hardware.template import ComputeDieConfig, CoreConfig, DieConfig, DramChipletConfig, WaferConfig
from repro.units import tflops
from repro.workloads.workload import TrainingWorkload


@dataclass(frozen=True)
class DieDesignPoint:
    """One die design evaluated by the hardware DSE."""

    name: str
    area_mm2: float
    aspect_ratio: float
    size_class: str          # "small" | "large"
    shape_class: str         # "square" | "rectangle"
    throughput: float
    memory_capacity: float
    objective: float         # normalised memory × normalised throughput

    @property
    def category(self) -> str:
        return f"{self.size_class}-{self.shape_class}"


def classify_die(area_mm2: float, aspect_ratio: float) -> Tuple[str, str]:
    """The paper's Small/Large (400 mm² cut) and Square/Rectangle (1.2 cut) classes."""
    size_class = "small" if area_mm2 < 400.0 else "large"
    shape_class = "square" if aspect_ratio < 1.2 else "rectangle"
    return size_class, shape_class


class DieGranularityDse:
    """Sweeps compute-die area and aspect ratio and evaluates each resulting wafer."""

    def __init__(
        self,
        workload: TrainingWorkload,
        areas_mm2: Sequence[float] = (200.0, 300.0, 400.0, 500.0, 600.0),
        aspect_ratios: Sequence[float] = (1.0, 1.6),
        dram_chiplet: Optional[DramChipletConfig] = None,
        wafer_edge_mm: float = 198.32,
        compute_density_tflops_per_mm2: float = 1.28,
        session=None,
    ) -> None:
        self.workload = workload
        self.areas = list(areas_mm2)
        self.aspect_ratios = list(aspect_ratios)
        self.dram_chiplet = dram_chiplet or DramChipletConfig()
        self.wafer_edge_mm = wafer_edge_mm
        self.compute_density = compute_density_tflops_per_mm2
        self.area_model = AreaModel()
        #: The owning :class:`repro.api.Session` (or a ``SessionHandle``); it
        #: supplies the shared cache and the worker pool.  Without one, the ambient
        #: session's cache is adopted (or none at all).
        self.session = resolve_loop_session(session)
        #: Shared (optionally persistent) evaluation cache: every design point's
        #: evaluator prices against it, so repeated sweeps start warm and distinct
        #: points that reduce to the same (wafer, workload, plan) share one pricing.
        self.cache = self.session.cache if self.session is not None else None

    # ------------------------------------------------------------------ die building
    def build_die(self, area_mm2: float, aspect_ratio: float, num_dram: int = 4) -> DieConfig:
        """A compute die of the requested area/shape, with compute scaled to the area.

        Longer die edges expose more peripheral IO, so the edge-IO budget scales with the
        perimeter — the physical reason Small Square dies win the paper's sweep.
        """
        width = math.sqrt(area_mm2 / aspect_ratio)
        height = width * aspect_ratio
        total_flops = tflops(self.compute_density * area_mm2)
        cores = max(4, int(round(math.sqrt(area_mm2))))
        core_flops = total_flops / (cores * cores)
        perimeter = 2.0 * (width + height)
        reference_perimeter = 2.0 * (22.0 + 22.0)
        edge_io = 12.0e12 * perimeter / reference_perimeter
        compute = ComputeDieConfig(
            core_rows=cores,
            core_cols=cores,
            core=CoreConfig(flops_fp16=core_flops),
            width_mm=width,
            height_mm=height,
            edge_io_bandwidth=edge_io,
        )
        die = DieConfig(
            compute=compute,
            dram_chiplet=self.dram_chiplet,
            num_dram_chiplets=num_dram,
        )
        return self.area_model.apply_io_budget(die)

    def build_wafer(self, area_mm2: float, aspect_ratio: float, num_dram: int = 4) -> WaferConfig:
        """Tile the wafer with as many dies of this design as fit."""
        die = self.build_die(area_mm2, aspect_ratio, num_dram)
        tile_w, tile_h = self.area_model.tile_dimensions(die)
        dies_x = max(1, int(self.wafer_edge_mm // tile_w))
        dies_y = max(1, int(self.wafer_edge_mm // tile_h))
        name = f"die{int(area_mm2)}mm2-ar{aspect_ratio:.1f}"
        return WaferConfig(
            name=name,
            dies_x=dies_x,
            dies_y=dies_y,
            die=die,
            wafer_width_mm=self.wafer_edge_mm,
            wafer_height_mm=self.wafer_edge_mm,
        )

    # ------------------------------------------------------------------ sweep
    def sweep(self, max_tp: int = 8, session=None) -> List[DieDesignPoint]:
        """Evaluate every (area, aspect ratio) design point and normalise the objective.

        ``session`` supplies the worker pool whole design points are distributed over
        (defaulting to the DSE's own session, then the ambient one); point order and
        results match the serial run.  With :attr:`cache` attached, worker deltas are
        merged back in worker order and spilled to the cache's store (when one is
        attached) before returning; the serial path prices directly against the shared
        cache.
        """
        resolved = resolve_loop_session(session, fallback=self.session)
        parallel = resolved.parallel if resolved is not None else None
        grid = [
            (area, aspect, max_tp) for area in self.areas for aspect in self.aspect_ratios
        ]
        priced = parallel_map_merge(
            _DsePointTask(self), grid, parallel=parallel, cache=self.cache
        )
        raw: List[Tuple[str, float, float, float, float]] = [
            (name, area, aspect, throughput, memory)
            for (area, aspect, _), (name, throughput, memory) in zip(grid, priced)
        ]

        if self.cache is not None:
            self.cache.flush()

        max_throughput = max((r[3] for r in raw), default=1.0) or 1.0
        max_memory = max((r[4] for r in raw), default=1.0) or 1.0
        points: List[DieDesignPoint] = []
        for name, area, aspect, throughput, memory in raw:
            size_class, shape_class = classify_die(area, aspect)
            norm_tp = throughput / max_throughput
            norm_mem = memory / max_memory
            points.append(
                DieDesignPoint(
                    name=name,
                    area_mm2=area,
                    aspect_ratio=aspect,
                    size_class=size_class,
                    shape_class=shape_class,
                    throughput=norm_tp,
                    memory_capacity=norm_mem,
                    objective=norm_tp * norm_mem,
                )
            )
        return points

    @staticmethod
    def best_point(points: Sequence[DieDesignPoint]) -> DieDesignPoint:
        if not points:
            raise ValueError("no design points to compare")
        return max(points, key=lambda p: p.objective)


class _DsePointTask:
    """Picklable task pricing one (area, aspect ratio) design point.

    Carries only the die-construction parameters — never the shared cache.  Each
    design point re-tiles the wafer, so points share no evaluator state and
    parallelise perfectly; the cache to price against comes from :func:`task_cache`
    (the parent's shared cache on the serial path, the worker's resident shard in a
    :class:`WorkerPool`), replacing the per-point full-snapshot seeding.
    """

    def __init__(self, dse: DieGranularityDse) -> None:
        self.workload = dse.workload
        self.dram_chiplet = dse.dram_chiplet
        self.wafer_edge_mm = dse.wafer_edge_mm
        self.compute_density = dse.compute_density

    def __call__(self, point: Tuple[float, float, int]):
        area, aspect, max_tp = point
        dse = DieGranularityDse(
            self.workload,
            dram_chiplet=self.dram_chiplet,
            wafer_edge_mm=self.wafer_edge_mm,
            compute_density_tflops_per_mm2=self.compute_density,
        )
        wafer = dse.build_wafer(area, aspect)
        cache = task_cache()
        evaluator = Evaluator(wafer, cache=cache) if cache is not None else Evaluator(wafer)
        scheduler = CentralScheduler(
            wafer, evaluator=evaluator, max_tp=max_tp, optimize_placement=False
        )
        best = scheduler.best(self.workload)
        throughput = best.result.throughput if best is not None else 0.0
        return wafer.name, throughput, wafer.total_dram_capacity
