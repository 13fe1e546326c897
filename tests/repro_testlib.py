"""Shared test helpers: a small fast wafer and tiny models for unit tests, plus the
paper-scale shapes (the §V workloads and Fig. 25 die designs) differential tests use.

These used to live in ``tests/conftest.py`` and be imported as ``from conftest import
...``, but a bare ``conftest`` import is ambiguous at the repo root: pytest loads
``benchmarks/conftest.py`` first (benchmarks sorts before tests), registers it in
``sys.modules`` under the name ``conftest`` and every test-side import then resolves to
the *benchmark* helpers and fails collection.  A uniquely named module is unambiguous
from any invocation directory.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.hardware_dse import DieGranularityDse
from repro.hardware.template import (
    ComputeDieConfig,
    CoreConfig,
    DieConfig,
    DramChipletConfig,
    WaferConfig,
)
from repro.units import GB, tbps, tflops
from repro.workloads.models import ModelConfig, ModelFamily, get_model
from repro.workloads.workload import TrainingWorkload


def make_small_wafer(
    dies_x: int = 4,
    dies_y: int = 4,
    dram_gb: float = 8.0,
    d2d_tbps: float = 2.0,
    dram_bw_tbps: float = 1.0,
) -> WaferConfig:
    """A small 4×4 wafer with modest dies, sized so tiny models stress memory."""
    compute = ComputeDieConfig(
        core_rows=8,
        core_cols=8,
        core=CoreConfig(flops_fp16=tflops(1.0)),
        width_mm=12.0,
        height_mm=12.0,
        edge_io_bandwidth=tbps(6.0),
    )
    chiplet = DramChipletConfig(
        capacity_bytes=dram_gb * GB / 4,
        bandwidth=tbps(dram_bw_tbps) / 4,
        interface_bandwidth=tbps(dram_bw_tbps) / 4,
        width_mm=3.0,
        height_mm=6.0,
    )
    die = DieConfig(
        compute=compute,
        dram_chiplet=chiplet,
        num_dram_chiplets=4,
        d2d_bandwidth=tbps(d2d_tbps),
    )
    return WaferConfig(name="test-wafer", dies_x=dies_x, dies_y=dies_y, die=die,
                       wafer_width_mm=100.0, wafer_height_mm=100.0)


def make_tiny_model(
    layers: int = 8,
    hidden: int = 512,
    heads: int = 8,
    ffn: int = 1408,
    vocab: int = 8000,
    seq: int = 512,
) -> ModelConfig:
    """A toy dense transformer small enough for exhaustive scheduler tests."""
    return ModelConfig(
        name="tiny-transformer",
        family=ModelFamily.TRANSFORMER,
        num_layers=layers,
        hidden_size=hidden,
        num_heads=heads,
        num_kv_heads=heads,
        ffn_hidden=ffn,
        vocab_size=vocab,
        default_seq_len=seq,
        gated_mlp=True,
    )


def make_small_moe_model() -> ModelConfig:
    return ModelConfig(
        name="tiny-moe",
        family=ModelFamily.MOE_TRANSFORMER,
        num_layers=6,
        hidden_size=512,
        num_heads=8,
        num_kv_heads=8,
        ffn_hidden=1024,
        vocab_size=8000,
        default_seq_len=512,
        num_experts=8,
        experts_per_token=2,
    )


def paper_workloads() -> dict:
    """The four §V evaluation workloads (``benchmarks/conftest.py::paper_workloads``)."""
    return {
        "llama2-30b": TrainingWorkload(get_model("llama2-30b"), 128, 4, 4096),
        "llama3-70b": TrainingWorkload(get_model("llama3-70b"), 128, 4, 4096),
        "gshard-137b": TrainingWorkload(get_model("gshard-137b"), 128, 4, 2048),
        "gpt-175b": TrainingWorkload(get_model("gpt-175b"), 128, 4, 2048),
    }


def fig25_wafer(area_mm2: float, aspect_ratio: float) -> WaferConfig:
    """The wafer tiled with one Fig. 25 die design (area in mm², aspect ratio)."""
    return DieGranularityDse(paper_workloads()["gpt-175b"]).build_wafer(area_mm2, aspect_ratio)


def scale_dram(wafer: WaferConfig, factor: float) -> WaferConfig:
    """``wafer`` with every DRAM chiplet's capacity scaled by ``factor``."""
    die = wafer.die
    chiplet = replace(die.dram_chiplet, capacity_bytes=die.dram_chiplet.capacity_bytes * factor)
    return replace(wafer, die=replace(die, dram_chiplet=chiplet))
