"""WATOS reproduction: LLM training strategy and wafer-scale architecture co-exploration.

The package is organised around the structure of the paper:

* :mod:`repro.hardware` — the configurable wafer-scale hardware template, area model,
  Table II configurations and the architecture enumerator.
* :mod:`repro.workloads` — LLM model zoo, transformer operator graphs and the training
  memory-footprint model.
* :mod:`repro.parallelism` — DP/TP/PP/FSDP strategy algebra, the 1F1B pipeline schedule
  and the Megatron / Cerebras baseline strategy generators.
* :mod:`repro.interconnect` — 2D-mesh / mesh-switch / multi-wafer topologies, XY routing
  and collective-communication cost models.
* :mod:`repro.memsys` — DRAM/SRAM access models and intra-die dataflow (OS/WS/IS) EMA
  analysis.
* :mod:`repro.predictor` — analytical and DNN-based operator latency/memory predictors
  plus the offline lookup table used during scheduling (only the DNN one,
  :mod:`repro.predictor.dnn`, needs numpy: the ``dnn`` extra).
* :mod:`repro.core` — the WATOS co-exploration engine itself: central scheduler, GCMR
  recomputation scheduler, memory scheduler (placement + DRAM allocation), GA-based
  global optimizer, TP/PP execution engines and the evaluator.
* :mod:`repro.baselines` — GPU systems and prior DSE frameworks used for comparison.
* :mod:`repro.analysis` — metrics and report formatting helpers.
* :mod:`repro.api` — the unified Session runtime: one entry point owning the worker
  pool, the shared evaluation cache and every search loop (``Session.run(spec)``),
  plus the ``python -m repro`` CLI.
"""

from repro.hardware.configs import (
    TABLE_II_CONFIGS,
    wafer_config1,
    wafer_config2,
    wafer_config3,
    wafer_config4,
)
from repro.workloads.models import MODEL_ZOO, get_model
from repro.workloads.workload import TrainingWorkload
from repro.parallelism.strategies import ParallelismConfig
from repro.core.framework import Watos, WatosResult
from repro.core.evaluator import Evaluator, EvaluationResult
from repro.api import (
    ExperimentSpec,
    RunResult,
    Session,
    default_session,
)

__version__ = "0.2.0"

__all__ = [
    "ExperimentSpec",
    "RunResult",
    "Session",
    "default_session",
    "TABLE_II_CONFIGS",
    "wafer_config1",
    "wafer_config2",
    "wafer_config3",
    "wafer_config4",
    "MODEL_ZOO",
    "get_model",
    "TrainingWorkload",
    "ParallelismConfig",
    "Watos",
    "WatosResult",
    "Evaluator",
    "EvaluationResult",
    "__version__",
]
