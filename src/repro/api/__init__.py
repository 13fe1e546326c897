"""Unified runtime API: one entry point for pools, caches and every search loop.

:class:`Session` owns the process worker pool, the shared (optionally persistent)
evaluation cache and the wafer/workload registry; :class:`ExperimentSpec` describes
what to run; ``Session.run(spec)`` returns a uniform :class:`RunResult`.  The
``python -m repro`` CLI (:mod:`repro.api.cli`) drives the same objects from the
shell.

>>> from repro.api import ExperimentSpec, Session
>>> with Session(pool=4, store="sweep.sqlite") as session:
...     run = session.run(ExperimentSpec(kind="ga", wafer="config3",
...                                      workload="llama2-30b"))
...     print(run.summary())
"""

from repro.api.registry import (
    register_wafer,
    register_workload,
    resolve_wafer,
    resolve_workload,
    tiny_wafer,
    tiny_workload,
)
from repro.api.result import RunResult
from repro.api.results import (
    ResultStore,
    export_csv,
    merge_stores,
    open_result_store,
)
from repro.api.session import (
    Session,
    SweepCellError,
    close_default_session,
    default_session,
)
from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepCell, SweepSpec
from repro.core.parallel_map import PoolConfig, WorkerPool
from repro.core.retry import RetryPolicy

__all__ = [
    "ExperimentSpec",
    "PoolConfig",
    "ResultStore",
    "RetryPolicy",
    "RunResult",
    "Session",
    "SweepCell",
    "SweepCellError",
    "SweepSpec",
    "WorkerPool",
    "close_default_session",
    "default_session",
    "export_csv",
    "merge_stores",
    "open_result_store",
    "register_wafer",
    "register_workload",
    "resolve_wafer",
    "resolve_workload",
    "tiny_wafer",
    "tiny_workload",
]
