"""Shared fixtures and helpers for the figure-reproduction benchmarks.

Every benchmark regenerates the rows/series of one figure or table of the paper and
prints them in normalised form (lowest-performing entry = 1.0, as the paper plots).
Workload sizes are scaled down from the paper's full training runs so the whole harness
completes in minutes on a laptop; the *shape* of each comparison is what matters.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import Report
from repro.hardware.configs import wafer_config1, wafer_config2, wafer_config3, wafer_config4
from repro.workloads.models import get_model
from repro.workloads.workload import TrainingWorkload


#: The evaluation workloads used throughout §V, scaled down for benchmark runtime.
def paper_workloads(micro_batch: int = 4, global_batch: int = 128) -> dict:
    return {
        "llama2-30b": TrainingWorkload(get_model("llama2-30b"), global_batch, micro_batch, 4096),
        "llama3-70b": TrainingWorkload(get_model("llama3-70b"), global_batch, micro_batch, 4096),
        "gshard-137b": TrainingWorkload(get_model("gshard-137b"), global_batch, micro_batch, 2048),
        "gpt-175b": TrainingWorkload(get_model("gpt-175b"), global_batch, micro_batch, 2048),
    }


@pytest.fixture(scope="session")
def config3():
    return wafer_config3()


@pytest.fixture(scope="session")
def table_ii_configs():
    return {
        "config1": wafer_config1(),
        "config2": wafer_config2(),
        "config3": wafer_config3(),
        "config4": wafer_config4(),
    }


@pytest.fixture(scope="session")
def workloads():
    return paper_workloads()


def emit(report: Report) -> None:
    """Print a report so ``pytest --benchmark-only -s`` shows the figure's rows."""
    print()
    print(report.render())


def run_once(benchmark, func, *args, **kwargs):
    """Time one execution of ``func`` (DSE runs are deterministic; one round suffices)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


try:
    import pytest_benchmark  # noqa: F401  (its plugin supplies the ``benchmark`` fixture)
except ImportError:

    class _RunOnce:
        """The part of pytest-benchmark's fixture :func:`run_once` uses, untimed."""

        def pedantic(self, func, args=(), kwargs=None, rounds=1, iterations=1):
            return func(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        """Stand-in ``benchmark`` fixture, so the figure suite runs without pytest-benchmark."""
        return _RunOnce()
