"""Fig. 10b — accuracy of the DNN operator predictor vs the naive analytical model."""

import pytest

from repro.analysis.reporting import Report
from repro.workloads.models import get_model
from repro.workloads.transformer import build_layer_graph

from conftest import emit, run_once

# The DNN predictor needs numpy (the ``dnn`` extra); without it this benchmark skips.
pytest.importorskip("numpy")
from repro.predictor.dnn import DnnOperatorPredictor  # noqa: E402


def test_fig10_predictor_accuracy(benchmark, config3):
    operators = []
    for name in ("llama2-30b", "llama3-70b", "gpt-175b"):
        model = get_model(name)
        for batch in (1, 2, 4):
            for seq in (1024, 2048, 4096):
                operators.extend(build_layer_graph(model, batch, seq))

    def run():
        predictor = DnnOperatorPredictor(config3.die, seed=0)
        return predictor.train(operators, epochs=300)

    accuracy = run_once(benchmark, run)
    report = Report("Fig. 10b — operator latency prediction error")
    report.add_table(
        "mean relative error on held-out operators",
        {
            "dnn": {"error": accuracy.dnn_error},
            "analytical": {"error": accuracy.analytical_error},
        },
    )
    report.add_text(
        "paper: DNN ~2.3% vs analytical ~19.6% for latency; the reproduction's ground "
        "truth is the perturbed analytical model described in DESIGN.md substitution 2."
    )
    emit(report)
    assert accuracy.dnn_error < accuracy.analytical_error
