"""DNN-based operator latency/memory predictor (paper Fig. 10b).

The paper trains a small neural network, offline, on measured operator latencies and
memory footprints, because analytical models miss alignment overheads and multi-level
memory effects.  Offline we have no silicon to measure, so the "ground truth" generator
here is the analytical model **plus a deterministic perturbation model** of exactly those
effects (tile-quantisation of dimensions, SRAM spill penalties, DMA alignment padding).
The MLP is then trained on samples of that ground truth; the naive analytical model keeps
its systematic error while the MLP learns the perturbations away, reproducing the paper's
"DNN ≈ 2% error vs analytical ≈ 15–20%" comparison.  See DESIGN.md, substitution 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

try:
    import numpy as np
except ImportError as exc:
    raise ImportError(
        "repro.predictor.dnn (the Fig. 10b DNN predictor) needs numpy; install the "
        "'dnn' extra: pip install 'repro-watos[dnn]'"
    ) from exc

from repro.hardware.template import DieConfig
from repro.predictor.analytical import AnalyticalPredictor
from repro.workloads.operators import Operator, OperatorKind


class MlpRegressor:
    """A small fully connected regressor (one hidden layer, tanh) trained with Adam.

    Implemented directly on numpy — no deep-learning framework is available offline and
    none is needed for a two-layer network on a few thousand samples.
    """

    def __init__(self, input_dim: int, hidden_dim: int = 32, seed: int = 0) -> None:
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = np.random.default_rng(seed)
        scale1 = math.sqrt(2.0 / input_dim)
        scale2 = math.sqrt(2.0 / hidden_dim)
        self.w1 = rng.normal(0.0, scale1, size=(input_dim, hidden_dim))
        self.b1 = np.zeros(hidden_dim)
        self.w2 = rng.normal(0.0, scale2, size=(hidden_dim, 1))
        self.b2 = np.zeros(1)
        self._x_mean = np.zeros(input_dim)
        self._x_std = np.ones(input_dim)
        self._y_mean = 0.0
        self._y_std = 1.0

    def _forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        hidden = np.tanh(x @ self.w1 + self.b1)
        out = hidden @ self.w2 + self.b2
        return hidden, out

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        epochs: int = 400,
        learning_rate: float = 1e-2,
    ) -> List[float]:
        """Train with full-batch Adam; returns the per-epoch MSE losses."""
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float).reshape(-1, 1)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("features must be 2D and aligned with targets")
        self._x_mean, self._x_std = x.mean(axis=0), x.std(axis=0) + 1e-9
        self._y_mean, self._y_std = float(y.mean()), float(y.std() + 1e-9)
        xn = (x - self._x_mean) / self._x_std
        yn = (y - self._y_mean) / self._y_std

        params = [self.w1, self.b1, self.w2, self.b2]
        moments = [np.zeros_like(p) for p in params]
        velocities = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        losses: List[float] = []
        for epoch in range(1, epochs + 1):
            hidden, out = self._forward(xn)
            err = out - yn
            loss = float(np.mean(err ** 2))
            losses.append(loss)
            grad_out = 2.0 * err / len(xn)
            grad_w2 = hidden.T @ grad_out
            grad_b2 = grad_out.sum(axis=0)
            grad_hidden = (grad_out @ self.w2.T) * (1.0 - hidden ** 2)
            grad_w1 = xn.T @ grad_hidden
            grad_b1 = grad_hidden.sum(axis=0)
            grads = [grad_w1, grad_b1, grad_w2, grad_b2]
            for i, (param, grad) in enumerate(zip(params, grads)):
                moments[i] = beta1 * moments[i] + (1 - beta1) * grad
                velocities[i] = beta2 * velocities[i] + (1 - beta2) * grad ** 2
                m_hat = moments[i] / (1 - beta1 ** epoch)
                v_hat = velocities[i] / (1 - beta2 ** epoch)
                param -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        return losses

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        xn = (x - self._x_mean) / self._x_std
        _, out = self._forward(xn)
        return (out * self._y_std + self._y_mean).ravel()


@dataclass(frozen=True)
class PredictorAccuracy:
    """Mean relative error of the DNN and the naive analytical model on held-out data."""

    dnn_error: float
    analytical_error: float


class DnnOperatorPredictor:
    """Latency/memory predictor combining the analytical model with a learned correction.

    The perturbation model (``_ground_truth``) adds the effects the paper attributes to
    real hardware: dimension quantisation to the PE-array tile, an SRAM-spill penalty
    when the working set exceeds core SRAM, and DMA alignment padding of small transfers.
    """

    _KIND_IDS = {kind: i for i, kind in enumerate(OperatorKind)}

    def __init__(self, die: DieConfig, seed: int = 0) -> None:
        self.die = die
        self.analytical = AnalyticalPredictor(die)
        self._latency_model = MlpRegressor(input_dim=7, seed=seed)
        self._memory_model = MlpRegressor(input_dim=7, seed=seed + 1)
        self._trained = False
        self._seed = seed

    # ------------------------------------------------------------------ ground truth
    def _ground_truth(self, op: Operator) -> Tuple[float, float]:
        """Synthetic "measured" latency and memory (analytical + hardware effects).

        The perturbations are deliberately smooth functions of the operator's shape
        features (log FLOPs, working set vs SRAM): real alignment and multi-level-memory
        effects vary systematically with operator size, which is what lets a learned
        model capture them while the naive analytical model keeps a systematic error.
        """
        estimate = self.analytical.estimate(op)
        log_flops = math.log10(op.flops + 1.0)
        # Tile quantisation / pipeline ramp-up: small operators waste a larger share of
        # the PE array, large operators amortise it; varies smoothly with log-FLOPs.
        misalignment = 1.0 + 0.25 / (1.0 + math.exp(log_flops - 11.0))
        # SRAM spill: operators whose working set exceeds the core SRAM pay extra traffic.
        spill = 1.0
        working_set = op.checkpoint_bytes + op.weight_bytes
        if working_set > self.die.compute.sram_bytes:
            spill = 1.0 + 0.10 * math.log10(working_set / self.die.compute.sram_bytes + 1.0)
        # Bandwidth-bound operators additionally see DRAM row-activation inefficiency.
        bandwidth_penalty = 1.12 if estimate.is_memory_bound else 1.0
        latency = estimate.latency * misalignment * spill * bandwidth_penalty
        # DMA alignment pads small activations to the transfer granule (512 B per core).
        granule = 512.0 * self.die.compute.num_cores
        padded = math.ceil(max(op.checkpoint_bytes, 1.0) / granule) * granule
        memory = max(op.checkpoint_bytes, 0.7 * padded) * (1.0 + 0.05 * (misalignment - 1.0))
        return latency, memory

    def _features(self, op: Operator) -> List[float]:
        return [
            math.log10(op.flops + 1.0),
            math.log10(op.weight_bytes + 1.0),
            math.log10(op.checkpoint_bytes + 1.0),
            math.log10(op.output_bytes + 1.0),
            float(self._KIND_IDS[op.kind]),
            math.log10(self.die.flops_fp16),
            math.log10(self.die.dram_bandwidth + 1.0),
        ]

    # ------------------------------------------------------------------ training
    def train(self, operators: Sequence[Operator], epochs: int = 400) -> PredictorAccuracy:
        """Fit the MLPs on the operator sample and report held-out accuracy."""
        if len(operators) < 8:
            raise ValueError("need at least 8 operators to train the predictor")
        rng = np.random.default_rng(self._seed)
        shuffled = list(operators)
        rng.shuffle(shuffled)
        operators = shuffled
        features = np.array([self._features(op) for op in operators])
        truth = np.array([self._ground_truth(op) for op in operators])
        log_latency = np.log10(truth[:, 0] + 1e-12)
        log_memory = np.log10(truth[:, 1] + 1.0)

        split = max(4, int(0.8 * len(operators)))
        self._latency_model.fit(features[:split], log_latency[:split], epochs=epochs)
        self._memory_model.fit(features[:split], log_memory[:split], epochs=epochs)
        self._trained = True

        held_ops = operators[split:] or operators[:split]
        held_feats = np.array([self._features(op) for op in held_ops])
        held_truth = np.array([self._ground_truth(op) for op in held_ops])
        dnn_latency = 10.0 ** self._latency_model.predict(held_feats)
        analytical_latency = np.array([self.analytical.latency(op) for op in held_ops])
        dnn_err = float(np.mean(np.abs(dnn_latency - held_truth[:, 0]) / held_truth[:, 0]))
        ana_err = float(
            np.mean(np.abs(analytical_latency - held_truth[:, 0]) / held_truth[:, 0])
        )
        return PredictorAccuracy(dnn_error=dnn_err, analytical_error=ana_err)

    # ------------------------------------------------------------------ prediction
    def latency(self, op: Operator) -> float:
        if not self._trained:
            return self.analytical.latency(op)
        feats = np.array([self._features(op)])
        return float(10.0 ** self._latency_model.predict(feats)[0])

    def memory(self, op: Operator) -> float:
        if not self._trained:
            return self.analytical.memory(op)
        feats = np.array([self._features(op)])
        return float(10.0 ** self._memory_model.predict(feats)[0] - 1.0)
