"""Feedforward network with ReLU hidden layers and analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import Scaler, StateConfig, SupervisedSet
from .common import BIAS, FAN_IN, ParamModel, TrainConfig, layer_param, new_buffer, train_adam


@dataclass(eq=False)  # ParamModel.__eq__
class FnnModel(ParamModel):
    """Hidden layers (weights, biases) plus a fully connected scalar output."""

    kind = "fnn"

    hidden_weights: list[np.ndarray] = layer_param(FAN_IN)
    hidden_biases: list[np.ndarray] = layer_param(BIAS, start=0.0)
    out_weight: np.ndarray  # (units_last,)
    out_bias: float

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Standardized predictions for a (samples, features) matrix."""
        h = inputs
        for w, b in zip(self.hidden_weights, self.hidden_biases):
            h = np.maximum(h @ w.T + b, 0.0)
        return h @ self.out_weight + self.out_bias


def fnn_forward(model: FnnModel, features: np.ndarray) -> float:
    """Consumption prediction in MWh for one raw (unstandardized) feature row."""
    features = np.asarray(features, dtype=float)
    if features.shape != (len(model.feature_layout),):
        raise ValueError(
            f"expected {len(model.feature_layout)} features, got shape {features.shape}"
        )
    x = model.scaler.transform_inputs(features[None, :])
    y = model.forward(x)
    return float(model.scaler.inverse_targets(y)[0])


def fnn_loss_and_grads(
    params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Minibatch MSE and its gradient, the flat list's views of one vector
    laid out like the parameter buffer.

    The ReLU subgradient at exactly zero is taken as zero, matching the
    forward pass mask convention.
    """
    weights, biases = params[0:-2:2], params[1:-2:2]
    w_out, b_out = params[-2], params[-1]

    activations = [inputs]
    pre_acts = []
    h = inputs
    for w, b in zip(weights, biases):
        z = h @ w.T + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
        activations.append(h)
    y = h @ w_out + b_out

    m = len(targets)
    residual = y - targets
    loss = float(np.mean(residual**2))

    _, _, grads = new_buffer("fnn", inputs.shape[-1], [len(w) for w in weights])
    dy = 2.0 * residual / m
    np.matmul(activations[-1].T, dy, out=grads[-2])
    dy.sum(out=grads[-1])
    dh = np.outer(dy, w_out)
    for l in range(len(weights) - 1, -1, -1):
        dz = dh * (pre_acts[l] > 0.0)
        np.matmul(dz.T, activations[l], out=grads[2 * l])
        dz.sum(axis=0, out=grads[2 * l + 1])
        if l > 0:
            dh = dz @ weights[l]
    return loss, grads


def train_fnn(
    dataset: SupervisedSet,
    hidden_sizes: list[int],
    cfg: TrainConfig,
    scaler: Scaler | None = None,
    state_config: StateConfig | None = None,
) -> tuple[FnnModel, np.ndarray]:
    """Adam training on seeded minibatches; returns the model and loss curve."""
    if len(dataset.targets) < 1:
        raise ValueError("cannot train on an empty dataset")
    if state_config is None:
        state_config = StateConfig(order=0, time_encoding="none")
    # the kernel is looked up here, at call time, so a wrapper put on it is called
    return train_adam("fnn", fnn_loss_and_grads, dataset, hidden_sizes, cfg, scaler, state_config)
