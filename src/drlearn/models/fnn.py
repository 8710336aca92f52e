"""Feedforward network with ReLU hidden layers and analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import Scaler, StateConfig, SupervisedSet
from .common import (
    BIAS,
    FAN_IN,
    ParamModel,
    TrainConfig,
    Workspace,
    field_values,
    layer_param,
    readout_loss,
    train_adam,
)


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

    @classmethod
    def loss_and_grads(
        cls, params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray, *, workspace=None
    ) -> tuple[float, list[np.ndarray]]:
        """Minibatch MSE and its gradient, the flat list's views of one vector
        laid out like the parameter buffer: the vector of workspace, a
        Workspace made for params and this shape of inputs, or a new one.

        The ReLU subgradient at exactly zero is taken as zero, matching the
        forward pass mask convention.
        """
        values = field_values(cls, params)
        weights = values["hidden_weights"]
        if workspace is None:
            workspace = Workspace(cls.kind, params, [len(w) for w in weights], np.shape(inputs))
        else:
            workspace.check(cls.kind, params, inputs)
        activations = [inputs]
        pre_acts = []
        for w, b in zip(weights, values["hidden_biases"]):
            z = activations[-1] @ w.T + b
            pre_acts.append(z)
            activations.append(np.maximum(z, 0.0))

        grad_blocks, grads = workspace.grad_blocks, workspace.grads
        loss, dh = readout_loss(activations[-1], *params[-2:], targets, grads)
        for l in range(len(weights) - 1, -1, -1):
            dz = dh * (pre_acts[l] > 0.0)
            np.matmul(dz.T, activations[l], out=grad_blocks[l][FAN_IN])
            dz.sum(axis=0, out=grad_blocks[l][BIAS])
            if l > 0:
                dh = dz @ weights[l]
        return loss, grads


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


fnn_loss_and_grads = FnnModel.loss_and_grads


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
