"""Feedforward network with ReLU hidden layers and analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import Scaler, SupervisedSet
from .common import (
    BIAS,
    FAN_IN,
    ParamModel,
    TrainConfig,
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
        cls, params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray, *, workspace
    ) -> tuple[float, list[np.ndarray]]:
        """Minibatch MSE and its gradient, the flat list's views of one vector
        laid out like the parameter buffer: the vector of workspace, which
        model.workspace(inputs.shape) made for the model whose flat list
        params is.

        The ReLU subgradient at exactly zero is taken as zero, matching the
        forward pass mask convention.
        """
        workspace.check(cls.kind, params, inputs)
        values = field_values(cls, params)
        weights = values["hidden_weights"]
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


fnn_loss_and_grads = FnnModel.loss_and_grads


def train_fnn(
    dataset: SupervisedSet,
    hidden_sizes: list[int],
    cfg: TrainConfig,
    scaler: Scaler | None = None,
) -> tuple[FnnModel, np.ndarray]:
    """Adam training on seeded minibatches; returns the model, over the set's
    state config, and the loss curve."""
    if np.ndim(dataset.inputs) != 2:
        raise ValueError(
            f"train_fnn needs (samples, features) inputs, got shape {np.shape(dataset.inputs)}"
        )
    if len(dataset.targets) < 1:
        raise ValueError("cannot train on an empty dataset")
    # the kernel is looked up here, at call time, so a wrapper put on it is called
    return train_adam("fnn", fnn_loss_and_grads, dataset, hidden_sizes, cfg, scaler)
