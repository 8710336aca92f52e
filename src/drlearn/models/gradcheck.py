"""Finite-difference verification of every analytic gradient."""

from __future__ import annotations

import numpy as np

from ..features import config_of_width, identity_scaler
from .common import MODEL_CLASSES, flat_params, init_params, model_from_params

FD_STEP = 1e-5
REL_FLOOR = 1e-3  # denominators below this are treated as this


def gradient_check(
    kind: str,
    hidden_sizes: list[int],
    inputs: np.ndarray,
    targets: np.ndarray,
    rng_seed: int = 0,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Parameters are drawn at random from the seed; biases get an extra
    perturbation so the check never sits at a symmetric point. Inputs are
    (batch, features) for fnn and (batch, steps, features) for rnn/lstm.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    rng = np.random.default_rng(rng_seed)
    n_features = inputs.shape[-1]
    loss_and_grads = getattr(MODEL_CLASSES.get(kind), "loss_and_grads", None)
    if loss_and_grads is None:  # not a gradient-trained family
        raise ValueError(f"unknown model kind {kind!r}")
    params = init_params(kind, n_features, hidden_sizes, rng)
    for p in params:
        if p.ndim <= 1:
            p += rng.uniform(-0.5, 0.5, p.shape)
    # a model as train_adam builds one: an identity scaler, a state config as wide as the inputs
    cfg = config_of_width(n_features, order=int(MODEL_CLASSES[kind].recurrent))
    model = model_from_params(kind, params, identity_scaler(n_features), cfg)
    params, workspace = flat_params(model), model.workspace(inputs.shape)

    loss_and_grads(params, inputs, targets, workspace=workspace)
    # a copy: the finite-difference calls below overwrite the workspace
    buffer, grad = model.buffer, workspace.grad.copy()
    worst = 0.0
    for j in range(buffer.size):
        saved = buffer[j]
        buffer[j] = saved + FD_STEP
        up, _ = loss_and_grads(params, inputs, targets, workspace=workspace)
        buffer[j] = saved - FD_STEP
        down, _ = loss_and_grads(params, inputs, targets, workspace=workspace)
        buffer[j] = saved
        fd = (up - down) / (2.0 * FD_STEP)
        denom = max(abs(grad[j]), abs(fd), REL_FLOOR)
        worst = max(worst, abs(grad[j] - fd) / denom)
    return worst
