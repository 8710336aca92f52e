"""Linear consumption model fit by exact least squares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import Scaler, SupervisedSet, identity_scaler
from .common import ParamModel, model_from_params


@dataclass(eq=False)  # ParamModel.__eq__
class LinearModel(ParamModel):
    """Weights over the feature columns plus a bias, in standardized space.

    No layers: the readout pair is the whole parameter list.
    """

    kind = "linear"
    readout = ("weights", "bias")

    weights: np.ndarray
    bias: float

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Predictions in standardized target space for standardized inputs."""
        return inputs @ self.weights + self.bias


def _dependent_columns(design: np.ndarray, names: list[str]) -> list[str]:
    # Greedy scan: a column is dependent if adding it does not raise the rank
    # of the columns kept so far (the intercept is always kept).
    kept = design[:, -1:]
    rank = np.linalg.matrix_rank(kept)
    dependent = []
    for j in range(design.shape[1] - 1):
        candidate = np.hstack([kept, design[:, j : j + 1]])
        new_rank = np.linalg.matrix_rank(candidate)
        if new_rank == rank:
            dependent.append(names[j])
        else:
            kept, rank = candidate, new_rank
    return dependent


def linear_fit(dataset: SupervisedSet, scaler: Scaler | None = None) -> LinearModel:
    """Least-squares fit of targets on [features, 1], over the set's state config.

    Solved with an orthogonal-factorization solver rather than the normal
    equations. Rank-deficient designs are rejected with the names of the
    dependent columns.
    """
    inputs = np.asarray(dataset.inputs, dtype=float)
    targets = np.asarray(dataset.targets, dtype=float)
    if inputs.ndim != 2:
        raise ValueError(f"linear_fit needs (samples, features) inputs, got shape {inputs.shape}")
    n_samples, n_features = inputs.shape
    if n_samples < n_features + 1:
        raise ValueError(
            f"need at least {n_features + 1} samples to fit {n_features} features, got {n_samples}"
        )
    design = np.hstack([inputs, np.ones((n_samples, 1))])
    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < n_features + 1:
        bad = _dependent_columns(design, list(dataset.feature_layout))
        raise ValueError(
            "rank-deficient design; dependent columns: " + ", ".join(bad)
        )
    if scaler is None:
        scaler = identity_scaler(n_features)
    params = [coef[:n_features], coef[n_features]]
    return model_from_params("linear", params, scaler, dataset.state_config)
