"""Trained parameters and loss curves of small seeded runs, compared bit for
bit with a file.

tests/data/training_golden.json holds, as float hex, the flat parameter
list and the per-step loss of train_fnn and of train_recurrent for the RNN
and the LSTM, each two-layer at [5, 3], after STEPS Adam steps on a small
seeded set. The clip norm is small enough that the recurrent gradients are
clipped on most steps, so the file pins the clipping path too. The values
are those of the numpy and BLAS build that wrote them (numpy 2.x, OpenBLAS
0.3.31 Haswell kernels); a BLAS whose kernels round differently would move
their last bits.

Regenerate it only for a change that is meant to move trained numbers:

    PYTHONPATH=src python tests/test_training_golden.py
"""

import json
import os

import numpy as np
import pytest

from drlearn.features import StateConfig, SupervisedSet
from drlearn.models import TrainConfig, adam, flat_params, train_fnn, train_recurrent

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "training_golden.json")
HIDDEN = [5, 3]
STEPS = 40
STATE = StateConfig(order=1)  # price_lag1, consumption_lag1, hour_frac, price
WIDTH = 4
CONFIG = TrainConfig(
    learning_rate=0.01, steps=STEPS, batch_size=8, rng_seed=3, gradient_clip_norm=0.05
)
KINDS = ("fnn", "rnn", "lstm")


def train(kind: str):
    rng = np.random.default_rng(11)
    if kind == "fnn":
        inputs = rng.normal(size=(64, WIDTH))
        targets = np.tanh(inputs @ rng.normal(size=WIDTH)) + 0.1 * rng.normal(size=64)
        return train_fnn(SupervisedSet(inputs, targets, STATE), HIDDEN, CONFIG)
    inputs = rng.normal(size=(16, 12, WIDTH))
    targets = np.tanh(np.cumsum(inputs[..., 0], axis=1) / 3.0) + 0.1 * rng.normal(size=(16, 12))
    return train_recurrent(SupervisedSet(inputs, targets, STATE), kind, HIDDEN, CONFIG)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def trained_outputs(kind: str) -> dict:
    model, losses = train(kind)
    return {"params": [hexes(p) for p in flat_params(model)], "losses": hexes(losses)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("kind", KINDS)
def test_trained_numbers_match_golden_bitwise(kind, golden):
    assert trained_outputs(kind) == golden[kind]


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_clipping_fires_on_most_recurrent_steps(kind, monkeypatch):
    clipped = []
    original = adam.clip_global_norm

    def counting(grads, max_norm):
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
        clipped.append(norm > max_norm)
        original(grads, max_norm)

    monkeypatch.setattr(adam, "clip_global_norm", counting)
    train(kind)
    assert len(clipped) == STEPS
    assert sum(clipped) > STEPS // 2


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump({kind: trained_outputs(kind) for kind in KINDS}, handle, indent=1, sort_keys=True)
        handle.write("\n")
