"""Finite-difference agreement of all analytic gradients."""

import numpy as np
import pytest

from drlearn.models import gradient_check

TOLERANCE = 1e-4


def fnn_case(rng):
    inputs = rng.normal(size=(8, 4))
    targets = rng.normal(size=8)
    return inputs, targets


def window_case(rng):
    inputs = rng.normal(size=(3, 10, 4))
    targets = rng.normal(size=(3, 10))
    return inputs, targets


class TestSingleLayer:
    @pytest.mark.parametrize("seed", range(20))
    def test_fnn(self, seed):
        inputs, targets = fnn_case(np.random.default_rng(100 + seed))
        assert gradient_check("fnn", [6], inputs, targets, rng_seed=seed) < TOLERANCE

    @pytest.mark.parametrize("seed", range(20))
    def test_rnn(self, seed):
        inputs, targets = window_case(np.random.default_rng(200 + seed))
        assert gradient_check("rnn", [5], inputs, targets, rng_seed=seed) < TOLERANCE

    @pytest.mark.parametrize("seed", range(20))
    def test_lstm(self, seed):
        inputs, targets = window_case(np.random.default_rng(300 + seed))
        assert gradient_check("lstm", [4], inputs, targets, rng_seed=seed) < TOLERANCE


class TestStackedLayers:
    @pytest.mark.parametrize("seed", range(3))
    def test_deep_fnn(self, seed):
        inputs, targets = fnn_case(np.random.default_rng(400 + seed))
        assert gradient_check("fnn", [6, 5, 4], inputs, targets, rng_seed=seed) < TOLERANCE

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_rnn(self, seed):
        inputs, targets = window_case(np.random.default_rng(500 + seed))
        assert gradient_check("rnn", [5, 4], inputs, targets, rng_seed=seed) < TOLERANCE

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_lstm(self, seed):
        inputs, targets = window_case(np.random.default_rng(600 + seed))
        assert gradient_check("lstm", [4, 3], inputs, targets, rng_seed=seed) < TOLERANCE


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown model kind"):
        gradient_check("mlp", [4], np.zeros((2, 3)), np.zeros(2))


def test_recurrent_inputs_narrower_than_a_step_rejected():
    # the model's state config must be as wide as the inputs, and an order-1
    # step holds a lagged price, a lagged consumption and the current price
    with pytest.raises(ValueError, match="order-1 rows need at least 3 features, got 2"):
        gradient_check("rnn", [4], np.zeros((2, 5, 2)), np.zeros((2, 5)))
