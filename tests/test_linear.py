"""Linear fit tests: exact recovery, descent oracle, rank diagnostics."""

import numpy as np
import pytest

from drlearn.features import StateConfig, SupervisedSet, config_of_width, feature_layout
from drlearn.models import LinearModel, linear_fit


def make_set(inputs: np.ndarray, targets: np.ndarray, cfg=None) -> SupervisedSet:
    if cfg is None:
        cfg = config_of_width(inputs.shape[1])
    return SupervisedSet(inputs=inputs, targets=targets, state_config=cfg)


def descent_solution(inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent on the mean squared error, run to convergence.

    Independent of the solver under test: plain fixed-step descent on the
    design [X, 1], step sized by the largest eigenvalue of the Gram matrix.
    """
    design = np.hstack([inputs, np.ones((len(inputs), 1))])
    gram = design.T @ design / len(design)
    step = 1.0 / np.linalg.eigvalsh(gram).max()
    theta = np.zeros(design.shape[1])
    for _ in range(200000):
        grad = gram @ theta - design.T @ targets / len(design)
        new = theta - step * grad
        if np.max(np.abs(new - theta)) < 1e-14:
            theta = new
            break
        theta = new
    return theta


class TestExactRecovery:
    def test_recovers_weight_two_bias_one(self):
        rng = np.random.default_rng(0)
        prices = rng.uniform(20.0, 50.0, 200)
        ds = make_set(prices[:, None], 2.0 * prices + 1.0, StateConfig(0, "none"))
        model = linear_fit(ds)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
        assert model.bias == pytest.approx(1.0, abs=1e-9)
        residual = model.forward(ds.inputs) - ds.targets
        assert np.max(np.abs(residual)) < 1e-9

    def test_zero_targets_give_zero_coefficients(self):
        rng = np.random.default_rng(1)
        ds = make_set(rng.normal(size=(50, 3)), np.zeros(50))
        model = linear_fit(ds)
        assert np.allclose(model.weights, 0.0, atol=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)

    def test_exact_multivariate_plane(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 4))
        true_w = np.array([1.5, -3.0, 0.25, 4.0])
        ds = make_set(x, x @ true_w - 2.0)
        model = linear_fit(ds)
        assert np.allclose(model.weights, true_w, atol=1e-10)
        assert model.bias == pytest.approx(-2.0, abs=1e-10)


class TestAgainstDescentOracle:
    def test_matches_descent_on_noisy_system(self):
        rng = np.random.default_rng(42)
        inputs = rng.normal(size=(500, 6))
        truth = rng.normal(size=6)
        targets = inputs @ truth + 0.5 + rng.normal(0.0, 0.3, 500)
        model = linear_fit(make_set(inputs, targets))
        theta = descent_solution(inputs, targets)
        assert np.allclose(model.weights, theta[:6], rtol=1e-6, atol=1e-8)
        assert model.bias == pytest.approx(theta[6], rel=1e-6)

    def test_descent_loss_not_better(self):
        # The closed-form solution must be at least as good as the converged
        # iterative one on the training objective.
        rng = np.random.default_rng(43)
        inputs = rng.normal(size=(300, 4))
        targets = rng.normal(size=300)
        model = linear_fit(make_set(inputs, targets))
        theta = descent_solution(inputs, targets)
        design = np.hstack([inputs, np.ones((300, 1))])
        loss_exact = np.mean((design @ np.append(model.weights, model.bias) - targets) ** 2)
        loss_descent = np.mean((design @ theta - targets) ** 2)
        assert loss_exact <= loss_descent + 1e-12


class TestRankDiagnostics:
    def test_duplicate_column_named(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        inputs = np.hstack([x, x[:, :1]])  # the price column copies price_lag1
        ds = make_set(inputs, rng.normal(size=60), StateConfig(1, "none"))
        with pytest.raises(ValueError, match="dependent columns: price$"):
            linear_fit(ds)

    def test_constant_column_conflicts_with_intercept(self):
        rng = np.random.default_rng(4)
        inputs = np.hstack([rng.normal(size=(60, 2)), np.full((60, 1), 3.0)])
        ds = make_set(inputs, rng.normal(size=60), StateConfig(1, "none"))
        with pytest.raises(ValueError, match="dependent columns: price$"):
            linear_fit(ds)

    def test_full_rank_accepted(self):
        rng = np.random.default_rng(5)
        ds = make_set(rng.normal(size=(60, 3)), rng.normal(size=60))
        assert isinstance(linear_fit(ds), LinearModel)

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(6)
        ds = make_set(rng.normal(size=(3, 3)), rng.normal(size=3))
        with pytest.raises(ValueError, match="samples"):
            linear_fit(ds)


class TestModelShape:
    def test_parameter_count(self):
        rng = np.random.default_rng(7)
        ds = make_set(rng.normal(size=(50, 5)), rng.normal(size=50))
        model = linear_fit(ds)
        assert model.buffer.size == 6
        assert model.kind == "linear"

    def test_set_state_config_and_default_scaler(self):
        rng = np.random.default_rng(8)
        ds = make_set(rng.normal(size=(50, 2)), rng.normal(size=50))
        model = linear_fit(ds)
        assert model.state_config == ds.state_config
        assert np.all(model.scaler.input_std == 1.0)

    def test_layout_carried_through(self):
        cfg = StateConfig(order=1, time_encoding="scalar")
        rng = np.random.default_rng(9)
        ds = make_set(rng.normal(size=(50, 4)), rng.normal(size=50), cfg)
        model = linear_fit(ds)
        assert model.state_config == cfg
        assert model.feature_layout == feature_layout(cfg)
