"""Feedforward model tests: hand-checked forward pass, training behavior."""

import numpy as np
import pytest

from drlearn.errors import NumericalError
from drlearn.features import (
    StateConfig,
    SupervisedSet,
    apply_scaler,
    fit_scaler,
    identity_scaler,
)
from drlearn.models import (
    Adam,
    FnnModel,
    TrainConfig,
    clip_global_norm,
    fnn_forward,
    fnn_loss_and_grads,
    glorot_uniform,
    init_params,
    minibatch_indices,
    model_from_params,
    train_fnn,
)


def make_model(hidden_weights, hidden_biases, out_weight, out_bias, n_features):
    return FnnModel(
        hidden_weights=[np.asarray(w, dtype=float) for w in hidden_weights],
        hidden_biases=[np.asarray(b, dtype=float) for b in hidden_biases],
        out_weight=np.asarray(out_weight, dtype=float),
        out_bias=out_bias,
        feature_layout=tuple(f"x{j}" for j in range(n_features)),
        scaler=identity_scaler(n_features),
        state_config=StateConfig(order=0, time_encoding="none"),
    )


class TestForward:
    def test_single_unit_hand_value(self):
        # z = 1 * 0.3 + (-1) * 0.1 + 0.5 = 0.7; y = 2 * 0.7 + 1.5 = 2.9
        model = make_model([[[1.0, -1.0]]], [[0.5]], [2.0], 1.5, 2)
        assert fnn_forward(model, np.array([0.3, 0.1])) == pytest.approx(2.9, abs=1e-12)

    def test_relu_gates_negative_preactivation(self):
        # z = -0.2 < 0, so the hidden unit contributes nothing.
        model = make_model([[[1.0, -1.0]]], [[-0.5]], [2.0], 1.5, 2)
        assert fnn_forward(model, np.array([0.3, 0.0])) == 1.5

    def test_zero_parameters_predict_zero(self):
        model = make_model([np.zeros((4, 3))], [np.zeros(4)], np.zeros(4), 0.0, 3)
        out = model.forward(np.random.default_rng(0).normal(size=(10, 3)))
        assert np.all(out == 0.0)

    def test_zero_parameters_with_scaler_predict_target_mean(self):
        rng = np.random.default_rng(1)
        ds = SupervisedSet(
            inputs=rng.normal(size=(40, 2)),
            targets=rng.uniform(50.0, 70.0, 40),
            feature_layout=("a", "b"),
        )
        scaler = fit_scaler(ds)
        model = make_model([np.zeros((4, 2))], [np.zeros(4)], np.zeros(4), 0.0, 2)
        model = FnnModel(
            hidden_weights=model.hidden_weights,
            hidden_biases=model.hidden_biases,
            out_weight=model.out_weight,
            out_bias=model.out_bias,
            feature_layout=("a", "b"),
            scaler=scaler,
            state_config=model.state_config,
        )
        assert fnn_forward(model, ds.inputs[0]) == pytest.approx(
            ds.targets.mean(), rel=1e-12
        )

    def test_two_layer_hand_value(self):
        # layer 1: z = [0.5 * 2] = [1.0]; layer 2: z = [1.0 * -1 + 0.25] < 0 -> 0
        model = make_model(
            [[[0.5]], [[-1.0]]], [[0.0], [0.25]], [3.0], 0.5, 1
        )
        assert fnn_forward(model, np.array([2.0])) == 0.5

    def test_wrong_feature_count_rejected(self):
        model = make_model([[[1.0, -1.0]]], [[0.5]], [2.0], 1.5, 2)
        with pytest.raises(ValueError, match="expected 2 features"):
            fnn_forward(model, np.array([0.3, 0.1, 0.7]))


class TestServingPair:
    """A direct family serves through the same initial_state/run/step pair as
    the recurrent ones: an empty state, and forward on the flattened rows."""

    @pytest.mark.parametrize("kind, hidden", [("linear", []), ("fnn", [5, 3])])
    def test_run_and_step_match_forward(self, kind, hidden):
        rng = np.random.default_rng(4)
        params = [p + rng.normal(size=p.shape) for p in init_params(kind, 3, hidden, rng)]
        model = model_from_params(
            kind, params, ("a", "b", "c"), identity_scaler(3), StateConfig(order=0)
        )
        inputs = rng.normal(size=(2, 7, 3))
        assert model.initial_state(2) == []
        outputs, state = model.run(inputs, model.initial_state(2))
        assert state == []
        assert np.array_equal(outputs, model.forward(inputs.reshape(14, 3)).reshape(2, 7))
        y, state = model.step(inputs[:, 4], [])
        assert state == [] and np.array_equal(y, model.forward(inputs[:, 4]))


class TestInit:
    def test_param_list_structure(self):
        rng = np.random.default_rng(0)
        params = init_params("fnn", 5, [8, 4], rng)
        assert len(params) == 6
        assert params[0].shape == (8, 5)
        assert params[1].shape == (8,)
        assert params[2].shape == (4, 8)
        assert params[3].shape == (4,)
        assert params[4].shape == (4,)
        assert params[5].shape == ()

    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 30, 20)
        limit = np.sqrt(6.0 / 50.0)
        assert w.shape == (30, 20)
        assert np.all(np.abs(w) <= limit)

    def test_biases_start_at_zero(self):
        params = init_params("fnn", 3, [4], np.random.default_rng(1))
        assert np.all(params[1] == 0.0)
        assert params[-1] == 0.0


class TestLossAndGrads:
    def test_loss_is_mean_squared_error(self):
        params = init_params("fnn", 2, [3], np.random.default_rng(2))
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(16, 2))
        targets = rng.normal(size=16)
        loss, _ = fnn_loss_and_grads(params, inputs, targets)
        model = make_model(
            [params[0]], [params[1]], params[2], float(params[3]), 2
        )
        expected = float(np.mean((model.forward(inputs) - targets) ** 2))
        assert loss == pytest.approx(expected, rel=1e-15)

    def test_gradient_shapes_match_params(self):
        params = init_params("fnn", 4, [6, 5], np.random.default_rng(4))
        rng = np.random.default_rng(5)
        _, grads = fnn_loss_and_grads(params, rng.normal(size=(8, 4)), rng.normal(size=8))
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            assert g.shape == p.shape


class TestTraining:
    def test_learns_linear_price_response(self):
        rng = np.random.default_rng(10)
        prices = rng.uniform(20.0, 50.0, 600)
        raw = SupervisedSet(
            inputs=prices[:, None], targets=2.0 * prices + 1.0, feature_layout=("price",)
        )
        scaler = fit_scaler(raw)
        cfg = TrainConfig(steps=3000, rng_seed=0)
        model, losses = train_fnn(apply_scaler(scaler, raw), [16], cfg, scaler=scaler)
        preds = np.array([fnn_forward(model, row) for row in raw.inputs[:100]])
        mape = 100.0 * np.mean(np.abs(preds - raw.targets[:100]) / raw.targets[:100])
        assert mape < 0.5
        assert losses[-100:].mean() < losses[:100].mean()

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        ds = SupervisedSet(
            inputs=rng.normal(size=(64, 3)),
            targets=rng.normal(size=64),
            feature_layout=("a", "b", "c"),
        )
        cfg = TrainConfig(steps=50, rng_seed=7)
        model_a, losses_a = train_fnn(ds, [8], cfg)
        model_b, losses_b = train_fnn(ds, [8], cfg)
        assert np.array_equal(losses_a, losses_b)
        for wa, wb in zip(model_a.hidden_weights, model_b.hidden_weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(model_a.out_weight, model_b.out_weight)
        assert model_a.out_bias == model_b.out_bias

    def test_seed_changes_result(self):
        rng = np.random.default_rng(12)
        ds = SupervisedSet(
            inputs=rng.normal(size=(64, 3)),
            targets=rng.normal(size=64),
            feature_layout=("a", "b", "c"),
        )
        model_a, _ = train_fnn(ds, [8], TrainConfig(steps=50, rng_seed=0))
        model_b, _ = train_fnn(ds, [8], TrainConfig(steps=50, rng_seed=1))
        assert not np.array_equal(model_a.hidden_weights[0], model_b.hidden_weights[0])

    def test_empty_dataset_rejected(self):
        ds = SupervisedSet(
            inputs=np.empty((0, 2)), targets=np.empty(0), feature_layout=("a", "b")
        )
        with pytest.raises(ValueError, match="empty"):
            train_fnn(ds, [4], TrainConfig(steps=5))

    def test_zero_layers_rejected(self):
        # load_model would refuse the saved file: hidden_weights must be non-empty
        ds = SupervisedSet(
            inputs=np.ones((8, 2)), targets=np.ones(8), feature_layout=("a", "b")
        )
        with pytest.raises(ValueError, match="fnn needs at least one hidden layer"):
            train_fnn(ds, [], TrainConfig(steps=5))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_numerical_error(self):
        ds = SupervisedSet(
            inputs=np.array([[1.0], [2.0]]),
            targets=np.array([np.inf, 1.0]),
            feature_layout=("a",),
        )
        with pytest.raises(NumericalError, match="non-finite loss"):
            train_fnn(ds, [4], TrainConfig(steps=5))


class TestOptimizerPlumbing:
    def test_adam_first_step_moves_by_learning_rate(self):
        p = np.array([1.0])
        opt = Adam([p], learning_rate=0.001)
        opt.step([p], [np.array([2.0])])
        # bias-corrected first step is lr * g / (|g| + eps), about -lr
        assert p[0] == pytest.approx(1.0 - 0.001, abs=1e-9)

    def test_adam_is_scale_invariant_on_first_step(self):
        p_small, p_big = np.array([0.0]), np.array([0.0])
        Adam([p_small]).step([p_small], [np.array([1e-4])])
        Adam([p_big]).step([p_big], [np.array([1e4])])
        assert p_small[0] == pytest.approx(p_big[0], rel=1e-3)

    def test_adam_steps_with_the_bits_of_its_formulas(self):
        rng = np.random.default_rng(3)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        opt = Adam(params, learning_rate=0.01, beta1=0.8, beta2=0.99, epsilon=1e-6)
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in params]
            opt.step(params, grads)
            for p, g, m_i, v_i in zip(expected, grads, m, v):
                m_i[...] = 0.8 * m_i + (1.0 - 0.8) * g
                v_i[...] = 0.99 * v_i + (1.0 - 0.99) * g * g
                m_hat, v_hat = m_i / (1.0 - 0.8**t), v_i / (1.0 - 0.99**t)
                p -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-6)
            assert all(map(np.array_equal, params, expected))

    def test_clip_noop_at_or_below_limit(self):
        grads = [np.array([3.0]), np.array([4.0])]
        assert clip_global_norm(grads, 5.0) == 5.0
        assert grads[0][0] == 3.0 and grads[1][0] == 4.0

    def test_clip_rescales_jointly(self):
        grads = [np.array([6.0]), np.array([8.0])]
        assert clip_global_norm(grads, 5.0) == 10.0  # the norm before clipping
        assert grads[0][0] == pytest.approx(3.0, rel=1e-12)
        assert grads[1][0] == pytest.approx(4.0, rel=1e-12)

    def test_minibatches_cover_each_epoch_without_repeats(self):
        rng = np.random.default_rng(0)
        batches = list(minibatch_indices(rng, 64, 32, 4))
        assert len(batches) == 4
        assert all(len(b) == 32 for b in batches)
        epoch1 = np.sort(np.concatenate(batches[:2]))
        assert np.array_equal(epoch1, np.arange(64))

    def test_partial_trailing_batch_dropped(self):
        rng = np.random.default_rng(1)
        batches = list(minibatch_indices(rng, 70, 32, 6))
        assert all(len(b) == 32 for b in batches)

    def test_small_dataset_caps_batch_size(self):
        rng = np.random.default_rng(2)
        batches = list(minibatch_indices(rng, 10, 32, 3))
        assert all(len(b) == 10 for b in batches)

    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
            list(minibatch_indices(np.random.default_rng(3), 0, 32, 1))
