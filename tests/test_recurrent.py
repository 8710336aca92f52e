"""Recurrent model tests: hand-checked recursions, gates, training."""

import math

import numpy as np
import pytest

from drlearn.features import SequenceSet, StateConfig, identity_scaler
from drlearn.models import (
    LstmModel,
    RnnModel,
    TrainConfig,
    init_params,
    lstm_forward,
    lstm_loss_and_grads,
    rnn_forward,
    rnn_loss_and_grads,
    train_recurrent,
)
from drlearn.models import recurrent

import bptt_reference

LAYOUT1 = ("x0",)
LAYOUT4 = ("price_lag1", "consumption_lag1", "hour_frac", "price")


def scalar_rnn(n_features=1, w_h=0.5, w_x=1.0, b=0.1, w_out=2.0, b_out=0.05):
    return RnnModel(
        w_h=[np.array([[w_h]])],
        w_x=[np.array([[w_x] * n_features])],
        b=[np.array([b])],
        out_weight=np.array([w_out]),
        out_bias=b_out,
        feature_layout=LAYOUT1[:n_features],
        scaler=identity_scaler(n_features),
        state_config=StateConfig(order=1, time_encoding="none"),
    )


def scalar_lstm():
    def mat(v):
        return [np.array([[v]])]

    def vec(v):
        return [np.array([v])]

    return LstmModel(
        w_fh=mat(0.1), w_fx=mat(0.2), b_f=vec(1.0),
        w_ih=mat(-0.3), w_ix=mat(0.5), b_i=vec(0.0),
        w_oh=mat(0.2), w_ox=mat(-0.1), b_o=vec(0.1),
        w_ch=mat(0.4), w_cx=mat(0.3), b_c=vec(-0.2),
        out_weight=np.array([1.5]),
        out_bias=0.25,
        feature_layout=LAYOUT1,
        scaler=identity_scaler(1),
        state_config=StateConfig(order=1, time_encoding="none"),
    )


def zero_params_like(params):
    return [np.zeros_like(p) for p in params]


class TestRnnForward:
    def test_two_step_hand_recursion(self):
        model = scalar_rnn()
        xs = [0.2, -0.4]
        outputs = rnn_forward(model, np.array(xs)[:, None])
        h = 0.0
        expected = []
        for x in xs:
            h = math.tanh(0.5 * h + 1.0 * x + 0.1)
            expected.append(2.0 * h + 0.05)
        assert outputs == pytest.approx(expected, rel=1e-12)

    def test_zero_parameters_predict_zero(self):
        model = scalar_rnn(w_h=0.0, w_x=0.0, b=0.0, w_out=0.0, b_out=0.0)
        outputs = rnn_forward(model, np.array([[0.7], [-0.3], [5.0]]))
        assert np.all(outputs == 0.0)

    def test_hidden_state_stays_inside_tanh_range(self):
        rng = np.random.default_rng(0)
        params = init_params("rnn", 4, [6], rng)
        model = RnnModel(
            w_h=[params[0] * 10.0],
            w_x=[params[1] * 10.0],
            b=[params[2]],
            out_weight=params[3],
            out_bias=0.0,
            feature_layout=LAYOUT4,
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        state = model.initial_state(2)
        for t in range(50):
            _, state = model.step(rng.normal(size=(2, 4)) * 5.0, state)
            # float64 tanh saturates to exactly 1.0 for large arguments
            assert np.all(np.abs(state[0]) <= 1.0)

    def test_forward_equals_manual_step_loop(self):
        rng = np.random.default_rng(1)
        params = init_params("rnn", 4, [5, 3], rng)
        model = RnnModel(
            w_h=[params[0], params[3]],
            w_x=[params[1], params[4]],
            b=[params[2], params[5]],
            out_weight=params[6],
            out_bias=float(params[7]),
            feature_layout=LAYOUT4,
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        x = rng.normal(size=(3, 7, 4))
        batch_out = model.forward(x)
        state = model.initial_state(3)
        for t in range(7):
            y, state = model.step(x[:, t], state)
            assert np.array_equal(batch_out[:, t], y)

    def test_window_shape_validation(self):
        model = scalar_rnn()
        with pytest.raises(ValueError, match="expected"):
            rnn_forward(model, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="at least one step"):
            rnn_forward(model, np.zeros((0, 1)))


class TestLstmForward:
    def test_three_step_hand_trajectory(self):
        model = scalar_lstm()
        xs = [0.5, -1.0, 0.3]
        outputs = lstm_forward(model, np.array(xs)[:, None])

        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        h = c = 0.0
        expected = []
        for x in xs:
            f = sig(0.1 * h + 0.2 * x + 1.0)
            i = sig(-0.3 * h + 0.5 * x + 0.0)
            o = sig(0.2 * h - 0.1 * x + 0.1)
            cand = math.tanh(0.4 * h + 0.3 * x - 0.2)
            c = f * c + i * cand
            h = o * math.tanh(c)
            expected.append(1.5 * h + 0.25)
        assert outputs == pytest.approx(expected, rel=1e-12)

    def test_zero_parameters_keep_zero_state(self):
        # All gates sit at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0,
        # so the cell and hidden state never move.
        params = zero_params_like(init_params("lstm", 1, [1], np.random.default_rng(0)))
        model = LstmModel(
            w_fh=[params[0]], w_fx=[params[1]], b_f=[params[2]],
            w_ih=[params[3]], w_ix=[params[4]], b_i=[params[5]],
            w_oh=[params[6]], w_ox=[params[7]], b_o=[params[8]],
            w_ch=[params[9]], w_cx=[params[10]], b_c=[params[11]],
            out_weight=params[12],
            out_bias=0.0,
            feature_layout=LAYOUT1,
            scaler=identity_scaler(1),
            state_config=StateConfig(order=1),
        )
        x = np.array([[2.0], [-3.0], [4.0]])
        outputs = lstm_forward(model, x)
        assert np.all(outputs == 0.0)
        _, state = model.step(x[None, 0], model.initial_state(1))
        h, c = state[0]
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_hidden_state_bounded_by_output_gate(self):
        rng = np.random.default_rng(2)
        params = init_params("lstm", 4, [5], rng)
        per = params[:12]
        model = LstmModel(
            w_fh=[per[0]], w_fx=[per[1]], b_f=[per[2]],
            w_ih=[per[3]], w_ix=[per[4]], b_i=[per[5]],
            w_oh=[per[6]], w_ox=[per[7]], b_o=[per[8]],
            w_ch=[per[9]], w_cx=[per[10]], b_c=[per[11]],
            out_weight=params[12],
            out_bias=0.0,
            feature_layout=LAYOUT4,
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        state = model.initial_state(2)
        for t in range(60):
            _, state = model.step(rng.normal(size=(2, 4)) * 3.0, state)
            h, _ = state[0]
            assert np.all(np.abs(h) < 1.0)

    def test_forward_equals_manual_step_loop(self):
        rng = np.random.default_rng(3)
        params = init_params("lstm", 4, [4], rng)
        per = params[:12]
        model = LstmModel(
            w_fh=[per[0]], w_fx=[per[1]], b_f=[per[2]],
            w_ih=[per[3]], w_ix=[per[4]], b_i=[per[5]],
            w_oh=[per[6]], w_ox=[per[7]], b_o=[per[8]],
            w_ch=[per[9]], w_cx=[per[10]], b_c=[per[11]],
            out_weight=params[12],
            out_bias=float(params[13]),
            feature_layout=LAYOUT4,
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        x = rng.normal(size=(2, 6, 4))
        batch_out = model.forward(x)
        state = model.initial_state(2)
        for t in range(6):
            y, state = model.step(x[:, t], state)
            assert np.array_equal(batch_out[:, t], y)


def random_model(kind, hidden_sizes, n_features=4, seed=7):
    """A recurrent model with random weights and nonzero biases."""
    rng = np.random.default_rng(seed)
    params = [
        p + 0.1 * rng.normal(size=p.shape) for p in init_params(kind, n_features, hidden_sizes, rng)
    ]
    common = dict(
        out_weight=params[-2],
        out_bias=float(params[-1]),
        feature_layout=tuple(f"x{k}" for k in range(n_features)),
        scaler=identity_scaler(n_features),
        state_config=StateConfig(order=1),
    )
    if kind == "rnn":
        return RnnModel(w_h=params[0:-2:3], w_x=params[1:-2:3], b=params[2:-2:3], **common)
    names = ("w_fh", "w_fx", "b_f", "w_ih", "w_ix", "b_i", "w_oh", "w_ox", "b_o", "w_ch", "w_cx", "b_c")
    return LstmModel(**{name: params[k:-2:12] for k, name in enumerate(names)}, **common)


def flat_state(state):
    """Per-layer hidden (rnn) or (hidden, cell) arrays (lstm), in one list."""
    return [a for layer in state for a in (layer if isinstance(layer, tuple) else (layer,))]


def states_equal(a, b):
    a, b = flat_state(a), flat_state(b)
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestRun:
    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    @pytest.mark.parametrize("hidden", [[5], [6, 3]])
    @pytest.mark.parametrize("block", [4, recurrent.RUN_BLOCK_STEPS])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_any_split_point_matches_forward(self, kind, hidden, block, batch, monkeypatch):
        monkeypatch.setattr(recurrent, "RUN_BLOCK_STEPS", block)
        # 27 input columns, as with one-hot hours, at batch 1: here a BLAS
        # projection of one row rounds differently from one of many rows
        model = random_model(kind, hidden, n_features=27)
        x = np.random.default_rng(11).normal(size=(batch, 9, 27))
        whole = model.forward(x)
        final = model.run(x, model.initial_state(batch))[1]
        for k in range(10):
            first, state = model.run(x[:, :k], model.initial_state(batch))
            second, state = model.run(x[:, k:], state)
            assert np.array_equal(np.concatenate([first, second], axis=1), whole), k
            assert states_equal(state, final), k

    def test_two_layer_lstm_step_matches_forward(self):
        model = random_model("lstm", [5, 4], n_features=27)
        x = np.random.default_rng(12).normal(size=(2, 8, 27))
        batch_out = model.forward(x)
        state = model.initial_state(2)
        for t in range(8):
            y, state = model.step(x[:, t], state)
            assert np.array_equal(batch_out[:, t], y)

    @pytest.mark.parametrize("kind, arrays", [("rnn", 1), ("lstm", 2)])
    @pytest.mark.parametrize("hidden", [[5], [4, 3]])
    def test_every_layer_state_is_a_tuple_with_h_first(self, kind, arrays, hidden):
        model = random_model(kind, hidden)
        initial = model.initial_state(2)
        outputs, state = model.run(np.random.default_rng(13).normal(size=(2, 6, 4)), initial)
        for layers in (initial, state):
            assert len(layers) == len(hidden)
            for layer_state, units in zip(layers, hidden):
                assert isinstance(layer_state, tuple) and len(layer_state) == arrays
                assert all(a.shape == (2, units) for a in layer_state)
        assert all(np.all(a == 0.0) for layer_state in initial for a in layer_state)
        h = state[-1][0]
        assert np.array_equal(h @ model.out_weight + model.out_bias, outputs[:, -1])

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_empty_run_keeps_state(self, kind):
        model = random_model(kind, [4])
        state = model.run(np.ones((1, 3, 4)), model.initial_state(1))[1]
        outputs, after = model.run(np.empty((1, 0, 4)), state)
        assert outputs.shape == (1, 0)
        assert states_equal(after, state)


class TestInit:
    def test_rnn_param_structure(self):
        params = init_params("rnn", 4, [8, 6], np.random.default_rng(0))
        assert len(params) == 8
        assert params[0].shape == (8, 8)
        assert params[1].shape == (8, 4)
        assert params[2].shape == (8,)
        assert params[3].shape == (6, 6)
        assert params[4].shape == (6, 8)
        assert params[5].shape == (6,)
        assert params[6].shape == (6,)
        assert params[7].shape == ()

    def test_lstm_param_structure_and_forget_bias(self):
        params = init_params("lstm", 4, [5], np.random.default_rng(0))
        assert len(params) == 14
        assert params[0].shape == (5, 5)
        assert params[1].shape == (5, 4)
        assert np.all(params[2] == 1.0)  # forget gate bias
        for bias_index in (5, 8, 11):
            assert np.all(params[bias_index] == 0.0)
        assert params[12].shape == (5,)
        assert params[13].shape == ()


class TestLossAndGrads:
    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_loss_is_mse_over_all_steps(self, kind):
        rng = np.random.default_rng(4)
        loss_fn = rnn_loss_and_grads if kind == "rnn" else lstm_loss_and_grads
        params = init_params(kind, 4, [3], rng)
        inputs = rng.normal(size=(5, 6, 4))
        targets = rng.normal(size=(5, 6))
        loss, grads = loss_fn(params, inputs, targets)
        if kind == "rnn":
            probe = RnnModel(
                w_h=[params[0]], w_x=[params[1]], b=[params[2]],
                out_weight=params[3], out_bias=float(params[4]),
                feature_layout=LAYOUT4,
                scaler=identity_scaler(4),
                state_config=StateConfig(order=1),
            )
        else:
            per = params[:12]
            probe = LstmModel(
                w_fh=[per[0]], w_fx=[per[1]], b_f=[per[2]],
                w_ih=[per[3]], w_ix=[per[4]], b_i=[per[5]],
                w_oh=[per[6]], w_ox=[per[7]], b_o=[per[8]],
                w_ch=[per[9]], w_cx=[per[10]], b_c=[per[11]],
                out_weight=params[12], out_bias=float(params[13]),
                feature_layout=LAYOUT4,
                scaler=identity_scaler(4),
                state_config=StateConfig(order=1),
            )
        expected = float(np.mean((probe.forward(inputs) - targets) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            assert g.shape == p.shape


def assert_close_to(reference, value):
    """Within 1e-12 of the reference, relative to its largest entry."""
    reference, value = np.asarray(reference), np.asarray(value)
    assert value.shape == reference.shape
    scale = max(float(np.max(np.abs(reference), initial=0.0)), np.finfo(float).tiny)
    assert np.max(np.abs(value - reference), initial=0.0) <= 1e-12 * scale


class TestSharedCoreMatchesReference:
    """The fused core against the original per-gate, per-step kernels."""

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    @pytest.mark.parametrize("hidden", [[32], [5, 3], [4, 7, 2]], ids=["one", "two", "three"])
    @pytest.mark.parametrize(
        "batch, steps", [(32, 48), (1, 48), (32, 1), (1, 1), (3, 5)],
        ids=["default", "batch1", "step1", "batch1-step1", "small"],
    )
    def test_loss_and_every_gradient(self, kind, hidden, batch, steps):
        rng = np.random.default_rng(len(hidden) * 1000 + batch * 10 + steps)
        params = [
            p + 0.1 * rng.normal(size=p.shape) for p in init_params(kind, 4, hidden, rng)
        ]
        inputs = rng.normal(size=(batch, steps, 4))
        targets = rng.normal(size=(batch, steps))
        kernel = rnn_loss_and_grads if kind == "rnn" else lstm_loss_and_grads
        reference = getattr(bptt_reference, f"{kind}_loss_and_grads")
        loss, grads = kernel(params, inputs, targets)
        ref_loss, ref_grads = reference(params, inputs, targets)
        assert_close_to(ref_loss, loss)
        assert len(grads) == len(ref_grads)
        for ref, got in zip(ref_grads, grads):
            assert_close_to(ref, got)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_parameters_and_inputs_left_unchanged(self, kind):
        rng = np.random.default_rng(5)
        params = init_params(kind, 4, [3, 2], rng)
        inputs = rng.normal(size=(2, 4, 4))
        targets = rng.normal(size=(2, 4))
        before = [p.copy() for p in params] + [inputs.copy(), targets.copy()]
        (rnn_loss_and_grads if kind == "rnn" else lstm_loss_and_grads)(params, inputs, targets)
        assert all(np.array_equal(a, b) for a, b in zip(before, params + [inputs, targets]))


class TestTraining:
    def make_windows(self, seed, n_windows=24, steps=12):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(n_windows, steps, 4))
        # target depends on the running mean of the last feature, so the
        # recurrence actually has something to remember
        targets = np.cumsum(inputs[:, :, 3], axis=1) / np.arange(1, steps + 1)
        return SequenceSet(
            inputs=inputs, targets=targets, window_length=steps, feature_layout=LAYOUT4
        )

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_loss_decreases(self, kind):
        ds = self.make_windows(5)
        _, losses = train_recurrent(ds, kind, [8], TrainConfig(steps=400, rng_seed=0))
        assert losses[-50:].mean() < 0.5 * losses[:50].mean()

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_deterministic_for_fixed_seed(self, kind):
        ds = self.make_windows(6)
        model_a, losses_a = train_recurrent(ds, kind, [4], TrainConfig(steps=40, rng_seed=3))
        model_b, losses_b = train_recurrent(ds, kind, [4], TrainConfig(steps=40, rng_seed=3))
        assert np.array_equal(losses_a, losses_b)
        assert np.array_equal(model_a.out_weight, model_b.out_weight)
        if kind == "rnn":
            assert np.array_equal(model_a.w_h[0], model_b.w_h[0])
        else:
            assert np.array_equal(model_a.w_fh[0], model_b.w_fh[0])

    def test_unknown_kind_rejected(self):
        ds = self.make_windows(7)
        with pytest.raises(ValueError, match="unknown recurrent kind"):
            train_recurrent(ds, "gru", [4], TrainConfig(steps=5))

    def test_empty_dataset_rejected(self):
        ds = SequenceSet(
            inputs=np.empty((0, 8, 4)),
            targets=np.empty((0, 8)),
            window_length=8,
            feature_layout=LAYOUT4,
        )
        with pytest.raises(ValueError, match="at least one"):
            train_recurrent(ds, "rnn", [4], TrainConfig(steps=5))

    @pytest.mark.parametrize("order", [0, 2])
    def test_state_order_other_than_one_rejected(self, order):
        ds = self.make_windows(9)
        with pytest.raises(ValueError, match=f"state_config.order must be 1 for lstm.*got {order}"):
            train_recurrent(
                ds, "lstm", [4], TrainConfig(steps=5), state_config=StateConfig(order=order)
            )

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_zero_layers_rejected(self, kind):
        # with no layer, run would never write the readout of its output
        ds = self.make_windows(10)
        with pytest.raises(ValueError, match=f"{kind} needs at least one hidden layer"):
            train_recurrent(ds, kind, [], TrainConfig(steps=5))

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_stacked_layers_train(self, kind):
        ds = self.make_windows(8)
        model, losses = train_recurrent(ds, kind, [6, 4], TrainConfig(steps=60, rng_seed=1))
        assert model.hidden_sizes() == [6, 4]
        assert np.all(np.isfinite(losses))
