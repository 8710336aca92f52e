"""Recurrent model tests: hand-checked recursions, gates, training."""

import math
import warnings

import numpy as np
import pytest

from drlearn.errors import DataError, NumericalError
from drlearn.eucsim import TimeSeriesDataset
from drlearn.features import (
    StateConfig,
    SupervisedSet,
    config_of_width,
    feature_layout,
    identity_scaler,
)
from drlearn.models import (
    LstmModel,
    RnnModel,
    TrainConfig,
    flat_params,
    init_params,
    lstm_loss_and_grads,
    model_from_params,
    rnn_loss_and_grads,
    train_recurrent,
)
from drlearn.models import recurrent

import bptt_reference

# The narrowest step a recurrent model reads: price_lag1, consumption_lag1,
# price. The scalar models weigh only the first column; the others are zero.
SCALAR_CFG = StateConfig(order=1, time_encoding="none")


def scalar_steps(xs):
    """(steps, 3) inputs holding xs in the first column and zeros in the others."""
    return np.column_stack([xs, np.zeros((len(xs), 2))])


def scalar_rnn(w_h=0.5, w_x=1.0, b=0.1, w_out=2.0, b_out=0.05):
    return RnnModel(
        w_h=[np.array([[w_h]])],
        w_x=[np.array([[w_x, 0.0, 0.0]])],
        b=[np.array([b])],
        out_weight=np.array([w_out]),
        out_bias=b_out,
        scaler=identity_scaler(3),
        state_config=SCALAR_CFG,
    )


def scalar_lstm():
    def mat(v):
        return [np.array([[v]])]

    def x_mat(v):
        return [np.array([[v, 0.0, 0.0]])]

    def vec(v):
        return [np.array([v])]

    return LstmModel(
        w_fh=mat(0.1), w_fx=x_mat(0.2), b_f=vec(1.0),
        w_ih=mat(-0.3), w_ix=x_mat(0.5), b_i=vec(0.0),
        w_oh=mat(0.2), w_ox=x_mat(-0.1), b_o=vec(0.1),
        w_ch=mat(0.4), w_cx=x_mat(0.3), b_c=vec(-0.2),
        out_weight=np.array([1.5]),
        out_bias=0.25,
        scaler=identity_scaler(3),
        state_config=SCALAR_CFG,
    )


def zero_params_like(params):
    return [np.zeros_like(p) for p in params]


class TestRnnForward:
    def test_two_step_hand_recursion(self):
        model = scalar_rnn()
        xs = [0.2, -0.4]
        outputs = model.forward(scalar_steps(xs)[None])[0]
        h = 0.0
        expected = []
        for x in xs:
            h = math.tanh(0.5 * h + 1.0 * x + 0.1)
            expected.append(2.0 * h + 0.05)
        assert outputs == pytest.approx(expected, rel=1e-12)

    def test_zero_parameters_predict_zero(self):
        model = scalar_rnn(w_h=0.0, w_x=0.0, b=0.0, w_out=0.0, b_out=0.0)
        outputs = model.forward(scalar_steps([0.7, -0.3, 5.0])[None])[0]
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
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        state = model.initial_state(2)
        for t in range(50):
            _, state = model.run(rng.normal(size=(2, 1, 4)) * 5.0, state)
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
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        x = rng.normal(size=(3, 7, 4))
        batch_out = model.forward(x)
        state = model.initial_state(3)
        for t in range(7):
            y, state = model.run(x[:, t : t + 1], state)
            assert np.array_equal(batch_out[:, t], y[:, 0])

    def test_window_shape_validation(self):
        # predict builds its rows over the model's own state config: a series
        # of another day length is refused, and an empty span predicts nothing
        model = scalar_rnn()
        series = TimeSeriesDataset(
            prices=np.zeros(3), consumptions=np.zeros(3), hours=np.zeros(3, dtype=np.int64),
            intervals_per_day=12,
        )
        with pytest.raises(DataError, match="intervals_per_day mismatch"):
            model.predict(series, 1, 3, model.initial_state(1))
        series = TimeSeriesDataset(prices=np.zeros(3), consumptions=np.zeros(3), hours=np.zeros(3))
        outputs, state = model.predict(series, 1, 1, model.initial_state(1))
        assert outputs.shape == (0,) and states_equal(state, model.initial_state(1))


class TestLstmForward:
    def test_three_step_hand_trajectory(self):
        model = scalar_lstm()
        xs = [0.5, -1.0, 0.3]
        outputs = model.forward(scalar_steps(xs)[None])[0]

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
        params = zero_params_like(init_params("lstm", 3, [1], np.random.default_rng(0)))
        model = LstmModel(
            w_fh=[params[0]], w_fx=[params[1]], b_f=[params[2]],
            w_ih=[params[3]], w_ix=[params[4]], b_i=[params[5]],
            w_oh=[params[6]], w_ox=[params[7]], b_o=[params[8]],
            w_ch=[params[9]], w_cx=[params[10]], b_c=[params[11]],
            out_weight=params[12],
            out_bias=0.0,
            scaler=identity_scaler(3),
            state_config=SCALAR_CFG,
        )
        x = scalar_steps([2.0, -3.0, 4.0])
        outputs = model.forward(x[None])[0]
        assert np.all(outputs == 0.0)
        _, state = model.run(x[None, :1], model.initial_state(1))
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
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        state = model.initial_state(2)
        for t in range(60):
            _, state = model.run(rng.normal(size=(2, 1, 4)) * 3.0, state)
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
            scaler=identity_scaler(4),
            state_config=StateConfig(order=1),
        )
        x = rng.normal(size=(2, 6, 4))
        batch_out = model.forward(x)
        state = model.initial_state(2)
        for t in range(6):
            y, state = model.run(x[:, t : t + 1], state)
            assert np.array_equal(batch_out[:, t], y[:, 0])


def random_model(kind, hidden_sizes, n_features=4, seed=7):
    """A recurrent model with random weights and nonzero biases."""
    rng = np.random.default_rng(seed)
    params = [
        p + 0.1 * rng.normal(size=p.shape) for p in init_params(kind, n_features, hidden_sizes, rng)
    ]
    common = dict(
        out_weight=params[-2],
        out_bias=float(params[-1]),
        scaler=identity_scaler(n_features),
        state_config=config_of_width(n_features, order=1),
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
            y, state = model.run(x[:, t : t + 1], state)
            assert np.array_equal(batch_out[:, t], y[:, 0])

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


def model_over(kind, params):
    """A model of kind over a copy of the flat list params, over order-1 scalar rows."""
    return model_from_params(kind, params, identity_scaler(4), StateConfig(order=1))


def loss_and_grads(model, inputs, targets):
    """The model's kernel on its flat list, in a workspace it made."""
    kernel = rnn_loss_and_grads if model.kind == "rnn" else lstm_loss_and_grads
    return kernel(flat_params(model), inputs, targets, workspace=model.workspace(inputs.shape))


class TestLossAndGrads:
    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_loss_is_mse_over_all_steps(self, kind):
        rng = np.random.default_rng(4)
        params = init_params(kind, 4, [3], rng)
        inputs = rng.normal(size=(5, 6, 4))
        targets = rng.normal(size=(5, 6))
        if kind == "rnn":
            probe = RnnModel(
                w_h=[params[0]], w_x=[params[1]], b=[params[2]],
                out_weight=params[3], out_bias=float(params[4]),
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
                scaler=identity_scaler(4),
                state_config=StateConfig(order=1),
            )
        loss, grads = loss_and_grads(probe, inputs, targets)
        expected = float(np.mean((probe.forward(inputs) - targets) ** 2))
        assert loss == pytest.approx(expected, rel=1e-12)
        assert len(grads) == len(params)
        for p, g in zip(params, grads):
            assert g.shape == p.shape


def assert_close_to(reference, value, tolerance=1e-12):
    """Within tolerance of the reference, relative to its largest entry."""
    reference, value = np.asarray(reference), np.asarray(value)
    assert value.shape == reference.shape
    scale = max(float(np.max(np.abs(reference), initial=0.0)), np.finfo(float).tiny)
    assert np.max(np.abs(value - reference), initial=0.0) <= tolerance * scale


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
        reference = getattr(bptt_reference, f"{kind}_loss_and_grads")
        loss, grads = loss_and_grads(model_over(kind, params), inputs, targets)
        ref_loss, ref_grads = reference(params, inputs, targets)
        assert_close_to(ref_loss, loss)
        assert len(grads) == len(ref_grads)
        for ref, got in zip(ref_grads, grads):
            assert_close_to(ref, got)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    @pytest.mark.parametrize("hidden", [[32], [5, 3]], ids=["one", "two"])
    def test_float32_tape_agrees_with_the_float64_tape(self, kind, hidden):
        # float32 keeps 24 bits (about 6e-8 relative per operation); over 48
        # steps of BPTT the loss and every gradient stay within 1e-4 of the
        # float64 core's, relative to each array's largest entry
        rng = np.random.default_rng(len(hidden) * 1000 + 77)
        params = [
            p + 0.1 * rng.normal(size=p.shape) for p in init_params(kind, 4, hidden, rng)
        ]
        model = model_over(kind, params)
        inputs = rng.normal(size=(32, 48, 4))
        targets = rng.normal(size=(32, 48))
        before = model.buffer.copy()
        loss, grads = loss_and_grads(model, inputs, targets)
        grads = [g.copy() for g in grads]
        workspace = model.workspace(inputs.shape, np.float32)
        loss32, grads32 = type(model).loss_and_grads(
            flat_params(model), inputs, targets, workspace=workspace
        )
        assert type(loss32) is float
        assert_close_to(loss, loss32, 1e-4)
        assert len(grads32) == len(grads)
        for ref, got in zip(grads, grads32):
            assert got.dtype == np.float64 and np.shares_memory(got, workspace.grad)
            assert_close_to(ref, got, 1e-4)
        assert workspace.grad.dtype == np.float64 and workspace.weights.dtype == np.float32
        assert model.buffer.tobytes() == before.tobytes()

    def test_the_fnn_refuses_a_float32_workspace(self):
        # its kernel computes on the model's own float64 arrays
        fnn = model_from_params(
            "fnn", init_params("fnn", 3, [4], np.random.default_rng(0)), identity_scaler(3),
            SCALAR_CFG,
        )
        with pytest.raises(ValueError, match="fnn computes in float64 only, got dtype float32"):
            fnn.workspace((8, 3), np.float32)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_parameters_and_inputs_left_unchanged(self, kind):
        rng = np.random.default_rng(5)
        model = model_over(kind, init_params(kind, 4, [3, 2], rng))
        params = flat_params(model)
        inputs = rng.normal(size=(2, 4, 4))
        targets = rng.normal(size=(2, 4))
        before = [p.copy() for p in params] + [inputs.copy(), targets.copy()]
        loss_and_grads(model, inputs, targets)
        assert all(np.array_equal(a, b) for a, b in zip(before, params + [inputs, targets]))


class TestFloat32Range:
    """train_adam trains the recurrent families on a float32 tape: exp
    overflows past z of about 88.7, and every value past about 3.4e38."""

    @staticmethod
    def windows(inputs, targets):
        return SupervisedSet(inputs=inputs, targets=targets, state_config=StateConfig(order=1))

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_saturating_preactivations_train_without_a_warning(self, kind):
        rng = np.random.default_rng(12)
        inputs = 1e3 * rng.normal(size=(16, 8, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, losses = train_recurrent(
                self.windows(inputs, rng.normal(size=(16, 8))), kind, [4], TrainConfig(steps=20)
            )
        assert np.isfinite(losses).all() and np.isfinite(model.buffer).all()
        # the first layer's input projection alone is far past exp's float32 range
        assert np.max(np.abs(inputs @ model.blocks[0][recurrent.FAN_IN].T)) > 200

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_a_loss_past_the_float32_range_is_a_numerical_error(self, kind):
        rng = np.random.default_rng(13)
        inputs, targets = rng.normal(size=(16, 8, 4)), np.full((16, 8), 1e20)
        # a float64 tape squares the residual of about 1e20 to a finite 1e40
        model = model_over(kind, init_params(kind, 4, [4], rng))
        loss, _ = loss_and_grads(model, inputs, targets)
        assert 1e39 < loss < 1e41
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^non-finite loss inf at training step 0$"):
                train_recurrent(self.windows(inputs, targets), kind, [4], TrainConfig(steps=5))

    def test_a_non_finite_gradient_is_refused_before_adam_steps_by_it(self, monkeypatch):
        kernel, stepped = recurrent.lstm_loss_and_grads, []

        def overflowing(params, inputs, targets, *, workspace):
            loss, grads = kernel(params, inputs, targets, workspace=workspace)
            if len(stepped) == 2:
                workspace.grad[-1] = np.inf
            stepped.append(loss)
            return loss, grads

        monkeypatch.setattr(recurrent, "lstm_loss_and_grads", overflowing)
        rng = np.random.default_rng(14)
        data = self.windows(rng.normal(size=(16, 8, 4)), rng.normal(size=(16, 8)))
        with pytest.raises(NumericalError, match="^non-finite gradient at training step 2$"):
            train_recurrent(data, "lstm", [4], TrainConfig(steps=5))
        assert len(stepped) == 3


class TestTraining:
    def make_windows(self, seed, n_windows=24, steps=12):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(n_windows, steps, 4))
        # target depends on the running mean of the last feature, so the
        # recurrence actually has something to remember
        targets = np.cumsum(inputs[:, :, 3], axis=1) / np.arange(1, steps + 1)
        return SupervisedSet(inputs=inputs, targets=targets, state_config=StateConfig(order=1))

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
        ds = SupervisedSet(
            inputs=np.empty((0, 8, 4)),
            targets=np.empty((0, 8)),
            state_config=StateConfig(order=1),
        )
        with pytest.raises(ValueError, match="at least one"):
            train_recurrent(ds, "rnn", [4], TrainConfig(steps=5))

    @pytest.mark.parametrize("order", [0, 2])
    def test_state_order_other_than_one_rejected(self, order):
        cfg = StateConfig(order=order)
        rng = np.random.default_rng(9)
        ds = SupervisedSet(
            inputs=rng.normal(size=(4, 6, len(feature_layout(cfg)))),
            targets=rng.normal(size=(4, 6)),
            state_config=cfg,
        )
        with pytest.raises(ValueError, match=f"state_config.order must be 1 for lstm.*got {order}"):
            train_recurrent(ds, "lstm", [4], TrainConfig(steps=5))

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
