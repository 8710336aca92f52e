"""Recurrent and LSTM models with hand-derived backpropagation through time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import Scaler, SequenceSet, StateConfig, identity_scaler
from .adam import Adam, clip_global_norm
from .common import (
    BIAS,
    FAN_IN,
    SQUARE,
    ParamModel,
    TrainConfig,
    check_finite_loss,
    init_params,
    layer_param,
    minibatch_indices,
    model_from_params,
)

RUN_BLOCK_STEPS = 256  # steps whose input projection run holds at once


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _input_projection(x: np.ndarray, w_x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b + sum_k x[..., k] * w_x[k] for time-major (steps, batch, fan_in) inputs.

    The sum runs column by column in a fixed order with elementwise numpy,
    not a BLAS matmul, whose rounding of a row depends on how many rows go
    in. So every entry is the same whether a series is projected at once or
    one step at a time.
    """
    proj = np.multiply(x[..., :1], w_x[0])
    proj += b
    term = np.empty_like(proj)
    for k in range(1, x.shape[-1]):
        np.multiply(x[..., k : k + 1], w_x[k], out=term)
        proj += term
    return proj


class _Recurrent(ParamModel):
    """Stacked recurrent layers served through one core, run.

    Invariant: step, forward and run give bit-identical outputs and states
    for the same inputs, however a series is split between calls. Per layer
    and block of steps, run hoists the input projection out of the time
    loop (elementwise, see _input_projection); each step then does one
    (batch, units) @ (units, gates * units) matmul, the cell update, and
    the readout matmul, on arrays of the same shapes whether the call holds
    one step or many. The readout bias is added elementwise per block.
    Batched prediction, one-step serving and rollouts all rely on this.

    Subclasses provide _layers() -> [(w_h, w_x, b)] with the gate blocks
    side by side, _hidden(layer_state) -> h, and _cell(z, layer_state) ->
    (h, new layer_state) for the gate pre-activations z.
    """

    def run(self, inputs: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        """Standardized predictions (batch, steps) for (batch, steps, features)
        inputs continuing from state, and the state after the last step.

        Long series run in blocks of RUN_BLOCK_STEPS steps, which bounds the
        memory of the hoisted projection; by the invariant above the split
        changes no bit.
        """
        inputs = np.asarray(inputs, dtype=float)
        layers = self._layers()
        outputs = np.empty(inputs.shape[:2])
        for start in range(0, inputs.shape[1], RUN_BLOCK_STEPS):
            block = slice(start, start + RUN_BLOCK_STEPS)
            outputs[:, block], state = self._run_block(layers, inputs[:, block], state)
        return outputs, state

    def _run_block(self, layers: list, inputs: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        batch, steps, _ = inputs.shape
        outputs = np.empty((steps, batch))
        layer_in = inputs.transpose(1, 0, 2)  # time-major: layer_in[t] is one step
        new_state = []
        for l, ((w_h, w_x, b), layer_state) in enumerate(zip(layers, state)):
            proj = _input_projection(layer_in, w_x, b)
            top = l == len(layers) - 1
            if not top:
                layer_in = np.empty((steps, batch, w_h.shape[0]))
            h = self._hidden(layer_state)
            for t in range(steps):
                z = h @ w_h
                z += proj[t]
                h, layer_state = self._cell(z, layer_state)
                if top:
                    np.matmul(h, self.out_weight, out=outputs[t])
                else:
                    layer_in[t] = h
            new_state.append(layer_state)
        outputs += self.out_bias
        return outputs.T, new_state

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Standardized predictions for (batch, steps, features) windows from zero state."""
        return self.run(inputs, self.initial_state(len(inputs)))[0]


@dataclass
class RnnModel(_Recurrent):
    """Stacked tanh recurrence with a scalar linear readout on the top layer."""

    kind = "rnn"

    w_h: list[np.ndarray] = layer_param(SQUARE)
    w_x: list[np.ndarray] = layer_param(FAN_IN)
    b: list[np.ndarray] = layer_param(BIAS, start=0.0)
    out_weight: np.ndarray  # (units_last,)
    out_bias: float
    feature_layout: tuple[str, ...]
    scaler: Scaler
    state_config: StateConfig

    step = _Recurrent.step  # a class attribute of its own, so it can be wrapped per class

    def initial_state(self, batch: int) -> list[np.ndarray]:
        return [np.zeros((batch, units)) for units in self.hidden_sizes()]

    def _layers(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return [(w_h.T, w_x.T, b) for w_h, w_x, b in zip(self.w_h, self.w_x, self.b)]

    @staticmethod
    def _hidden(layer_state: np.ndarray) -> np.ndarray:
        return layer_state

    @staticmethod
    def _cell(z: np.ndarray, layer_state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.tanh(z)
        return h, h


@dataclass
class LstmModel(_Recurrent):
    """Stacked LSTM with one weight matrix pair and bias per gate per layer.

    Gates in forget, input, output, candidate order. Forget biases start at
    1 so early training does not flush the cell state.
    """

    kind = "lstm"

    w_fh: list[np.ndarray] = layer_param(SQUARE)
    w_fx: list[np.ndarray] = layer_param(FAN_IN)
    b_f: list[np.ndarray] = layer_param(BIAS, start=1.0)
    w_ih: list[np.ndarray] = layer_param(SQUARE)
    w_ix: list[np.ndarray] = layer_param(FAN_IN)
    b_i: list[np.ndarray] = layer_param(BIAS, start=0.0)
    w_oh: list[np.ndarray] = layer_param(SQUARE)
    w_ox: list[np.ndarray] = layer_param(FAN_IN)
    b_o: list[np.ndarray] = layer_param(BIAS, start=0.0)
    w_ch: list[np.ndarray] = layer_param(SQUARE)
    w_cx: list[np.ndarray] = layer_param(FAN_IN)
    b_c: list[np.ndarray] = layer_param(BIAS, start=0.0)
    out_weight: np.ndarray
    out_bias: float
    feature_layout: tuple[str, ...]
    scaler: Scaler
    state_config: StateConfig

    step = _Recurrent.step  # a class attribute of its own, so it can be wrapped per class

    def initial_state(self, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer (hidden, cell), both zero."""
        return [(np.zeros((batch, u)), np.zeros((batch, u))) for u in self.hidden_sizes()]

    def _layers(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per layer w_h (units, 4 units), w_x (fan_in, 4 units) and b (4 units,),
        gate blocks in forget, input, output, candidate order."""
        gates = (
            (self.w_fh, self.w_fx, self.b_f),
            (self.w_ih, self.w_ix, self.b_i),
            (self.w_oh, self.w_ox, self.b_o),
            (self.w_ch, self.w_cx, self.b_c),
        )
        return [
            (
                np.concatenate([w_h[l].T for w_h, _, _ in gates], axis=1),
                np.concatenate([w_x[l].T for _, w_x, _ in gates], axis=1),
                np.concatenate([b[l] for _, _, b in gates]),
            )
            for l in range(len(self.w_fh))
        ]

    @staticmethod
    def _hidden(layer_state: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        return layer_state[0]

    @staticmethod
    def _cell(
        z: np.ndarray, layer_state: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        c_prev = layer_state[1]
        units = c_prev.shape[1]
        gates = sigmoid(z[:, : 3 * units])  # forget, input, output
        c = gates[:, :units] * c_prev + gates[:, units : 2 * units] * np.tanh(z[:, 3 * units :])
        h = gates[:, 2 * units :] * np.tanh(c)
        return h, (h, c)


def _window_forward(model: RnnModel | LstmModel, window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=float)
    if window.ndim != 2 or window.shape[1] != len(model.feature_layout):
        raise ValueError(
            f"expected (steps, {len(model.feature_layout)}) inputs, got shape"
            f" {window.shape}"
        )
    if window.shape[0] == 0:
        raise ValueError("window must contain at least one step")
    x = model.scaler.transform_inputs(window)
    y = model.forward(x[None, :, :])
    return model.scaler.inverse_targets(y[0])


def rnn_forward(model: RnnModel, window: np.ndarray) -> np.ndarray:
    """MWh predictions for one raw feature window, zero initial state."""
    return _window_forward(model, window)


def lstm_forward(model: LstmModel, window: np.ndarray) -> np.ndarray:
    """MWh predictions for one raw feature window, zero initial states."""
    return _window_forward(model, window)


def rnn_loss_and_grads(
    params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE over every step of every window, gradients by full BPTT."""
    w_h, w_x, b = params[0:-2:3], params[1:-2:3], params[2:-2:3]
    n_layers = len(w_h)
    w_out, b_out = params[-2], params[-1]

    batch, steps, _ = inputs.shape
    # hidden[l] has steps+1 slots; slot 0 is the zero initial state
    hidden = []
    layer_in = inputs
    for l in range(n_layers):
        units = w_h[l].shape[0]
        h = np.zeros((batch, steps + 1, units))
        for t in range(steps):
            h[:, t + 1] = np.tanh(h[:, t] @ w_h[l].T + layer_in[:, t] @ w_x[l].T + b[l])
        hidden.append(h)
        layer_in = h[:, 1:]
    outputs = layer_in @ w_out + b_out

    m = batch * steps
    residual = outputs - targets
    loss = float(np.sum(residual**2) / m)
    d_out = 2.0 * residual / m

    g_wh = [np.zeros_like(w) for w in w_h]
    g_wx = [np.zeros_like(w) for w in w_x]
    g_b = [np.zeros_like(v) for v in b]
    g_w_out = np.einsum("btu,bt->u", hidden[-1][:, 1:], d_out)
    g_b_out = np.asarray(d_out.sum())

    d_time = [np.zeros((batch, w.shape[0])) for w in w_h]
    for t in range(steps - 1, -1, -1):
        d_above = d_out[:, t, None] * w_out
        for l in range(n_layers - 1, -1, -1):
            h_t = hidden[l][:, t + 1]
            dz = (d_above + d_time[l]) * (1.0 - h_t**2)
            below = inputs[:, t] if l == 0 else hidden[l - 1][:, t + 1]
            g_wh[l] += dz.T @ hidden[l][:, t]
            g_wx[l] += dz.T @ below
            g_b[l] += dz.sum(axis=0)
            d_time[l] = dz @ w_h[l]
            d_above = dz @ w_x[l]

    grads: list[np.ndarray] = []
    for l in range(n_layers):
        grads.extend([g_wh[l], g_wx[l], g_b[l]])
    grads.extend([g_w_out, g_b_out])
    return loss, grads


def lstm_loss_and_grads(
    params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE over every step of every window, gradients by full BPTT."""
    per = [params[k : k + 12] for k in range(0, len(params) - 2, 12)]
    n_layers = len(per)
    w_out, b_out = params[-2], params[-1]

    batch, steps, _ = inputs.shape
    hidden, cell = [], []  # steps+1 slots, slot 0 zero
    gate_f, gate_i, gate_o, cand = [], [], [], []  # steps slots
    layer_in = inputs
    for l in range(n_layers):
        w_fh, w_fx, b_f, w_ih, w_ix, b_i, w_oh, w_ox, b_o, w_ch, w_cx, b_c = per[l]
        units = w_fh.shape[0]
        h = np.zeros((batch, steps + 1, units))
        c = np.zeros((batch, steps + 1, units))
        f = np.empty((batch, steps, units))
        i = np.empty((batch, steps, units))
        o = np.empty((batch, steps, units))
        cd = np.empty((batch, steps, units))
        for t in range(steps):
            h_prev, x_t = h[:, t], layer_in[:, t]
            f[:, t] = sigmoid(h_prev @ w_fh.T + x_t @ w_fx.T + b_f)
            i[:, t] = sigmoid(h_prev @ w_ih.T + x_t @ w_ix.T + b_i)
            o[:, t] = sigmoid(h_prev @ w_oh.T + x_t @ w_ox.T + b_o)
            cd[:, t] = np.tanh(h_prev @ w_ch.T + x_t @ w_cx.T + b_c)
            c[:, t + 1] = f[:, t] * c[:, t] + i[:, t] * cd[:, t]
            h[:, t + 1] = o[:, t] * np.tanh(c[:, t + 1])
        hidden.append(h)
        cell.append(c)
        gate_f.append(f)
        gate_i.append(i)
        gate_o.append(o)
        cand.append(cd)
        layer_in = h[:, 1:]
    outputs = layer_in @ w_out + b_out

    m = batch * steps
    residual = outputs - targets
    loss = float(np.sum(residual**2) / m)
    d_out = 2.0 * residual / m

    g_per = [[np.zeros_like(a) for a in layer] for layer in per]
    g_w_out = np.einsum("btu,bt->u", hidden[-1][:, 1:], d_out)
    g_b_out = np.asarray(d_out.sum())

    d_time_h = [np.zeros((batch, layer[0].shape[0])) for layer in per]
    d_time_c = [np.zeros((batch, layer[0].shape[0])) for layer in per]
    for t in range(steps - 1, -1, -1):
        d_above = d_out[:, t, None] * w_out
        for l in range(n_layers - 1, -1, -1):
            w_fh, w_fx, _, w_ih, w_ix, _, w_oh, w_ox, _, w_ch, w_cx, _ = per[l]
            f, i, o, cd = gate_f[l][:, t], gate_i[l][:, t], gate_o[l][:, t], cand[l][:, t]
            tan_c = np.tanh(cell[l][:, t + 1])
            dh = d_above + d_time_h[l]
            do = dh * tan_c
            dc = d_time_c[l] + dh * o * (1.0 - tan_c**2)
            df = dc * cell[l][:, t]
            di = dc * cd
            dcd = dc * i
            d_time_c[l] = dc * f
            dz_f = df * f * (1.0 - f)
            dz_i = di * i * (1.0 - i)
            dz_o = do * o * (1.0 - o)
            dz_c = dcd * (1.0 - cd**2)
            h_prev = hidden[l][:, t]
            below = inputs[:, t] if l == 0 else hidden[l - 1][:, t + 1]
            for k, dz in enumerate((dz_f, dz_i, dz_o, dz_c)):
                g_per[l][3 * k] += dz.T @ h_prev
                g_per[l][3 * k + 1] += dz.T @ below
                g_per[l][3 * k + 2] += dz.sum(axis=0)
            d_time_h[l] = dz_f @ w_fh + dz_i @ w_ih + dz_o @ w_oh + dz_c @ w_ch
            d_above = dz_f @ w_fx + dz_i @ w_ix + dz_o @ w_ox + dz_c @ w_cx

    grads: list[np.ndarray] = []
    for layer in g_per:
        grads.extend(layer)
    grads.extend([g_w_out, g_b_out])
    return loss, grads


def train_recurrent(
    dataset: SequenceSet,
    kind: str,
    hidden_sizes: list[int],
    cfg: TrainConfig,
    scaler: Scaler | None = None,
    state_config: StateConfig | None = None,
) -> tuple[RnnModel | LstmModel, np.ndarray]:
    """Adam over minibatches of windows with global-norm gradient clipping."""
    if kind not in ("rnn", "lstm"):
        raise ValueError(f"unknown recurrent kind {kind!r}")
    if state_config is not None and state_config.order != 1:
        raise ValueError(
            f"state_config.order must be 1 for {kind}: each step carries the latest"
            f" observation and the state the rest, got {state_config.order}"
        )
    inputs = np.asarray(dataset.inputs, dtype=float)
    targets = np.asarray(dataset.targets, dtype=float)
    if inputs.ndim != 3 or len(inputs) < 1:
        raise ValueError("need at least one (steps, features) window")
    n_features = inputs.shape[2]

    rng = np.random.default_rng(cfg.rng_seed)
    params = init_params(kind, n_features, hidden_sizes, rng)
    loss_and_grads = rnn_loss_and_grads if kind == "rnn" else lstm_loss_and_grads
    optimizer = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon)

    losses = np.empty(cfg.steps)
    for step, idx in enumerate(
        minibatch_indices(rng, len(inputs), cfg.batch_size, cfg.steps)
    ):
        loss, grads = loss_and_grads(params, inputs[idx], targets[idx])
        check_finite_loss(loss, step)
        losses[step] = loss
        clip_global_norm(grads, cfg.gradient_clip_norm)
        optimizer.step(params, grads)

    if scaler is None:
        scaler = identity_scaler(n_features)
    if state_config is None:
        state_config = StateConfig(order=1, time_encoding="scalar")
    model = model_from_params(kind, params, dataset.feature_layout, scaler, state_config)
    return model, losses
