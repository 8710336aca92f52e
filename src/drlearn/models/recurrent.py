"""Recurrent and LSTM models with hand-derived backpropagation through time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import Scaler, SequenceSet, StateConfig
from .common import (
    BIAS,
    FAN_IN,
    MODEL_CLASSES,
    SQUARE,
    ParamModel,
    TrainConfig,
    layer_param,
    model_from_params,
    new_buffer,
    readout_loss,
    train_adam,
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

    Training runs one core too, loss_and_grads, on the same fused weights
    and the same _cell. Its forward hoists the input projection of every
    step into one matmul and keeps the cache each _cell returns; its
    backward writes each step's gate gradient dz over that step's
    pre-activations, which nothing reads after _cell, and forms the weight
    gradients after the time loop with one matmul or sum each (Appleyard,
    Kocisky & Blunsom 2016). It rounds differently from run and makes no
    bitwise promise.

    Both read the weights through _layers, views of the buffer's blocks.
    A layer's state is a tuple of state_arrays (batch, units) arrays whose
    first is the layer's output h: (h,) for the RNN, (h, c) for the LSTM;
    initial_state gives one zero tuple per layer. Subclasses declare
    state_arrays and provide _cell(z, layer_state) -> (new layer_state,
    cache) for the gate pre-activations z, holding no view of z, and
    _cell_backward(dz, dh, carry, cache) -> carry, which writes the step's
    dz from the gradient dh of its output h and the carry from the step
    after it (None at the last step).
    """

    recurrent = True
    state_arrays: int  # arrays per layer state, h first

    def initial_state(self, batch: int) -> list[tuple[np.ndarray, ...]]:
        """Per layer a tuple of state_arrays zero (batch, units) arrays."""
        shapes = [(batch, units) for units in self.hidden_sizes()]
        return [tuple(np.zeros(shape) for _ in range(self.state_arrays)) for shape in shapes]

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
            for t in range(steps):
                z = layer_state[0] @ w_h
                z += proj[t]
                layer_state, _ = self._cell(z, layer_state)
                if top:
                    np.matmul(layer_state[0], self.out_weight, out=outputs[t])
                else:
                    layer_in[t] = layer_state[0]
            new_state.append(layer_state)
        outputs += self.out_bias
        return outputs.T, new_state

    def _layers(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per layer w_h (units, gates * units), w_x (fan_in, gates * units) and
        b (gates * units,): the buffer's blocks, transposed, not copied."""
        return [(b[SQUARE].T, b[FAN_IN].T, b[BIAS]) for b in self.blocks]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Standardized predictions for (batch, steps, features) windows from zero state."""
        return self.run(inputs, self.initial_state(len(inputs)))[0]

    @classmethod
    def loss_and_grads(
        cls, params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """MSE over every step of every window, and its gradient by full BPTT,
        the flat list's views of one vector laid out like the parameter buffer."""
        # a model over a copy of params, for the fused weights and zero state serving uses
        model = model_from_params(cls.kind, params, (), None, None)
        x = np.ascontiguousarray(np.transpose(inputs, (1, 0, 2)), dtype=float)  # time-major
        steps, batch, _ = x.shape
        layers = model._layers()

        tapes = []  # per layer: input, pre-activations, hidden states (slot 0 zero), cell caches
        for (w_h, w_x, b), state in zip(layers, model.initial_state(batch)):
            units = w_h.shape[0]
            # bias added in place: "... @ w_x + b" makes numpy check whether it may
            # reuse the large temporary, and that check costs more than the add
            z = (x.reshape(steps * batch, -1) @ w_x).reshape(steps, batch, -1)
            z += b
            hidden = np.empty((steps + 1, batch, units))
            hidden[0] = state[0]
            caches = []
            for t in range(steps):
                z[t] += hidden[t] @ w_h
                state, cache = cls._cell(z[t], state)
                hidden[t + 1] = state[0]
                caches.append(cache)
            tapes.append((x, z, hidden, caches))
            x = hidden[1:]

        _, grad_blocks, grads = new_buffer(cls.kind, inputs.shape[-1], model.hidden_sizes())
        loss, d_above = readout_loss(x, *params[-2:], np.transpose(targets), grads)
        m = batch * steps
        for l in range(len(layers) - 1, -1, -1):
            (w_h, w_x, _), (x, dz, hidden, caches) = layers[l], tapes[l]  # dz over z
            units = w_h.shape[0]
            carry = None
            for t in range(steps - 1, -1, -1):
                dh = d_above[t] if t == steps - 1 else d_above[t] + dz[t + 1] @ w_h.T
                carry = cls._cell_backward(dz[t], dh, carry, caches[t])
            dz = dz.reshape(m, -1)
            np.matmul(dz.T, hidden[:-1].reshape(m, units), out=grad_blocks[l][SQUARE])
            np.matmul(dz.T, x.reshape(m, -1), out=grad_blocks[l][FAN_IN])
            dz.sum(axis=0, out=grad_blocks[l][BIAS])
            if l:
                d_above = (dz @ w_x.T).reshape(steps, batch, -1)
        return loss, grads


@dataclass(eq=False)  # ParamModel.__eq__
class RnnModel(_Recurrent):
    """Stacked tanh recurrence with a scalar linear readout on the top layer."""

    kind = "rnn"

    w_h: list[np.ndarray] = layer_param(SQUARE)
    w_x: list[np.ndarray] = layer_param(FAN_IN)
    b: list[np.ndarray] = layer_param(BIAS, start=0.0)
    out_weight: np.ndarray  # (units_last,)
    out_bias: float

    state_arrays = 1  # (h,)
    step = _Recurrent.step  # a class attribute of its own, so it can be wrapped per class

    @staticmethod
    def _cell(z: np.ndarray, layer_state: tuple[np.ndarray]) -> tuple[tuple, np.ndarray]:
        """The state (h,) and h itself as the cache."""
        h = np.tanh(z)
        return (h,), h

    @staticmethod
    def _cell_backward(dz: np.ndarray, dh: np.ndarray, carry: None, h: np.ndarray) -> None:
        np.multiply(dh, 1.0 - h**2, out=dz)


@dataclass(eq=False)  # ParamModel.__eq__
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

    state_arrays = 2  # (h, c)
    step = _Recurrent.step  # a class attribute of its own, so it can be wrapped per class

    @staticmethod
    def _cell(z: np.ndarray, layer_state: tuple[np.ndarray, np.ndarray]) -> tuple:
        """The state (h, c) and the cache (sigmoid gates, candidate, tanh(c),
        previous c) for _cell_backward."""
        c_prev = layer_state[1]
        units = c_prev.shape[1]
        gates = sigmoid(z[:, : 3 * units])  # forget, input, output
        cand = np.tanh(z[:, 3 * units :])
        c = gates[:, :units] * c_prev + gates[:, units : 2 * units] * cand
        tanh_c = np.tanh(c)
        h = gates[:, 2 * units :] * tanh_c
        return (h, c), (gates, cand, tanh_c, c_prev)

    @staticmethod
    def _cell_backward(dz: np.ndarray, dh: np.ndarray, dc_next, cache: tuple) -> np.ndarray:
        """Writes dz, the gradient of the gate pre-activations: forget dc c_prev
        f (1 - f), input dc cand i (1 - i), output dh tanh(c) o (1 - o) and
        candidate dc i (1 - cand^2), where dc is the cell state's gradient.
        Returns dc f, the gradient into the previous cell state."""
        gates, cand, tanh_c, c_prev = cache
        units = dh.shape[1]
        dc = dh * gates[:, 2 * units :] * (1.0 - tanh_c**2)
        if dc_next is not None:
            dc += dc_next
        np.multiply(dc, c_prev, out=dz[:, :units])
        np.multiply(dc, cand, out=dz[:, units : 2 * units])
        np.multiply(dh, tanh_c, out=dz[:, 2 * units : 3 * units])
        dz[:, : 3 * units] *= gates * (1.0 - gates)
        np.multiply(dc * gates[:, units : 2 * units], 1.0 - cand**2, out=dz[:, 3 * units :])
        return dc * gates[:, :units]


def rnn_forward(model: RnnModel | LstmModel, window: np.ndarray) -> np.ndarray:
    """MWh predictions for one raw feature window, zero initial state."""
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


lstm_forward = rnn_forward
rnn_loss_and_grads = RnnModel.loss_and_grads
lstm_loss_and_grads = LstmModel.loss_and_grads


def train_recurrent(
    dataset: SequenceSet,
    kind: str,
    hidden_sizes: list[int],
    cfg: TrainConfig,
    scaler: Scaler | None = None,
    state_config: StateConfig | None = None,
) -> tuple[RnnModel | LstmModel, np.ndarray]:
    """Adam over minibatches of windows with global-norm gradient clipping."""
    if kind not in MODEL_CLASSES or not MODEL_CLASSES[kind].recurrent:
        raise ValueError(f"unknown recurrent kind {kind!r}")
    if state_config is not None and state_config.order != 1:
        raise ValueError(
            f"state_config.order must be 1 for {kind}: each step carries the latest"
            f" observation and the state the rest, got {state_config.order}"
        )
    inputs = np.asarray(dataset.inputs)
    if inputs.ndim != 3 or len(inputs) < 1:
        raise ValueError("need at least one (steps, features) window")
    if state_config is None:
        state_config = StateConfig(order=1, time_encoding="scalar")
    # the kernel is looked up here, at call time, so a wrapper put on it is called
    loss_and_grads = rnn_loss_and_grads if kind == "rnn" else lstm_loss_and_grads
    return train_adam(kind, loss_and_grads, dataset, hidden_sizes, cfg, scaler, state_config)
