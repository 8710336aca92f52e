"""Recurrent and LSTM models with hand-derived backpropagation through time."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..features import Scaler, SupervisedSet
from .common import (
    BIAS,
    FAN_IN,
    MODEL_CLASSES,
    SQUARE,
    ParamModel,
    TrainConfig,
    Workspace,
    layer_param,
    readout_loss,
    train_adam,
)

RUN_BLOCK_STEPS = 256  # steps whose input projection run holds at once
_NEW = (None,) * 3  # run's new_state and cache for _cell: numpy makes each array


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

    Invariant: run and forward, and so predict and step, give bit-identical
    outputs and states for the same inputs, however a series is split
    between calls. Per layer and block of steps, run hoists the input
    projection out of the time loop (elementwise, see _input_projection);
    each step then does one (batch, units) @ (units, gates * units) matmul,
    the cell update, and the readout matmul, on arrays of the same shapes
    whether the call holds one step or many. The readout bias is added
    elementwise per block. Batched prediction, one-step serving and
    rollouts all rely on this.

    Training runs one core too, loss_and_grads, on the same fused weights
    and the same _cell, over the tape of a Workspace (see workspace). Its
    forward hoists the input projection of every step into one matmul; its
    backward writes each step's gate gradient dz over that step's
    pre-activations, which nothing reads after _cell, and forms the weight
    gradients after the time loop with one matmul or sum each (Appleyard,
    Kocisky & Blunsom 2016). It rounds differently from run and makes no
    bitwise promise.

    Both read the weights through _layers, views of the buffer's blocks.
    A layer's state is a tuple of state_arrays (batch, units) arrays whose
    first is the layer's output h: (h,) for the RNN, (h, c) for the LSTM;
    initial_state gives one zero tuple per layer. Subclasses declare
    state_arrays, gates (units-wide blocks of pre-activations per step),
    and the leading dimensions before (batch, units) of the arrays of a
    step's cell cache (cache_shapes) and of the backward scratch
    (scratch_shapes). They provide _gate_views(z), the views of one step's
    (batch, gates * units) pre-activations that the cell reads, and write
    their results with out=:
    _cell(z, state, new_state, cache) the new state and the cache, from
    the gate views z and the state before the step, into the arrays
    new_state and cache hold (the tape's), or into new ones where they hold
    None (run's _NEW); it returns the new state. And
    _cell_backward(dz, dh, carry, state, new_state, cache, scratch) the
    step's dz, over its gate views, from the gradient dh of its output h
    and the carry from the step after it (None at the last step); it
    returns the carry into the step before.
    """

    recurrent = True
    state_arrays: int  # arrays per layer state, h first
    gates: int  # units-wide blocks of pre-activations per step
    cache_shapes: tuple  # per array of a step's cell cache, its dimensions before (batch, units)
    scratch_shapes: tuple  # the same for _cell_backward's scratch

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
            units = w_h.shape[0]
            proj = _input_projection(layer_in, w_x, b)
            z = np.empty((batch, self.gates * units))
            gate_views = self._gate_views(z)
            top = l == len(layers) - 1
            if not top:
                layer_in = np.empty((steps, batch, units))
            for t in range(steps):
                np.matmul(layer_state[0], w_h, out=z)
                z += proj[t]
                # the state and cache in new arrays: the caller keeps the state it passed
                layer_state = self._cell(gate_views, layer_state, _NEW, _NEW)
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

    def workspace(self, shape: tuple) -> Workspace:
        """A Workspace for loss_and_grads on this model's flat list and
        (batch, steps, features) minibatches, holding the time-major inputs
        x and the tape of every layer (_LayerTape)."""
        workspace = super().workspace(shape)
        batch, steps, n_features = shape
        workspace.x = layer_in = np.empty((steps, batch, n_features))
        workspace.tapes = []
        for weights in self._layers():
            workspace.tapes.append(_LayerTape(type(self), weights, layer_in, batch))
            layer_in = workspace.tapes[-1].states[0][1:]
        return workspace

    @classmethod
    def loss_and_grads(
        cls, params: list[np.ndarray], inputs: np.ndarray, targets: np.ndarray, *, workspace
    ) -> tuple[float, list[np.ndarray]]:
        """MSE over every step of every window, and its gradient by full BPTT,
        the flat list's views of one vector laid out like the parameter
        buffer: the vector of workspace, which model.workspace(inputs.shape)
        made for the model whose flat list params is. The core reads that
        model's fused weights through the workspace's tape."""
        workspace.check(cls.kind, params, inputs)
        np.copyto(workspace.x, np.transpose(inputs, (1, 0, 2)))  # time-major
        tapes = workspace.tapes
        steps, batch, _ = workspace.x.shape
        m = steps * batch

        for tape in tapes:
            np.matmul(tape.x.reshape(m, -1), tape.w_x, out=tape.z.reshape(m, -1))
            tape.z += tape.b
            for z, gate_views, state, new_state, cache, _ in tape.steps:
                np.matmul(state[0], tape.w_h, out=tape.z_h)
                z += tape.z_h
                cls._cell(gate_views, state, new_state, cache)

        top = tapes[-1]
        loss, _ = readout_loss(
            top.states[0][1:], *workspace.params[-2:], np.transpose(targets), workspace.grads,
            top.d_out,
        )
        for l in range(len(tapes) - 1, -1, -1):
            tape, grad_blocks = tapes[l], workspace.grad_blocks[l]
            w_h_t, carry = tape.w_h.T, None
            for t in range(steps - 1, -1, -1):
                _, dz, state, new_state, cache, d_out = tape.steps[t]  # dz over the gate views
                if t == steps - 1:
                    dh = d_out
                else:
                    dh = np.matmul(tape.steps[t + 1][0], w_h_t, out=tape.dh)
                    dh += d_out
                carry = cls._cell_backward(dz, dh, carry, state, new_state, cache, tape.scratch)
            dz = tape.z.reshape(m, -1)
            np.matmul(dz.T, tape.states[0][:-1].reshape(m, -1), out=grad_blocks[SQUARE])
            np.matmul(dz.T, tape.x.reshape(m, -1), out=grad_blocks[FAN_IN])
            dz.sum(axis=0, out=grad_blocks[BIAS])
            if l:
                np.matmul(dz, tape.w_x.T, out=tapes[l - 1].d_out.reshape(m, -1))
        return loss, workspace.grads


def _empty(*shapes: tuple) -> list[np.ndarray]:
    """A new array of each shape, all views of one buffer. One allocation
    per tape: once a first one is freed, glibc's malloc serves the next of
    that size from its heap instead of mapping fresh pages for every array."""
    sizes = [math.prod(shape) for shape in shapes]
    buffer, offset, arrays = np.empty(sum(sizes)), 0, []
    for shape, size in zip(shapes, sizes):
        arrays.append(buffer[offset : offset + size].reshape(shape))
        offset += size
    return arrays


class _LayerTape:
    """One layer's share of a recurrent Workspace, for minibatches of batch
    windows of len(x) steps:
    - w_h, w_x and b, the layer's weights as _layers gives them;
    - x, the layer's time-major input (the layer below's outputs above the first);
    - z (steps, batch, gates * units), the pre-activations, over which the
      backward writes their gradient dz;
    - states, per state array a (steps + 1, batch, units) array whose slot
      0 is the zero initial state and slot t + 1 the state after step t;
    - the cell caches, per step, and d_out (steps, batch, units), the loss
      gradient into the layer's outputs;
    - z_h and dh, the (batch, gates * units) and (batch, units) results of
      the per-step matmuls, and the backward scratch;
    - steps: per step, the views the time loops read, made once: z[t], its
      gate views, the states before and after, the cache and d_out[t].
    """

    def __init__(self, cls: type, weights: tuple, x: np.ndarray, batch: int):
        self.w_h, self.w_x, self.b = weights
        units, steps = self.w_h.shape[0], len(x)
        self.x = x
        self.z, self.d_out, self.z_h, self.dh, *arrays = _empty(
            (steps, batch, cls.gates * units),
            (steps, batch, units),
            (batch, cls.gates * units),
            (batch, units),
            *[(steps + 1, batch, units)] * cls.state_arrays,
            *[(steps, *lead, batch, units) for lead in cls.cache_shapes],
            *[(*lead, batch, units) for lead in cls.scratch_shapes],
        )
        self.states = arrays[: cls.state_arrays]
        for state in self.states:
            state[0] = 0.0
        caches = arrays[cls.state_arrays : -len(cls.scratch_shapes)]
        self.scratch = arrays[-len(cls.scratch_shapes) :]
        self.steps = [
            (
                self.z[t],
                cls._gate_views(self.z[t]),
                tuple(s[t] for s in self.states),
                tuple(s[t + 1] for s in self.states),
                tuple(c[t] for c in caches),
                self.d_out[t],
            )
            for t in range(steps)
        ]


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
    gates = 1
    cache_shapes = ()  # the backward reads h itself
    scratch_shapes = ((),)  # 1 - h^2
    step = _Recurrent.step  # a class attribute of its own, so it can be wrapped per class

    @staticmethod
    def _gate_views(z: np.ndarray) -> np.ndarray:
        """z itself: the cell reads it whole."""
        return z

    @staticmethod
    def _cell(z: np.ndarray, state: tuple, new_state: tuple, cache: tuple) -> tuple:
        """h = tanh(z)."""
        return (np.tanh(z, out=new_state[0]),)

    @staticmethod
    def _cell_backward(dz, dh, carry: None, state, new_state, cache, scratch) -> None:
        """dz = dh (1 - h^2)."""
        (slope,) = scratch
        np.square(new_state[0], out=slope)
        np.subtract(1.0, slope, out=slope)
        np.multiply(dh, slope, out=dz)


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
    gates = 4
    cache_shapes = ((3,), (), ())  # sigmoid gates, gate-major; candidate; tanh(c)
    # dc; a product; the carry dc f; gates (1 - gates); dz, gate-major
    scratch_shapes = ((), (), (), (3,), (4,))
    step = _Recurrent.step  # a class attribute of its own, so it can be wrapped per class

    @staticmethod
    def _gate_views(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """z as a gate-major (4, batch, units) view, so that each gate is a
        (batch, units) array, then its sigmoid gates and its candidate."""
        batch, units = z.shape[0], z.shape[1] // 4
        gate_major = z.reshape(batch, 4, units).transpose(1, 0, 2)
        return gate_major, gate_major[:3], gate_major[3]

    @staticmethod
    def _cell(z: tuple, state: tuple, new_state: tuple, cache: tuple) -> tuple:
        """The state (h, c), and the cache for _cell_backward: the sigmoid
        gates (3, batch, units) forget, input, output, the candidate and tanh(c)."""
        _, z_gates, z_cand = z
        gates = np.negative(z_gates, out=cache[0])
        np.exp(gates, out=gates)
        gates += 1.0
        np.reciprocal(gates, out=gates)
        cand = np.tanh(z_cand, out=cache[1])
        c = np.multiply(gates[0], state[1], out=new_state[1])
        tanh_c = np.multiply(gates[1], cand, out=cache[2])
        c += tanh_c
        np.tanh(c, out=tanh_c)
        return np.multiply(gates[2], tanh_c, out=new_state[0]), c

    @staticmethod
    def _cell_backward(dz, dh, dc_next, state, new_state, cache, scratch) -> np.ndarray:
        """Writes dz, the gradient of the gate pre-activations: forget dc c_prev
        f (1 - f), input dc cand i (1 - i), output dh tanh(c) o (1 - o) and
        candidate dc i (1 - cand^2), where dc is the cell state's gradient.
        It forms them in a contiguous gate-major scratch and copies them into
        dz once. Returns dc f, the gradient into the previous cell state."""
        gates, cand, tanh_c = cache
        dc, product, carry, slopes, grad = scratch
        np.multiply(dh, gates[2], out=dc)
        np.square(tanh_c, out=product)
        np.subtract(1.0, product, out=product)
        dc *= product
        if dc_next is not None:
            dc += dc_next
        np.multiply(dc, state[1], out=grad[0])
        np.multiply(dc, cand, out=grad[1])
        np.multiply(dh, tanh_c, out=grad[2])
        np.subtract(1.0, gates, out=slopes)
        slopes *= gates
        grad[:3] *= slopes
        np.multiply(dc, gates[1], out=product)
        np.square(cand, out=grad[3])
        np.subtract(1.0, grad[3], out=grad[3])
        grad[3] *= product
        np.copyto(dz[0], grad)
        return np.multiply(dc, gates[0], out=carry)


rnn_loss_and_grads = RnnModel.loss_and_grads
lstm_loss_and_grads = LstmModel.loss_and_grads


def train_recurrent(
    dataset: SupervisedSet,
    kind: str,
    hidden_sizes: list[int],
    cfg: TrainConfig,
    scaler: Scaler | None = None,
) -> tuple[RnnModel | LstmModel, np.ndarray]:
    """Adam over minibatches of windows with global-norm gradient clipping;
    returns the model, over the set's state config, and the loss curve."""
    if kind not in MODEL_CLASSES or not MODEL_CLASSES[kind].recurrent:
        raise ValueError(f"unknown recurrent kind {kind!r}")
    inputs = np.asarray(dataset.inputs)
    if inputs.ndim != 3 or len(inputs) < 1:
        raise ValueError(
            f"train_recurrent needs at least one (steps, features) window, got shape {inputs.shape}"
        )
    # the kernel is looked up here, at call time, so a wrapper put on it is called
    loss_and_grads = rnn_loss_and_grads if kind == "rnn" else lstm_loss_and_grads
    return train_adam(kind, loss_and_grads, dataset, hidden_sizes, cfg, scaler)
