"""What the model families share: the one declaration of their parameters,
which drives init, the flat parameter list and persistence, whether a
family carries state, and the Adam loop that trains the gradient-trained
families."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import NumericalError
from ..features import Scaler, StateConfig, identity_scaler
from ..records import Bounded, bounded
from . import adam


@dataclass(frozen=True)
class TrainConfig(Bounded):
    """Optimizer and schedule settings shared by all trained families; the
    training section of a config file is this plus the pipeline's fields."""

    learning_rate: float = bounded(0.001, above=0)
    steps: int = bounded(10000, minimum=1)
    batch_size: int = bounded(32, minimum=1)
    beta1: float = bounded(0.9, within=(0.0, 1.0))
    beta2: float = bounded(0.999, within=(0.0, 1.0))
    epsilon: float = bounded(1e-8, above=0)
    rng_seed: int = bounded(0, minimum=0)
    gradient_clip_norm: float = bounded(5.0, above=0)  # applied to recurrent training only


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Symmetric uniform init with limit sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_out, fan_in))


# Shape rules of per-layer parameters, over the layer's width ("units") and
# the width of what feeds it ("fan_in": the features below the first layer,
# the layer underneath above it).
SQUARE = ("units", "units")
FAN_IN = ("units", "fan_in")
BIAS = ("units",)

MODEL_CLASSES: dict[str, type] = {}  # kind -> model class, filled as the classes are defined


def layer_param(shape: tuple[str, ...], start: float | None = None):
    """Declare a model field holding one array per layer, of the shape rule.

    A weight (start None) begins as a Glorot draw, a bias at the constant
    start.
    """
    return field(metadata={"shape": shape, "start": start})


@dataclass(eq=False)  # a generated __eq__ would compare arrays with == and raise
class ParamModel:
    """Base of the model families, each of which declares its parameters once.

    A family declares its per-layer list fields with layer_param, in the
    order they take within a layer of the flat parameter list, and names its
    readout pair: a (fan_in,) weight over the top layer (over the features
    when there are no layers) and a scalar bias. The flat list is every
    layer's arrays in declaration order, then the readout weight and bias;
    the optimizer, the *_loss_and_grads kernels and gradcheck work on it,
    and init_params, model_from_params, flat_params and the JSON params
    document all follow the declaration; construction checks every field against it.
    The arrays live in one 1-D float64 buffer that the fields view (write
    into them, do not rebind them). Per layer, blocks holds a SQUARE, a FAN_IN
    and a BIAS block of it, stacking the arrays of each rule in declaration
    order, (4u, u), (4u, fan_in) and (4u,) for the LSTM; the readout follows.
    recurrent is the one place that says whether a family carries its own
    state (RNN, LSTM) or reads an explicit order-n lag window (linear, FNN).
    """

    readout = ("out_weight", "out_bias")
    recurrent = False
    feature_layout: tuple[str, ...]
    scaler: Scaler
    state_config: StateConfig

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            MODEL_CLASSES[cls.kind] = cls

    def __post_init__(self) -> None:
        """Lay out a new buffer, copy each array into its view of it, and let
        the fields view it. A ValueError names the first field that breaks a
        rule: layer counts, shapes (each array has its view's shape, no
        broadcasting), scaler width, recurrent order."""
        layer_fields = self.layer_fields()
        counts = {f.name: len(getattr(self, f.name)) for f in layer_fields}
        if len(set(counts.values())) > 1:
            layers = ", ".join(f"{name} has {count}" for name, count in counts.items())
            raise ValueError(f"dimension mismatch: fields disagree on layer count: {layers}")
        given, hidden_sizes = flat_params(self), self.hidden_sizes()
        n_features = len(self.feature_layout)
        if not n_features:  # kernel-only: the first FAN_IN array's width, or the readout weight's
            fan_in = [f.name for f in layer_fields if f.metadata["shape"] == FAN_IN]
            first = getattr(self, fan_in[0])[0] if hidden_sizes else getattr(self, self.readout[0])
            n_features = (np.shape(first) or (0,))[-1]
        self.buffer, self.blocks, views = new_buffer(self.kind, n_features, hidden_sizes)
        names = [f"{f.name}[{layer}]" for layer in range(len(hidden_sizes)) for f in layer_fields]
        for where, value, view in zip([*names, *self.readout], given, views, strict=True):
            if np.shape(value) != view.shape:
                raise ValueError(
                    f"dimension mismatch: {where} expected shape {view.shape}, got {np.shape(value)}"
                )
            view[...] = value
        scaler, order = self.scaler, getattr(self.state_config, "order", 1)  # None: kernel-only
        if scaler is not None and not (
            np.shape(scaler.input_mean) == np.shape(scaler.input_std) == (n_features,)
        ):
            raise ValueError(
                f"dimension mismatch: scaler expects {n_features} features to match the layout"
            )
        if self.recurrent and order != 1:
            raise ValueError(
                f"state_config.order must be 1 for {self.kind}, got {order}:"
                " each step carries the latest observation and the state the rest"
            )
        vars(self).update(field_values(type(self), views))

    def __getstate__(self) -> dict:
        """Pickle each parameter once, in its field, and not the buffer and
        blocks (pickle would give every view an array of its own) or the
        replay cache that serving keeps (predict._Replayed)."""
        return {k: v for k, v in vars(self).items() if k not in ("buffer", "blocks", "_replayed")}

    def __setstate__(self, state: dict) -> None:
        """Copy the unpickled fields into a new buffer that they then view."""
        vars(self).update(state)
        self.__post_init__()

    @classmethod
    def layer_fields(cls) -> list:
        return [f for f in fields(cls) if "shape" in f.metadata]

    def __eq__(self, other) -> bool:
        """Same family, layer widths, parameters, feature layout, scaler and state config."""
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.hidden_sizes() == other.hidden_sizes()
            and all_equal(self.prediction_reads(), other.prediction_reads())
            and tuple(self.feature_layout) == tuple(other.feature_layout)
            and self.state_config == other.state_config
        )

    def prediction_reads(self) -> list[np.ndarray]:
        """Every array the model's predictions read: the parameter buffer,
        then the scaler's statistics in field order."""
        scaler = self.scaler
        return [self.buffer, *(np.asarray(getattr(scaler, f.name)) for f in fields(scaler))]

    def hidden_sizes(self) -> list[int]:
        """Width of every layer, read off the first per-layer field (0 for a
        0-d array there, which the constructor then refuses by name)."""
        first = self.layer_fields()[:1]
        return [(np.shape(a) or (0,))[0] for f in first for a in getattr(self, f.name)]

    def initial_state(self, batch: int) -> list:
        """Empty: a direct family's feature row holds all the history it reads.
        The recurrent families override this and run."""
        return []

    def run(self, inputs: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        """Standardized predictions (batch, steps) for (batch, steps, features)
        inputs continuing from state, and the state after the last step."""
        inputs = np.asarray(inputs, dtype=float)
        batch, steps, n_features = inputs.shape
        outputs = self.forward(inputs.reshape(batch * steps, n_features))
        return outputs.reshape(batch, steps), state

    def workspace(self, shape: tuple) -> Workspace:
        """A Workspace for loss_and_grads on this model's flat list and
        minibatches of the given shape."""
        return Workspace(self.kind, flat_params(self), self.hidden_sizes(), shape)

    def step(self, x: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        """One time step for a (batch, features) input; returns (y, new state)."""
        outputs, new_state = self.run(np.asarray(x, dtype=float)[:, None, :], state)
        return outputs[:, 0], new_state


def all_equal(a: list, b: list) -> bool:
    """Equally long, and equal pairwise by np.array_equal (so NaN never matches)."""
    return len(a) == len(b) and all(map(np.array_equal, a, b))


def model_class(kind: str) -> type:
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODEL_CLASSES[kind]


def init_params(
    kind: str, n_features: int, hidden_sizes: list[int], rng: np.random.Generator
) -> list[np.ndarray]:
    """Initial flat parameter list of a family, drawn in flat-list order into
    views of a new buffer: each bias at its field's start, each weight a
    Glorot draw of its view's shape."""
    cls = model_class(kind)
    starts = [f.metadata["start"] for f in cls.layer_fields()] * len(hidden_sizes) + [None, 0.0]
    _, _, params = new_buffer(kind, n_features, hidden_sizes)
    for p, start in zip(params, starts, strict=True):
        if start is not None:
            p[...] = start
        elif p.ndim == 2:
            p[...] = glorot_uniform(rng, *p.shape)
        else:  # the readout weight, into a single output unit
            p[...] = glorot_uniform(rng, 1, *p.shape)[0]
    return params


def new_buffer(kind: str, n_features: int, hidden_sizes: list[int]):
    """A new, unset buffer laid out as ParamModel describes, its blocks (per
    layer, shape rule -> stacked block) and the flat list, all views of it.
    The one walk that derives the layout from a family's declaration."""
    rules = [f.metadata["shape"] for f in model_class(kind).layer_fields()]
    widths = [n_features, *hidden_sizes]
    stacks = []  # per layer and rule: (arrays of the rule, *the shape of each)
    for fan_in, units in zip(widths, hidden_sizes):
        dims = {"units": units, "fan_in": fan_in}
        stacks.append({r: (rules.count(r), *(dims[d] for d in r)) for r in (SQUARE, FAN_IN, BIAS)})
    sizes = [math.prod(shape) for layer in stacks for shape in layer.values()]
    buffer = np.empty(sum(sizes) + widths[-1] + 1)
    chunks = iter(np.split(buffer, np.cumsum(sizes)))
    blocks, views = [], []
    for layer in stacks:
        blocks.append({})
        per_rule = {}  # rule -> its fields' views, in declaration order
        for rule, shape in layer.items():
            stacked = next(chunks).reshape(shape)
            blocks[-1][rule] = stacked.reshape(shape[0] * shape[1], *shape[2:])
            per_rule[rule] = iter(stacked)
        views += [next(per_rule[r]) for r in rules]
    readout = next(chunks)
    return buffer, blocks, views + [readout[:-1], readout[-1:].reshape(())]


class Workspace:
    """What a family's loss_and_grads writes into, made once for a flat
    parameter list and a minibatch shape, (batch, features) or (batch,
    steps, features): the gradient vector grad, laid out like the parameter
    buffer, its blocks and its flat list of views, which the kernel returns.
    The recurrent families add their tape (_Recurrent.workspace).

    A kernel given a workspace overwrites it, so what a call returned holds
    until the next call with it. train_adam makes one per training call;
    two threads must not share one.
    """

    def __init__(self, kind: str, params: list, hidden_sizes: list[int], shape: tuple):
        self.kind, self.params, self.shape = kind, params, tuple(shape)
        self.grad, self.grad_blocks, self.grads = new_buffer(kind, shape[-1], hidden_sizes)

    def check(self, kind: str, params: list, inputs: np.ndarray) -> None:
        """Raise a ValueError unless this workspace was made for kind, params and inputs' shape."""
        if (kind, np.shape(inputs)) != (self.kind, self.shape):
            raise ValueError(
                f"workspace made for {self.kind} minibatches of shape {self.shape},"
                f" got {kind} inputs of shape {np.shape(inputs)}"
            )
        if params[0] is not self.params[0]:
            raise ValueError("workspace made for another parameter list")


def field_values(cls, params: list) -> dict:
    """Field name -> value for a family's flat list: each per-layer field's
    arrays, one per layer, then the readout pair."""
    names = [f.name for f in cls.layer_fields()]
    values = {name: list(params[k : -2 : len(names)]) for k, name in enumerate(names)}
    return values | dict(zip(cls.readout, params[-2:]))


def readout_loss(top: np.ndarray, w_out, b_out, targets: np.ndarray, grads: list, d_top=None):
    """MSE of the scalar readout top @ w_out + b_out against targets, for top
    of shape targets.shape + (units,). Writes the readout weight and bias
    gradients into grads[-2:] and returns the loss and the gradient into top,
    written into d_top when one is given."""
    residual = top @ w_out + b_out - targets
    m = residual.size
    loss = float(np.sum(residual**2) / m)
    d_out = 2.0 * residual / m
    np.matmul(top.reshape(m, -1).T, d_out.reshape(m), out=grads[-2])
    d_out.sum(out=grads[-1])
    return loss, np.multiply(d_out[..., None], w_out, out=d_top)


def model_from_params(kind: str, params: list[np.ndarray], feature_layout, scaler, state_config):
    """The model over a new buffer holding a copy of the flat list."""
    cls = model_class(kind)
    values = field_values(cls, params)
    return cls(**values, feature_layout=feature_layout, scaler=scaler, state_config=state_config)


def flat_params(model) -> list[np.ndarray]:
    """The model's flat list, views of its buffer; the inverse of model_from_params."""
    layers = zip(*(getattr(model, f.name) for f in model.layer_fields()))
    return [a for layer in layers for a in layer] + [getattr(model, name) for name in model.readout]


def train_adam(kind: str, loss_and_grads, dataset, hidden_sizes, cfg, scaler, state_config):
    """Adam on seeded minibatches of dataset with the family's loss_and_grads,
    clipping the global gradient norm when the family is recurrent; returns
    the model it trained in place and the loss curve. Every step writes its
    gradient into one workspace, and Adam steps the model's buffer by the
    workspace's gradient vector; clipping sums the norm over the flat list.
    Both go through the adam module, so a wrapper put there sees every call."""
    if not hidden_sizes:
        raise ValueError(f"{kind} needs at least one hidden layer, got hidden_sizes {hidden_sizes}")
    inputs = np.asarray(dataset.inputs, dtype=float)
    targets = np.asarray(dataset.targets, dtype=float)
    rng = np.random.default_rng(cfg.rng_seed)
    if scaler is None:
        scaler = identity_scaler(inputs.shape[-1])
    initial = init_params(kind, inputs.shape[-1], hidden_sizes, rng)
    model = model_from_params(kind, initial, dataset.feature_layout, scaler, state_config)
    params = flat_params(model)
    workspace = model.workspace((min(cfg.batch_size, len(inputs)), *inputs.shape[1:]))
    optimizer = adam.Adam([model.buffer], cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon)
    losses = np.empty(cfg.steps)
    for step, idx in enumerate(minibatch_indices(rng, len(inputs), cfg.batch_size, cfg.steps)):
        loss, grads = loss_and_grads(params, inputs[idx], targets[idx], workspace=workspace)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss {loss} at training step {step}")
        losses[step] = loss
        if model.recurrent:
            adam.clip_global_norm(grads, cfg.gradient_clip_norm)
        optimizer.step([model.buffer], [workspace.grad])
    return model, losses


def minibatch_indices(
    rng: np.random.Generator, n_samples: int, batch_size: int, steps: int
):
    """Yield `steps` index batches, reshuffling the sample order each epoch.

    Batches are consecutive slices of a fresh permutation; a trailing
    partial slice is dropped when n_samples >= batch_size.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    batch_size = min(batch_size, n_samples)
    per_epoch = n_samples // batch_size
    for step in range(steps):
        b = step % per_epoch
        if b == 0:
            perm = rng.permutation(n_samples)
        yield perm[b * batch_size : (b + 1) * batch_size]
