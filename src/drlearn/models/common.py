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
from . import adam


def bounded(default, **bounds):
    """A field with a default and the bounds that bound_violation checks."""
    return field(default=default, metadata=bounds)


def bound_violation(
    value, minimum=None, maximum=None, above=None, below=None, within=None, choices=None
) -> str | None:
    """Why value breaks its field's bounds or is a non-finite float, or None.
    minimum/maximum are inclusive, above/below strict, within is [low, high),
    checked before finiteness so that a NaN reads as outside it."""
    if minimum is not None and value < minimum:
        return f"must be >= {minimum}, got {value}"
    if within is not None and not within[0] <= value < within[1]:
        return f"must be in [{within[0]:g}, {within[1]:g}), got {value}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be a finite number, got {value}"
    if maximum is not None and value > maximum:
        return f"must be <= {maximum}, got {value}"
    if above is not None and not value > above:
        return f"must be > {above}, got {value}"
    if below is not None and not value < below:
        return f"must be < {below}, got {value}"
    if choices is not None and value not in choices:
        return f"must be one of {sorted(choices)}, got {value!r}"
    return None


@dataclass(frozen=True)
class Bounded:
    """Base of the frozen settings blocks: construction checks each field
    (each entry, as field[k], of a tuple field) against its bounded()
    declaration and raises a ValueError naming the first that breaks it."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            entries = enumerate(value) if isinstance(value, tuple) else [(None, value)]
            for k, item in entries:
                problem = bound_violation(item, **f.metadata)
                if problem is not None:
                    name = f.name if k is None else f"{f.name}[{k}]"
                    raise ValueError(f"{name}: {problem}")


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
    document all follow the declaration.
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
        """Copy the given arrays into a new buffer that the fields then view."""
        given = flat_params(self)
        rules = [f.metadata["shape"] for f in self.layer_fields()]
        # the first layer's fan-in, or the readout weight's width when there are no layers
        n_features = np.shape(given[rules.index(FAN_IN) if len(given) > 2 else -2])[-1]
        self.buffer, self.blocks, views = new_buffer(self.kind, n_features, self.hidden_sizes())
        for view, value in zip(views, given, strict=True):
            view[...] = value
        vars(self).update(field_values(type(self), views))

    def __getstate__(self) -> dict:
        """Pickle each parameter once, in its field, and not the buffer and
        blocks: pickle would give every view an array of its own."""
        return {k: v for k, v in vars(self).items() if k not in ("buffer", "blocks")}

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
        """Width of every layer, read off the first per-layer field."""
        return [len(a) for f in self.layer_fields()[:1] for a in getattr(self, f.name)]

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


def param_layout(kind: str, n_features: int, hidden_sizes: list[int]):
    """Yield (field name, layer index, shape, start) for each flat-list entry,
    in order; the layer index is None for the readout pair."""
    cls = model_class(kind)
    layer_fields = cls.layer_fields()
    fan_in = n_features
    for layer, units in enumerate(hidden_sizes):
        dims = {"units": units, "fan_in": fan_in}
        for f in layer_fields:
            shape = tuple(dims[d] for d in f.metadata["shape"])
            yield f.name, layer, shape, f.metadata["start"]
        fan_in = units
    weight, bias = cls.readout
    yield weight, None, (fan_in,), None
    yield bias, None, (), 0.0


def init_params(
    kind: str, n_features: int, hidden_sizes: list[int], rng: np.random.Generator
) -> list[np.ndarray]:
    """Initial flat parameter list of a family, drawn in flat-list order into
    views of a new buffer."""
    _, _, params = new_buffer(kind, n_features, hidden_sizes)
    for p, (_, _, shape, start) in zip(params, param_layout(kind, n_features, hidden_sizes)):
        if start is not None:
            p[...] = start
        elif len(shape) == 2:
            p[...] = glorot_uniform(rng, *shape)
        else:  # the readout weight, into a single output unit
            p[...] = glorot_uniform(rng, 1, *shape)[0]
    return params


def new_buffer(kind: str, n_features: int, hidden_sizes: list[int]):
    """A new, unset buffer laid out as ParamModel describes, its blocks (per
    layer, shape rule -> stacked block) and the flat list, all views of it."""
    rules = [f.metadata["shape"] for f in model_class(kind).layer_fields()]
    layout = param_layout(kind, n_features, hidden_sizes)
    buffer = np.empty(sum(math.prod(shape) for _, _, shape, _ in layout))
    blocks, views, offset, fan_in = [], [], 0, n_features
    for units in hidden_sizes:
        dims = {"units": units, "fan_in": fan_in}
        blocks.append({})
        for rule in (SQUARE, FAN_IN, BIAS):
            shape = (rules.count(rule) * units, *(dims[d] for d in rule[1:]))
            blocks[-1][rule] = buffer[offset : offset + math.prod(shape)].reshape(shape)
            offset += math.prod(shape)
        views += [blocks[-1][r][rules[:k].count(r) * units :][:units] for k, r in enumerate(rules)]
        fan_in = units
    return buffer, blocks, views + [buffer[offset:-1], buffer[-1:].reshape(())]


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
