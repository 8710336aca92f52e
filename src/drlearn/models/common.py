"""What the model families share: the one declaration of their parameters,
which drives init, the flat parameter list and persistence, and the
training plumbing of the gradient-trained families."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import NumericalError


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings shared by all trained families."""

    learning_rate: float = 0.001
    steps: int = 10000
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    rng_seed: int = 0
    gradient_clip_norm: float = 5.0  # applied to recurrent training only

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.steps < 1:
            raise ValueError("learning_rate, steps, and batch_size must be positive")
        if self.gradient_clip_norm <= 0 or self.epsilon <= 0:
            raise ValueError("gradient_clip_norm and epsilon must be positive")


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
    """

    kind: str
    readout = ("out_weight", "out_bias")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            MODEL_CLASSES[cls.kind] = cls

    @classmethod
    def layer_fields(cls) -> list:
        return [f for f in fields(cls) if "shape" in f.metadata]

    def hidden_sizes(self) -> list[int]:
        """Width of every layer, read off the first per-layer field."""
        layer_fields = self.layer_fields()
        if not layer_fields:
            return []
        return [a.shape[0] for a in getattr(self, layer_fields[0].name)]

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

    def step(self, x: np.ndarray, state: list) -> tuple[np.ndarray, list]:
        """One time step for a (batch, features) input; returns (y, new state)."""
        outputs, new_state = self.run(np.asarray(x, dtype=float)[:, None, :], state)
        return outputs[:, 0], new_state


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
    """Initial flat parameter list of a family, drawn in flat-list order."""
    params = []
    for _, _, shape, start in param_layout(kind, n_features, hidden_sizes):
        if start is not None:
            params.append(np.full(shape, start))
        elif len(shape) == 2:
            params.append(glorot_uniform(rng, *shape))
        else:  # the readout weight, into a single output unit
            params.append(glorot_uniform(rng, 1, *shape)[0])
    return params


def model_from_params(kind: str, params: list[np.ndarray], feature_layout, scaler, state_config):
    """The model holding the flat list's arrays themselves, not copies."""
    cls = model_class(kind)
    names = [f.name for f in cls.layer_fields()]
    layers = params[:-2]
    values = {name: list(layers[k :: len(names)]) for k, name in enumerate(names)}
    weight, bias = cls.readout
    values[weight], values[bias] = params[-2], float(params[-1])
    return cls(
        **values, feature_layout=feature_layout, scaler=scaler, state_config=state_config
    )


def flat_params(model) -> list[np.ndarray]:
    """The model's flat parameter list; the inverse of model_from_params."""
    layers = zip(*(getattr(model, f.name) for f in model.layer_fields()))
    weight, bias = model.readout
    return [a for layer in layers for a in layer] + [
        getattr(model, weight),
        np.asarray(getattr(model, bias)),
    ]


def check_finite_loss(loss: float, step: int) -> None:
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss} at training step {step}")


def minibatch_indices(
    rng: np.random.Generator, n_samples: int, batch_size: int, steps: int
):
    """Yield `steps` index batches, reshuffling the sample order each epoch.

    Batches are consecutive slices of a fresh permutation; a trailing
    partial slice is dropped when n_samples >= batch_size.
    """
    batch_size = min(batch_size, n_samples)
    per_epoch = n_samples // batch_size
    emitted = 0
    while emitted < steps:
        perm = rng.permutation(n_samples)
        for b in range(per_epoch):
            if emitted == steps:
                return
            yield perm[b * batch_size : (b + 1) * batch_size]
            emitted += 1
