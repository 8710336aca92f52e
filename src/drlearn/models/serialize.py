"""JSON persistence for every model family, with strict load-time checks."""

from __future__ import annotations

import json
import math

import numpy as np

from ..errors import ModelFormatError
from ..features import Scaler, StateConfig
from ..ioutil import atomic_write_text
from .fnn import FnnModel
from .linear import LinearModel
from .recurrent import LstmModel, RnnModel

SCHEMA_VERSION = 1

PARAM_FIELDS = {
    "linear": ("weights", "bias"),
    "fnn": ("hidden_weights", "hidden_biases", "out_weight", "out_bias"),
    "rnn": ("w_h", "w_x", "b", "out_weight", "out_bias"),
    "lstm": (
        "w_fh", "w_fx", "b_f", "w_ih", "w_ix", "b_i",
        "w_oh", "w_ox", "b_o", "w_ch", "w_cx", "b_c",
        "out_weight", "out_bias",
    ),
}


def _params_document(model) -> dict:
    if model.kind == "linear":
        return {"weights": model.weights.tolist(), "bias": model.bias}
    if model.kind == "fnn":
        return {
            "hidden_weights": [w.tolist() for w in model.hidden_weights],
            "hidden_biases": [b.tolist() for b in model.hidden_biases],
            "out_weight": model.out_weight.tolist(),
            "out_bias": model.out_bias,
        }
    if model.kind == "rnn":
        return {
            "w_h": [w.tolist() for w in model.w_h],
            "w_x": [w.tolist() for w in model.w_x],
            "b": [b.tolist() for b in model.b],
            "out_weight": model.out_weight.tolist(),
            "out_bias": model.out_bias,
        }
    if model.kind == "lstm":
        doc = {
            name: [a.tolist() for a in getattr(model, name)]
            for name in PARAM_FIELDS["lstm"][:-2]
        }
        doc["out_weight"] = model.out_weight.tolist()
        doc["out_bias"] = model.out_bias
        return doc
    raise ModelFormatError(f"cannot serialize unknown model kind {model.kind!r}")


def save_model(model, path: str) -> None:
    """Self-describing JSON document: schema version, kind, layout, scaler, params."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind,
        "feature_layout": list(model.feature_layout),
        "state_config": {
            "order": model.state_config.order,
            "time_encoding": model.state_config.time_encoding,
            "intervals_per_day": model.state_config.intervals_per_day,
        },
        "scaler": {
            "input_mean": model.scaler.input_mean.tolist(),
            "input_std": model.scaler.input_std.tolist(),
            "target_mean": model.scaler.target_mean,
            "target_std": model.scaler.target_std,
        },
        "params": _params_document(model),
    }
    atomic_write_text(path, json.dumps(document, indent=1) + "\n")


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ModelFormatError(f"schema violation: missing field '{key}' in {where}")
    return mapping[key]


def _array(value, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"schema violation: field '{name}' is not numeric") from exc
    if arr.ndim != ndim:
        raise ModelFormatError(
            f"schema violation: field '{name}' must have {ndim} dimensions,"
            f" got {arr.ndim}"
        )
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"schema violation: field '{name}' holds a non-finite value")
    return arr


def _array_list(value, name: str, ndim: int) -> list[np.ndarray]:
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"schema violation: field '{name}' must be a non-empty list")
    return [_array(item, f"{name}[{idx}]", ndim) for idx, item in enumerate(value)]


def _float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"schema violation: field '{name}' must be a number")
    if not math.isfinite(value):
        raise ModelFormatError(f"schema violation: field '{name}' holds a non-finite value")
    return float(value)


def _check_dim(condition: bool, detail: str) -> None:
    if not condition:
        raise ModelFormatError(f"dimension mismatch: {detail}")


def _load_stack(params: dict, names: tuple[str, ...], n_features: int):
    """Validate recurrent per-layer (hidden, input, bias) triples."""
    triples = []
    n_layers = None
    for h_name, x_name, b_name in zip(names[0::3], names[1::3], names[2::3]):
        w_h = _array_list(_require(params, h_name, "params"), h_name, 2)
        w_x = _array_list(_require(params, x_name, "params"), x_name, 2)
        b = _array_list(_require(params, b_name, "params"), b_name, 1)
        if n_layers is None:
            n_layers = len(w_h)
        _check_dim(
            len(w_h) == len(w_x) == len(b) == n_layers,
            f"{h_name}/{x_name}/{b_name} disagree on layer count",
        )
        fan_in = n_features
        for l in range(n_layers):
            units = w_h[l].shape[0]
            _check_dim(
                w_h[l].shape == (units, units),
                f"{h_name}[{l}] must be square, got {w_h[l].shape}",
            )
            _check_dim(
                w_x[l].shape == (units, fan_in),
                f"{x_name}[{l}] expected shape ({units}, {fan_in}), got {w_x[l].shape}",
            )
            _check_dim(b[l].shape == (units,), f"{b_name}[{l}] expected {units} entries")
            fan_in = units
        triples.append((w_h, w_x, b))
    return triples


def load_model(path: str):
    """Rebuild a saved model, naming version, schema, and dimension faults."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"schema violation: {path} is not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ModelFormatError("schema violation: top level must be an object")

    version = _require(document, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise ModelFormatError(
            f"version mismatch: file has schema_version {version!r},"
            f" this build reads {SCHEMA_VERSION}"
        )
    kind = _require(document, "kind", "document")
    if kind not in PARAM_FIELDS:
        raise ModelFormatError(f"schema violation: unknown model kind {kind!r}")

    layout = _require(document, "feature_layout", "document")
    if not isinstance(layout, list) or not all(isinstance(n, str) for n in layout):
        raise ModelFormatError("schema violation: feature_layout must be a list of names")
    feature_layout = tuple(layout)
    n_features = len(feature_layout)

    sc = _require(document, "state_config", "document")
    try:
        state_config = StateConfig(
            order=int(_require(sc, "order", "state_config")),
            time_encoding=_require(sc, "time_encoding", "state_config"),
            intervals_per_day=int(_require(sc, "intervals_per_day", "state_config")),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"schema violation: bad state_config ({exc})") from exc

    sl = _require(document, "scaler", "document")
    scaler = Scaler(
        input_mean=_array(_require(sl, "input_mean", "scaler"), "input_mean", 1),
        input_std=_array(_require(sl, "input_std", "scaler"), "input_std", 1),
        target_mean=_float(_require(sl, "target_mean", "scaler"), "target_mean"),
        target_std=_float(_require(sl, "target_std", "scaler"), "target_std"),
    )
    _check_dim(
        scaler.input_mean.shape == (n_features,) and scaler.input_std.shape == (n_features,),
        f"scaler expects {n_features} features to match the layout",
    )
    if not np.all(scaler.input_std > 0.0):
        raise ModelFormatError("schema violation: field 'input_std' must be positive")
    if not scaler.target_std > 0.0:
        raise ModelFormatError("schema violation: field 'target_std' must be positive")

    params = _require(document, "params", "document")
    if not isinstance(params, dict):
        raise ModelFormatError("schema violation: params must be an object")
    extra = set(params) - set(PARAM_FIELDS[kind])
    missing = set(PARAM_FIELDS[kind]) - set(params)
    if extra or missing:
        raise ModelFormatError(
            f"kind {kind!r} does not match payload: missing {sorted(missing)},"
            f" unexpected {sorted(extra)}"
        )

    if kind == "linear":
        weights = _array(params["weights"], "weights", 1)
        _check_dim(
            weights.shape == (n_features,),
            f"weights expected {n_features} entries, got {weights.shape[0]}",
        )
        return LinearModel(
            weights=weights,
            bias=_float(params["bias"], "bias"),
            feature_layout=feature_layout,
            scaler=scaler,
            state_config=state_config,
        )

    out_weight = _array(params["out_weight"], "out_weight", 1)
    out_bias = _float(params["out_bias"], "out_bias")

    if kind == "fnn":
        hidden_weights = _array_list(params["hidden_weights"], "hidden_weights", 2)
        hidden_biases = _array_list(params["hidden_biases"], "hidden_biases", 1)
        _check_dim(
            len(hidden_weights) == len(hidden_biases),
            "hidden_weights and hidden_biases disagree on layer count",
        )
        fan_in = n_features
        for l, (w, b) in enumerate(zip(hidden_weights, hidden_biases)):
            _check_dim(
                w.shape[1] == fan_in,
                f"hidden_weights[{l}] expected fan-in {fan_in}, got {w.shape[1]}",
            )
            _check_dim(
                b.shape == (w.shape[0],),
                f"hidden_biases[{l}] expected {w.shape[0]} entries",
            )
            fan_in = w.shape[0]
        _check_dim(
            out_weight.shape == (fan_in,),
            f"out_weight expected {fan_in} entries, got {out_weight.shape[0]}",
        )
        return FnnModel(
            hidden_weights=hidden_weights,
            hidden_biases=hidden_biases,
            out_weight=out_weight,
            out_bias=out_bias,
            feature_layout=feature_layout,
            scaler=scaler,
            state_config=state_config,
        )

    if kind == "rnn":
        ((w_h, w_x, b),) = _load_stack(params, ("w_h", "w_x", "b"), n_features)
        _check_dim(
            out_weight.shape == (w_h[-1].shape[0],),
            f"out_weight expected {w_h[-1].shape[0]} entries",
        )
        return RnnModel(
            w_h=w_h,
            w_x=w_x,
            b=b,
            out_weight=out_weight,
            out_bias=out_bias,
            feature_layout=feature_layout,
            scaler=scaler,
            state_config=state_config,
        )

    stacks = _load_stack(params, PARAM_FIELDS["lstm"][:-2], n_features)
    units = [w.shape[0] for w in stacks[0][0]]
    for (w_h, _, _), gate in zip(stacks, ("forget", "input", "output", "candidate")):
        _check_dim(
            [w.shape[0] for w in w_h] == units,
            f"{gate} gate disagrees with forget gate on layer sizes",
        )
    _check_dim(out_weight.shape == (units[-1],), f"out_weight expected {units[-1]} entries")
    return LstmModel(
        w_fh=stacks[0][0], w_fx=stacks[0][1], b_f=stacks[0][2],
        w_ih=stacks[1][0], w_ix=stacks[1][1], b_i=stacks[1][2],
        w_oh=stacks[2][0], w_ox=stacks[2][1], b_o=stacks[2][2],
        w_ch=stacks[3][0], w_cx=stacks[3][1], b_c=stacks[3][2],
        out_weight=out_weight,
        out_bias=out_bias,
        feature_layout=feature_layout,
        scaler=scaler,
        state_config=state_config,
    )
