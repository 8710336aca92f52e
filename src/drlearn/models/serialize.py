"""JSON persistence for every model family, with strict load-time checks."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

import numpy as np

from ..errors import ModelFormatError
from ..features import Scaler, StateConfig
from ..ioutil import atomic_write_text
from .common import MODEL_CLASSES, model_from_params, param_layout

SCHEMA_VERSION = 1


def _params_document(model) -> dict:
    """The params object: each per-layer field as a list of nested lists, in
    declaration order, then the readout weight and bias."""
    document = {f.name: [a.tolist() for a in getattr(model, f.name)] for f in model.layer_fields()}
    return document | {name: getattr(model, name).tolist() for name in model.readout}


def save_model(model, path: str) -> None:
    """Self-describing JSON document: schema version, kind, layout, scaler, params."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": model.kind,
        "feature_layout": list(model.feature_layout),
        "state_config": asdict(model.state_config),
        "scaler": {
            f.name: np.asarray(getattr(model.scaler, f.name)).tolist() for f in fields(Scaler)
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


def _state_value(state_config: dict, f):
    """state_config[f.name]; for an int field (order, intervals_per_day) a JSON
    integer: not 2.7 or 2.0, "2", or true."""
    value = _require(state_config, f.name, "state_config")
    if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        raise ModelFormatError(
            f"schema violation: field '{f.name}' in state_config must be an integer, got {value!r}"
        )
    return value


def _check_dim(condition: bool, detail: str) -> None:
    if not condition:
        raise ModelFormatError(f"dimension mismatch: {detail}")


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
    if not isinstance(kind, str) or kind not in MODEL_CLASSES:
        raise ModelFormatError(f"schema violation: unknown model kind {kind!r}")

    layout = _require(document, "feature_layout", "document")
    if not isinstance(layout, list) or not all(isinstance(n, str) for n in layout):
        raise ModelFormatError("schema violation: feature_layout must be a list of names")
    feature_layout = tuple(layout)
    n_features = len(feature_layout)

    cls = MODEL_CLASSES[kind]
    sc = _require(document, "state_config", "document")
    try:
        state_config = StateConfig(**{f.name: _state_value(sc, f) for f in fields(StateConfig)})
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"schema violation: bad state_config ({exc})") from exc
    if cls.recurrent and state_config.order != 1:
        raise ModelFormatError(
            f"schema violation: state_config.order must be 1 for {kind},"
            f" got {state_config.order}"
        )

    sl = _require(document, "scaler", "document")
    values = {}
    for f in fields(Scaler):  # per-feature arrays, then the target's numbers
        value = _require(sl, f.name, "scaler")
        is_array = f.type == "np.ndarray"
        values[f.name] = _array(value, f.name, 1) if is_array else _float(value, f.name)
    scaler = Scaler(**values)
    _check_dim(
        scaler.input_mean.shape == (n_features,) and scaler.input_std.shape == (n_features,),
        f"scaler expects {n_features} features to match the layout",
    )
    for name in ("input_std", "target_std"):
        if not np.all(values[name] > 0.0):
            raise ModelFormatError(f"schema violation: field '{name}' must be positive")

    params = _require(document, "params", "document")
    if not isinstance(params, dict):
        raise ModelFormatError("schema violation: params must be an object")
    layer_fields = cls.layer_fields()
    weight, bias = cls.readout
    names = [f.name for f in layer_fields] + [weight, bias]
    extra, missing = set(params) - set(names), set(names) - set(params)
    if extra or missing:
        raise ModelFormatError(
            f"kind {kind!r} does not match payload: missing {sorted(missing)},"
            f" unexpected {sorted(extra)}"
        )

    values = [
        _array_list(params[f.name], f.name, len(f.metadata["shape"])) for f in layer_fields
    ]
    _check_dim(
        len(set(map(len, values))) <= 1,
        f"{'/'.join(f.name for f in layer_fields)} disagree on layer count",
    )
    hidden_sizes = [len(a) for a in values[0]] if values else []
    flat = [a for layer in zip(*values) for a in layer]
    flat += [_array(params[weight], weight, 1), _float(params[bias], bias)]
    for a, (name, layer, shape, _) in zip(flat, param_layout(kind, n_features, hidden_sizes)):
        where = name if layer is None else f"{name}[{layer}]"
        _check_dim(np.shape(a) == shape, f"{where} expected shape {shape}, got {np.shape(a)}")
    return model_from_params(kind, flat, feature_layout, scaler, state_config)
