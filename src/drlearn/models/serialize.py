"""JSON persistence for every model family, with strict load-time checks."""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from ..errors import ModelFormatError
from ..features import Scaler, StateConfig
from ..ioutil import atomic_write_text
from ..records import RecordError, read_array, read_list, read_record
from .common import MODEL_CLASSES, model_from_params, param_layout

SCHEMA_VERSION = 1
# the top-level keys save_model writes, the only ones load_model accepts
DOCUMENT_FIELDS = ("schema_version", "kind", "feature_layout", "state_config", "scaler", "params")


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


def _check_dim(condition: bool, detail: str) -> None:
    if not condition:
        raise ModelFormatError(f"dimension mismatch: {detail}")


def load_model(path: str):
    """Rebuild a saved model, naming version, schema, and dimension faults."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"schema violation: {path} is not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"schema violation: {path} is not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ModelFormatError("schema violation: top level must be an object")

    version = document.get("schema_version", SCHEMA_VERSION)  # a missing one is named below
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # true == 1 in Python
        raise ModelFormatError(
            f"version mismatch: file has schema_version {version!r},"
            f" this build reads {SCHEMA_VERSION}"
        )
    unknown = sorted(set(document) - set(DOCUMENT_FIELDS))
    if unknown:
        raise ModelFormatError(f"schema violation: unknown field '{unknown[0]}' in document")
    missing = [key for key in DOCUMENT_FIELDS if key not in document]
    if missing:
        raise ModelFormatError(f"schema violation: missing field '{missing[0]}' in document")
    kind = document["kind"]
    if not isinstance(kind, str) or kind not in MODEL_CLASSES:
        raise ModelFormatError(f"schema violation: unknown model kind {kind!r}")

    layout = document["feature_layout"]
    if not isinstance(layout, list) or not all(isinstance(n, str) for n in layout):
        raise ModelFormatError("schema violation: feature_layout must be a list of names")
    cls, feature_layout = MODEL_CLASSES[kind], tuple(layout)
    n_features = len(feature_layout)
    try:  # state_config and scaler through read_record, every field required
        state_config = read_record(StateConfig, document["state_config"], "state_config", True)
        if cls.recurrent and state_config.order != 1:
            raise ModelFormatError(
                f"schema violation: state_config.order must be 1 for {kind},"
                f" got {state_config.order}"
            )
        scaler = read_record(Scaler, document["scaler"], "scaler", True)
        _check_dim(
            scaler.input_mean.shape == (n_features,) and scaler.input_std.shape == (n_features,),
            f"scaler expects {n_features} features to match the layout",
        )

        params = document["params"]
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
            read_list(
                params[f.name], f"params.{f.name}", partial(read_array, ndim=len(f.metadata["shape"]))
            )
            for f in layer_fields
        ]
        flat = [a for layer in zip(*values) for a in layer] + [
            read_array(params[weight], f"params.{weight}", 1),
            read_array(params[bias], f"params.{bias}", 0),
        ]
    except RecordError as exc:
        raise ModelFormatError(f"schema violation: {exc}") from exc
    _check_dim(
        len(set(map(len, values))) <= 1,
        f"{'/'.join(f.name for f in layer_fields)} disagree on layer count",
    )
    hidden_sizes = [len(a) for a in values[0]] if values else []
    for a, (name, layer, shape, _) in zip(flat, param_layout(kind, n_features, hidden_sizes)):
        where = name if layer is None else f"{name}[{layer}]"
        _check_dim(np.shape(a) == shape, f"{where} expected shape {shape}, got {np.shape(a)}")
    return model_from_params(kind, flat, feature_layout, scaler, state_config)
