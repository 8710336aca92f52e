"""JSON persistence for every model family, with strict load-time checks."""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from ..errors import ModelFormatError
from ..features import Scaler, StateConfig, feature_layout
from ..ioutil import atomic_write_text
from ..records import RecordError, read_array, read_list, read_record
from .common import MODEL_CLASSES

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


def load_model(path: str):
    """Rebuild a saved model, naming version, schema, and dimension faults and
    a feature layout other than the one its state config gives."""
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

    cls = MODEL_CLASSES[kind]
    try:  # state_config and scaler through read_record, every field required
        state_config = read_record(StateConfig, document["state_config"], "state_config", True)
        layout = list(feature_layout(state_config))
        if document["feature_layout"] != layout:
            raise ModelFormatError(
                f"feature layout mismatch: file has {document['feature_layout']},"
                f" its state_config gives {layout}"
            )
        scaler = read_record(Scaler, document["scaler"], "scaler", True)
        params = document["params"]
        if not isinstance(params, dict):
            raise ModelFormatError("schema violation: params must be an object")
        weight, bias = cls.readout
        names = [f.name for f in cls.layer_fields()] + [weight, bias]
        extra, missing = set(params) - set(names), set(names) - set(params)
        if extra or missing:
            raise ModelFormatError(
                f"kind {kind!r} does not match payload: missing {sorted(missing)},"
                f" unexpected {sorted(extra)}"
            )
        values = {
            f.name: read_list(
                params[f.name], f"params.{f.name}", partial(read_array, ndim=len(f.metadata["shape"]))
            )
            for f in cls.layer_fields()
        }
        values[weight] = read_array(params[weight], f"params.{weight}", 1)
        values[bias] = read_array(params[bias], f"params.{bias}", 0)
        return cls(**values, scaler=scaler, state_config=state_config)
    except RecordError as exc:
        raise ModelFormatError(f"schema violation: {exc}") from exc
    except ValueError as exc:  # the model's own checks: shapes, layer counts, width, order
        raise ModelFormatError(str(exc)) from exc
