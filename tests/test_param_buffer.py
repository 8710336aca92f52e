"""Every model keeps its parameters in one 1-D buffer that its fields view.

Each way of building a model (model_from_params over init_params, load_model,
a direct constructor call) must end with every per-layer field and the
readout viewing one contiguous float64 buffer, laid out per layer as one
stacked block per shape rule. The recurrent fused weights, the gradients of
the loss kernels and Adam all read that layout.
"""

import numpy as np
import pytest

from drlearn.features import StateConfig, feature_layout, identity_scaler
from drlearn.models import (
    LstmModel,
    RnnModel,
    flat_params,
    fnn_loss_and_grads,
    init_params,
    load_model,
    lstm_loss_and_grads,
    model_from_params,
    rnn_loss_and_grads,
    save_model,
)
from drlearn.models.common import BIAS, FAN_IN, SQUARE

CFG = StateConfig(order=1, time_encoding="scalar")
LAYOUT = feature_layout(CFG)
HIDDEN = {"linear": [], "fnn": [5, 3], "rnn": [5, 3], "lstm": [4, 3]}
KERNELS = {"fnn": fnn_loss_and_grads, "rnn": rnn_loss_and_grads, "lstm": lstm_loss_and_grads}


def built(kind: str, way: str, tmp_path):
    params = init_params(kind, len(LAYOUT), HIDDEN[kind], np.random.default_rng(0))
    model = model_from_params(kind, params, LAYOUT, identity_scaler(len(LAYOUT)), CFG)
    if way == "load_model":
        save_model(model, str(tmp_path / "m.json"))
        return load_model(str(tmp_path / "m.json"))
    if way == "constructor":
        fields = model.layer_fields()
        values = {f.name: [np.array(a) for a in getattr(model, f.name)] for f in fields}
        weight, bias = model.readout
        values[weight], values[bias] = np.array(getattr(model, weight)), float(getattr(model, bias))
        return type(model)(**values, feature_layout=LAYOUT, scaler=model.scaler, state_config=CFG)
    return model


@pytest.mark.parametrize("way", ["model_from_params", "load_model", "constructor"])
@pytest.mark.parametrize("kind", ["linear", "fnn", "rnn", "lstm"])
def test_fields_and_fused_weights_view_one_buffer(kind, way, tmp_path):
    model = built(kind, way, tmp_path)
    buffer = model.buffer
    assert buffer.ndim == 1 and buffer.dtype == np.float64 and buffer.flags.c_contiguous
    for f in model.layer_fields():
        for array in getattr(model, f.name):
            assert np.shares_memory(array, buffer), f.name
    weight, bias = model.readout
    assert np.shares_memory(getattr(model, weight), buffer)
    assert np.shares_memory(getattr(model, bias), buffer)
    views = flat_params(model)
    assert all(np.shares_memory(v, buffer) for v in views)
    assert sum(v.size for v in views) == buffer.size
    if model.recurrent:
        for layer in model._layers():
            assert all(np.shares_memory(w, buffer) for w in layer)


def test_lstm_layer_is_gate_stacked():
    # within a layer: every SQUARE array, then every FAN_IN, then every BIAS,
    # each block stacking the gates in declaration order
    model = built("lstm", "model_from_params", None)
    units, fan_in = 4, len(LAYOUT)
    blocks = model.blocks[0]
    assert blocks[SQUARE].shape == (4 * units, units)
    assert blocks[FAN_IN].shape == (4 * units, fan_in)
    assert blocks[BIAS].shape == (4 * units,)
    gates = [(f"w_{g}h", f"w_{g}x", f"b_{g}") for g in "fioc"]
    for k, names in enumerate(gates):
        rows = slice(k * units, (k + 1) * units)
        for rule, name in zip((SQUARE, FAN_IN, BIAS), names):
            assert np.array_equal(blocks[rule][rows], getattr(model, name)[0])
    w_h, w_x, b = model._layers()[0]
    assert np.shares_memory(w_h, blocks[SQUARE]) and w_h.shape == (units, 4 * units)
    assert np.shares_memory(w_x, blocks[FAN_IN]) and w_x.shape == (fan_in, 4 * units)
    assert model.buffer[: blocks[SQUARE].size].tolist() == blocks[SQUARE].ravel().tolist()


def test_writing_a_field_moves_the_buffer_and_predictions():
    model = built("rnn", "model_from_params", None)
    inputs = np.random.default_rng(1).normal(size=(2, 6, len(LAYOUT)))
    before, saved = model.forward(inputs), model.buffer.copy()
    model.w_x[1][0, 0] += 0.5
    assert np.count_nonzero(model.buffer != saved) == 1
    assert not np.array_equal(model.forward(inputs), before)


@pytest.mark.parametrize("kind", ["fnn", "rnn", "lstm"])
def test_gradients_view_one_vector_laid_out_like_the_buffer(kind):
    model = built(kind, "model_from_params", None)
    rng = np.random.default_rng(2)
    shape = (6, len(LAYOUT)) if kind == "fnn" else (3, 5, len(LAYOUT))
    inputs, targets = rng.normal(size=shape), rng.normal(size=shape[:-1])
    _, grads = KERNELS[kind](flat_params(model), inputs, targets)
    vector = grads[0].base
    assert vector.shape == model.buffer.shape
    assert [g.shape for g in grads] == [p.shape for p in flat_params(model)]
    assert all(np.shares_memory(g, vector) for g in grads)
    # the same offsets: a gradient view sits where its parameter sits
    offsets = [g.ctypes.data - vector.ctypes.data for g in grads]
    assert offsets == [p.ctypes.data - model.buffer.ctypes.data for p in flat_params(model)]


@pytest.mark.parametrize("cls", [RnnModel, LstmModel])
def test_constructor_leaves_no_view_unset(cls):
    # a shape the buffer cannot take, or a layer missing from one field,
    # fails the copy instead of leaving part of the buffer unset
    model = built(cls.kind, "model_from_params", None)
    values = {f.name: list(getattr(model, f.name)) for f in model.layer_fields()}
    meta = dict(out_weight=model.out_weight, out_bias=0.0, feature_layout=LAYOUT,
                scaler=model.scaler, state_config=CFG)
    bias = model.layer_fields()[2].name
    with pytest.raises(ValueError, match="could not broadcast"):
        cls(**{**values, bias: [np.zeros(2), values[bias][1]]}, **meta)
    with pytest.raises(ValueError, match="shorter"):
        cls(**{**values, bias: values[bias][:1]}, **meta)
