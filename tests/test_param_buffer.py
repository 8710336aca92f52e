"""Every model keeps its parameters in one 1-D buffer that its fields view.

Each way of building a model (model_from_params over init_params, load_model,
a direct constructor call) must end with every per-layer field and the
readout viewing one contiguous float64 buffer, laid out per layer as one
stacked block per shape rule. The recurrent fused weights, the gradients of
the loss kernels and Adam all read that layout. Every way is checked by the
constructor, which refuses by name what that layout cannot hold.
"""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlearn.features import StateConfig, feature_layout, identity_scaler
from drlearn.models import (
    FnnModel,
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


def constructor_values(model) -> dict:
    """Copies of the model's parameter fields, as keyword arguments of its class."""
    values = {f.name: [np.array(a) for a in getattr(model, f.name)] for f in model.layer_fields()}
    weight, bias = model.readout
    values[weight], values[bias] = np.array(getattr(model, weight)), np.array(getattr(model, bias))
    return values


def rebuilt(model, **changes):
    """The model's class built from its values, with changes to any field."""
    meta = dict(feature_layout=model.feature_layout, scaler=model.scaler,
                state_config=model.state_config)
    return type(model)(**{**constructor_values(model), **meta, **changes})


def built(kind: str, way: str, tmp_path):
    params = init_params(kind, len(LAYOUT), HIDDEN[kind], np.random.default_rng(0))
    model = model_from_params(kind, params, LAYOUT, identity_scaler(len(LAYOUT)), CFG)
    if way == "load_model":
        save_model(model, str(tmp_path / "m.json"))
        return load_model(str(tmp_path / "m.json"))
    if way == "constructor":
        return rebuilt(model)
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
    # is refused by name instead of leaving part of the buffer unset
    model = built(cls.kind, "model_from_params", None)
    values = {f.name: list(getattr(model, f.name)) for f in model.layer_fields()}
    meta = dict(out_weight=model.out_weight, out_bias=0.0, feature_layout=LAYOUT,
                scaler=model.scaler, state_config=CFG)
    bias = model.layer_fields()[2].name
    units = HIDDEN[cls.kind][0]
    message = rf"dimension mismatch: {bias}\[0\] expected shape \({units},\), got \(2,\)"
    with pytest.raises(ValueError, match=message):
        cls(**{**values, bias: [np.zeros(2), values[bias][1]]}, **meta)
    with pytest.raises(ValueError, match=f"dimension mismatch: .*{bias} has 1"):
        cls(**{**values, bias: values[bias][:1]}, **meta)


@pytest.mark.parametrize(
    "clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
@pytest.mark.parametrize("kind", ["linear", "fnn", "rnn", "lstm"])
def test_copy_keeps_one_buffer(kind, clone):
    # a pool worker returns its trained model by pickle; numpy pickles each
    # view as an array of its own unless the model pickles its buffer once
    model = built(kind, "model_from_params", None)
    twin = clone(model)
    assert twin == model and not np.shares_memory(twin.buffer, model.buffer)
    blocks = [b for layer in twin.blocks for b in layer.values() if b.size]
    assert all(np.shares_memory(v, twin.buffer) for v in flat_params(twin) + blocks)
    if twin.recurrent:
        assert all(np.shares_memory(w, twin.buffer) for layer in twin._layers() for w in layer)
    x = np.random.default_rng(4).normal(size=(2, 3, len(LAYOUT)))
    before = twin.run(x, twin.initial_state(2))[0]
    fields = twin.layer_fields()
    first = getattr(twin, fields[0].name)[0] if fields else getattr(twin, twin.readout[0])
    first[0] += 1.0  # writing a field writes the buffer the model runs on
    assert not np.array_equal(twin.run(x, twin.initial_state(2))[0], before)
    assert np.array_equal(model.run(x, model.initial_state(2))[0], before)


class TestConstructorChecks:
    """What load_model refuses, a model built in code refuses too, with the same message."""

    def test_short_bias_is_not_broadcast(self):
        model = built("fnn", "model_from_params", None)  # 5 units in layer 0
        biases = [np.array([0.5]), model.hidden_biases[1]]
        message = r"hidden_biases\[0\] expected shape \(5,\), got \(1,\)"
        with pytest.raises(ValueError, match=message):
            rebuilt(model, hidden_biases=biases)

    def test_short_gate_weight_is_not_broadcast(self):
        params = init_params("lstm", len(LAYOUT), [2], np.random.default_rng(0))
        model = model_from_params("lstm", params, LAYOUT, identity_scaler(len(LAYOUT)), CFG)
        with pytest.raises(ValueError, match=r"w_ih\[0\] expected shape \(2, 2\), got \(1, 2\)"):
            rebuilt(model, w_ih=[np.zeros((1, 2))])

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_one_field_with_another_layer_count_is_refused(self, change):
        model = built("fnn", "model_from_params", None)
        biases = list(model.hidden_biases)
        biases = biases + biases[-1:] if change == "extra" else biases[:1]
        message = (
            f"fields disagree on layer count: hidden_weights has 2, hidden_biases has {len(biases)}"
        )
        with pytest.raises(ValueError, match=message):
            rebuilt(model, hidden_biases=biases)

    @pytest.mark.parametrize("way", ["constructor", "model_from_params"])
    @pytest.mark.parametrize("kind", ["fnn", "rnn", "lstm"])
    def test_row_less_first_array_is_refused_by_name(self, kind, way):
        # the first per-layer field gives the layer widths; a 0-d array has none
        model = built(kind, "model_from_params", None)
        first = model.layer_fields()[0].name
        with pytest.raises(ValueError, match=rf"^dimension mismatch: {first}\[0\] expected shape"):
            if way == "constructor":
                rebuilt(model, **{first: [np.array(1.0), *getattr(model, first)[1:]]})
            else:
                params = [np.array(1.0), *flat_params(model)[1:]]
                model_from_params(kind, params, LAYOUT, model.scaler, CFG)

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_recurrent_order_other_than_one_is_refused(self, kind):
        params = init_params(kind, len(LAYOUT), [3], np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"state_config.order must be 1 for {kind}, got 4"):
            model_from_params(kind, params, LAYOUT, None, StateConfig(order=4))

    @pytest.mark.parametrize(
        "kind, where", [("linear", "weights"), ("fnn", "hidden_weights[0]"), ("rnn", "w_x[0]")]
    )
    def test_layout_narrower_than_the_weights_is_refused(self, kind, where):
        params = init_params(kind, 3, HIDDEN[kind][:1], np.random.default_rng(0))
        shape = np.shape(params[1 if kind == "rnn" else 0])
        message = re.escape(f"{where} expected shape {(*shape[:-1], 2)}, got {shape}")
        with pytest.raises(ValueError, match=message):
            model_from_params(kind, params, ("hour_frac", "price"), None, None)

    @pytest.mark.parametrize(
        "kind, changes, message",
        [
            ("rnn", {"w_h": lambda m: [np.zeros((5, 4)), m.w_h[1]]},
             r"dimension mismatch: w_h\[0\] expected shape \(5, 5\), got \(5, 4\)"),
            ("lstm", {"w_ih": lambda m: [np.zeros((3, 3)), m.w_ih[1]]},
             r"dimension mismatch: w_ih\[0\] expected shape \(4, 4\), got \(3, 3\)"),
            ("fnn", {"scaler": lambda m: identity_scaler(2)}, "scaler expects 4 features"),
            ("rnn", {"state_config": lambda m: StateConfig(order=3)},
             "state_config.order must be 1 for rnn, got 3"),
        ],
    )
    def test_load_model_messages_hold_in_code(self, kind, changes, message):
        model = built(kind, "model_from_params", None)
        with pytest.raises(ValueError, match=message):
            rebuilt(model, **{name: change(model) for name, change in changes.items()})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["linear", "fnn", "rnn", "lstm"]), data=st.data())
def test_one_changed_array_or_layer_count_is_refused_by_name(kind, data):
    model = built(kind, "model_from_params", None)
    values = constructor_values(model)
    layer_names = [f.name for f in model.layer_fields()]
    name = data.draw(st.sampled_from(list(values)))
    if name in layer_names and data.draw(st.booleans()):
        layers = values[name]
        values[name] = layers[:-1] if data.draw(st.booleans()) else layers + layers[-1:]
        expected = rf"dimension mismatch: .*\b{name} has {len(values[name])}\b"
    else:
        layer = data.draw(st.integers(0, len(values[name]) - 1)) if name in layer_names else None
        array = values[name] if layer is None else values[name][layer]
        # the first per-layer field's leading axis is the layer's width, so a
        # change there shows at the next field that disagrees with it
        fixed = 1 if layer_names[:1] == [name] else 0
        axis = data.draw(st.sampled_from([*range(fixed, array.ndim), None]))
        if axis is None:  # one axis more
            changed = array[..., None]
        else:
            shape = list(array.shape)
            shape[axis] += data.draw(st.sampled_from([-1, 1]))
            changed = np.zeros(shape)
        if layer is None:
            values[name] = changed
        else:
            values[name][layer] = changed
        where = name if layer is None else f"{name}[{layer}]"
        expected = re.escape(f"dimension mismatch: {where} expected shape")
    with pytest.raises(ValueError, match=expected):
        rebuilt(model, **values)
