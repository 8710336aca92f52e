"""Model persistence tests: bit-exact round trips and load-time diagnostics."""

import json
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlearn.errors import ModelFormatError
from drlearn.eucsim import TimeSeriesDataset
from drlearn.features import Scaler, StateConfig, config_of_width, feature_layout
from drlearn.models import (
    FnnModel,
    LinearModel,
    LstmModel,
    RnnModel,
    flat_params,
    init_params,
    load_model,
    model_from_params,
    predict_one_step,
    save_model,
)


def random_scaler(rng, n_features):
    return Scaler(
        input_mean=rng.normal(size=n_features),
        input_std=rng.uniform(0.5, 2.0, n_features),
        target_mean=float(rng.normal()),
        target_std=float(rng.uniform(1.0, 3.0)),
    )


def make_model(kind, seed=0):
    rng = np.random.default_rng(seed)
    scaler = random_scaler(rng, 4)
    cfg = StateConfig(order=1, time_encoding="scalar")
    if kind == "linear":
        return LinearModel(
            weights=rng.normal(size=4),
            bias=float(rng.normal()),
            scaler=scaler,
            state_config=cfg,
        )
    if kind == "fnn":
        p = init_params("fnn", 4, [5, 3], rng)
        return FnnModel(
            hidden_weights=[p[0], p[2]],
            hidden_biases=[p[1] + rng.normal(size=5), p[3] + rng.normal(size=3)],
            out_weight=p[4],
            out_bias=float(rng.normal()),
            scaler=scaler,
            state_config=cfg,
        )
    if kind == "rnn":
        p = init_params("rnn", 4, [5], rng)
        return RnnModel(
            w_h=[p[0]], w_x=[p[1]], b=[p[2] + rng.normal(size=5)],
            out_weight=p[3],
            out_bias=float(rng.normal()),
            scaler=scaler,
            state_config=cfg,
        )
    p = init_params("lstm", 4, [4], rng)
    return LstmModel(
        w_fh=[p[0]], w_fx=[p[1]], b_f=[p[2]],
        w_ih=[p[3]], w_ix=[p[4]], b_i=[p[5]],
        w_oh=[p[6]], w_ox=[p[7]], b_o=[p[8]],
        w_ch=[p[9]], w_cx=[p[10]], b_c=[p[11]],
        out_weight=p[12],
        out_bias=float(rng.normal()),
        scaler=scaler,
        state_config=cfg,
    )


def predictions(model, seed=123):
    """MWh for raw rows, scaled, run and unscaled as ParamModel.predict does:
    the linear rows at once, the FNN rows one at a time, the windows each
    from the zero state."""
    rng = np.random.default_rng(seed)
    scaler = model.scaler
    if model.kind in ("linear", "fnn"):
        rows = rng.normal(size=(100, 4))
        batches = rows[:, None] if model.kind == "fnn" else [rows]
        return np.concatenate(
            [scaler.inverse_targets(model.forward(scaler.transform_inputs(b))) for b in batches]
        )
    windows = rng.normal(size=(5, 20, 4))
    return np.concatenate(
        [scaler.inverse_targets(model.forward(scaler.transform_inputs(w)[None])[0]) for w in windows]
    )


@pytest.mark.parametrize("kind", ["linear", "fnn", "rnn", "lstm"])
class TestRoundTrip:
    def test_predictions_bit_identical(self, kind, tmp_path):
        model = make_model(kind)
        path = tmp_path / f"{kind}.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.kind == kind
        assert np.array_equal(predictions(model), predictions(loaded))

    def test_metadata_preserved(self, kind, tmp_path):
        model = make_model(kind)
        path = tmp_path / f"{kind}.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.feature_layout == model.feature_layout
        assert loaded.state_config == model.state_config
        assert np.array_equal(loaded.scaler.input_mean, model.scaler.input_mean)
        assert np.array_equal(loaded.scaler.input_std, model.scaler.input_std)
        assert loaded.scaler.target_mean == model.scaler.target_mean
        assert loaded.scaler.target_std == model.scaler.target_std

    def test_double_round_trip_is_stable(self, kind, tmp_path):
        model = make_model(kind)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_model(model, str(first))
        save_model(load_model(str(first)), str(second))
        assert first.read_text() == second.read_text()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["linear", "fnn", "rnn", "lstm"]),
    n_features=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(kind, n_features, hidden, seed):
    """Any kind and shape: save, load, save gives the same bytes, the same
    flat parameters and bit-identical predictions."""
    rng = np.random.default_rng(seed)
    hidden = [] if kind == "linear" else hidden
    order = int(kind in ("rnn", "lstm"))  # a recurrent step reads a lag pair and the price
    n_features += 2 * order
    params = [p + rng.normal(size=p.shape) for p in init_params(kind, n_features, hidden, rng)]
    model = model_from_params(
        kind,
        params,
        random_scaler(rng, n_features),
        config_of_width(n_features, order),
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert loaded.kind == kind and loaded.hidden_sizes() == hidden
    assert len(flat_params(loaded)) == len(params)
    assert all(np.array_equal(p, q) for p, q in zip(flat_params(loaded), params))
    inputs = rng.normal(size=(30, n_features) if kind in ("linear", "fnn") else (3, 10, n_features))
    assert np.array_equal(loaded.forward(inputs), model.forward(inputs))


def test_schema_v1_two_layer_lstm_file_loads_and_resaves(tmp_path):
    """A schema-v1 file saved before parameters were declared per family."""
    path = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
    model = load_model(path)
    assert model.kind == "lstm"
    assert model.hidden_sizes() == [3, 2]
    again = tmp_path / "again.json"
    save_model(model, str(again))
    with open(path, "rb") as original:
        assert again.read_bytes() == original.read()


class TestEquality:
    def test_served_lstm_equals_fresh_copy_until_a_weight_changes(self):
        path = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        served, fresh = load_model(path), load_model(path)
        history = TimeSeriesDataset(
            prices=np.linspace(20.0, 60.0, 30),
            consumptions=np.linspace(2.0, 4.0, 30),
            hours=np.arange(30) % 24,
        )
        predict_one_step(served, history, 35.0, 30)  # leaves a replay entry on served
        assert served == fresh and fresh == served
        served.w_ch[1][0, 1] += 1e-9
        assert served != fresh

    @pytest.mark.parametrize("kind", ["linear", "fnn", "rnn", "lstm"])
    def test_every_family_compares_by_value(self, kind):
        assert make_model(kind) == make_model(kind)
        assert make_model(kind) != make_model(kind, seed=1)
        assert make_model(kind) != make_model("fnn" if kind == "linear" else "linear")

    def test_scaler_and_layout_count(self):
        model, other = make_model("rnn"), make_model("rnn")
        other.scaler.input_std[2] *= 2.0
        assert model != other
        # as wide as the scalar hour column, but another column: hour_0
        one_hot = StateConfig(order=1, time_encoding="one_hot", intervals_per_day=1)
        assert model != replace(make_model("rnn"), state_config=one_hot)


def saved_document(tmp_path, kind="rnn"):
    path = tmp_path / "model.json"
    save_model(make_model(kind), str(path))
    return path, json.loads(path.read_text())


class TestLoadDiagnostics:
    def test_truncated_file_is_schema_violation(self, tmp_path):
        path, _ = saved_document(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(str(path))

    def test_version_mismatch_named(self, tmp_path):
        path, doc = saved_document(tmp_path)
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ModelFormatError, match="version mismatch: file has schema_version 99"
        ):
            load_model(str(path))

    def test_kind_swap_reports_field_diff(self, tmp_path):
        path, doc = saved_document(tmp_path, kind="rnn")
        doc["kind"] = "fnn"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="does not match payload"):
            load_model(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path, doc = saved_document(tmp_path)
        doc["kind"] = "transformer"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="unknown model kind"):
            load_model(str(path))

    def test_missing_scaler_named(self, tmp_path):
        path, doc = saved_document(tmp_path)
        del doc["scaler"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="missing field 'scaler'"):
            load_model(str(path))

    def test_non_numeric_weights_rejected(self, tmp_path):
        path, doc = saved_document(tmp_path, kind="linear")
        doc["params"]["weights"] = ["a", "b", "c", "d"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="not numeric"):
            load_model(str(path))

    def test_weight_length_mismatch_named(self, tmp_path):
        path, doc = saved_document(tmp_path, kind="linear")
        doc["params"]["weights"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="dimension mismatch"):
            load_model(str(path))

    def test_recurrent_fan_in_mismatch_named(self, tmp_path):
        path, doc = saved_document(tmp_path, kind="rnn")
        doc["params"]["w_x"][0] = [[0.1, 0.2]] * 5  # fan-in 2 instead of 4
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="dimension mismatch: w_x\\[0\\]"):
            load_model(str(path))

    def test_non_square_hidden_matrix_named(self, tmp_path):
        path, doc = saved_document(tmp_path, kind="rnn")
        doc["params"]["w_h"][0] = [[0.1] * 4] * 5  # 5 x 4, not square
        path.write_text(json.dumps(doc))
        message = r"dimension mismatch: w_h\[0\] expected shape \(5, 5\), got \(5, 4\)"
        with pytest.raises(ModelFormatError, match=message):
            load_model(str(path))

    def test_lstm_gate_size_disagreement_named(self, tmp_path):
        path, doc = saved_document(tmp_path, kind="lstm")
        doc["params"]["w_ih"] = [[[0.1] * 3] * 3]
        doc["params"]["w_ix"] = [[[0.1] * 4] * 3]
        doc["params"]["b_i"] = [[0.0] * 3]
        path.write_text(json.dumps(doc))
        message = r"dimension mismatch: w_ih\[0\] expected shape \(4, 4\), got \(3, 3\)"
        with pytest.raises(ModelFormatError, match=message):
            load_model(str(path))

    def test_scaler_layout_disagreement_named(self, tmp_path):
        path, doc = saved_document(tmp_path)
        doc["scaler"]["input_mean"] = [0.0, 0.0]
        doc["scaler"]["input_std"] = [1.0, 1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="scaler expects 4 features"):
            load_model(str(path))

    def test_bad_state_config_named(self, tmp_path):
        path, doc = saved_document(tmp_path)
        doc["state_config"]["time_encoding"] = "fourier"
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ModelFormatError,
            match=r"^schema violation: state_config\.time_encoding: must be one of \['none',",
        ):
            load_model(str(path))

    @pytest.mark.parametrize("field", ["order", "intervals_per_day"])
    @pytest.mark.parametrize("value", [2.7, "2", True])
    def test_state_config_integers_must_be_json_integers(self, tmp_path, field, value):
        # int() would read 2.7 and "2" as 2 and true as 1
        path, doc = saved_document(tmp_path, kind="linear")
        doc["state_config"][field] = value
        path.write_text(json.dumps(doc))
        message = re.escape(f"state_config.{field}: expected an integer, got {value!r}")
        with pytest.raises(ModelFormatError, match=f"^schema violation: {message}$"):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_recurrent_state_order_must_be_one(self, tmp_path, kind):
        path, doc = saved_document(tmp_path, kind=kind)
        doc["state_config"]["order"] = 3
        doc["feature_layout"] = list(feature_layout(StateConfig(order=3)))
        path.write_text(json.dumps(doc))
        with pytest.raises(
            ModelFormatError, match=f"state_config.order must be 1 for {kind}, got 3"
        ):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["linear", "lstm"])
    def test_non_finite_parameter_named(self, tmp_path, kind):
        path, doc = saved_document(tmp_path, kind=kind)
        field = "weights" if kind == "linear" else "w_ox"
        values = doc["params"][field]
        if kind == "lstm":
            values = values[0][1]
        values[2] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=rf"params\.{field}.*: holds a non-finite value"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("input_mean", [0.0, float("inf"), 0.0, 0.0], "input_mean: holds a non-finite value"),
            ("target_mean", float("-inf"), "target_mean: must be a finite number, got -inf"),
        ],
    )
    def test_non_finite_scaler_named(self, tmp_path, field, value, message):
        path, doc = saved_document(tmp_path)
        doc["scaler"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(f"schema violation: scaler.{message}")):
            load_model(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("input_std", [1.0, 0.0, 1.0, 1.0], "input_std[1]: must be > 0, got 0.0"),
            ("target_std", -2.0, "target_std: must be > 0, got -2.0"),
        ],
    )
    def test_non_positive_scaler_std_named(self, tmp_path, field, value, message):
        path, doc = saved_document(tmp_path)
        doc["scaler"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(f"schema violation: scaler.{message}")):
            load_model(str(path))

    @pytest.mark.parametrize(
        "section, key, value",
        [("state_config", "orderr", 3), ("scaler", "target_scale", 9.0), (None, "extra_top", 1)],
    )
    def test_unknown_key_named(self, tmp_path, section, key, value):
        source = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        with open(source) as handle:
            doc = json.load(handle)
        (doc if section is None else doc[section])[key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        message = f"{section}.{key}: unknown field" if section else f"unknown field '{key}' in document"
        with pytest.raises(ModelFormatError, match=f"^schema violation: {re.escape(message)}$"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "place, field",
        [
            (lambda doc: doc["scaler"]["input_mean"], r"scaler\.input_mean"),
            (lambda doc: doc["params"]["w_fh"][1][1], r"params\.w_fh\[1\]"),
            (lambda doc: doc["params"]["out_weight"], r"params\.out_weight"),
        ],
        ids=["scaler", "layer-weight", "readout-weight"],
    )
    @pytest.mark.parametrize("boolean", [True, False])
    def test_json_boolean_in_an_array_named(self, tmp_path, place, field, boolean):
        # numpy reads true as 1.0 and false as 0.0
        source = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        with open(source) as handle:
            doc = json.load(handle)
        place(doc)[0] = boolean
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"{field}: holds true or false"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["scaler"]["input_mean"].__setitem__(0, "0.5"),
             "scaler.input_mean: not numeric"),
            (lambda doc: doc["scaler"]["input_mean"].__setitem__(0, 10**400),
             "scaler.input_mean: holds a non-finite value"),
            (lambda doc: doc["params"].__setitem__("out_bias", 10**400),
             "params.out_bias: holds a non-finite value"),
            (lambda doc: doc["params"].__setitem__("out_bias", "0.5"), "params.out_bias: not numeric"),
        ],
        ids=["string-in-array", "huge-integer-in-array", "huge-integer-bias", "string-bias"],
    )
    def test_strings_and_huge_integers_named(self, tmp_path, edit, message):
        # numpy reads "0.5" as 0.5, and an integer beyond the float range raised OverflowError
        source = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        with open(source) as handle:
            doc = json.load(handle)
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"^schema violation: {re.escape(message)}$"):
            load_model(str(path))

    def test_json_boolean_schema_version_rejected(self, tmp_path):
        # true == 1 in Python, so it read as version 1
        source = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        with open(source) as handle:
            doc = json.load(handle)
        doc["schema_version"] = True
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="file has schema_version True"):
            load_model(str(path))

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ModelFormatError, match="top level must be an object"):
            load_model(str(path))

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises((ModelFormatError, OSError)):
            load_model(str(tmp_path / "absent.json"))

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ModelFormatError, match=f"{path} is not UTF-8 text"):
            load_model(str(path))
