"""Model persistence tests: bit-exact round trips and load-time diagnostics."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlearn.errors import ModelFormatError
from drlearn.features import Scaler, StateConfig
from drlearn.models import (
    FnnModel,
    LinearModel,
    LstmModel,
    RnnModel,
    flat_params,
    fnn_forward,
    init_params,
    load_model,
    lstm_forward,
    model_from_params,
    rnn_forward,
    save_model,
)

LAYOUT = ("price_lag1", "consumption_lag1", "hour_frac", "price")


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
            feature_layout=LAYOUT,
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
            feature_layout=LAYOUT,
            scaler=scaler,
            state_config=cfg,
        )
    if kind == "rnn":
        p = init_params("rnn", 4, [5], rng)
        return RnnModel(
            w_h=[p[0]], w_x=[p[1]], b=[p[2] + rng.normal(size=5)],
            out_weight=p[3],
            out_bias=float(rng.normal()),
            feature_layout=LAYOUT,
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
        feature_layout=LAYOUT,
        scaler=scaler,
        state_config=cfg,
    )


def predictions(model, seed=123):
    rng = np.random.default_rng(seed)
    if model.kind in ("linear", "fnn"):
        rows = rng.normal(size=(100, 4))
        if model.kind == "fnn":
            return np.array([fnn_forward(model, row) for row in rows])
        x = model.scaler.transform_inputs(rows)
        return model.scaler.inverse_targets(model.forward(x))
    windows = rng.normal(size=(5, 20, 4))
    forward = rnn_forward if model.kind == "rnn" else lstm_forward
    return np.concatenate([forward(model, w) for w in windows])


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
    params = [p + rng.normal(size=p.shape) for p in init_params(kind, n_features, hidden, rng)]
    model = model_from_params(
        kind,
        params,
        tuple(f"x{k}" for k in range(n_features)),
        random_scaler(rng, n_features),
        StateConfig(order=1, time_encoding="scalar"),
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
        with pytest.raises(ModelFormatError, match="bad state_config"):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_recurrent_state_order_must_be_one(self, tmp_path, kind):
        path, doc = saved_document(tmp_path, kind=kind)
        doc["state_config"]["order"] = 3
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
        with pytest.raises(ModelFormatError, match=f"field '{field}.*' holds a non-finite value"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "field, value", [("input_mean", [0.0, float("inf"), 0.0, 0.0]), ("target_mean", float("-inf"))]
    )
    def test_non_finite_scaler_named(self, tmp_path, field, value):
        path, doc = saved_document(tmp_path)
        doc["scaler"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"field '{field}' holds a non-finite value"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "field, value", [("input_std", [1.0, 0.0, 1.0, 1.0]), ("target_std", -2.0)]
    )
    def test_non_positive_scaler_std_named(self, tmp_path, field, value):
        path, doc = saved_document(tmp_path)
        doc["scaler"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"field '{field}' must be positive"):
            load_model(str(path))

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ModelFormatError, match="top level must be an object"):
            load_model(str(path))

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises((ModelFormatError, OSError)):
            load_model(str(tmp_path / "absent.json"))
