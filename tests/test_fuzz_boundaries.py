"""Boundary fuzz: one mutated leaf of a valid input, run through the CLI, and
one mutated entry or shape of an array given to the library.

Each example changes one leaf of a small valid config (drlearn simulate),
of the v1 LSTM model file (drlearn eval) or one cell of a simulated dataset
(drlearn train --model linear) to a boundary value, and runs the command.
Whatever the value, the command answers with an input error, exit 1 (config),
2 (data) or 3 (numerical), whose message names the field, row, path or split
it refused, or it exits 0 with an output that reloads. It never exits 4, the
code of a fault of drlearn itself, and it never writes NaN or infinity into
a JSON file.

The library examples set one entry of an array argument or field to NaN,
+-inf or -1, or give it a 2-D, 0-d or empty shape. Only a RecordError,
ValueError or DataError escapes, and it names the argument or field, with
the entry's index when one entry was changed.
"""

import copy
import json
import os
import re

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drlearn.cli import main
from drlearn.config import load_config
from drlearn.errors import DataError
from drlearn.eucsim import (
    LoadProfile,
    TimeSeriesDataset,
    generate_profile,
    read_dataset,
    sample_population,
    simulate,
)
from drlearn.features import Scaler, StateConfig, feature_layout, identity_scaler
from drlearn.models import init_params, load_model, model_from_params, predict_one_step, rollout

V1_LSTM = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")

CONFIG = {
    "simulation": {"euc_count": 4, "horizon": 96, "noise_std": 0.1, "price_low": 20.0,
                   "price_high": 50.0, "min_fraction": 0.5, "rho_scale": -100.0,
                   "resample_alpha_hourly": False, "profile_path": None, "noise_seed": 17},
    "training": {"steps": 5, "learning_rate": 0.001, "batch_size": 8, "window_length": 24,
                 "fnn_hidden": [4], "rnn_hidden": [3], "lstm_hidden": [3],
                 "time_encoding": "scalar", "gradient_clip_norm": 5.0},
    "benchmark": {"train_len": 72, "orders": [0, 1], "kinds": ["linear", "fnn"]},
}
# the config the model file and the dataset are read under
BASE_CONFIG = """\
simulation: {euc_count: 4, horizon: 192}
training: {steps: 5, window_length: 24}
benchmark: {train_len: 144, orders: [1], kinds: [linear]}
"""

# YAML tokens: 1e300 and 5e-324 stay strings in YAML 1.1, 1_000 reads as 1000
YAML_VALUES = ["-1", "0", "1", "1e300", "1.0e+300", "5e-324", "5.0e-324", "true", "x", "[]",
               "{}", "null", "1_000", ".nan", "-.inf"]
JSON_VALUES = [-1, 0, 1, 1e300, 5e-324, True, "x", [], {}, None, 1000, "1_000",
               float("nan"), float("inf")]
CSV_VALUES = ["-1", "0", "1e300", "5e-324", "true", "x", "", "null", "1_000", "[]", "{}",
              "nan", "-inf", "1,2"]

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# what a refusal must name: a config section or model-file field, a dataset
# row, line or index, the split, or a file
NAMED = re.compile(
    r"\b(simulation|training|benchmark|state_config|scaler|params|feature_layout|kind)\b"
    r"|\b(schema_version|intervals_per_day|feature layout)\b|\w+\[\d+\]|mismatch: \w+"
    r"|\b(row|line|index) \d+|\b(train|test)\b|\bfile \S+"
)


def strict_json(text: str):
    """json.loads refusing NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"{token} in a written JSON file")
    return json.loads(text, parse_constant=refuse)


def run(argv, capsys) -> int:
    """main(argv)'s exit code, after checking it and what a refusal names."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), err
    if code:
        assert NAMED.search(err), err
    return code


@st.composite
def leaf_path(draw, document):
    """One leaf's path, drawn level by level, so every key of a mapping is as
    likely as any other however large its subtree."""
    node, path = document, ()
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node, path = node[key], (*path, key)
    return path


def replaced(document, path, value):
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return document


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A config and a dataset simulated under it, shared by the examples."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "base.yaml"
    config.write_text(BASE_CONFIG)
    data = root / "data.csv"
    assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
    return root, str(config), str(data)


@pytest.fixture(scope="module")
def v1_lstm():
    with open(V1_LSTM, encoding="utf-8") as handle:
        return json.load(handle)


@FUZZ
@given(path=leaf_path(CONFIG), token=st.sampled_from(YAML_VALUES))
def test_one_config_leaf(base, capsys, path, token):
    root, _, _ = base
    text = yaml.safe_dump(replaced(CONFIG, path, "LEAF"), sort_keys=True)
    config = root / "fuzz.yaml"
    config.write_text(text.replace("LEAF", token))
    out = root / "sim.csv"
    out.unlink(missing_ok=True)
    code = run(["simulate", "--config", str(config), "--out", str(out)], capsys)
    if code == 0:
        read_dataset(str(out), load_config(str(config)).simulation.intervals_per_day)


@FUZZ
@given(data=st.data(), value=st.sampled_from(JSON_VALUES))
def test_one_model_file_leaf(base, v1_lstm, capsys, data, value):
    root, config, dataset = base
    path = data.draw(leaf_path(v1_lstm))
    model = root / "model.json"
    model.write_text(json.dumps(replaced(v1_lstm, path, value)))
    out = root / "report.json"
    out.unlink(missing_ok=True)
    code = run(["eval", "--config", config, "--model", str(model), "--data", dataset,
                "--out", str(out)], capsys)
    if code == 0:
        strict_json(out.read_text())


@FUZZ
@given(data=st.data(), value=st.sampled_from(CSV_VALUES))
def test_one_dataset_cell(base, capsys, data, value):
    root, config, data_path = base
    with open(data_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].rstrip("\n").split(",")
    cells[data.draw(st.integers(0, len(cells) - 1))] = value
    dataset = root / "cell.csv"
    dataset.write_text("".join([*lines[:row], ",".join(cells) + "\n", *lines[row + 1:]]))
    out = root / "linear.json"
    out.unlink(missing_ok=True)
    code = run(["train", "--config", config, "--data", str(dataset), "--model", "linear",
                "--order", "1", "--out", str(out)], capsys)
    if code == 0:
        strict_json(out.read_text())
        load_model(str(out))



@pytest.fixture(scope="module")
def served():
    """A small RNN and a 48-hour history to serve it on."""
    cfg = StateConfig(order=1)
    layout = feature_layout(cfg)
    params = init_params("rnn", len(layout), [3], np.random.default_rng(0))
    model = model_from_params("rnn", params, identity_scaler(len(layout)), cfg)
    history = TimeSeriesDataset(prices=np.full(48, 30.0), consumptions=np.full(48, 50.0),
                                hours=np.arange(48) % 24)
    return model, history


def scaler(**arrays):
    return Scaler(**{"input_mean": np.zeros(3), "input_std": np.ones(3), **arrays},
                  target_mean=0.0, target_std=1.0)


def predict_at(model, history, price):
    """predict_one_step with price as drawn: a number, or a drawn shape as is."""
    return predict_one_step(model, history, price[0] if price.shape == (1,) else price, 48)


# input -> (the names a refusal may give it, a valid value, a call with the value)
LIBRARY_INPUTS = {
    "LoadProfile.values": (
        ("values",), np.linspace(0.5, 1.0, 24),
        lambda _, values: LoadProfile(values=values)),
    "simulate prices": (
        ("prices", "horizon"), np.full(24, 30.0),
        lambda _, prices: simulate(sample_population(2, 0), prices, generate_profile(24, 24, 0))),
    "predict_one_step price": (
        ("posted prices",), np.array([30.0]),
        lambda served, price: predict_at(*served, price)),
    "rollout future_prices": (
        ("posted prices",), np.full(3, 30.0),
        lambda served, prices: rollout(*served, prices)),
    "rollout teacher_consumptions": (
        ("teacher_consumptions",), np.full(3, 50.0),
        lambda served, teacher: rollout(*served, np.full(3, 30.0), teacher)),
    "Scaler.input_mean": (
        ("input_mean",), np.zeros(3), lambda _, mean: scaler(input_mean=mean)),
    "Scaler.input_std": (
        ("input_std",), np.ones(3), lambda _, std: scaler(input_std=std)),
    "TimeSeriesDataset.prices": (
        ("prices",), np.full(6, 30.0),
        lambda _, prices: TimeSeriesDataset(prices=prices, consumptions=np.ones(6),
                                            hours=np.arange(6))),
    "TimeSeriesDataset.consumptions": (
        ("consumptions",), np.full(6, 50.0),
        lambda _, consumptions: TimeSeriesDataset(prices=np.ones(6), consumptions=consumptions,
                                                  hours=np.arange(6))),
    "TimeSeriesDataset.hours": (
        ("hours",), np.arange(6) % 4,
        lambda _, hours: TimeSeriesDataset(prices=np.ones(6), consumptions=np.ones(6),
                                           hours=hours, intervals_per_day=4)),
}
ENTRIES = [np.nan, np.inf, -np.inf, -1]
SHAPES = {"2-D": lambda a: a.reshape(-1, 1), "0-d": lambda a: np.array(a[0]),
          "empty": lambda a: a[:0]}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(list(LIBRARY_INPUTS)),
       change=st.sampled_from([*ENTRIES, *SHAPES]))
def test_one_library_array_entry_or_shape(served, data, name, change):
    names, valid, call = LIBRARY_INPUTS[name]
    if change in SHAPES:
        value, path = SHAPES[change](valid), "|".join(map(re.escape, names))
    else:
        k = data.draw(st.integers(0, len(valid) - 1))
        value, path = valid.astype(float), rf"{re.escape(names[0])}\[{k}\]"
        value[k] = change
    try:
        call(served, value)
    except (ValueError, DataError) as exc:  # a RecordError is a ValueError
        assert re.search(rf"(^|\b){path}", str(exc)), f"{name} {change}: {exc}"
