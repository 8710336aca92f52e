"""Boundary fuzz: one mutated leaf of a valid input, run through the CLI.

Each example changes one leaf of a small valid config (drlearn simulate),
of the v1 LSTM model file (drlearn eval) or one cell of a simulated dataset
(drlearn train --model linear) to a boundary value, and runs the command.
Whatever the value, the command answers with an input error, exit 1 (config),
2 (data) or 3 (numerical), whose message names the field, row, path or split
it refused, or it exits 0 with an output that reloads. It never exits 4, the
code of a fault of drlearn itself, and it never writes NaN or infinity into
a JSON file.
"""

import copy
import json
import os
import re

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drlearn.cli import main
from drlearn.config import load_config
from drlearn.eucsim import read_dataset
from drlearn.models import load_model

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

