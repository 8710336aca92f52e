"""The series value rules have one owner, eucsim.check_series: a price and a
consumption are finite, the price is >= 0 and the consumption > 0. Every
boundary that takes a series to learn from or score refuses a break of
them, naming the series index or the CSV line; evaluate refuses a
prediction or percentage error that is not finite."""

import json
import math
import os
import warnings

import numpy as np
import pytest
import yaml

from drlearn import features, pipeline
from drlearn.cli import main
from drlearn.config import parse_config
from drlearn.errors import DataError, NumericalError
from drlearn.eucsim import TimeSeriesDataset, check_series, read_dataset, write_dataset
from drlearn.features import StateConfig, identity_scaler, split
from drlearn.metrics import evaluate
from drlearn.models import load_model, model_from_params
from drlearn.pipeline import simulate_from_config, train_model

V1_LSTM = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")

BREAKS = [
    ("prices", math.nan, "nan", "non-finite price or consumption"),
    ("consumptions", math.inf, "inf", "non-finite price or consumption"),
    ("prices", -5.0, "-5.0", "negative price -5.0"),
    ("consumptions", 0.0, "0.0", "consumption 0.0 is not positive"),
    ("consumptions", -2.5, "-2.5", "consumption -2.5 is not positive"),
]
BREAK_IDS = ["nan-price", "inf-consumption", "negative-price", "zero-consumption",
             "negative-consumption"]
breaks = pytest.mark.parametrize("column, value, text, message", BREAKS, ids=BREAK_IDS)

TINY_CONFIG = """\
simulation: {euc_count: 8, horizon: 480}
training: {steps: 30, window_length: 24, fnn_hidden: [8]}
benchmark: {train_len: 360, orders: [0, 1], kinds: [linear, fnn]}
"""


def tiny_config():
    return parse_config(yaml.safe_load(TINY_CONFIG))


def series(length: int = 80) -> TimeSeriesDataset:
    rng = np.random.default_rng(3)
    return TimeSeriesDataset(
        prices=rng.uniform(20.0, 50.0, length),
        consumptions=rng.uniform(10.0, 90.0, length),
        hours=np.arange(length, dtype=np.int64) % 24,
    )


def broken(column: str, value: float, at: int = 40) -> TimeSeriesDataset:
    ts = series()
    getattr(ts, column)[at] = value
    getattr(ts, column)[at + 3] = value  # the first break is the one named
    return ts


def last_consumption_model():
    """Linear, order 1: predicts the previous interval's consumption."""
    cfg = StateConfig(order=1, time_encoding="scalar")
    params = [np.array([0.0, 1.0, 0.0, 0.0]), np.array(0.0)]
    return model_from_params("linear", params, identity_scaler(4), cfg)


class TestEveryBoundary:
    @breaks
    def test_check_series_names_index(self, column, value, text, message):
        with pytest.raises(DataError, match=f"^{message}.* at index 40"):
            check_series(broken(column, value))

    def test_check_series_passes_a_good_series_and_a_zero_price(self):
        ts = series()
        ts.prices[5] = 0.0
        check_series(ts)

    @breaks
    def test_write_dataset(self, tmp_path, column, value, text, message):
        path = tmp_path / "data.csv"
        with pytest.raises(DataError, match=f"dataset row 40: {message}.* at index 40"):
            write_dataset(broken(column, value), str(path))
        assert not path.exists()

    @breaks
    def test_read_dataset_names_line(self, tmp_path, column, value, text, message):
        path = tmp_path / "data.csv"
        write_dataset(series(), str(path))
        lines = path.read_text().splitlines()
        for t in (40, 43):  # data row t is line t + 2, list entry t + 1
            cells = lines[t + 1].split(",")
            cells[2 if column == "prices" else 3] = text
            lines[t + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"line 42: {message}.* at index 40"):
            read_dataset(str(path))

    @breaks
    def test_split(self, column, value, text, message):
        with pytest.raises(DataError, match=f"{message}.* at index 40"):
            split(broken(column, value), 30)

    @breaks
    def test_evaluate(self, column, value, text, message):
        with pytest.raises(DataError, match=f"{message}.* at index 40"):
            evaluate(last_consumption_model(), broken(column, value), "test")

    def test_features_has_no_check_of_its_own(self):
        assert not hasattr(features, "check_finite")


class TestTrainModel:
    @pytest.fixture
    def no_fit(self, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("a model was fit")

        for name in ("linear_fit", "train_fnn", "train_recurrent"):
            monkeypatch.setattr(pipeline, name, fit)

    @pytest.mark.parametrize("kind", ["linear", "fnn"])
    def test_negative_price_refused_before_fitting(self, no_fit, kind):
        config = tiny_config()
        dataset = simulate_from_config(config)
        dataset.prices[100] = -5.0
        with pytest.raises(DataError, match="negative price -5.0 at index 100"):
            train_model(config, dataset, kind, 1)

    def test_zero_consumption_refused_by_split_naming_series_index(self, no_fit):
        config = tiny_config()
        dataset = simulate_from_config(config)
        dataset.consumptions[100] = 0.0
        with pytest.raises(DataError, match="consumption 0.0 is not positive at index 100"):
            split(dataset, config.benchmark.train_len)
        with pytest.raises(DataError, match="consumption 0.0 is not positive at index 100"):
            train_model(config, dataset, "linear", 1)


class TestStrictNumbers:
    HEAD = "t,hour,price_usd_per_mwh,consumption_mwh\n0,0,30.0,1.5\n"

    @pytest.mark.parametrize(
        "row",
        ["1,1,1_000.0,1.5", "0_1,1,30.0,1.5", "1,١,30.0,1.5", "1,1,30.0,٣.5",
         "1,1,３０.0,1.5"],
        ids=["underscore-price", "underscore-t", "arabic-indic-hour",
             "arabic-indic-consumption", "fullwidth-price"],
    )
    def test_refused_naming_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_text(self.HEAD + row + "\n2,2,30.0,1.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3 is not plain ASCII without '_'"):
            read_dataset(str(path))

    def test_plain_rows_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEAD + "1,1,1e3,.5\n", encoding="utf-8")
        assert read_dataset(str(path)).prices.tolist() == [30.0, 1000.0]


def overflowing_lstm(tmp_path) -> str:
    with open(V1_LSTM) as handle:
        doc = json.load(handle)
    doc["params"]["out_weight"][0] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestNonFiniteEvaluation:
    def test_subnormal_consumption_named_by_train_model(self):
        config = tiny_config()
        dataset = simulate_from_config(config)
        dataset.consumptions[400] = 5e-324  # positive, so it keeps the series rules
        check_series(dataset)
        message = "at index 40 of the test split: percentage error inf"
        with pytest.raises(NumericalError, match=message):
            train_model(config, dataset, "linear", 1)

    def test_overflowing_model_named_without_warnings(self, tmp_path):
        model = load_model(overflowing_lstm(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"lstm prediction \S+ for consumption .* at index"
            with pytest.raises(NumericalError, match=message):
                evaluate(model, series(), "test")

    def test_overflowing_aggregate_named(self):
        # every percentage error is finite, but their squares are not
        model = last_consumption_model()
        ts = series()
        ts.consumptions[::2] = 1e200
        with pytest.raises(NumericalError, match="linear test MAPE .*SDAPE inf: not finite"):
            evaluate(model, ts, "test")


class TestNonFiniteEvaluationCli:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(TINY_CONFIG)
        return str(path)

    @pytest.fixture
    def dataset_path(self, tmp_path, config_path):
        path = tmp_path / "data.csv"
        assert main(["simulate", "--config", config_path, "--out", str(path)]) == 0
        return str(path)

    @pytest.fixture
    def subnormal_path(self, tmp_path, dataset_path):
        lines = open(dataset_path).read().splitlines()
        cells = lines[401].split(",")  # t = 400
        lines[401] = ",".join(cells[:3] + ["5e-324"])
        path = tmp_path / "subnormal.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_train_exits_3_writing_nothing(self, tmp_path, config_path, subnormal_path, capsys):
        out = tmp_path / "m.json"
        argv = ["train", "--config", config_path, "--data", subnormal_path, "--model", "linear",
                "--order", "1", "--out", str(out)]
        assert main(argv) == 3
        assert "numerical error: linear prediction" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_of_subnormal_consumption_exits_3(
        self, tmp_path, config_path, dataset_path, subnormal_path, capsys
    ):
        model = str(tmp_path / "m.json")
        argv = ["train", "--config", config_path, "--data", dataset_path, "--model", "linear",
                "--order", "1", "--out", model]
        assert main(argv) == 0
        report = tmp_path / "report.json"
        argv = ["eval", "--config", config_path, "--model", model, "--data", subnormal_path,
                "--out", str(report)]
        assert main(argv) == 3
        assert "at index 40 of the test split" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_of_overflowing_model_exits_3(self, tmp_path, config_path, dataset_path, capsys):
        report = tmp_path / "report.json"
        argv = ["eval", "--config", config_path, "--model", overflowing_lstm(tmp_path),
                "--data", dataset_path, "--out", str(report)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: lstm prediction")
        assert "Warning" not in err
        assert not report.exists()
