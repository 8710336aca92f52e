"""Command-line tests: full flows, exit codes, reproducibility."""

import hashlib
import json

import numpy as np
import pytest

from drlearn import cli, pipeline
from drlearn.cli import main
from drlearn.eucsim import read_dataset, write_dataset
from drlearn.models import load_model

TINY_CONFIG = """\
simulation:
  euc_count: 8
  horizon: 480
training:
  steps: 30
  window_length: 24
  fnn_hidden: [8]
  rnn_hidden: [6]
  lstm_hidden: [6]
benchmark:
  train_len: 360
  orders: [0, 1]
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture
def dataset_path(tmp_path, config_path):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--config", config_path, "--out", str(path)]) == 0
    return str(path)


class TestSimulate:
    def test_writes_csv_and_reports_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "480 intervals" in stdout
        assert out.read_text().startswith("t,hour,price_usd_per_mwh,consumption_mwh")

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["simulate", "--config", config_path, "--out", str(first)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_default_config_when_omitted(self, tmp_path):
        # runs at the full default horizon, so only check it starts cleanly
        # with an invalid out path instead of simulating 8760 intervals
        missing_dir = tmp_path / "no" / "such" / "dir" / "data.csv"
        assert main(["simulate", "--out", str(missing_dir)]) == 2

    def test_bad_horizon_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("simulation:\n  horizon: 100\n")
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_out_flag_exits_1(self, config_path, capsys):
        assert main(["simulate", "--config", config_path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_beta_out_of_range_exits_1(self, tmp_path, capsys):
        config = tmp_path / "beta.yaml"
        config.write_text(TINY_CONFIG.replace("steps: 30", "steps: 30\n  beta1: 1.0"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "training.beta1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("simulation", "noise_std: .nan"),
            ("training", "gradient_clip_norm: .nan"),
            ("simulation", "rho_scale: -.inf"),
            ("simulation", "price_high: .inf"),
        ],
    )
    def test_non_finite_config_float_exits_1_writing_nothing(self, tmp_path, capsys, section, line):
        config = tmp_path / "config.yaml"
        config.write_text(TINY_CONFIG.replace(f"{section}:\n", f"{section}:\n  {line}\n"))
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        key = line.split(":")[0]
        assert f"{section}.{key}: must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_error_exits_4_with_its_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("no such state")

        monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
        assert main(["simulate", "--out", str(tmp_path / "data.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: no such state\n")
        assert "Traceback (most recent call last)" in err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["explode"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("make", ["directory", "non-UTF-8 file"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, make):
        path = tmp_path / "config.yaml"
        if make == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfesimulation: {}\n")
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err
        assert not out.exists()


# one customer with wide noise: the simulated consumption at hour 0 is 0.0,
# which read_dataset and the percentage errors refuse
ZERO_CONSUMPTION_CONFIG = """\
simulation: {euc_count: 1, noise_std: 3.0, horizon: 240, noise_seed: 1}
training: {steps: 20}
benchmark: {train_len: 192}
"""


class TestZeroConsumption:
    @pytest.fixture
    def zero_config(self, tmp_path):
        path = tmp_path / "zero.yaml"
        path.write_text(ZERO_CONSUMPTION_CONFIG)
        return str(path)

    def test_simulate_exits_2_writing_nothing(self, tmp_path, zero_config, capsys):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", zero_config, "--out", str(out)]) == 2
        assert "dataset row 0: consumption 0.0 is not positive" in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_fails_in_simulate_stage(self, tmp_path, zero_config, capsys):
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", zero_config, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "benchmark stage 'simulate' failed: dataset row 0: consumption 0.0" in err
        assert not (out_dir / "dataset.csv").exists()
        assert list((out_dir / "models").iterdir()) == []


class TestTrain:
    def test_linear_order0_parameter_count(self, tmp_path, config_path, dataset_path, capsys):
        out = tmp_path / "linear.json"
        code = main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "linear", "--order", "0", "--out", str(out),
        ])
        assert code == 0
        assert "closed form" in capsys.readouterr().out
        model = load_model(str(out))
        # order 0 state: hour fraction plus posted price, then the bias
        assert model.feature_layout == ("hour_frac", "price")
        assert model.n_parameters() == 3

    def test_fnn_order2_input_width(self, tmp_path, config_path, dataset_path):
        out = tmp_path / "fnn.json"
        code = main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "fnn", "--order", "2", "--out", str(out),
        ])
        assert code == 0
        model = load_model(str(out))
        assert len(model.feature_layout) == 6
        assert model.hidden_weights[0].shape == (8, 6)

    def test_recurrent_kinds_train(self, tmp_path, config_path, dataset_path):
        for kind in ("rnn", "lstm"):
            out = tmp_path / f"{kind}.json"
            code = main([
                "train", "--config", config_path, "--data", dataset_path,
                "--model", kind, "--out", str(out),
            ])
            assert code == 0
            assert load_model(str(out)).kind == kind

    def test_rerun_is_byte_identical(self, tmp_path, config_path, dataset_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            assert main([
                "train", "--config", config_path, "--data", dataset_path,
                "--model", "fnn", "--order", "1", "--out", str(out),
            ]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_lstm_model_bytes_pinned(self, tmp_path, config_path, dataset_path):
        # the digest of this build's file (numpy 2.x, OpenBLAS 0.3.31): the
        # config checks run before training and must not move a trained bit
        out = tmp_path / "lstm.json"
        assert main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "lstm", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a34c44cb0e6f6f26f8747619bb6f483418855ab11d6d651bd1baf201c6e0be35"
        )

    @pytest.mark.parametrize(
        "edit, kind, field",
        [
            (("window_length: 24\n", "window_length: 24\n  time_encoding: one_hot\n"),
             "linear", "training.time_encoding"),
            (("window_length: 24", "window_length: 400"), "lstm", "training.window_length"),
            (("train_len: 360", "train_len: 460"), "rnn", "benchmark.train_len"),
        ],
        ids=["linear-one-hot", "lstm-window-past-train-split", "rnn-test-split-too-short"],
    )
    def test_config_rule_of_the_model_kind_exits_1_before_fitting(
        self, tmp_path, capsys, monkeypatch, edit, kind, field
    ):
        # benchmark.kinds leaves the given kind out, so only --model needs the rule
        other = "fnn" if kind == "linear" else "linear"
        config = tmp_path / "config.yaml"
        config.write_text(
            TINY_CONFIG.replace(*edit).replace("orders: [0, 1]", f"orders: [0, 1]\n  kinds: [{other}]")
        )
        data, out = tmp_path / "data.csv", tmp_path / "model.json"
        assert main(["simulate", "--config", str(config), "--out", str(data)]) == 0
        fits = []
        monkeypatch.setattr(pipeline, "linear_fit", lambda *a, **k: fits.append(kind))
        monkeypatch.setattr(pipeline, "train_recurrent", lambda *a, **k: fits.append(kind))
        code = main([
            "train", "--config", str(config), "--data", str(data),
            "--model", kind, "--out", str(out),
        ])
        assert code == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert fits == []
        assert not out.exists()

    def test_order_past_the_test_split_names_the_order_option(
        self, tmp_path, capsys, monkeypatch, config_path, dataset_path
    ):
        # the order came from --order, not from benchmark.orders ([0, 1])
        fits = []
        monkeypatch.setattr(pipeline, "train_fnn", lambda *a, **k: fits.append(a))
        out = tmp_path / "model.json"
        code = main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "fnn", "--order", "200", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: --order: order 200 needs a test split longer than it, got 120"
            " intervals (benchmark.train_len 360, series length 480)\n"
        )
        assert fits == []
        assert not out.exists()

    def test_missing_data_exits_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "m.json"
        code = main([
            "train", "--config", config_path, "--data", str(tmp_path / "no.csv"),
            "--model", "linear", "--out", str(out),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_negative_order_exits_1(self, tmp_path, config_path, dataset_path):
        code = main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "linear", "--order", "-1", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1

    def test_unknown_model_kind_exits_1(self, tmp_path, config_path, dataset_path):
        code = main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "tree", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1

    def test_nan_consumption_exits_2_naming_line(self, tmp_path, config_path, dataset_path, capsys):
        lines = open(dataset_path).read().splitlines()
        t, hour, price, _ = lines[5].split(",")
        lines[5] = ",".join([t, hour, price, "nan"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main([
            "train", "--config", config_path, "--data", str(bad),
            "--model", "rnn", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "line 6: non-finite price or consumption" in capsys.readouterr().err

    def test_data_too_large_to_standardize_exits_2_naming_the_column(
        self, tmp_path, config_path, dataset_path, capsys
    ):
        dataset = read_dataset(dataset_path)
        dataset.consumptions[:] *= 1e160  # finite, but their squares are not
        huge = tmp_path / "huge.csv"
        write_dataset(dataset, str(huge))
        code = main([
            "train", "--config", config_path, "--data", str(huge),
            "--model", "linear", "--order", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "train split column consumption_lag1: standard deviation is not finite" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploding_loss_exits_3(self, tmp_path, dataset_path, capsys):
        config = tmp_path / "explode.yaml"
        config.write_text(
            TINY_CONFIG.replace("steps: 30", "steps: 30\n  learning_rate: 1.0e+200")
        )
        code = main([
            "train", "--config", str(config), "--data", dataset_path,
            "--model", "fnn", "--order", "1", "--out", str(tmp_path / "m.json"),
        ])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err


class TestEval:
    def test_eval_writes_single_record_report(self, tmp_path, config_path, dataset_path, capsys):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "linear", "--order", "1", "--out", str(model_path),
        ]) == 0
        report_path = tmp_path / "report.json"
        code = main([
            "eval", "--config", config_path, "--model", str(model_path),
            "--data", dataset_path, "--split", "test", "--out", str(report_path),
        ])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["records"]) == 1
        record = doc["records"][0]
        assert record["split"] == "test"
        assert record["name"] == "linear n=1"
        assert np.isfinite(record["mape_pct"])
        assert "MAPE" in capsys.readouterr().out

    def test_train_split_selectable(self, tmp_path, config_path, dataset_path):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "linear", "--order", "0", "--out", str(model_path),
        ]) == 0
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--config", config_path, "--model", str(model_path),
            "--data", dataset_path, "--split", "train", "--out", str(report_path),
        ]) == 0
        assert json.loads(report_path.read_text())["records"][0]["split"] == "train"

    def test_interval_count_mismatch_exits_2(self, tmp_path, config_path, capsys):
        # hours 0..11 of a 12-interval day are valid hours of a 24-interval one,
        # so a 24-interval model trains on the data and must not score it
        half_days = tmp_path / "half.yaml"
        half_days.write_text(
            TINY_CONFIG.replace("horizon: 480", "horizon: 480\n  intervals_per_day: 12")
        )
        data, model_path = str(tmp_path / "d.csv"), str(tmp_path / "m.json")
        assert main(["simulate", "--config", str(half_days), "--out", data]) == 0
        assert main([
            "train", "--config", config_path, "--data", data,
            "--model", "linear", "--order", "1", "--out", model_path,
        ]) == 0
        capsys.readouterr()
        code = main([
            "eval", "--config", str(half_days), "--model", model_path,
            "--data", data, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "intervals_per_day mismatch: model expects 24, data has 12" in capsys.readouterr().err

    def test_corrupt_model_exits_2(self, tmp_path, config_path, dataset_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main([
            "eval", "--config", config_path, "--model", str(bad),
            "--data", dataset_path, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_non_finite_model_exits_2(self, tmp_path, config_path, dataset_path, capsys):
        model_path = tmp_path / "m.json"
        assert main([
            "train", "--config", config_path, "--data", dataset_path,
            "--model", "linear", "--order", "1", "--out", str(model_path),
        ]) == 0
        doc = json.loads(model_path.read_text())
        doc["params"]["weights"][0] = float("nan")
        model_path.write_text(json.dumps(doc))
        report_path = tmp_path / "r.json"
        code = main([
            "eval", "--config", config_path, "--model", str(model_path),
            "--data", dataset_path, "--out", str(report_path),
        ])
        assert code == 2
        assert "schema violation: params.weights: holds a non-finite value" in capsys.readouterr().err
        assert not report_path.exists()


class TestBenchmark:
    def test_full_run_emits_all_artifacts(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "bench"
        code = main(["benchmark", "--config", config_path, "--out", str(out_dir)])
        assert code == 0
        for name in (
            "dataset.csv", "config.yaml", "report.json", "violin.csv",
            "table_linear.txt", "table_fnn.txt", "table_recurrent.txt",
        ):
            assert (out_dir / name).exists(), name
        models = sorted(p.name for p in (out_dir / "models").iterdir())
        assert models == [
            "fnn_n0.json", "fnn_n1.json", "linear_n0.json",
            "linear_n1.json", "lstm.json", "rnn.json",
        ]
        doc = json.loads((out_dir / "report.json").read_text())
        assert len(doc["records"]) == 12  # 6 models x 2 splits
        stdout = capsys.readouterr().out
        assert "linear family" in stdout
        assert "test MAPE (%)" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        dirs = [tmp_path / "bench_a", tmp_path / "bench_b"]
        for out_dir in dirs:
            assert main(["benchmark", "--config", config_path, "--out", str(out_dir)]) == 0
        for name in ("dataset.csv", "report.json", "violin.csv", "models/lstm.json"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name

    def test_restricted_kinds_skip_tables(self, tmp_path, config_path):
        config = tmp_path / "linear_only.yaml"
        config.write_text(TINY_CONFIG + "  kinds: [linear]\n")
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 0
        assert (out_dir / "table_linear.txt").exists()
        assert not (out_dir / "table_fnn.txt").exists()
        assert not (out_dir / "table_recurrent.txt").exists()
        violin = (out_dir / "violin.csv").read_text().splitlines()
        assert violin[0] == "model,ape_pct"
        assert {line.split(",")[0] for line in violin[1:]} == {"linear n=1"}

    def test_order_past_train_split_exits_1(self, tmp_path, capsys):
        config = tmp_path / "long_order.yaml"
        config.write_text(TINY_CONFIG.replace("orders: [0, 1]", "orders: [0, 360]"))
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 1
        assert "benchmark.orders" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "block, message",
        [
            ("train_len: 456\n  orders: [0, 30]", "benchmark.orders: order 30 needs a test split"),
            ("train_len: 460\n  kinds: [rnn]", "benchmark.train_len: recurrent evaluation"),
        ],
        ids=["order-past-test-split", "recurrent-test-split-too-short"],
    )
    def test_test_split_too_short_exits_1(self, tmp_path, capsys, block, message):
        config = tmp_path / "short_test.yaml"
        config.write_text(TINY_CONFIG.replace("train_len: 360\n  orders: [0, 1]", block))
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit, field",
        [
            (("window_length: 24\n", "window_length: 24\n  time_encoding: one_hot\n"),
             "training.time_encoding"),
            (("horizon: 480\n", "horizon: 480\n  intervals_per_day: 1\n"),
             "simulation.intervals_per_day"),
        ],
        ids=["one-hot", "one-interval-day"],
    )
    def test_linear_with_a_collinear_time_column_exits_1(self, tmp_path, capsys, edit, field):
        config = tmp_path / "collinear.yaml"
        text = TINY_CONFIG.replace(*edit)
        config.write_text(text.replace("orders: [0, 1]", "orders: [0, 1]\n  kinds: [linear]"))
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 1
        assert f"{field}: " in capsys.readouterr().err
        assert not (out_dir / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "section, field",
        [
            ("simulation", "population_seed"),
            ("simulation", "profile_seed"),
            ("simulation", "price_seed"),
            ("simulation", "noise_seed"),
            ("training", "rng_seed"),
        ],
    )
    def test_negative_seed_exits_1_naming_field(self, tmp_path, capsys, section, field):
        config = tmp_path / "negative_seed.yaml"
        config.write_text(TINY_CONFIG.replace(f"{section}:\n", f"{section}:\n  {field}: -1\n"))
        out_dir = tmp_path / "bench"
        assert main(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 1
        assert f"{section}.{field}: must be >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_workers_exits_1(self, config_path, tmp_path):
        code = main([
            "benchmark", "--config", config_path,
            "--out", str(tmp_path / "bench"), "--workers", "0",
        ])
        assert code == 1
