"""Configuration tests: defaults, field diagnostics, round trips."""

import json
import math
import re
import typing
from dataclasses import fields

import numpy as np
import pytest
import yaml

from drlearn import cli
from drlearn.config import (
    BenchmarkBlock,
    RunConfig,
    SimulationBlock,
    TrainingBlock,
    dump_config,
    load_config,
    parse_config,
)
from drlearn.errors import ConfigError, ModelFormatError
from drlearn.eucsim import EucParams
from drlearn.features import Scaler, StateConfig, identity_scaler
from drlearn.models import LinearModel, TrainConfig, load_model, save_model
from drlearn.records import RecordError


BLOCKS = (
    ("simulation", SimulationBlock),
    ("training", TrainingBlock),
    ("benchmark", BenchmarkBlock),
)

# Every record that declares bounds: where a file holds it (a config
# section, a model-file object, or None), and the fields it has no default for.
RECORDS = (
    *((section, block, {}) for section, block in BLOCKS),
    ("state_config", StateConfig, {"order": 1}),
    (None, EucParams, {"peak_demand": 1.0, "rho": -1.0, "alpha": 0.5}),
    ("scaler", Scaler, {"input_mean": np.zeros(4), "input_std": np.ones(4),
                        "target_mean": 0.0, "target_std": 1.0}),
)


def values_past_bounds(record, f):
    """For each bound that field f of record declares, (field path, value)
    with a value just past it: one integer or one float step beyond an
    inclusive bound, the bound itself for a strict one, and a string outside
    the choices. A tuple field takes the value as its one entry, an array
    field at index 1 of four."""
    hint = typing.get_type_hints(record)[f.name]
    tuple_field = typing.get_origin(hint) is tuple
    scalar = typing.get_args(hint)[0] if tuple_field else hint

    def step(x, direction):
        return x + direction if scalar is int else math.nextafter(x, direction * math.inf)

    def past(bound, limit):
        if bound == "minimum":
            yield step(limit, -1)
        elif bound == "maximum":
            yield step(limit, 1)
        elif bound in ("above", "below"):
            yield float(limit) if scalar in (float, np.ndarray) else limit
        elif bound == "within":
            yield from (step(limit[0], -1), limit[1])
        elif bound == "choices":
            yield "not-" + "-".join(limit)
        else:
            raise AssertionError(f"{f.name}: no case for bound {bound}")

    for bound, limit in f.metadata.items():
        for value in past(bound, limit):
            if tuple_field:
                yield f"{f.name}[0]", (value,)
            elif hint is np.ndarray:
                yield f"{f.name}[1]", np.array([1.0, value, 1.0, 1.0])
            else:
                yield f.name, value


BOUND_CASES = [
    pytest.param(
        section, record, required, f.name, path, value, id=f"{record.__name__}.{path}={value!r}"
    )
    for section, record, required in RECORDS
    for f in fields(record)
    for path, value in values_past_bounds(record, f)
]


FLOAT_FIELDS = [
    (section, f.name)
    for section, block in (
        ("simulation", SimulationBlock),
        ("training", TrainingBlock),
        ("benchmark", BenchmarkBlock),
    )
    for f in fields(block)
    if isinstance(f.default, float)
]


class TestDefaults:
    def test_empty_document_gives_defaults(self):
        assert parse_config(None) == RunConfig()
        assert parse_config({}) == RunConfig()

    def test_missing_path_gives_defaults(self):
        assert load_config(None) == RunConfig()

    def test_default_values(self):
        config = RunConfig()
        assert config.simulation.euc_count == 100
        assert config.simulation.horizon == 8760
        assert config.simulation.price_low == 20.0
        assert config.simulation.price_high == 50.0
        assert config.training.steps == 10000
        assert config.training.batch_size == 32
        assert config.training.window_length == 48
        assert config.benchmark.train_len == 7296
        assert config.benchmark.orders == (0, 1, 2, 3, 4, 5)
        assert config.benchmark.kinds == ("linear", "fnn", "rnn", "lstm")

    def test_partial_section_keeps_other_defaults(self):
        config = parse_config(
            {"simulation": {"horizon": 480}, "benchmark": {"train_len": 360}}
        )
        assert config.simulation.horizon == 480
        assert config.simulation.euc_count == 100
        assert config.training == TrainingBlock()


class TestDerivedConfigs:
    def test_training_block_is_the_train_config(self):
        config = parse_config({"training": {"steps": 50, "learning_rate": 0.01}})
        tc = config.training
        assert isinstance(tc, TrainConfig)
        assert tc.steps == 50
        assert tc.learning_rate == 0.01
        assert tc.gradient_clip_norm == 5.0

    def test_state_config_carries_encoding_and_period(self):
        config = parse_config(
            {"simulation": {"intervals_per_day": 12, "horizon": 8760}}
        )
        assert config.state_config(3) == StateConfig(
            order=3, time_encoding="scalar", intervals_per_day=12
        )


class TestFieldDiagnostics:
    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="simulations: unknown section"):
            parse_config({"simulations": {}})

    def test_unknown_field_named_with_section(self):
        with pytest.raises(ConfigError, match="simulation.euc_cont: unknown field"):
            parse_config({"simulation": {"euc_cont": 10}})

    def test_wrong_type_reports_dotted_path(self):
        with pytest.raises(ConfigError, match="simulation.euc_count: expected an integer"):
            parse_config({"simulation": {"euc_count": "many"}})

    def test_boolean_not_accepted_as_integer(self):
        with pytest.raises(ConfigError, match="training.steps: expected an integer"):
            parse_config({"training": {"steps": True}})

    def test_price_bounds_checked(self):
        with pytest.raises(ConfigError, match="price_low"):
            parse_config({"simulation": {"price_low": 50.0, "price_high": 20.0}})

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise_std"):
            parse_config({"simulation": {"noise_std": -0.1}})

    def test_min_fraction_range(self):
        with pytest.raises(ConfigError, match="min_fraction"):
            parse_config({"simulation": {"min_fraction": 0.0}})
        with pytest.raises(ConfigError, match="min_fraction"):
            parse_config({"simulation": {"min_fraction": 1.5}})

    def test_rho_scale_must_be_negative(self):
        with pytest.raises(ConfigError, match="rho_scale"):
            parse_config({"simulation": {"rho_scale": 10.0}})

    def test_horizon_must_align_with_day(self):
        with pytest.raises(ConfigError, match="multiple of intervals_per_day"):
            parse_config({"simulation": {"horizon": 100}})

    def test_train_len_must_leave_a_test_split(self):
        with pytest.raises(ConfigError, match="train_len"):
            parse_config(
                {"simulation": {"horizon": 480}, "benchmark": {"train_len": 480}}
            )

    def test_hidden_sizes_must_be_positive_integers(self):
        with pytest.raises(ConfigError, match="fnn_hidden"):
            parse_config({"training": {"fnn_hidden": [32, 0]}})
        with pytest.raises(ConfigError, match="rnn_hidden"):
            parse_config({"training": {"rnn_hidden": []}})

    def test_time_encoding_choices(self):
        with pytest.raises(ConfigError, match="time_encoding"):
            parse_config({"training": {"time_encoding": "fourier"}})

    def test_kinds_restricted(self):
        with pytest.raises(ConfigError, match="kinds"):
            parse_config({"benchmark": {"kinds": ["linear", "transformer"]}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="training: expected a mapping"):
            parse_config({"training": [1, 2]})

    def test_null_only_where_default_is_null(self):
        for section, key in (("training", "time_encoding"), ("benchmark", "output_dir")):
            with pytest.raises(ConfigError, match=f"{section}.{key}: expected a string"):
                parse_config({section: {key: None}})
        assert parse_config({"simulation": {"profile_path": None}}) == RunConfig()

    def test_window_length_minimum(self):
        with pytest.raises(ConfigError, match="window_length"):
            parse_config({"training": {"window_length": 1}})

    def test_orders_must_fit_train_split(self):
        doc = {"simulation": {"horizon": 480}, "benchmark": {"train_len": 240, "orders": [0, 300]}}
        with pytest.raises(ConfigError, match="benchmark.orders: order 300 .*train_len 240"):
            parse_config(doc)
        doc["benchmark"]["orders"] = [0, 240]
        with pytest.raises(ConfigError, match="benchmark.orders"):
            parse_config(doc)
        doc["benchmark"]["orders"] = [0, 239]
        assert max(parse_config(doc).benchmark.orders) == 239
        doc["benchmark"].update(orders=[0, 300], kinds=["rnn", "lstm"])  # orders unused
        assert parse_config(doc).benchmark.orders == (0, 300)

    def test_orders_must_fit_test_split(self):
        doc = {"simulation": {"horizon": 480}, "benchmark": {"train_len": 456, "orders": [0, 30]}}
        with pytest.raises(
            ConfigError, match="benchmark.orders: order 30 needs a test split .*got 24 intervals"
        ):
            parse_config(doc)
        doc["benchmark"].update(orders=[0, 24], kinds=["linear", "fnn"])
        with pytest.raises(ConfigError, match="benchmark.orders: order 24 needs a test split"):
            parse_config(doc)
        doc["benchmark"]["orders"] = [0, 23]
        assert max(parse_config(doc).benchmark.orders) == 23

    def test_recurrent_splits_must_outlast_warmup(self):
        doc = {"simulation": {"horizon": 480}, "benchmark": {"train_len": 460, "kinds": ["rnn"]}}
        with pytest.raises(
            ConfigError,
            match="benchmark.train_len: recurrent evaluation needs a test split of more than"
            " 25 intervals, got 20",
        ):
            parse_config(doc)
        doc["benchmark"]["train_len"] = 455
        with pytest.raises(ConfigError, match="test split of more than 25 intervals, got 25"):
            parse_config(doc)
        doc["benchmark"]["train_len"] = 454
        assert parse_config(doc).benchmark.train_len == 454
        doc["training"] = {"window_length": 24}
        doc["benchmark"].update(train_len=25, kinds=["lstm"])
        with pytest.raises(ConfigError, match="train split of more than 25 intervals, got 25"):
            parse_config(doc)
        doc["benchmark"]["train_len"] = 26
        assert parse_config(doc).benchmark.train_len == 26
        doc["benchmark"].update(train_len=25, kinds=["linear", "fnn"])  # no warm-up
        assert parse_config(doc).benchmark.train_len == 25

    def test_window_length_must_fit_train_split(self):
        doc = {
            "simulation": {"horizon": 480},
            "training": {"window_length": 240},
            "benchmark": {"train_len": 240, "orders": [0]},
        }
        with pytest.raises(ConfigError, match="training.window_length: .*train_len 240"):
            parse_config(doc)
        doc["training"]["window_length"] = 239
        assert parse_config(doc).training.window_length == 239
        doc["training"]["window_length"] = 240
        doc["benchmark"]["kinds"] = ["linear", "fnn"]  # no windows built
        assert parse_config(doc).training.window_length == 240

    @pytest.mark.parametrize("key", ["beta1", "beta2"])
    @pytest.mark.parametrize("value", [1.0, 1.5, -0.1, float("nan")])
    def test_adam_betas_in_unit_interval(self, key, value):
        with pytest.raises(ConfigError, match=f"training.{key}: must be in \\[0, 1\\)"):
            parse_config({"training": {key: value}})

    def test_adam_beta_zero_accepted(self):
        assert parse_config({"training": {"beta1": 0.0}}).training.beta1 == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
    @pytest.mark.parametrize("section, key", FLOAT_FIELDS, ids=str)
    def test_non_finite_float_rejected_naming_field(self, section, key, value):
        # NaN passes every ordered comparison; an infinite price overflows the draw
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be"):
            parse_config({section: {key: value}})

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="simulation.price_high: must be a finite number, got inf"):
            parse_config({"simulation": {"price_high": 10**400}})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta1", -0.5),
            ("beta1", 1.0),
            ("beta2", 1.0),
            ("beta1", float("nan")),
            ("learning_rate", float("nan")),
            ("learning_rate", 0.0),
            ("epsilon", float("inf")),  # every Adam step would be 0
            ("gradient_clip_norm", -1.0),
            ("steps", 0),
            ("batch_size", 0),
        ],
        ids=str,
    )
    def test_library_train_config_rejects_what_a_config_file_rejects(self, key, value):
        with pytest.raises(ConfigError, match=rf"^training\.{key}: must be"):
            parse_config({"training": {key: value}})
        with pytest.raises(ValueError, match=rf"^{key}: must be"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", ["epsilon", "gradient_clip_norm"])
    def test_non_positive_setting_names_its_own_field(self, key):
        with pytest.raises(ConfigError, match=rf"^training\.{key}: must be > 0, got 0\.0$"):
            parse_config({"training": {key: 0}})

    def test_repeated_order_rejected_naming_value_and_index(self):
        with pytest.raises(ConfigError, match=r"^benchmark\.orders\[2\]: order 1 is repeated$"):
            parse_config({"benchmark": {"orders": [0, 1, 1]}})
        assert parse_config({"benchmark": {"orders": [1, 0]}}).benchmark.orders == (1, 0)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"training": {"time_encoding": "one_hot"}}, "training.time_encoding"),
            (
                {"simulation": {"intervals_per_day": 1, "horizon": 480},
                 "benchmark": {"train_len": 360}},
                "simulation.intervals_per_day",
            ),
        ],
        ids=["one-hot", "one-interval-day"],
    )
    def test_linear_refuses_a_time_column_collinear_with_its_intercept(self, doc, field):
        # the fit would fail only after simulating, as a rank-deficient design
        for kinds in (["linear"], ["linear", "fnn", "rnn", "lstm"]):
            with pytest.raises(ConfigError, match=rf"^{field}: "):
                parse_config({**doc, "benchmark": {**doc.get("benchmark", {}), "kinds": kinds}})

    def test_other_families_keep_one_hot_and_one_interval_days(self):
        config = parse_config(
            {"training": {"time_encoding": "one_hot"}, "benchmark": {"kinds": ["fnn"]}}
        )
        assert config.training.time_encoding == "one_hot"
        config = parse_config({
            "simulation": {"intervals_per_day": 1, "horizon": 480},
            "training": {"time_encoding": "none"},
            "benchmark": {"train_len": 360, "kinds": ["linear"]},
        })
        assert config.simulation.intervals_per_day == 1


@pytest.mark.parametrize("section, record, required, name, path, value", BOUND_CASES)
def test_every_declared_bound_is_enforced(tmp_path, section, record, required, name, path, value):
    # the same rule, naming the same field, in code, in a config file and in a model file
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: "):
        record(**{**required, name: value})
    raw = np.asarray(value).tolist() if isinstance(value, (tuple, np.ndarray)) else value
    if section in dict(BLOCKS):
        with pytest.raises(ConfigError, match=rf"^{re.escape(f'{section}.{path}')}: "):
            parse_config({section: {name: raw}})
    elif section is not None:
        model = LinearModel(
            weights=np.zeros(4), bias=0.0,
            scaler=identity_scaler(4), state_config=StateConfig(order=1),
        )
        file = tmp_path / "model.json"
        save_model(model, str(file))
        document = json.loads(file.read_text())
        document[section][name] = raw
        file.write_text(json.dumps(document))
        message = rf"^schema violation: {re.escape(f'{section}.{path}')}: "
        with pytest.raises(ModelFormatError, match=message):
            load_model(str(file))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SimulationBlock(noise_std=-1.0), ValueError, r"^noise_std: must be >= 0, got -1\.0$"),
        (lambda: SimulationBlock(price_low=60.0), ValueError, r"^price_low: need 0 <= price_low < price_high"),
        (lambda: TrainingBlock(window_length=1), ValueError, r"^window_length: must be >= 2, got 1$"),
        (lambda: TrainingBlock(fnn_hidden=(0,)), ValueError, r"^fnn_hidden\[0\]: must be >= 1, got 0$"),
        (lambda: BenchmarkBlock(orders=(1, 1)), ValueError, r"^orders\[1\]: order 1 is repeated$"),
        (lambda: TrainingBlock(fnn_hidden=()), ValueError, r"^fnn_hidden: must not be empty, got \(\)$"),
        (lambda: TrainingBlock(rnn_hidden=()), ValueError, r"^rnn_hidden: must not be empty, got \(\)$"),
        (lambda: TrainingBlock(lstm_hidden=()), ValueError, r"^lstm_hidden: must not be empty, got \(\)$"),
        (lambda: BenchmarkBlock(orders=()), ValueError, r"^orders: must not be empty, got \(\)$"),
        (lambda: BenchmarkBlock(kinds=()), ValueError, r"^kinds: must not be empty, got \(\)$"),
        (
            lambda: RunConfig(simulation=SimulationBlock(horizon=480)),
            ConfigError,
            r"^benchmark\.train_len: must be < the series length \(480\), got 7296$",
        ),
    ],
    ids=["noise-std", "price-range", "window-length", "hidden-size", "repeated-order",
         "empty-fnn-hidden", "empty-rnn-hidden", "empty-lstm-hidden", "empty-orders", "empty-kinds",
         "run-config"],
)
def test_configs_built_in_code_are_checked(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StateConfig(order=1.5), r"^order: must be an integer, got 1\.5$"),
        (lambda: StateConfig(order=True), r"^order: must be a number, got bool$"),
        (lambda: StateConfig(order=0, intervals_per_day=24.0),
         r"^intervals_per_day: must be an integer, got 24\.0$"),
        (lambda: TrainConfig(steps=2.5), r"^steps: must be an integer, got 2\.5$"),
        (lambda: BenchmarkBlock(orders=(0, 1.5)), r"^orders\[1\]: must be an integer, got 1\.5$"),
        (lambda: TrainingBlock(fnn_hidden=(8.5,)), r"^fnn_hidden\[0\]: must be an integer, got 8\.5$"),
    ],
    ids=["fractional-order", "bool-order", "whole-float-day", "fractional-steps",
         "fractional-order-entry", "fractional-hidden-size"],
)
def test_integer_fields_built_in_code_refuse_floats_and_bools(build, message):
    # a config file's reader refuses these already; a record built in code
    # would take them and fail later inside numpy or range()
    with pytest.raises(RecordError, match=message):
        build()


class TestLoadAndDump:
    def test_round_trip_defaults(self):
        assert parse_config_from_text(dump_config(RunConfig())) == RunConfig()

    def test_round_trip_modified(self):
        config = parse_config(
            {
                "simulation": {"horizon": 960, "euc_count": 10, "profile_seed": 3},
                "training": {"steps": 40, "fnn_hidden": [8, 4]},
                "benchmark": {"train_len": 720, "orders": [0, 2], "kinds": ["linear"]},
            }
        )
        assert parse_config_from_text(dump_config(config)) == config

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "simulation:\n  horizon: 480\n  euc_count: 5\n"
            "benchmark:\n  train_len: 360\n"
        )
        config = load_config(str(path))
        assert config.simulation.horizon == 480
        assert config.simulation.euc_count == 5
        assert config.benchmark.train_len == 360

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.yaml"))

    @pytest.mark.parametrize(
        "text, spelling", [("1e-3", "1.0e-3"), ("-2E3", "-2.0e+3"), ("1.5e3", "1.5e+3")]
    )
    def test_exponent_yaml_reads_as_text_is_named_a_string(self, tmp_path, capsys, text, spelling):
        # YAML 1.1 takes an exponent for a number only with a point and a sign
        path = tmp_path / "config.yaml"
        path.write_text(f"training: {{learning_rate: {text}}}\n")
        out = str(tmp_path / "d.csv")
        assert cli.main(["simulate", "--config", str(path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"training.learning_rate: expected a number, got the string '{text}'" in err
        assert f"(write {spelling}: YAML 1.1 needs a decimal point and a sign)" in err
        assert yaml.safe_load(f"x: {spelling}")["x"] == float(text)
        # a string that spells no number, and an exponent in an integer field, read as before
        path.write_text("training: {learning_rate: x}\n")
        with pytest.raises(ConfigError, match=r"^training.learning_rate: expected a number, got 'x'$"):
            load_config(str(path))
        path.write_text("training: {steps: 1e3}\n")
        with pytest.raises(ConfigError, match=r"^training.steps: expected an integer, got '1e3'$"):
            load_config(str(path))

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("simulation: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(path))

    def test_profile_path_survives_round_trip(self, tmp_path):
        config = parse_config({"simulation": {"profile_path": "profiles/p.csv"}})
        assert config.simulation.profile_path == "profiles/p.csv"
        again = parse_config_from_text(dump_config(config))
        assert again.simulation.profile_path == "profiles/p.csv"


def parse_config_from_text(text: str) -> RunConfig:
    import yaml

    return parse_config(yaml.safe_load(text))
