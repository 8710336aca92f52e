"""Run configuration: every constant and seed of the pipeline, in one file."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .features import StateConfig, TIME_ENCODINGS
from .metrics import RECURRENT_WARMUP
from .models.common import TrainConfig, bound_violation, bounded, model_class

MODEL_KINDS = ("linear", "fnn", "rnn", "lstm")


@dataclass(frozen=True)
class SimulationBlock:
    """Population, horizon, prices, and the seeds that generated them."""

    euc_count: int = bounded(100, minimum=1)
    horizon: int = bounded(8760, minimum=1)
    intervals_per_day: int = bounded(24, minimum=1)
    price_low: float = 20.0
    price_high: float = 50.0
    noise_std: float = 0.1
    min_fraction: float = 0.5
    peak_low: float = 0.1
    peak_high: float = 2.0
    rho_scale: float = -100.0
    resample_alpha_hourly: bool = False
    profile_path: str | None = None  # file overrides the synthetic profile
    population_seed: int = bounded(7, minimum=0)
    profile_seed: int = bounded(41, minimum=0)
    price_seed: int = bounded(13, minimum=0)
    noise_seed: int = bounded(17, minimum=0)


@dataclass(frozen=True)
class TrainingBlock(TrainConfig):
    """The optimizer schedule (TrainConfig) and the per-family architectures."""

    fnn_hidden: tuple[int, ...] = bounded((32, 32), minimum=1)
    rnn_hidden: tuple[int, ...] = bounded((32,), minimum=1)
    lstm_hidden: tuple[int, ...] = bounded((32,), minimum=1)
    window_length: int = bounded(48, minimum=2)
    time_encoding: str = bounded("scalar", choices=TIME_ENCODINGS)


@dataclass(frozen=True)
class BenchmarkBlock:
    """Which models the benchmark trains and how the data is split."""

    train_len: int = bounded(7296, minimum=1)
    orders: tuple[int, ...] = bounded((0, 1, 2, 3, 4, 5), minimum=0)
    kinds: tuple[str, ...] = bounded(MODEL_KINDS, choices=MODEL_KINDS)
    output_dir: str = "benchmark_out"


@dataclass(frozen=True)
class RunConfig:
    simulation: SimulationBlock = SimulationBlock()
    training: TrainingBlock = TrainingBlock()
    benchmark: BenchmarkBlock = BenchmarkBlock()

    def train_config(self) -> TrainConfig:
        return self.training

    def state_config(self, order: int) -> StateConfig:
        return StateConfig(
            order=order,
            time_encoding=self.training.time_encoding,
            intervals_per_day=self.simulation.intervals_per_day,
        )


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _parse_value(path: str, value, default, **bounds):
    """Check value against the type of the field's default: bool, int,
    float, or str (None allowed only where the default is None), then
    against the field's bounds (bound_violation)."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false, got {value!r}")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf if value > 0 else -math.inf
    elif (value is not None or default is not None) and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    problem = bound_violation(value, **bounds)
    if problem is not None:
        raise ConfigError(f"{path}: {problem}")
    return value


def _parse_block(cls, section: str, raw):
    """One config section: every field of cls, defaulted when missing and
    checked by its default's type; a list field takes a non-empty list."""
    raw = _require_mapping(raw, section)
    values = {}
    for f in fields(cls):
        path = f"{section}.{f.name}"
        value = raw.get(f.name, f.default)
        if isinstance(f.default, tuple):
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"{path}: expected a non-empty list")
            values[f.name] = tuple(
                _parse_value(f"{path}[{k}]", item, f.default[0], **f.metadata)
                for k, item in enumerate(value)
            )
        else:
            values[f.name] = _parse_value(path, value, f.default, **f.metadata)
    unknown = set(raw) - set(values)
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}: unknown field")
    try:
        return cls(**values)
    except ValueError as exc:  # a bound that the block's __post_init__ checks
        raise ConfigError(f"{section}.{exc}") from exc


def parse_config(document: dict | None) -> RunConfig:
    """Build a RunConfig from parsed YAML, defaulting every missing field."""
    document = _require_mapping(document, "config")
    unknown = set(document) - {"simulation", "training", "benchmark"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")

    simulation = _parse_block(SimulationBlock, "simulation", document.get("simulation"))
    if simulation.price_low < 0 or simulation.price_low >= simulation.price_high:
        raise ConfigError(
            "simulation.price_low: need 0 <= price_low < price_high, got"
            f" [{simulation.price_low}, {simulation.price_high}]"
        )
    if simulation.noise_std < 0:
        raise ConfigError(f"simulation.noise_std: must be >= 0, got {simulation.noise_std}")
    if not 0.0 < simulation.min_fraction <= 1.0:
        raise ConfigError(
            f"simulation.min_fraction: must be in (0, 1], got {simulation.min_fraction}"
        )
    if simulation.peak_low <= 0 or simulation.peak_low > simulation.peak_high:
        raise ConfigError(
            "simulation.peak_low: need 0 < peak_low <= peak_high, got"
            f" [{simulation.peak_low}, {simulation.peak_high}]"
        )
    if simulation.rho_scale >= 0:
        raise ConfigError(f"simulation.rho_scale: must be negative, got {simulation.rho_scale}")
    if simulation.horizon % simulation.intervals_per_day != 0:
        raise ConfigError(
            f"simulation.horizon: must be a multiple of intervals_per_day"
            f" ({simulation.intervals_per_day}), got {simulation.horizon}"
        )

    training = _parse_block(TrainingBlock, "training", document.get("training"))

    benchmark = _parse_block(BenchmarkBlock, "benchmark", document.get("benchmark"))
    for k, order in enumerate(benchmark.orders):
        if order in benchmark.orders[:k]:
            raise ConfigError(f"benchmark.orders[{k}]: order {order} is repeated")
    if benchmark.train_len >= simulation.horizon:
        raise ConfigError(
            f"benchmark.train_len: must be < simulation.horizon"
            f" ({simulation.horizon}), got {benchmark.train_len}"
        )
    # Each split must hold what the families the benchmark trains need: rows
    # at the largest order (feature_rows) and, on the train split, one window
    # (build_sequence_dataset); recurrent scoring also drops a warm-up.
    carries_state = [model_class(kind).recurrent for kind in benchmark.kinds]
    direct, recurrent = not all(carries_state), any(carries_state)
    splits = {"train": benchmark.train_len, "test": simulation.horizon - benchmark.train_len}
    for name, length in splits.items():
        if direct and max(benchmark.orders) >= length:
            raise ConfigError(
                f"benchmark.orders: order {max(benchmark.orders)} needs a {name} split"
                f" longer than it, got {length} intervals (benchmark.train_len"
                f" {benchmark.train_len}, simulation.horizon {simulation.horizon})"
            )
        if recurrent and length <= RECURRENT_WARMUP + 1:
            raise ConfigError(
                f"benchmark.train_len: recurrent evaluation needs a {name} split of more"
                f" than {RECURRENT_WARMUP + 1} intervals, got {length}"
                f" (simulation.horizon {simulation.horizon})"
            )
    # The linear fit has an intercept: time columns that sum to one, or a
    # constant one, leave its design rank-deficient.
    if "linear" in benchmark.kinds:
        if training.time_encoding == "one_hot":
            raise ConfigError(
                "training.time_encoding: the linear family cannot fit one_hot, whose"
                " indicators sum to its intercept; use scalar or none"
            )
        if training.time_encoding == "scalar" and simulation.intervals_per_day == 1:
            raise ConfigError(
                "simulation.intervals_per_day: at 1, the scalar time column is constant"
                " and the linear family cannot fit it beside its intercept; use"
                " training.time_encoding: none"
            )
    if recurrent and training.window_length >= benchmark.train_len:
        raise ConfigError(
            f"training.window_length: a window of {training.window_length} steps needs a"
            f" train split of more intervals, got benchmark.train_len {benchmark.train_len}"
        )

    return RunConfig(simulation=simulation, training=training, benchmark=benchmark)


def load_config(path: str | None) -> RunConfig:
    """Read a YAML config file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
    import yaml  # here, not at the top: a process that only serves never loads it
    try:
        with open(path, encoding="utf-8") as handle:
            document = yaml.safe_load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(document)


def dump_config(config: RunConfig) -> str:
    """YAML text of the effective configuration; reloads to the same values."""
    import yaml
    document = {
        section: {key: list(v) if isinstance(v, tuple) else v for key, v in block.items()}
        for section, block in asdict(config).items()
    }
    return yaml.safe_dump(document, sort_keys=True)
