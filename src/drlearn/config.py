"""Run configuration: every constant and seed of the pipeline, in one file."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .features import StateConfig, TIME_ENCODINGS
from .metrics import RECURRENT_WARMUP
from .models.common import Bounded, TrainConfig, bounded, model_class

MODEL_KINDS = ("linear", "fnn", "rnn", "lstm")


@dataclass(frozen=True)
class SimulationBlock(Bounded):
    """Population, horizon, prices, and the seeds that generated them."""

    euc_count: int = bounded(100, minimum=1)
    horizon: int = bounded(8760, minimum=1)
    intervals_per_day: int = bounded(24, minimum=1)
    price_low: float = 20.0
    price_high: float = 50.0
    noise_std: float = bounded(0.1, minimum=0)
    min_fraction: float = bounded(0.5, above=0, maximum=1)
    peak_low: float = 0.1
    peak_high: float = 2.0
    rho_scale: float = bounded(-100.0, below=0)
    resample_alpha_hourly: bool = False
    profile_path: str | None = None  # file overrides the synthetic profile
    population_seed: int = bounded(7, minimum=0)
    profile_seed: int = bounded(41, minimum=0)
    price_seed: int = bounded(13, minimum=0)
    noise_seed: int = bounded(17, minimum=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.price_low < self.price_high:
            raise ValueError(
                "price_low: need 0 <= price_low < price_high, got"
                f" [{self.price_low}, {self.price_high}]"
            )
        if not 0 < self.peak_low <= self.peak_high:
            raise ValueError(
                "peak_low: need 0 < peak_low <= peak_high, got"
                f" [{self.peak_low}, {self.peak_high}]"
            )
        if self.horizon % self.intervals_per_day != 0:
            raise ValueError(
                f"horizon: must be a multiple of intervals_per_day"
                f" ({self.intervals_per_day}), got {self.horizon}"
            )


@dataclass(frozen=True)
class TrainingBlock(TrainConfig):
    """The optimizer schedule (TrainConfig) and the per-family architectures."""

    fnn_hidden: tuple[int, ...] = bounded((32, 32), minimum=1)
    rnn_hidden: tuple[int, ...] = bounded((32,), minimum=1)
    lstm_hidden: tuple[int, ...] = bounded((32,), minimum=1)
    window_length: int = bounded(48, minimum=2)
    time_encoding: str = bounded("scalar", choices=TIME_ENCODINGS)


@dataclass(frozen=True)
class BenchmarkBlock(Bounded):
    """Which models the benchmark trains and how the data is split."""

    train_len: int = bounded(7296, minimum=1)
    orders: tuple[int, ...] = bounded((0, 1, 2, 3, 4, 5), minimum=0)
    kinds: tuple[str, ...] = bounded(MODEL_KINDS, choices=MODEL_KINDS)
    output_dir: str = "benchmark_out"

    def __post_init__(self) -> None:
        super().__post_init__()
        for k, order in enumerate(self.orders):
            if order in self.orders[:k]:
                raise ValueError(f"orders[{k}]: order {order} is repeated")


@dataclass(frozen=True)
class RunConfig:
    """The three blocks; construction also checks the benchmark's jobs (check_jobs)."""

    simulation: SimulationBlock = SimulationBlock()
    training: TrainingBlock = TrainingBlock()
    benchmark: BenchmarkBlock = BenchmarkBlock()

    def __post_init__(self) -> None:
        self.check_jobs(benchmark_jobs(self), self.simulation.horizon)

    def check_jobs(self, jobs: list[tuple[str, int]], length: int) -> None:
        """Raise a ConfigError naming the field unless every (kind, order) job
        can be trained and scored on a series of `length` intervals split at
        benchmark.train_len: split lengths, the recurrent window, and a linear
        time column that is not collinear with the intercept."""
        train_len, training = self.benchmark.train_len, self.training
        if train_len >= length:
            raise ConfigError(
                f"benchmark.train_len: must be < the series length ({length}), got {train_len}"
            )
        splits = {"train": train_len, "test": length - train_len}
        for kind, order in jobs:
            recurrent = model_class(kind).recurrent
            for name, size in splits.items():
                if not recurrent and order >= size:
                    raise ConfigError(
                        f"benchmark.orders: order {order} needs a {name} split longer than"
                        f" it, got {size} intervals (benchmark.train_len {train_len},"
                        f" series length {length})"
                    )
                if recurrent and size <= RECURRENT_WARMUP + 1:
                    raise ConfigError(
                        f"benchmark.train_len: recurrent evaluation needs a {name} split of"
                        f" more than {RECURRENT_WARMUP + 1} intervals, got {size}"
                        f" (series length {length})"
                    )
            if recurrent and training.window_length >= train_len:
                raise ConfigError(
                    f"training.window_length: a window of {training.window_length} steps needs"
                    f" a train split of more intervals, got benchmark.train_len {train_len}"
                )
            if kind != "linear":
                continue
            if training.time_encoding == "one_hot":
                raise ConfigError(
                    "training.time_encoding: the linear family cannot fit one_hot, whose"
                    " indicators sum to its intercept; use scalar or none"
                )
            if training.time_encoding == "scalar" and self.simulation.intervals_per_day == 1:
                raise ConfigError(
                    "simulation.intervals_per_day: at 1, the scalar time column is constant"
                    " and the linear family cannot fit it beside its intercept; use"
                    " training.time_encoding: none"
                )

    def state_config(self, order: int) -> StateConfig:
        return StateConfig(
            order=order,
            time_encoding=self.training.time_encoding,
            intervals_per_day=self.simulation.intervals_per_day,
        )


def benchmark_jobs(config: RunConfig) -> list[tuple[str, int]]:
    """(kind, order) pairs in MODEL_KINDS order: every order for a direct
    family, order 1 alone for a recurrent one."""
    return [
        (kind, order)
        for kind in MODEL_KINDS
        if kind in config.benchmark.kinds
        for order in ((1,) if model_class(kind).recurrent else config.benchmark.orders)
    ]


def _require_mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _parse_value(path: str, value, default):
    """Check value against the type of the field's default (None only where it is None)."""
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
            return float(value)
        except OverflowError:  # an integer beyond the float range
            return math.inf if value > 0 else -math.inf
    elif (value is not None or default is not None) and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _parse_block(cls, section: str, raw):
    """One config section: every field of cls, defaulted when missing, of its
    default's type (a list non-empty), then cls's own checks, section named."""
    raw = _require_mapping(raw, section)
    values = {}
    for f in fields(cls):
        path = f"{section}.{f.name}"
        value = raw.get(f.name, f.default)
        if isinstance(f.default, tuple):
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"{path}: expected a non-empty list")
            values[f.name] = tuple(
                _parse_value(f"{path}[{k}]", item, f.default[0]) for k, item in enumerate(value)
            )
        else:
            values[f.name] = _parse_value(path, value, f.default)
    unknown = set(raw) - set(values)
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}: unknown field")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def parse_config(document: dict | None) -> RunConfig:
    """Build a RunConfig from parsed YAML, defaulting every missing field."""
    document = _require_mapping(document, "config")
    sections = {f.name: type(f.default) for f in fields(RunConfig)}
    unknown = set(document) - set(sections)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
    return RunConfig(**{s: _parse_block(cls, s, document.get(s)) for s, cls in sections.items()})


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
