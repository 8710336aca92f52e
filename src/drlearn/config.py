"""Run configuration: every constant and seed of the pipeline, in one file."""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .errors import ConfigError
from .features import StateConfig, TIME_ENCODINGS
from .models.common import TrainConfig

MODEL_KINDS = ("linear", "fnn", "rnn", "lstm")


@dataclass(frozen=True)
class SimulationBlock:
    """Population, horizon, prices, and the seeds that generated them."""

    euc_count: int = 100
    horizon: int = 8760
    intervals_per_day: int = 24
    price_low: float = 20.0
    price_high: float = 50.0
    noise_std: float = 0.1
    min_fraction: float = 0.5
    peak_low: float = 0.1
    peak_high: float = 2.0
    rho_scale: float = -100.0
    resample_alpha_hourly: bool = False
    profile_path: str | None = None  # file overrides the synthetic profile
    population_seed: int = 7
    profile_seed: int = 41
    price_seed: int = 13
    noise_seed: int = 17


@dataclass(frozen=True)
class TrainingBlock:
    """Optimizer schedule and per-family architectures."""

    learning_rate: float = 0.001
    steps: int = 10000
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    gradient_clip_norm: float = 5.0
    rng_seed: int = 0
    fnn_hidden: tuple[int, ...] = (32, 32)
    rnn_hidden: tuple[int, ...] = (32,)
    lstm_hidden: tuple[int, ...] = (32,)
    window_length: int = 48
    time_encoding: str = "scalar"


@dataclass(frozen=True)
class BenchmarkBlock:
    """Which models the benchmark trains and how the data is split."""

    train_len: int = 7296
    orders: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    kinds: tuple[str, ...] = MODEL_KINDS
    output_dir: str = "benchmark_out"


@dataclass(frozen=True)
class RunConfig:
    simulation: SimulationBlock = SimulationBlock()
    training: TrainingBlock = TrainingBlock()
    benchmark: BenchmarkBlock = BenchmarkBlock()

    def train_config(self) -> TrainConfig:
        t = self.training
        return TrainConfig(
            learning_rate=t.learning_rate,
            steps=t.steps,
            batch_size=t.batch_size,
            beta1=t.beta1,
            beta2=t.beta2,
            epsilon=t.epsilon,
            rng_seed=t.rng_seed,
            gradient_clip_norm=t.gradient_clip_norm,
        )

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


class _Section:
    """Typed field extraction with dotted-path error messages."""

    def __init__(self, name: str, raw: dict):
        self.name = name
        self.raw = raw
        self.seen: set[str] = set()

    def _fetch(self, key, default):
        self.seen.add(key)
        return self.raw.get(key, default)

    def integer(self, key: str, default: int, minimum: int | None = None) -> int:
        value = self._fetch(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{self.name}.{key}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.name}.{key}: must be >= {minimum}, got {value}")
        return value

    def number(self, key: str, default: float) -> float:
        value = self._fetch(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self.name}.{key}: expected a number, got {value!r}")
        return float(value)

    def boolean(self, key: str, default: bool) -> bool:
        value = self._fetch(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{self.name}.{key}: expected true/false, got {value!r}")
        return value

    def text(self, key: str, default: str | None, choices=None) -> str | None:
        value = self._fetch(key, default)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"{self.name}.{key}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{self.name}.{key}: must be one of {sorted(choices)}, got {value!r}"
            )
        return value

    def int_list(self, key: str, default: tuple[int, ...], minimum: int) -> tuple[int, ...]:
        value = self._fetch(key, list(default))
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{self.name}.{key}: expected a non-empty list of integers")
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int) or item < minimum:
                raise ConfigError(
                    f"{self.name}.{key}: entries must be integers >= {minimum},"
                    f" got {item!r}"
                )
        return tuple(value)

    def text_list(self, key: str, default: tuple[str, ...], choices) -> tuple[str, ...]:
        value = self._fetch(key, list(default))
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{self.name}.{key}: expected a non-empty list")
        for item in value:
            if item not in choices:
                raise ConfigError(
                    f"{self.name}.{key}: entries must be in {sorted(choices)}, got {item!r}"
                )
        return tuple(value)

    def reject_unknown(self) -> None:
        unknown = set(self.raw) - self.seen
        if unknown:
            raise ConfigError(f"{self.name}.{sorted(unknown)[0]}: unknown field")


def parse_config(document: dict | None) -> RunConfig:
    """Build a RunConfig from parsed YAML, defaulting every missing field."""
    document = _require_mapping(document, "config")
    unknown = set(document) - {"simulation", "training", "benchmark"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")

    s = _Section("simulation", _require_mapping(document.get("simulation"), "simulation"))
    d = SimulationBlock()
    simulation = SimulationBlock(
        euc_count=s.integer("euc_count", d.euc_count, minimum=1),
        horizon=s.integer("horizon", d.horizon, minimum=1),
        intervals_per_day=s.integer("intervals_per_day", d.intervals_per_day, minimum=1),
        price_low=s.number("price_low", d.price_low),
        price_high=s.number("price_high", d.price_high),
        noise_std=s.number("noise_std", d.noise_std),
        min_fraction=s.number("min_fraction", d.min_fraction),
        peak_low=s.number("peak_low", d.peak_low),
        peak_high=s.number("peak_high", d.peak_high),
        rho_scale=s.number("rho_scale", d.rho_scale),
        resample_alpha_hourly=s.boolean("resample_alpha_hourly", d.resample_alpha_hourly),
        profile_path=s.text("profile_path", d.profile_path),
        population_seed=s.integer("population_seed", d.population_seed),
        profile_seed=s.integer("profile_seed", d.profile_seed),
        price_seed=s.integer("price_seed", d.price_seed),
        noise_seed=s.integer("noise_seed", d.noise_seed),
    )
    s.reject_unknown()
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

    t = _Section("training", _require_mapping(document.get("training"), "training"))
    e = TrainingBlock()
    training = TrainingBlock(
        learning_rate=t.number("learning_rate", e.learning_rate),
        steps=t.integer("steps", e.steps, minimum=1),
        batch_size=t.integer("batch_size", e.batch_size, minimum=1),
        beta1=t.number("beta1", e.beta1),
        beta2=t.number("beta2", e.beta2),
        epsilon=t.number("epsilon", e.epsilon),
        gradient_clip_norm=t.number("gradient_clip_norm", e.gradient_clip_norm),
        rng_seed=t.integer("rng_seed", e.rng_seed),
        fnn_hidden=t.int_list("fnn_hidden", e.fnn_hidden, minimum=1),
        rnn_hidden=t.int_list("rnn_hidden", e.rnn_hidden, minimum=1),
        lstm_hidden=t.int_list("lstm_hidden", e.lstm_hidden, minimum=1),
        window_length=t.integer("window_length", e.window_length, minimum=2),
        time_encoding=t.text("time_encoding", e.time_encoding, choices=TIME_ENCODINGS),
    )
    t.reject_unknown()
    if training.learning_rate <= 0:
        raise ConfigError(f"training.learning_rate: must be > 0, got {training.learning_rate}")
    if training.gradient_clip_norm <= 0 or training.epsilon <= 0:
        raise ConfigError("training.gradient_clip_norm: clip norm and epsilon must be > 0")
    for key in ("beta1", "beta2"):
        value = getattr(training, key)
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"training.{key}: must be in [0, 1), got {value}")

    b = _Section("benchmark", _require_mapping(document.get("benchmark"), "benchmark"))
    f = BenchmarkBlock()
    benchmark = BenchmarkBlock(
        train_len=b.integer("train_len", f.train_len, minimum=1),
        orders=b.int_list("orders", f.orders, minimum=0),
        kinds=b.text_list("kinds", f.kinds, choices=MODEL_KINDS),
        output_dir=b.text("output_dir", f.output_dir),
    )
    b.reject_unknown()
    if benchmark.train_len >= simulation.horizon:
        raise ConfigError(
            f"benchmark.train_len: must be < simulation.horizon"
            f" ({simulation.horizon}), got {benchmark.train_len}"
        )

    return RunConfig(simulation=simulation, training=training, benchmark=benchmark)


def load_config(path: str | None) -> RunConfig:
    """Read a YAML config file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as handle:
            document = yaml.safe_load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(document)


def dump_config(config: RunConfig) -> str:
    """YAML text of the effective configuration; reloads to the same values."""
    document = {
        "simulation": {
            "euc_count": config.simulation.euc_count,
            "horizon": config.simulation.horizon,
            "intervals_per_day": config.simulation.intervals_per_day,
            "price_low": config.simulation.price_low,
            "price_high": config.simulation.price_high,
            "noise_std": config.simulation.noise_std,
            "min_fraction": config.simulation.min_fraction,
            "peak_low": config.simulation.peak_low,
            "peak_high": config.simulation.peak_high,
            "rho_scale": config.simulation.rho_scale,
            "resample_alpha_hourly": config.simulation.resample_alpha_hourly,
            "profile_path": config.simulation.profile_path,
            "population_seed": config.simulation.population_seed,
            "profile_seed": config.simulation.profile_seed,
            "price_seed": config.simulation.price_seed,
            "noise_seed": config.simulation.noise_seed,
        },
        "training": {
            "learning_rate": config.training.learning_rate,
            "steps": config.training.steps,
            "batch_size": config.training.batch_size,
            "beta1": config.training.beta1,
            "beta2": config.training.beta2,
            "epsilon": config.training.epsilon,
            "gradient_clip_norm": config.training.gradient_clip_norm,
            "rng_seed": config.training.rng_seed,
            "fnn_hidden": list(config.training.fnn_hidden),
            "rnn_hidden": list(config.training.rnn_hidden),
            "lstm_hidden": list(config.training.lstm_hidden),
            "window_length": config.training.window_length,
            "time_encoding": config.training.time_encoding,
        },
        "benchmark": {
            "train_len": config.benchmark.train_len,
            "orders": list(config.benchmark.orders),
            "kinds": list(config.benchmark.kinds),
            "output_dir": config.benchmark.output_dir,
        },
    }
    return yaml.safe_dump(document, sort_keys=True)
