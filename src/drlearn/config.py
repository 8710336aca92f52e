"""Run configuration: every constant and seed of the pipeline, in one file."""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .features import StateConfig, TIME_ENCODINGS
from .metrics import RECURRENT_WARMUP
from .models.common import TrainConfig, model_class
from .records import Bounded, RecordError, bounded, read_record

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
            raise RecordError(
                "price_low",
                f"need 0 <= price_low < price_high, got [{self.price_low}, {self.price_high}]",
            )
        if not 0 < self.peak_low <= self.peak_high:
            raise RecordError(
                "peak_low",
                f"need 0 < peak_low <= peak_high, got [{self.peak_low}, {self.peak_high}]",
            )
        if self.horizon % self.intervals_per_day != 0:
            raise RecordError(
                "horizon",
                f"must be a multiple of intervals_per_day ({self.intervals_per_day}),"
                f" got {self.horizon}",
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
                raise RecordError(f"orders[{k}]", f"order {order} is repeated")


@dataclass(frozen=True)
class RunConfig:
    """The three blocks; construction also checks the benchmark's jobs (check_jobs)."""

    simulation: SimulationBlock = SimulationBlock()
    training: TrainingBlock = TrainingBlock()
    benchmark: BenchmarkBlock = BenchmarkBlock()

    def __post_init__(self) -> None:
        self.check_jobs(benchmark_jobs(self), self.simulation.horizon, "benchmark.orders")

    def check_jobs(self, jobs: list[tuple[str, int]], length: int, order_source: str) -> None:
        """Raise a ConfigError naming the field (order_source for an order) unless
        every (kind, order) job can be trained and scored on a series of `length`
        intervals split at benchmark.train_len: split lengths, the recurrent
        window, and a linear time column that is not collinear with the intercept."""
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
                        f"{order_source}: order {order} needs a {name} split longer than"
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


# a number with an exponent, which YAML 1.1 leaves as text without a decimal point and a sign
_EXPONENT_TEXT = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?\d+)")


def _parse_block(cls, section: str, raw):
    """One config section, read by read_record: missing fields take their
    defaults, and a refusal names section.field. A number that YAML left as
    text, such as 1e-3, is named a string, with a spelling YAML reads."""
    try:
        return read_record(cls, {} if raw is None else raw, section)
    except RecordError as exc:
        message = str(exc)
        value = raw.get(exc.path.removeprefix(f"{section}.")) if isinstance(raw, dict) else None
        text = _EXPONENT_TEXT.fullmatch(value) if isinstance(value, str) else None
        if text and exc.problem.startswith("expected a number"):
            mantissa = text[1] if "." in text[1] else f"{text[1]}.0"
            message = (f"{exc.path}: expected a number, got the string {value!r} (write"
                       f" {mantissa}e{int(text[2]):+d}: YAML 1.1 needs a decimal point and a sign)")
        raise ConfigError(message) from exc


def parse_config(document: dict | None) -> RunConfig:
    """Build a RunConfig from parsed YAML, defaulting every missing field."""
    document = {} if document is None else document
    if not isinstance(document, dict):
        raise ConfigError(f"config: expected a mapping, got {type(document).__name__}")
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
