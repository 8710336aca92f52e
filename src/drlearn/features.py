"""Supervised training structures built from the price/consumption series.

Two constructions are supported: windowed state vectors where the lagged
prices and consumptions of the previous n hours are laid out explicitly as
feature columns, and contiguous step sequences where each step carries only
the most recent observation pair and a recurrent model keeps its own state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .eucsim import TimeSeriesDataset, check_series
from .records import Bounded, bounded

TIME_ENCODINGS = ("scalar", "one_hot", "none")


@dataclass(frozen=True)
class StateConfig(Bounded):
    """How the model state is assembled from the series.

    order is the number of lagged (price, consumption) pairs. time_encoding
    is "scalar" for a single (hour / intervals_per_day) column, "one_hot"
    for one indicator column per hour, or "none".
    """

    order: int = bounded(minimum=0)
    time_encoding: str = bounded("scalar", choices=TIME_ENCODINGS)
    intervals_per_day: int = bounded(24, minimum=1)

    @property
    def time_dim(self) -> int:
        return {"scalar": 1, "one_hot": self.intervals_per_day}.get(self.time_encoding, 0)


@dataclass(frozen=True)
class SupervisedSet:
    """Feature matrix and target vector for the windowed construction."""

    inputs: np.ndarray  # (samples, features)
    targets: np.ndarray  # (samples,)
    feature_layout: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class SequenceSet:
    """Contiguous step sequences for recurrent training.

    inputs has shape (windows, window_length, features) and targets
    (windows, window_length); step t of a window holds the previous hour's
    price and consumption, the time feature, and the current price.
    """

    inputs: np.ndarray
    targets: np.ndarray
    window_length: int
    feature_layout: tuple[str, ...]

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Scaler(Bounded):
    """Per-column standardization statistics, fit on training data only."""

    input_mean: np.ndarray
    input_std: np.ndarray = bounded(above=0)
    target_mean: float
    target_std: float = bounded(above=0)

    def transform_inputs(self, inputs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.divide(np.subtract(inputs, self.input_mean, out=out), self.input_std, out=out)

    def inverse_inputs(self, inputs: np.ndarray) -> np.ndarray:
        return inputs * self.input_std + self.input_mean

    def transform_targets(self, targets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.divide(np.subtract(targets, self.target_mean, out=out), self.target_std, out=out)

    def inverse_targets(self, targets: np.ndarray) -> np.ndarray:
        return targets * self.target_std + self.target_mean


def identity_scaler(n_features: int) -> Scaler:
    return Scaler(
        input_mean=np.zeros(n_features),
        input_std=np.ones(n_features),
        target_mean=0.0,
        target_std=1.0,
    )


def split(ts: TimeSeriesDataset, train_len: int) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Chronological prefix/suffix split, no shuffling, of a series that
    keeps the check_series rules."""
    if not 0 < train_len < len(ts):
        raise ValueError(f"train_len must be in (0, {len(ts)}), got {train_len}")
    check_series(ts)

    def part(span: slice) -> TimeSeriesDataset:
        return TimeSeriesDataset(
            prices=ts.prices[span].copy(),
            consumptions=ts.consumptions[span].copy(),
            hours=ts.hours[span].copy(),
            intervals_per_day=ts.intervals_per_day,
        )

    return part(slice(None, train_len)), part(slice(train_len, None))


def feature_layout(cfg: StateConfig) -> tuple[str, ...]:
    """Ordered column names for the direct state vector plus current price."""
    lags = [f"{v}_lag{i}" for i in range(cfg.order, 0, -1) for v in ("price", "consumption")]
    hours = {"scalar": ["hour_frac"], "one_hot": [f"hour_{k}" for k in range(cfg.intervals_per_day)]}
    return tuple(lags + hours.get(cfg.time_encoding, []) + ["price"])


def sequence_layout(cfg: StateConfig) -> tuple[str, ...]:
    """Column names of one recurrent step input (fixed lag-1 history)."""
    return feature_layout(replace(cfg, order=1))


def check_rows(ts: TimeSeriesDataset, cfg: StateConfig, layout: tuple[str, ...]) -> None:
    """Raise DataError unless ts divides a day into cfg's number of intervals
    and the rows feature_rows builds from ts under cfg have the columns layout
    names, in order."""
    if ts.intervals_per_day != cfg.intervals_per_day:
        raise DataError(
            f"intervals_per_day mismatch: model expects {cfg.intervals_per_day},"
            f" data has {ts.intervals_per_day}"
        )
    if feature_layout(cfg) != tuple(layout):
        raise DataError(
            f"feature layout mismatch: model expects {list(layout)},"
            f" data produces {list(feature_layout(cfg))}"
        )


def feature_rows(ts: TimeSeriesDataset, start: int, stop: int, cfg: StateConfig) -> np.ndarray:
    """Feature rows for intervals [start, stop), columns as in feature_layout(cfg).

    Row t - start holds the (price, consumption) pairs at t - order .. t - 1,
    the time feature of hour t, and the price at t: of interval t and later
    it reads only the hour and the price at t.
    """
    n = cfg.order
    if start < n:
        raise ValueError(f"need {n} preceding intervals, only {start} available")
    if stop > len(ts):
        raise ValueError(f"rows up to {stop} need that many intervals, got {len(ts)}")
    rows = np.zeros((stop - start, 2 * n + cfg.time_dim + 1))
    for i in range(n, 0, -1):
        rows[:, 2 * (n - i)] = ts.prices[start - i : stop - i]
        rows[:, 2 * (n - i) + 1] = ts.consumptions[start - i : stop - i]
    hours = np.asarray(ts.hours[start:stop]).astype(np.int64)
    if cfg.time_encoding == "scalar":
        rows[:, 2 * n] = hours / cfg.intervals_per_day
    elif cfg.time_encoding == "one_hot":
        rows[:, 2 * n : -1][np.arange(len(hours)), hours] = 1.0
    rows[:, -1] = ts.prices[start:stop]
    return rows


def build_direct_dataset(ts: TimeSeriesDataset, cfg: StateConfig) -> SupervisedSet:
    """One sample per interval t in [order, len): lagged pairs, time, price."""
    n = cfg.order
    if len(ts) <= n:
        raise ValueError(f"dataset of length {len(ts)} is too short for order {n}")
    return SupervisedSet(
        inputs=feature_rows(ts, n, len(ts), cfg),
        targets=ts.consumptions[n:].copy(),
        feature_layout=feature_layout(cfg),
    )


def sequence_step_inputs(ts: TimeSeriesDataset, start: int, stop: int, cfg: StateConfig) -> np.ndarray:
    """Recurrent step inputs for intervals [start, stop): the order-1 feature rows."""
    return feature_rows(ts, start, stop, replace(cfg, order=1))


def build_sequence_dataset(ts: TimeSeriesDataset, window_length: int, cfg: StateConfig) -> SequenceSet:
    """Non-overlapping contiguous windows of step inputs starting at t = 1.

    Every step carries (previous price, previous consumption, time feature,
    current price) regardless of cfg.order; the recurrent state supplies the
    rest of the history.
    """
    if window_length < 2:
        raise ValueError(f"window_length must be >= 2, got {window_length}")
    if len(ts) < window_length + 1:
        raise ValueError(
            f"dataset of length {len(ts)} is too short for window_length {window_length}"
        )
    num_windows = (len(ts) - 1) // window_length
    stop = 1 + num_windows * window_length
    inputs = sequence_step_inputs(ts, 1, stop, cfg)
    return SequenceSet(
        inputs=inputs.reshape(num_windows, window_length, inputs.shape[1]),
        targets=ts.consumptions[1:stop].reshape(num_windows, window_length).copy(),
        window_length=window_length,
        feature_layout=sequence_layout(cfg),
    )


def fit_scaler(dataset: SupervisedSet | SequenceSet) -> Scaler:
    """Per-feature and target standardization statistics.

    Constant columns keep std 1 so they pass through unchanged. Finite values
    too large to square give an infinite std: a DataError names the column.
    """
    inputs = dataset.inputs.reshape(-1, dataset.inputs.shape[-1])
    targets = dataset.targets.reshape(-1)
    if inputs.shape[0] == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = inputs.mean(axis=0), inputs.std(axis=0)
        t_mean, t_std = float(targets.mean()), float(targets.std())
    bad = np.flatnonzero(~np.isfinite(np.append(std, t_std)))
    if len(bad):
        column = (*(f"column {name}" for name in dataset.feature_layout), "target")[bad[0]]
        raise DataError(
            f"train split {column}: standard deviation is not finite"
            " (values too large to standardize)"
        )
    return Scaler(
        input_mean=mean,
        input_std=np.where(std > 0.0, std, 1.0),
        target_mean=t_mean,
        target_std=t_std if t_std > 0.0 else 1.0,
    )


def apply_scaler(scaler: Scaler, dataset: SupervisedSet | SequenceSet):
    """Standardized copy of the dataset (inputs and targets)."""
    return replace(
        dataset,
        inputs=scaler.transform_inputs(dataset.inputs),
        targets=scaler.transform_targets(dataset.targets),
    )
