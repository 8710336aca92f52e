"""Supervised training structures built from the price/consumption series.

Two constructions are supported: windowed state vectors where the lagged
prices and consumptions of the previous n hours are laid out explicitly as
feature columns, and contiguous step sequences where each step carries only
the most recent observation pair and a recurrent model keeps its own state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eucsim import TimeSeriesDataset

TIME_ENCODINGS = ("scalar", "one_hot", "none")


@dataclass(frozen=True)
class StateConfig:
    """How the model state is assembled from the series.

    order is the number of lagged (price, consumption) pairs. time_encoding
    is "scalar" for a single (hour / intervals_per_day) column, "one_hot"
    for one indicator column per hour, or "none".
    """

    order: int
    time_encoding: str = "scalar"
    intervals_per_day: int = 24

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if self.time_encoding not in TIME_ENCODINGS:
            raise ValueError(f"unknown time_encoding {self.time_encoding!r}")
        if self.intervals_per_day < 1:
            raise ValueError("intervals_per_day must be >= 1")

    @property
    def time_dim(self) -> int:
        if self.time_encoding == "scalar":
            return 1
        if self.time_encoding == "one_hot":
            return self.intervals_per_day
        return 0


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
class Scaler:
    """Per-column standardization statistics, fit on training data only."""

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: float
    target_std: float

    def transform_inputs(self, inputs: np.ndarray) -> np.ndarray:
        return (inputs - self.input_mean) / self.input_std

    def inverse_inputs(self, inputs: np.ndarray) -> np.ndarray:
        return inputs * self.input_std + self.input_mean

    def transform_targets(self, targets: np.ndarray) -> np.ndarray:
        return (targets - self.target_mean) / self.target_std

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
    """Chronological prefix/suffix split, no shuffling."""
    if not 0 < train_len < len(ts):
        raise ValueError(f"train_len must be in (0, {len(ts)}), got {train_len}")
    head = TimeSeriesDataset(
        prices=ts.prices[:train_len].copy(),
        consumptions=ts.consumptions[:train_len].copy(),
        hours=ts.hours[:train_len].copy(),
        intervals_per_day=ts.intervals_per_day,
    )
    tail = TimeSeriesDataset(
        prices=ts.prices[train_len:].copy(),
        consumptions=ts.consumptions[train_len:].copy(),
        hours=ts.hours[train_len:].copy(),
        intervals_per_day=ts.intervals_per_day,
    )
    return head, tail


def time_features(hour: int, cfg: StateConfig) -> list[float]:
    """Encode one hour-of-day value according to the configuration."""
    if cfg.time_encoding == "scalar":
        return [hour / cfg.intervals_per_day]
    if cfg.time_encoding == "one_hot":
        row = [0.0] * cfg.intervals_per_day
        row[hour] = 1.0
        return row
    return []


def feature_layout(cfg: StateConfig) -> tuple[str, ...]:
    """Ordered column names for the direct state vector plus current price."""
    names: list[str] = []
    for i in range(cfg.order, 0, -1):
        names.append(f"price_lag{i}")
        names.append(f"consumption_lag{i}")
    if cfg.time_encoding == "scalar":
        names.append("hour_frac")
    elif cfg.time_encoding == "one_hot":
        names.extend(f"hour_{k}" for k in range(cfg.intervals_per_day))
    names.append("price")
    return tuple(names)


def sequence_layout(cfg: StateConfig) -> tuple[str, ...]:
    """Column names of one recurrent step input (fixed lag-1 history)."""
    return feature_layout(replace(cfg, order=1))


def direct_feature_row(
    prices: np.ndarray,
    consumptions: np.ndarray,
    hour: int,
    price: float,
    t: int,
    cfg: StateConfig,
) -> np.ndarray:
    """One direct-state feature row for interval t; uses indices < t only."""
    if t < cfg.order:
        raise ValueError(f"need {cfg.order} preceding intervals, only {t} available")
    row: list[float] = []
    for i in range(cfg.order, 0, -1):
        row.append(float(prices[t - i]))
        row.append(float(consumptions[t - i]))
    row.extend(time_features(hour, cfg))
    row.append(float(price))
    return np.asarray(row)


def build_direct_dataset(ts: TimeSeriesDataset, cfg: StateConfig) -> SupervisedSet:
    """One sample per interval t in [order, len): lagged pairs, time, price."""
    n = cfg.order
    length = len(ts)
    if length <= n:
        raise ValueError(f"dataset of length {length} is too short for order {n}")
    rows = np.empty((length - n, 2 * n + cfg.time_dim + 1))
    for t in range(n, length):
        rows[t - n] = direct_feature_row(
            ts.prices, ts.consumptions, int(ts.hours[t]), float(ts.prices[t]), t, cfg
        )
    return SupervisedSet(
        inputs=rows,
        targets=ts.consumptions[n:].copy(),
        feature_layout=feature_layout(cfg),
    )


def sequence_step_inputs(ts: TimeSeriesDataset, start: int, stop: int, cfg: StateConfig) -> np.ndarray:
    """Step input rows for intervals [start, stop); start must be >= 1.

    Row t - start holds what direct_feature_row gives at order 1: the price
    and consumption at t - 1, the time feature of hour t, and the price at t.
    """
    if start < 1:
        raise ValueError("sequence steps need a previous observation; start must be >= 1")
    if stop > len(ts):
        raise ValueError(f"sequence steps up to {stop} need that many intervals, got {len(ts)}")
    rows = np.empty((stop - start, 2 + cfg.time_dim + 1))
    rows[:, 0] = ts.prices[start - 1 : stop - 1]
    rows[:, 1] = ts.consumptions[start - 1 : stop - 1]
    hours = np.asarray(ts.hours[start:stop]).astype(np.int64)
    if cfg.time_encoding == "scalar":
        rows[:, 2] = hours / cfg.intervals_per_day
    elif cfg.time_encoding == "one_hot":
        one_hot = rows[:, 2:-1]
        one_hot[:] = 0.0
        one_hot[np.arange(len(hours)), hours] = 1.0
    rows[:, -1] = ts.prices[start:stop]
    return rows


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
    inputs = np.empty((num_windows, window_length, 2 + cfg.time_dim + 1))
    targets = np.empty((num_windows, window_length))
    for w in range(num_windows):
        start = 1 + w * window_length
        stop = start + window_length
        inputs[w] = sequence_step_inputs(ts, start, stop, cfg)
        targets[w] = ts.consumptions[start:stop]
    return SequenceSet(
        inputs=inputs,
        targets=targets,
        window_length=window_length,
        feature_layout=sequence_layout(cfg),
    )


def fit_scaler(dataset: SupervisedSet | SequenceSet) -> Scaler:
    """Per-feature and target standardization statistics.

    Constant columns keep std 1 so they pass through unchanged.
    """
    inputs = dataset.inputs.reshape(-1, dataset.inputs.shape[-1])
    targets = dataset.targets.reshape(-1)
    if inputs.shape[0] == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    mean = inputs.mean(axis=0)
    std = inputs.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    t_std = float(targets.std())
    return Scaler(
        input_mean=mean,
        input_std=std,
        target_mean=float(targets.mean()),
        target_std=t_std if t_std > 0.0 else 1.0,
    )


def apply_scaler(scaler: Scaler, dataset: SupervisedSet | SequenceSet):
    """Standardized copy of the dataset (inputs and targets)."""
    if isinstance(dataset, SupervisedSet):
        return SupervisedSet(
            inputs=scaler.transform_inputs(dataset.inputs),
            targets=scaler.transform_targets(dataset.targets),
            feature_layout=dataset.feature_layout,
        )
    return SequenceSet(
        inputs=scaler.transform_inputs(dataset.inputs),
        targets=scaler.transform_targets(dataset.targets),
        window_length=dataset.window_length,
        feature_layout=dataset.feature_layout,
    )
