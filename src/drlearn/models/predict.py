"""One-step prediction and multi-step rollout on top of trained models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..eucsim import TimeSeriesDataset
from ..features import StateConfig, check_rows, feature_rows
from .common import all_equal
from .fnn import FnnModel
from .linear import LinearModel
from .recurrent import LstmModel, RnnModel

Model = LinearModel | FnnModel | RnnModel | LstmModel


def _hours(history: TimeSeriesDataset, start: int, stop: int) -> np.ndarray:
    """Hours of intervals [start, stop), start <= len(history), extrapolating
    hourly past the end of history."""
    known = np.asarray(history.hours[start:stop], dtype=np.int64)
    later = np.arange(start + len(known), stop)
    if len(history):
        later = later - (len(history) - 1) + int(history.hours[-1])
    return np.concatenate([known, later % history.intervals_per_day])


@dataclass(frozen=True)
class _Replayed:
    """A model's state after feature rows [order, n) of a history, with
    copies of every value that replay read: the model's state config, and
    the arrays _replay_reads lists (one of them the parameter buffer).

    An entry is replaced whole, never changed, and run does not write into
    the state it is given, so the state can seed any later call.
    """

    n: int
    encoding: StateConfig
    reads: list[np.ndarray]
    state: list


def _replay_reads(model: Model, history: TimeSeriesDataset, n: int) -> list[np.ndarray]:
    """The arrays a replay of history's first n intervals reads: the history,
    then the model's parameter buffer and scaler."""
    return [
        history.prices[:n],
        history.consumptions[:n],
        history.hours[:n],
        *model.prediction_reads(),
    ]


def _replayed_state(model: Model, history: TimeSeriesDataset, start: int) -> list:
    """The model's state after the feature rows [order, start) of history.

    Resumes from the state the model's last replay left when that replay
    ended at or before start and every value it read is unchanged
    (array_equal, so a NaN never matches), and from the zero state
    otherwise; then replays the rest with one run and keeps the result for
    the next call. Both starts give the same bits: run gives the same bits
    however a series is split, and feature_rows builds each row on its own.
    A direct model's state is empty, so it replays nothing.
    """
    if not model.recurrent:
        return []
    state = model.initial_state(1)
    cfg = model.state_config
    resume = cfg.order
    entry = getattr(model, "_replayed", None)
    if (
        entry is not None
        and entry.n <= start
        and entry.encoding == cfg
        and all_equal(entry.reads, _replay_reads(model, history, entry.n))
    ):
        resume, state = entry.n, entry.state
    if resume < start:
        rows = model.scaler.transform_inputs(feature_rows(history, resume, start, cfg))
        _, state = model.run(rows[None], state)
        reads = [np.array(a) for a in _replay_reads(model, history, start)]
        model._replayed = _Replayed(start, cfg, reads, state)
    return state


def _check_finite(name: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise ValueError(f"{name} {values[bad[0]]} at index {bad[0]} is not finite")


def _serve(
    model: Model,
    history: TimeSeriesDataset,
    start: int,
    prices: np.ndarray,
    teacher_consumptions: np.ndarray | None = None,
) -> np.ndarray:
    """Predictions for the intervals from start on, at the posted prices.

    Reads history before start only. A model with state first replays that
    history; then each interval's prediction, or its teacher value, becomes
    the consumption that later rows read.
    """
    cfg = model.state_config
    check_rows(history, cfg, model.feature_layout)
    if prices.ndim != 1:
        raise ValueError(f"posted prices must be 1-D, got shape {prices.shape}")
    _check_finite("posted price", prices)
    if teacher_consumptions is not None:
        _check_finite("teacher consumption", teacher_consumptions)
    if start < cfg.order:
        raise ValueError(f"need {cfg.order} preceding intervals, only {start} available")
    state = _replayed_state(model, history, start)
    base, horizon = start - cfg.order, len(prices)
    series = TimeSeriesDataset(  # intervals base.. of history, then the posted ones
        prices=np.concatenate([history.prices[base:start], prices]),
        consumptions=np.concatenate([history.consumptions[base:start], np.zeros(horizon)]),
        hours=_hours(history, base, start + horizon),
        intervals_per_day=history.intervals_per_day,
    )
    predictions = np.empty(horizon)
    for k in range(horizon):
        t = cfg.order + k
        x = model.scaler.transform_inputs(feature_rows(series, t, t + 1, cfg))
        y, state = model.step(x, state)
        predictions[k] = model.scaler.inverse_targets(y)[0]
        series.consumptions[t] = (
            predictions[k] if teacher_consumptions is None else teacher_consumptions[k]
        )
    return predictions


def predict_one_step(
    model: Model, history: TimeSeriesDataset, price: float, t: int
) -> float:
    """Consumption prediction in MWh for interval t given the true history.

    Only history entries before t are read. Recurrent models consume the
    whole provided prefix, so the caller controls the warm-up span by how
    much history it passes in. The answer depends on the arguments alone;
    a recurrent model replays only the part of the prefix its last replay
    did not cover (see _replayed_state).
    """
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise TypeError(f"t must be an integer, got {type(t).__name__} {t!r}")
    if t > len(history):
        raise ValueError(
            f"cannot predict interval {t}: history holds only {len(history)} intervals"
        )
    return float(_serve(model, history, t, np.array([price], dtype=float))[0])


def rollout(
    model: Model,
    history: TimeSeriesDataset,
    future_prices: np.ndarray,
    teacher_consumptions: np.ndarray | None = None,
) -> np.ndarray:
    """Iterated one-step prediction over the posted future prices.

    Predictions are fed back as the lagged consumption input; passing
    teacher_consumptions substitutes ground truth instead, which makes the
    result identical to a sequence of independent one-step predictions.
    """
    future_prices = np.asarray(future_prices, dtype=float)
    if teacher_consumptions is not None:
        teacher_consumptions = np.asarray(teacher_consumptions, dtype=float)
        if teacher_consumptions.ndim != 1:
            raise ValueError(
                f"teacher_consumptions must be 1-D, got shape {teacher_consumptions.shape}"
            )
        if len(teacher_consumptions) != len(future_prices):
            raise ValueError("teacher_consumptions must match future_prices in length")
    return _serve(model, history, len(history), future_prices, teacher_consumptions)
