"""One-step prediction and multi-step rollout on top of trained models."""

from __future__ import annotations

import numpy as np

from ..eucsim import TimeSeriesDataset
from ..features import feature_rows
from .fnn import FnnModel
from .linear import LinearModel
from .recurrent import LstmModel, RnnModel

Model = LinearModel | FnnModel | RnnModel | LstmModel


def _hours(history: TimeSeriesDataset, stop: int) -> np.ndarray:
    """Hours of intervals [0, stop), extrapolating hourly past the end of history."""
    known = np.asarray(history.hours[:stop], dtype=np.int64)
    later = np.arange(len(known), stop)
    if len(history):
        later = later - (len(history) - 1) + int(history.hours[-1])
    return np.concatenate([known, later % history.intervals_per_day])


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
    if start < cfg.order:
        raise ValueError(f"need {cfg.order} preceding intervals, only {start} available")
    horizon = len(prices)
    series = TimeSeriesDataset(
        prices=np.concatenate([history.prices[:start], prices]),
        consumptions=np.concatenate([history.consumptions[:start], np.zeros(horizon)]),
        hours=_hours(history, start + horizon),
        intervals_per_day=history.intervals_per_day,
    )
    state = model.initial_state(1)
    if state:
        replay = model.scaler.transform_inputs(feature_rows(series, cfg.order, start, cfg))
        _, state = model.run(replay[None], state)
    predictions = np.empty(horizon)
    for k in range(horizon):
        t = start + k
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
    much history it passes in.
    """
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
        if len(teacher_consumptions) != len(future_prices):
            raise ValueError("teacher_consumptions must match future_prices in length")
    return _serve(model, history, len(history), future_prices, teacher_consumptions)
