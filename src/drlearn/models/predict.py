"""One-step prediction and multi-step rollout on top of trained models."""

from __future__ import annotations

import numpy as np

from ..eucsim import TimeSeriesDataset
from ..features import direct_feature_row, sequence_step_inputs, time_features
from .fnn import FnnModel
from .linear import LinearModel
from .recurrent import LstmModel, RnnModel

Model = LinearModel | FnnModel | RnnModel | LstmModel

DIRECT_KINDS = ("linear", "fnn")
RECURRENT_KINDS = ("rnn", "lstm")


def _hour_at(history: TimeSeriesDataset, t: int) -> int:
    """Hour of interval t, extrapolating hourly past the end of history."""
    period = history.intervals_per_day
    if t < len(history):
        return int(history.hours[t])
    if len(history) == 0:
        return t % period
    return (int(history.hours[-1]) + (t - (len(history) - 1))) % period


def _direct_predict(model: LinearModel | FnnModel, row: np.ndarray) -> float:
    x = model.scaler.transform_inputs(row[None, :])
    y = model.forward(x)
    return float(model.scaler.inverse_targets(y)[0])


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
    cfg = model.state_config
    if model.kind in DIRECT_KINDS:
        row = direct_feature_row(
            history.prices, history.consumptions, _hour_at(history, t), price, t, cfg
        )
        return _direct_predict(model, row)

    if t < 1:
        raise ValueError("recurrent prediction needs at least one preceding interval")
    rows = np.empty((t, len(model.feature_layout)))
    rows[: t - 1] = sequence_step_inputs(history, 1, t, cfg)
    rows[t - 1] = [
        float(history.prices[t - 1]),
        float(history.consumptions[t - 1]),
        *time_features(_hour_at(history, t), cfg),
        float(price),
    ]
    x = model.scaler.transform_inputs(rows)
    outputs = model.forward(x[None, :, :])
    return float(model.scaler.inverse_targets(outputs[0, -1:])[0])


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
    horizon = len(future_prices)
    if teacher_consumptions is not None:
        teacher_consumptions = np.asarray(teacher_consumptions, dtype=float)
        if len(teacher_consumptions) != horizon:
            raise ValueError("teacher_consumptions must match future_prices in length")
    start = len(history)
    cfg = model.state_config
    predictions = np.empty(horizon)

    if model.kind in DIRECT_KINDS:
        if start < cfg.order:
            raise ValueError(
                f"need {cfg.order} preceding intervals, only {start} available"
            )
        prices = np.concatenate([history.prices, future_prices])
        consumptions = np.concatenate([history.consumptions, np.zeros(horizon)])
        for k in range(horizon):
            t = start + k
            row = direct_feature_row(
                prices, consumptions, _hour_at(history, t), float(future_prices[k]), t, cfg
            )
            predictions[k] = _direct_predict(model, row)
            consumptions[t] = (
                predictions[k]
                if teacher_consumptions is None
                else teacher_consumptions[k]
            )
        return predictions

    if start < 1:
        raise ValueError("recurrent prediction needs at least one preceding interval")
    prefix = model.scaler.transform_inputs(sequence_step_inputs(history, 1, start, cfg))
    _, state = model.run(prefix[None], model.initial_state(1))
    prev_price = float(history.prices[start - 1])
    prev_consumption = float(history.consumptions[start - 1])
    for k in range(horizon):
        t = start + k
        row = np.asarray(
            [
                prev_price,
                prev_consumption,
                *time_features(_hour_at(history, t), cfg),
                float(future_prices[k]),
            ]
        )
        x = model.scaler.transform_inputs(row[None, :])
        y, state = model.step(x, state)
        predictions[k] = float(model.scaler.inverse_targets(y)[0])
        prev_price = float(future_prices[k])
        prev_consumption = (
            predictions[k]
            if teacher_consumptions is None
            else float(teacher_consumptions[k])
        )
    return predictions
