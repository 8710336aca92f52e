"""Prediction tests: one-step vs batch, warm-up, rollouts, error paths."""

import numpy as np
import pytest

from drlearn.eucsim import (
    TimeSeriesDataset,
    generate_profile,
    sample_population,
    sample_prices,
    simulate,
)
from drlearn.features import (
    StateConfig,
    apply_scaler,
    build_direct_dataset,
    build_sequence_dataset,
    fit_scaler,
    identity_scaler,
    sequence_step_inputs,
    split,
)
from drlearn.models import (
    LinearModel,
    TrainConfig,
    linear_fit,
    predict_one_step,
    rollout,
    train_fnn,
    train_recurrent,
)

TRAIN_LEN = 600


@pytest.fixture(scope="module")
def series():
    population = sample_population(20, 3)
    profile = generate_profile(720, 24, 5)
    prices = sample_prices(720, 20.0, 50.0, 7)
    return simulate(population, prices, profile, rng_seed=11)


def fit_direct(series, kind):
    cfg = StateConfig(order=2, time_encoding="scalar")
    head, _ = split(series, TRAIN_LEN)
    raw = build_direct_dataset(head, cfg)
    scaler = fit_scaler(raw)
    scaled = apply_scaler(scaler, raw)
    if kind == "linear":
        return linear_fit(scaled, scaler=scaler, state_config=cfg)
    model, _ = train_fnn(
        scaled, [16], TrainConfig(steps=300, rng_seed=0), scaler=scaler, state_config=cfg
    )
    return model


def fit_recurrent(series, kind):
    cfg = StateConfig(order=1, time_encoding="scalar")
    head, _ = split(series, TRAIN_LEN)
    raw = build_sequence_dataset(head, 24, cfg)
    scaler = fit_scaler(raw)
    scaled = apply_scaler(scaler, raw)
    steps = 150 if kind == "rnn" else 80
    model, _ = train_recurrent(
        scaled, kind, [8], TrainConfig(steps=steps, rng_seed=0),
        scaler=scaler, state_config=cfg,
    )
    return model


@pytest.fixture(scope="module")
def linear_model(series):
    return fit_direct(series, "linear")


@pytest.fixture(scope="module")
def fnn_model(series):
    return fit_direct(series, "fnn")


@pytest.fixture(scope="module")
def rnn_model(series):
    return fit_recurrent(series, "rnn")


@pytest.fixture(scope="module")
def lstm_model(series):
    return fit_recurrent(series, "lstm")


def tail_history(series, start, length):
    stop = start + length
    return TimeSeriesDataset(
        prices=series.prices[start:stop].copy(),
        consumptions=series.consumptions[start:stop].copy(),
        hours=series.hours[start:stop].copy(),
        intervals_per_day=series.intervals_per_day,
    )


class TestOneStepAgainstBatch:
    @pytest.mark.parametrize("fixture", ["linear_model", "fnn_model"])
    def test_direct_matches_batch_forward(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        ds = build_direct_dataset(series, model.state_config)
        x = model.scaler.transform_inputs(ds.inputs)
        batch = model.scaler.inverse_targets(model.forward(x))
        order = model.state_config.order
        for t in [order, 50, 300, 699]:
            single = predict_one_step(model, series, float(series.prices[t]), t)
            assert single == pytest.approx(batch[t - order], rel=1e-12)

    @pytest.mark.parametrize("fixture", ["rnn_model", "lstm_model"])
    def test_recurrent_matches_whole_series_forward(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        rows = sequence_step_inputs(series, 1, len(series), model.state_config)
        x = model.scaler.transform_inputs(rows)
        batch = model.scaler.inverse_targets(model.forward(x[None])[0])
        for t in [1, 24, 301, 719]:
            single = predict_one_step(model, series, float(series.prices[t]), t)
            assert single == batch[t - 1]  # identical step arithmetic, bitwise


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_one_hot_one_step_equals_teacher_forced_rollout_bitwise(kind, series):
    cfg = StateConfig(order=1, time_encoding="one_hot")
    head, _ = split(series, TRAIN_LEN)
    raw = build_sequence_dataset(head, 24, cfg)
    scaler = fit_scaler(raw)
    model, _ = train_recurrent(
        apply_scaler(scaler, raw), kind, [6], TrainConfig(steps=20, rng_seed=0),
        scaler=scaler, state_config=cfg,
    )
    assert len(model.feature_layout) == 27
    start, horizon = 500, 30
    forced = rollout(
        model,
        tail_history(series, 0, start),
        series.prices[start : start + horizon],
        teacher_consumptions=series.consumptions[start : start + horizon],
    )
    for k in range(horizon):
        t = start + k
        assert predict_one_step(model, series, float(series.prices[t]), t) == forced[k]


class TestWarmUp:
    @pytest.mark.parametrize("fixture", ["rnn_model", "lstm_model"])
    def test_old_context_is_forgotten(self, fixture, series, request):
        # Two histories sharing only the last 96 intervals must agree closely:
        # the recurrent state forgets what happened before the shared suffix.
        model = request.getfixturevalue(fixture)
        t = 700
        full = predict_one_step(model, series, float(series.prices[t]), t)
        short_hist = tail_history(series, t - 96, 96)
        short = predict_one_step(model, short_hist, float(series.prices[t]), 96)
        assert short == pytest.approx(full, rel=1e-6)

    @pytest.mark.parametrize("fixture", ["rnn_model", "lstm_model"])
    def test_agreement_improves_with_context(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        t = 700
        full = predict_one_step(model, series, float(series.prices[t]), t)
        gaps = []
        for length in (6, 24, 72):
            hist = tail_history(series, t - length, length)
            gaps.append(abs(predict_one_step(model, hist, float(series.prices[t]), length) - full))
        assert gaps[2] <= gaps[0] + 1e-12


class TestRollout:
    @pytest.mark.parametrize(
        "fixture", ["linear_model", "fnn_model", "rnn_model", "lstm_model"]
    )
    def test_single_step_rollout_equals_one_step(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        history = tail_history(series, 0, TRAIN_LEN)
        price = float(series.prices[TRAIN_LEN])
        roll = rollout(model, history, np.array([price]))
        one = predict_one_step(model, history, price, TRAIN_LEN)
        assert roll.shape == (1,)
        assert roll[0] == one

    @pytest.mark.parametrize(
        "fixture", ["linear_model", "fnn_model", "rnn_model", "lstm_model"]
    )
    def test_teacher_forcing_equals_one_step_sequence(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        history = tail_history(series, 0, TRAIN_LEN)
        future_prices = series.prices[TRAIN_LEN : TRAIN_LEN + 48]
        truth = series.consumptions[TRAIN_LEN : TRAIN_LEN + 48]
        forced = rollout(model, history, future_prices, teacher_consumptions=truth)
        singles = np.array(
            [
                predict_one_step(model, series, float(series.prices[TRAIN_LEN + k]), TRAIN_LEN + k)
                for k in range(48)
            ]
        )
        assert forced == pytest.approx(singles, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["linear_model", "rnn_model"])
    def test_free_running_is_not_easier_than_one_step(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        errors = {"free": [], "forced": []}
        for start in range(TRAIN_LEN, 696, 24):
            history = tail_history(series, 0, start)
            prices = series.prices[start : start + 24]
            truth = series.consumptions[start : start + 24]
            free = rollout(model, history, prices)
            forced = rollout(model, history, prices, teacher_consumptions=truth)
            errors["free"].extend(np.abs(free - truth) / truth)
            errors["forced"].extend(np.abs(forced - truth) / truth)
        assert np.mean(errors["free"]) >= 0.9 * np.mean(errors["forced"])

    def test_hour_extrapolation_wraps_past_history(self):
        # A model that returns exactly the hour fraction exposes which hour
        # the rollout used for each future interval.
        cfg = StateConfig(order=0, time_encoding="scalar")
        model = LinearModel(
            weights=np.array([1.0, 0.0]),
            bias=0.0,
            feature_layout=("hour_frac", "price"),
            scaler=identity_scaler(2),
            state_config=cfg,
        )
        history = TimeSeriesDataset(
            prices=np.full(30, 30.0),
            consumptions=np.full(30, 1.0),
            hours=np.arange(30, dtype=np.int64) % 24,
        )
        predictions = rollout(model, history, np.full(48, 30.0))
        expected = (np.arange(30, 78) % 24) / 24.0
        assert predictions == pytest.approx(expected, abs=1e-12)


class TestErrorPaths:
    def test_predicting_past_history_end_rejected(self, series, linear_model):
        with pytest.raises(ValueError, match="history holds only"):
            predict_one_step(linear_model, series, 30.0, len(series) + 1)

    def test_recurrent_needs_one_preceding_interval(self, series, rnn_model):
        with pytest.raises(ValueError, match="preceding interval"):
            predict_one_step(rnn_model, series, 30.0, 0)

    def test_direct_needs_order_intervals(self, linear_model):
        short = TimeSeriesDataset(
            prices=np.array([30.0]),
            consumptions=np.array([1.0]),
            hours=np.array([0]),
        )
        with pytest.raises(ValueError, match="preceding intervals"):
            rollout(linear_model, short, np.array([30.0]))

    def test_recurrent_rollout_needs_history(self, rnn_model):
        empty = TimeSeriesDataset(
            prices=np.empty(0), consumptions=np.empty(0), hours=np.empty(0, dtype=np.int64)
        )
        with pytest.raises(ValueError, match="preceding interval"):
            rollout(rnn_model, empty, np.array([30.0]))

    def test_teacher_length_mismatch_rejected(self, series, linear_model):
        history = tail_history(series, 0, TRAIN_LEN)
        with pytest.raises(ValueError, match="match future_prices"):
            rollout(
                linear_model,
                history,
                series.prices[TRAIN_LEN : TRAIN_LEN + 4],
                teacher_consumptions=series.consumptions[TRAIN_LEN : TRAIN_LEN + 3],
            )
