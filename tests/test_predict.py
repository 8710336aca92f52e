"""Prediction tests: one-step vs batch, warm-up, rollouts, error paths, and
the state a recurrent model keeps between queries."""

import copy
import json
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlearn.errors import DataError
from drlearn.eucsim import (
    TimeSeriesDataset,
    generate_profile,
    sample_population,
    sample_prices,
    simulate,
)
from drlearn.features import (
    Scaler,
    StateConfig,
    apply_scaler,
    build_direct_dataset,
    build_sequence_dataset,
    feature_layout,
    fit_scaler,
    identity_scaler,
    sequence_step_inputs,
    split,
)
from drlearn.models import (
    LinearModel,
    TrainConfig,
    flat_params,
    init_params,
    linear_fit,
    load_model,
    model_from_params,
    predict_one_step,
    rollout,
    save_model,
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


class TestPostedInputChecks:
    @pytest.mark.parametrize("fixture", ["linear_model", "rnn_model"])
    def test_interval_count_mismatch_rejected(self, fixture, series, request):
        model = request.getfixturevalue(fixture)
        half_days = TimeSeriesDataset(
            prices=series.prices,
            consumptions=series.consumptions,
            hours=series.hours % 12,
            intervals_per_day=12,
        )
        with pytest.raises(DataError, match="model expects 24, data has 12"):
            predict_one_step(model, half_days, 30.0, TRAIN_LEN)
        with pytest.raises(DataError, match="model expects 24, data has 12"):
            rollout(model, tail_history(half_days, 0, TRAIN_LEN), np.array([30.0]))

    @pytest.mark.parametrize("fixture", ["fnn_model", "lstm_model"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_price_rejected(self, fixture, bad, series, request):
        model = request.getfixturevalue(fixture)
        with pytest.raises(ValueError, match="posted price .* at index 0 is not finite"):
            predict_one_step(model, series, bad, TRAIN_LEN)
        history = tail_history(series, 0, TRAIN_LEN)
        with pytest.raises(ValueError, match="posted price .* at index 2 is not finite"):
            rollout(model, history, np.array([30.0, 31.0, bad]))

    def test_non_finite_teacher_consumption_rejected(self, series, rnn_model):
        history = tail_history(series, 0, TRAIN_LEN)
        with pytest.raises(ValueError, match="teacher consumption nan at index 1 is not finite"):
            rollout(rnn_model, history, np.full(3, 30.0), np.array([50.0, np.nan, 50.0]))

    def test_two_dimensional_prices_rejected(self, series, rnn_model):
        history = tail_history(series, 0, TRAIN_LEN)
        with pytest.raises(ValueError, match=r"posted prices must be 1-D, got shape \(3, 2\)"):
            rollout(rnn_model, history, np.full((3, 2), 30.0))

    @pytest.mark.parametrize(
        "t, teacher, error, message",
        [
            (
                None,
                np.full((3, 2), 50.0),
                ValueError,
                r"teacher_consumptions must be 1-D, got shape \(3, 2\)",
            ),
            (1.5, None, TypeError, r"t must be an integer, got float 1\.5"),
            (10.0, None, TypeError, r"t must be an integer, got float 10\.0"),
        ],
        ids=["2-D teacher", "t 1.5", "t 10.0"],
    )
    def test_bad_serving_argument_named(self, series, rnn_model, t, teacher, error, message):
        history = tail_history(series, 0, TRAIN_LEN)
        with pytest.raises(error, match=message):
            if t is None:
                rollout(rnn_model, history, np.full(3, 30.0), teacher)
            else:
                predict_one_step(rnn_model, history, 30.0, t)


    @pytest.mark.parametrize("query", ["one-step", "rollout"])
    def test_feature_layout_mismatch_rejected(self, query, tmp_path):
        # load_model accepts any layout; serving builds rows from the state config
        source = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        with open(source) as handle:
            document = json.load(handle)
        document["feature_layout"].reverse()
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(document))
        model = load_model(str(path))
        history = random_walk_series(0, length=60)
        with pytest.raises(
            DataError, match=r"feature layout mismatch: model expects \['price', 'hour_frac'"
        ):
            if query == "one-step":
                predict_one_step(model, history, 35.0, 40)
            else:
                rollout(model, history, np.full(3, 35.0))


def random_served_model(kind, encoding, seed):
    """A two-layer recurrent model with seeded weights and scaler."""
    cfg = StateConfig(order=1, time_encoding=encoding)
    layout = feature_layout(cfg)
    rng = np.random.default_rng(seed)
    params = [p + 0.3 * rng.normal(size=p.shape) for p in init_params(kind, len(layout), [5, 3], rng)]
    scaler = Scaler(
        input_mean=rng.uniform(0.0, 40.0, len(layout)),
        input_std=rng.uniform(5.0, 30.0, len(layout)),
        target_mean=50.0,
        target_std=20.0,
    )
    return model_from_params(kind, params, layout, scaler, cfg)


def fresh_copy(model):
    """The model rebuilt from copies of its current values: nothing replayed yet."""
    params = [np.array(p) for p in flat_params(model)]
    return model_from_params(model.kind, params, model.feature_layout, model.scaler, model.state_config)


def random_walk_series(seed, length=80):
    rng = np.random.default_rng(seed)
    return TimeSeriesDataset(
        prices=rng.uniform(20.0, 50.0, length),
        consumptions=rng.uniform(10.0, 90.0, length),
        hours=(np.arange(length, dtype=np.int64) + 7) % 24,
    )


def run_lengths(model, monkeypatch) -> list[int]:
    """The number of steps of every later run call on the model's class."""
    steps = []
    run = type(model).run

    def spy(self, inputs, state):
        steps.append(np.shape(inputs)[1])
        return run(self, inputs, state)

    monkeypatch.setattr(type(model), "run", spy)
    return steps


class TestSavedState:
    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_later_query_replays_only_new_hours(self, kind, k, monkeypatch):
        model = random_served_model(kind, "scalar", 3)
        series = random_walk_series(4)
        steps = run_lengths(model, monkeypatch)
        t = 40
        predict_one_step(model, series, float(series.prices[t]), t)
        assert steps == [t - 1, 1]  # the replay of rows [1, t), then the query
        steps.clear()
        answer = predict_one_step(model, series, float(series.prices[t + k]), t + k)
        assert steps == ([k] if k else []) + [1]
        steps.clear()
        plan = rollout(model, tail_history(series, 0, t + k), series.prices[t + k : t + k + 3])
        assert steps == [1, 1, 1]
        assert plan[0] == answer

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_saved_state_is_invisible_to_saving(self, kind, tmp_path):
        model = random_served_model(kind, "one_hot", 5)
        fresh = fresh_copy(model)
        series = random_walk_series(6)
        predict_one_step(model, series, 30.0, 50)
        save_model(model, str(tmp_path / "served.json"))
        save_model(fresh, str(tmp_path / "fresh.json"))
        assert (tmp_path / "served.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        assert all(np.array_equal(a, b) for a, b in zip(flat_params(model), flat_params(fresh)))

    @pytest.mark.parametrize(
        "clone",
        [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_saved_state_is_left_out_of_copies(self, clone):
        # a pool worker or a deepcopy takes the parameters, not the replayed history
        source = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")
        model = load_model(source)
        fresh_length = len(pickle.dumps(model))
        series = random_walk_series(8, length=600)
        answer = predict_one_step(model, series, 30.0, 500)
        assert len(pickle.dumps(model)) == fresh_length
        twin = clone(model)
        assert twin == model and not hasattr(twin, "_replayed")
        assert predict_one_step(twin, series, 30.0, 500) == answer

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    @pytest.mark.parametrize(
        "edit", ["price", "consumption", "hour", "nan", "weight", "scaler", "shorter history"]
    )
    def test_changed_past_forces_full_replay(self, kind, edit, monkeypatch):
        model = random_served_model(kind, "scalar", 12)
        series = random_walk_series(13)
        predict_one_step(model, series, 30.0, 40)
        t = 45
        if edit == "price":
            series.prices[20] += 1.0
        elif edit == "consumption":
            series.consumptions[20] *= 2.0
        elif edit == "hour":
            series.hours[20] = (series.hours[20] + 1) % 24
        elif edit == "nan":
            series.prices[20] = np.nan
        elif edit == "weight":
            model.out_weight[0] += 1e-9
        elif edit == "scaler":
            model.scaler.input_mean[0] += 1e-9
        else:
            t = 39
        steps = run_lengths(model, monkeypatch)
        got = predict_one_step(model, series, 30.0, t)
        assert steps == [t - 1, 1]
        want = predict_one_step(fresh_copy(model), series, 30.0, t)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["rnn", "lstm"]),
        encoding=st.sampled_from(["scalar", "one_hot", "none"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_random_walk_matches_fresh_model(self, kind, encoding, seed, data):
        # Queries at random hours, with in-place edits between them to past
        # history and to a weight; each answer must be that of a model that
        # has replayed nothing before.
        model = random_served_model(kind, encoding, seed)
        series = random_walk_series(seed)
        length, last = len(series), 1
        for _ in range(data.draw(st.integers(1, 8), label="calls")):
            action = data.draw(st.sampled_from(["query", "rollout", "edit history", "edit weight"]))
            if action == "edit history":  # mostly inside what the last query replayed
                i = data.draw(st.integers(0, last - 1) | st.integers(0, length - 1), label="index")
                column = data.draw(st.sampled_from(["prices", "consumptions", "hours"]))
                if column == "hours":
                    series.hours[i] = data.draw(st.integers(0, 23), label="hour")
                else:
                    value = data.draw(st.sampled_from([np.nan, 0.0, 25.0, 60.0]), label="value")
                    getattr(series, column)[i] = value
            elif action == "edit weight":
                params = flat_params(model)[:-1]  # the arrays the model holds
                p = params[data.draw(st.integers(0, len(params) - 1), label="param")]
                j = data.draw(st.integers(0, p.size - 1), label="entry")
                p.flat[j] += data.draw(st.sampled_from([-0.5, 1e-12, 0.25]), label="delta")
            elif action == "query":
                t = last = data.draw(st.integers(1, length), label="t")
                price = data.draw(st.floats(20.0, 50.0), label="price")
                got = predict_one_step(model, series, price, t)
                want = predict_one_step(fresh_copy(model), series, price, t)
                assert np.array_equal(got, want, equal_nan=True)
            else:
                t = last = data.draw(st.integers(1, length), label="t")
                prices = series.prices[t : t + 4] if t < length else np.full(4, 33.0)
                if not np.all(np.isfinite(prices)):  # an edit put NaN among the posted prices
                    with pytest.raises(ValueError, match="posted price nan"):
                        rollout(model, tail_history(series, 0, t), prices)
                    continue
                got = rollout(model, tail_history(series, 0, t), prices)
                want = rollout(fresh_copy(model), tail_history(series, 0, t), prices)
                assert np.array_equal(got, want, equal_nan=True)

    def test_threads_sharing_a_model_get_cold_answers(self):
        # Callers on several threads replace each other's saved entries; each
        # entry is validated as a whole, so every answer stays a cold answer.
        model = random_served_model("lstm", "scalar", 8)
        series = [random_walk_series(seed) for seed in (9, 10, 11)]
        hours = [5, 30, 31, 60, 12, 79]
        cold = {
            (s, t): predict_one_step(fresh_copy(model), series[s], 30.0, t)
            for s in range(len(series))
            for t in hours
        }
        mismatches, done = [], []

        def serve(s):
            for _ in range(5):
                for t in hours:
                    if predict_one_step(model, series[s], 30.0, t) != cold[s, t]:
                        mismatches.append((s, t))
            done.append(s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(s % 3,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == 6
        assert mismatches == []
