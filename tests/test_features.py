"""Feature construction tests: layouts, causality, windows, scaling, and the
one SupervisedSet record that holds (samples, features) rows and (windows,
steps, features) windows."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drlearn.errors import DataError
from drlearn.eucsim import TimeSeriesDataset
from drlearn.models import TrainConfig, linear_fit, train_fnn, train_recurrent
from drlearn.records import RecordError
from drlearn.features import (
    TIME_ENCODINGS,
    Scaler,
    StateConfig,
    apply_scaler,
    build_direct_dataset,
    build_sequence_dataset,
    config_of_width,
    feature_layout,
    feature_rows,
    fit_scaler,
    identity_scaler,
    sequence_step_inputs,
    split,
)


def random_dataset(length: int, seed: int, intervals_per_day: int = 24) -> TimeSeriesDataset:
    rng = np.random.default_rng(seed)
    return TimeSeriesDataset(
        prices=rng.uniform(20.0, 50.0, length),
        consumptions=rng.uniform(10.0, 90.0, length),
        hours=np.arange(length, dtype=np.int64) % intervals_per_day,
        intervals_per_day=intervals_per_day,
    )


def reference_row(ts: TimeSeriesDataset, t: int, cfg: StateConfig) -> list[float]:
    """Row t built one value at a time, in the order feature_layout names them."""
    row = []
    for i in range(cfg.order, 0, -1):
        row += [float(ts.prices[t - i]), float(ts.consumptions[t - i])]
    hour = int(ts.hours[t])
    if cfg.time_encoding == "scalar":
        row.append(hour / cfg.intervals_per_day)
    elif cfg.time_encoding == "one_hot":
        row += [1.0 if k == hour else 0.0 for k in range(cfg.intervals_per_day)]
    row.append(float(ts.prices[t]))
    return row


def short_series(prices, consumptions, hours) -> TimeSeriesDataset:
    return TimeSeriesDataset(
        prices=np.asarray(prices, dtype=float),
        consumptions=np.asarray(consumptions, dtype=float),
        hours=np.asarray(hours, dtype=np.int64),
    )


def time_columns(hour: int, cfg: StateConfig) -> list[float]:
    """The time feature of a one-interval series at the given hour."""
    return feature_rows(short_series([10.0], [1.0], [hour]), 0, 1, cfg)[0, :-1].tolist()


class TestStateConfig:
    @pytest.mark.parametrize(
        "encoding,expected", [("scalar", 1), ("one_hot", 24), ("none", 0)]
    )
    def test_time_dim(self, encoding, expected):
        assert StateConfig(order=2, time_encoding=encoding).time_dim == expected

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            StateConfig(order=-1)

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ValueError):
            StateConfig(order=0, time_encoding="fourier")


class TestLayouts:
    def test_order2_scalar_layout(self):
        cfg = StateConfig(order=2, time_encoding="scalar")
        assert feature_layout(cfg) == (
            "price_lag2",
            "consumption_lag2",
            "price_lag1",
            "consumption_lag1",
            "hour_frac",
            "price",
        )

    @pytest.mark.parametrize("order", range(6))
    @pytest.mark.parametrize("encoding", ["scalar", "one_hot", "none"])
    def test_width_law(self, order, encoding):
        cfg = StateConfig(order=order, time_encoding=encoding)
        assert len(feature_layout(cfg)) == 2 * order + cfg.time_dim + 1

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_config_of_width_lays_out_that_many_columns(self, order, extra):
        width = 2 * order + 1 + extra
        cfg = config_of_width(width, order)
        assert cfg.order == order
        assert len(feature_layout(cfg)) == width

    def test_config_of_width_refuses_too_few_columns(self):
        with pytest.raises(ValueError, match="^order-1 rows need at least 3 features, got 2$"):
            config_of_width(2, order=1)

    @pytest.mark.parametrize("order", [0, 3, 5])
    def test_sequence_layout_ignores_order(self, order):
        cfg = StateConfig(order=order, time_encoding="scalar")
        ds = build_sequence_dataset(random_dataset(30, seed=order), window_length=12, cfg=cfg)
        assert ds.state_config == replace(cfg, order=1)
        assert ds.feature_layout == (
            "price_lag1",
            "consumption_lag1",
            "hour_frac",
            "price",
        )


class TestTimeFeatures:
    def test_scalar_is_hour_fraction(self):
        assert time_columns(6, StateConfig(order=0)) == [0.25]

    def test_one_hot_indicator(self):
        row = time_columns(3, StateConfig(order=0, time_encoding="one_hot"))
        assert len(row) == 24 and row[3] == 1.0 and sum(row) == 1.0

    def test_none_is_empty(self):
        assert time_columns(5, StateConfig(order=0, time_encoding="none")) == []


class TestDirectFeatureRow:
    def test_hand_row_order2(self):
        ts = short_series([10.0, 11.0, 12.0, 13.0], [1.0, 2.0, 3.0, 4.0], [0, 1, 2, 3])
        cfg = StateConfig(order=2, time_encoding="scalar")
        row = feature_rows(ts, 3, 4, cfg)[0]
        assert np.array_equal(row, [11.0, 2.0, 12.0, 3.0, 3.0 / 24.0, 13.0])

    def test_insufficient_history_message(self):
        ts = short_series([10.0, 11.0], [1.0, 2.0], [0, 1])
        cfg = StateConfig(order=3)
        with pytest.raises(ValueError, match="need 3 preceding intervals, only 1"):
            feature_rows(ts, 1, 2, cfg)

    def test_order0_is_time_and_price_only(self):
        ts = short_series([10.0], [1.0], [0])
        cfg = StateConfig(order=0, time_encoding="scalar")
        row = feature_rows(ts, 0, 1, cfg)[0]
        assert np.array_equal(row, [0.0, 10.0])


class TestBuildDirectDataset:
    @pytest.mark.parametrize("order", range(6))
    def test_sample_count_and_width(self, order):
        ts = random_dataset(100, seed=order)
        cfg = StateConfig(order=order, time_encoding="scalar")
        ds = build_direct_dataset(ts, cfg)
        assert ds.inputs.shape == (100 - order, 2 * order + 2)
        assert np.array_equal(ds.targets, ts.consumptions[order:])
        assert ds.feature_layout == feature_layout(cfg)

    def test_current_price_is_last_column(self):
        ts = random_dataset(50, seed=3)
        ds = build_direct_dataset(ts, StateConfig(order=2))
        assert np.array_equal(ds.inputs[:, -1], ts.prices[2:])

    def test_rows_use_only_past_and_posted_price(self):
        # Perturbing everything after interval t must not change the sample
        # for t, so a fitted model can never peek at the future.
        ts = random_dataset(60, seed=8)
        cfg = StateConfig(order=3)
        before = build_direct_dataset(ts, cfg)
        t = 10
        prices = ts.prices.copy()
        cons = ts.consumptions.copy()
        prices[t + 1 :] += 100.0
        cons[t + 1 :] += 100.0
        cons[t] += 100.0  # target changes, inputs must not
        perturbed = TimeSeriesDataset(
            prices=prices, consumptions=cons, hours=ts.hours.copy()
        )
        after = build_direct_dataset(perturbed, cfg)
        sample = t - cfg.order
        assert np.array_equal(before.inputs[: sample + 1], after.inputs[: sample + 1])
        assert np.array_equal(before.targets[:sample], after.targets[:sample])

    def test_too_short_rejected(self):
        ts = random_dataset(3, seed=0)
        with pytest.raises(ValueError, match="too short"):
            build_direct_dataset(ts, StateConfig(order=3))


class TestSequenceDataset:
    def test_window_count_and_shape(self):
        ts = random_dataset(100, seed=5)
        cfg = StateConfig(order=1, time_encoding="scalar")
        ds = build_sequence_dataset(ts, window_length=24, cfg=cfg)
        assert ds.inputs.shape == ((100 - 1) // 24, 24, 4)
        assert ds.targets.shape == (4, 24)

    def test_step_contents(self):
        ts = random_dataset(50, seed=6)
        cfg = StateConfig(order=1, time_encoding="scalar")
        ds = build_sequence_dataset(ts, window_length=12, cfg=cfg)
        for w in range(len(ds)):
            for j in range(12):
                t = 1 + w * 12 + j
                assert np.array_equal(
                    ds.inputs[w, j],
                    [
                        ts.prices[t - 1],
                        ts.consumptions[t - 1],
                        ts.hours[t] / 24.0,
                        ts.prices[t],
                    ],
                )
                assert ds.targets[w, j] == ts.consumptions[t]

    def test_windows_are_non_overlapping_and_contiguous(self):
        ts = random_dataset(100, seed=7)
        ds = build_sequence_dataset(ts, window_length=24, cfg=StateConfig(order=1))
        flat = ds.targets.reshape(-1)
        assert np.array_equal(flat, ts.consumptions[1 : 1 + len(flat)])

    def test_sequence_step_inputs_requires_start_past_first(self):
        ts = random_dataset(10, seed=0)
        with pytest.raises(ValueError, match="need 1 preceding intervals, only 0 available"):
            sequence_step_inputs(ts, 0, 5, StateConfig(order=1))

    @pytest.mark.parametrize("encoding", ["scalar", "one_hot", "none"])
    @pytest.mark.parametrize("start, stop", [(1, 60), (17, 43), (5, 5), (59, 60)])
    def test_sequence_step_inputs_match_row_by_row(self, encoding, start, stop):
        ts = random_dataset(60, seed=8, intervals_per_day=12)
        cfg = StateConfig(order=3, time_encoding=encoding, intervals_per_day=12)
        lag1 = StateConfig(order=1, time_encoding=encoding, intervals_per_day=12)
        expected = np.array(
            [reference_row(ts, t, lag1) for t in range(start, stop)]
        ).reshape(stop - start, 3 + cfg.time_dim)
        rows = sequence_step_inputs(ts, start, stop, cfg)
        assert rows.shape == expected.shape
        assert np.array_equal(rows, expected)

    def test_sequence_step_inputs_stop_past_end_rejected(self):
        ts = random_dataset(10, seed=0)
        with pytest.raises(ValueError, match="need that many intervals"):
            sequence_step_inputs(ts, 1, 11, StateConfig(order=1))

    def test_short_dataset_rejected(self):
        ts = random_dataset(10, seed=0)
        with pytest.raises(ValueError, match="too short"):
            build_sequence_dataset(ts, window_length=48, cfg=StateConfig(order=1))

    def test_tiny_window_rejected(self):
        ts = random_dataset(10, seed=0)
        with pytest.raises(ValueError, match="window_length"):
            build_sequence_dataset(ts, window_length=1, cfg=StateConfig(order=1))

    @pytest.mark.parametrize("window_length, problem", [
        (4.5, "must be an integer, got 4.5"),
        (4.0, "must be an integer, got 4.0"),
        (True, "must be a number, got bool"),
    ])
    def test_window_length_that_is_not_an_integer_is_refused_by_name(self, window_length, problem):
        # named, not numpy's "'float' object cannot be interpreted as an integer"
        ts = random_dataset(10, seed=0)
        with pytest.raises(RecordError, match=f"^window_length: {problem}$"):
            build_sequence_dataset(ts, window_length=window_length, cfg=StateConfig(order=1))

    @pytest.mark.parametrize("encoding", ["scalar", "one_hot"])
    @pytest.mark.parametrize("build", [
        lambda ts, cfg: build_direct_dataset(ts, cfg),
        lambda ts, cfg: build_sequence_dataset(ts, window_length=12, cfg=cfg),
    ], ids=["direct", "sequence"])
    def test_builders_refuse_another_interval_count(self, build, encoding):
        # not numpy's IndexError (one_hot), nor hour_frac values up to 1.96 (scalar)
        ts = random_dataset(96, seed=15, intervals_per_day=48)
        message = "^intervals_per_day mismatch: model expects 24, data has 48$"
        with pytest.raises(DataError, match=message):
            build(ts, StateConfig(order=1, time_encoding=encoding))

    @pytest.mark.parametrize("trainer", ["linear_fit", "train_fnn", "train_recurrent"])
    def test_each_trainer_refuses_the_other_kinds_set(self, trainer):
        # one record holds rows and windows, so each trainer checks the rank it needs:
        # named, not numpy's "too many values to unpack" or a matmul core-dimension error
        ts = random_dataset(97, seed=14)
        rows = build_direct_dataset(ts, StateConfig(order=1))
        windows = build_sequence_dataset(ts, window_length=24, cfg=StateConfig(order=1))
        calls = {
            "linear_fit": lambda: linear_fit(windows),
            "train_fnn": lambda: train_fnn(windows, [4], TrainConfig(steps=1)),
            "train_recurrent": lambda: train_recurrent(rows, "rnn", [4], TrainConfig(steps=1)),
        }
        shape = re.escape(str((rows if trainer == "train_recurrent" else windows).inputs.shape))
        with pytest.raises(ValueError, match=rf"^{trainer} needs .*, got shape {shape}$"):
            calls[trainer]()


class TestSplit:
    def test_partition(self):
        ts = random_dataset(48, seed=9)
        head, tail = split(ts, 30)
        assert len(head) == 30 and len(tail) == 18
        assert np.array_equal(
            np.concatenate([head.prices, tail.prices]), ts.prices
        )
        assert np.array_equal(
            np.concatenate([head.consumptions, tail.consumptions]), ts.consumptions
        )

    def test_tail_keeps_original_hours(self):
        ts = random_dataset(48, seed=9)
        _, tail = split(ts, 30)
        assert np.array_equal(tail.hours, ts.hours[30:])
        assert tail.hours[0] == 30 % 24

    @pytest.mark.parametrize("bad", [0, 48, 60, -1])
    def test_bad_train_len_rejected(self, bad):
        ts = random_dataset(48, seed=9)
        with pytest.raises(ValueError):
            split(ts, bad)

    @pytest.mark.parametrize("train_len, problem", [
        (30.5, "must be an integer, got 30.5"),
        (30.0, "must be an integer, got 30.0"),
        (True, "must be a number, got bool"),
    ])
    def test_train_len_that_is_not_an_integer_is_refused_by_name(self, train_len, problem):
        # named, not numpy's "slice indices must be integers"
        ts = random_dataset(48, seed=9)
        with pytest.raises(RecordError, match=f"^train_len: {problem}$"):
            split(ts, train_len)

    @pytest.mark.parametrize("column, value", [("consumptions", np.nan), ("prices", np.inf)])
    def test_non_finite_value_rejected_with_its_index(self, column, value):
        ts = random_dataset(48, seed=9)
        getattr(ts, column)[40] = value
        with pytest.raises(DataError, match="at index 40 must both be finite"):
            split(ts, 30)


class TestScaler:
    def test_fit_standardizes_nonconstant_columns(self):
        ts = random_dataset(200, seed=11)
        ds = build_direct_dataset(ts, StateConfig(order=2))
        scaler = fit_scaler(ds)
        scaled = apply_scaler(scaler, ds)
        assert np.allclose(scaled.inputs.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(scaled.inputs.std(axis=0), 1.0, atol=1e-12)
        assert abs(scaled.targets.mean()) < 1e-12
        assert abs(scaled.targets.std() - 1.0) < 1e-12

    def test_constant_column_maps_to_zero(self):
        ds = build_direct_dataset(random_dataset(50, seed=12), StateConfig(order=0))
        inputs = ds.inputs.copy()
        inputs[:, 0] = 7.5
        from drlearn.features import SupervisedSet

        const = SupervisedSet(inputs=inputs, targets=ds.targets, state_config=ds.state_config)
        scaler = fit_scaler(const)
        assert scaler.input_std[0] == 1.0
        assert np.all(apply_scaler(scaler, const).inputs[:, 0] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, seed):
        ts = random_dataset(120, seed=seed)
        ds = build_direct_dataset(ts, StateConfig(order=1))
        scaler = fit_scaler(ds)
        back = scaler.transform_inputs(ds.inputs) * scaler.input_std + scaler.input_mean
        assert np.allclose(back, ds.inputs, rtol=1e-12, atol=1e-12)
        t_back = scaler.inverse_targets(scaler.transform_targets(ds.targets))
        assert np.allclose(t_back, ds.targets, rtol=1e-12, atol=1e-12)

    def test_sequence_scaler_pools_all_steps(self):
        ts = random_dataset(97, seed=13)
        ds = build_sequence_dataset(ts, window_length=24, cfg=StateConfig(order=1))
        scaler = fit_scaler(ds)
        flat = ds.inputs.reshape(-1, 4)
        assert np.allclose(scaler.input_mean, flat.mean(axis=0))
        scaled = apply_scaler(scaler, ds)
        assert scaled.inputs.shape == ds.inputs.shape
        assert scaled.inputs.shape[1] == 24

    def test_identity_scaler_is_identity(self):
        scaler = identity_scaler(3)
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(scaler.transform_inputs(x), x)
        assert scaler.transform_targets(np.array([4.0]))[0] == 4.0

    def test_empty_dataset_rejected(self):
        from drlearn.features import SupervisedSet

        empty = SupervisedSet(  # hour_frac, price
            inputs=np.empty((0, 2)), targets=np.empty(0), state_config=StateConfig(order=0)
        )
        with pytest.raises(ValueError, match="empty"):
            fit_scaler(empty)

    def test_two_dimensional_std_is_refused_by_name(self):
        # named by the field, not by numpy's "truth value ... is ambiguous"
        with pytest.raises(RecordError, match=r"^input_std: must be 1-D, got shape \(2, 2\)$"):
            Scaler(input_mean=np.zeros(2), input_std=np.ones((2, 2)), target_mean=0.0,
                   target_std=1.0)

    def test_zero_dimensional_mean_is_refused_by_name(self):
        # named by the field, not by numpy's "iteration over a 0-d array"
        with pytest.raises(RecordError, match=r"^input_mean: must be 1-D, got shape \(\)$"):
            Scaler(input_mean=np.array(0.0), input_std=np.ones(1), target_mean=0.0,
                   target_std=1.0)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(0, 5),
        encoding=st.sampled_from(TIME_ENCODINGS),
        intervals_per_day=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_feature_rows_match_reference(self, order, encoding, intervals_per_day, seed, data):
        length = data.draw(st.integers(order, order + 40), label="length")
        start = data.draw(st.integers(order, length), label="start")
        stop = data.draw(st.integers(start, length), label="stop")
        ts = random_dataset(length, seed, intervals_per_day)
        cfg = StateConfig(order=order, time_encoding=encoding, intervals_per_day=intervals_per_day)
        rows = feature_rows(ts, start, stop, cfg)
        width = len(feature_layout(cfg))
        expected = np.array([reference_row(ts, t, cfg) for t in range(start, stop)])
        assert rows.shape == (stop - start, width)
        assert np.array_equal(rows, expected.reshape(stop - start, width))

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(0, 5),
        encoding=st.sampled_from(TIME_ENCODINGS),
        intervals_per_day=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_never_read_later_data(self, order, encoding, intervals_per_day, seed, data):
        """Changing any price or consumption at index >= t, other than the
        posted price at t, leaves every row up to t as it was."""
        length = data.draw(st.integers(order + 1, order + 40), label="length")
        t = data.draw(st.integers(order, length - 1), label="t")
        index = data.draw(st.integers(t, length - 1), label="index")
        column = data.draw(st.sampled_from(["prices", "consumptions"]), label="column")
        assume(not (column == "prices" and index == t))
        ts = random_dataset(length, seed, intervals_per_day)
        cfg = StateConfig(order=order, time_encoding=encoding, intervals_per_day=intervals_per_day)
        before = feature_rows(ts, order, t + 1, cfg)
        getattr(ts, column)[index] += 1000.0
        assert np.array_equal(feature_rows(ts, order, t + 1, cfg), before)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.integers(1, 20),
        n_features=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    )
    def test_scaler_round_trip(self, samples, n_features, seed, magnitude):
        rng = np.random.default_rng(seed)
        scaler = Scaler(
            input_mean=magnitude * rng.normal(size=n_features),
            input_std=magnitude * rng.uniform(1e-3, 10.0, n_features),
            target_mean=float(magnitude * rng.normal()),
            target_std=float(magnitude * rng.uniform(1e-3, 10.0)),
        )
        inputs = magnitude * rng.normal(size=(samples, n_features))
        targets = magnitude * rng.normal(size=samples)
        back = scaler.transform_inputs(inputs) * scaler.input_std + scaler.input_mean
        scale = np.abs(inputs).max() + np.abs(scaler.input_mean).max()
        assert np.allclose(back, inputs, rtol=0.0, atol=1e-12 * scale)
        t_back = scaler.inverse_targets(scaler.transform_targets(targets))
        t_scale = np.abs(targets).max() + abs(scaler.target_mean)
        assert np.allclose(t_back, targets, rtol=0.0, atol=1e-12 * t_scale)
