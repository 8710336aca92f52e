"""Feature construction tests: layouts, causality, windows, scaling."""

import numpy as np
import pytest

from drlearn.eucsim import TimeSeriesDataset
from drlearn.features import (
    StateConfig,
    apply_scaler,
    build_direct_dataset,
    build_sequence_dataset,
    direct_feature_row,
    feature_layout,
    fit_scaler,
    identity_scaler,
    sequence_layout,
    sequence_step_inputs,
    split,
    time_features,
)


def random_dataset(length: int, seed: int, intervals_per_day: int = 24) -> TimeSeriesDataset:
    rng = np.random.default_rng(seed)
    return TimeSeriesDataset(
        prices=rng.uniform(20.0, 50.0, length),
        consumptions=rng.uniform(10.0, 90.0, length),
        hours=np.arange(length, dtype=np.int64) % intervals_per_day,
        intervals_per_day=intervals_per_day,
    )


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

    @pytest.mark.parametrize("order", [0, 3, 5])
    def test_sequence_layout_ignores_order(self, order):
        cfg = StateConfig(order=order, time_encoding="scalar")
        assert sequence_layout(cfg) == (
            "price_lag1",
            "consumption_lag1",
            "hour_frac",
            "price",
        )


class TestTimeFeatures:
    def test_scalar_is_hour_fraction(self):
        assert time_features(6, StateConfig(order=0)) == [0.25]

    def test_one_hot_indicator(self):
        row = time_features(3, StateConfig(order=0, time_encoding="one_hot"))
        assert len(row) == 24 and row[3] == 1.0 and sum(row) == 1.0

    def test_none_is_empty(self):
        assert time_features(5, StateConfig(order=0, time_encoding="none")) == []


class TestDirectFeatureRow:
    def test_hand_row_order2(self):
        prices = np.array([10.0, 11.0, 12.0, 13.0])
        cons = np.array([1.0, 2.0, 3.0, 4.0])
        cfg = StateConfig(order=2, time_encoding="scalar")
        row = direct_feature_row(prices, cons, hour=3, price=13.0, t=3, cfg=cfg)
        assert np.array_equal(row, [11.0, 2.0, 12.0, 3.0, 3.0 / 24.0, 13.0])

    def test_insufficient_history_message(self):
        prices = np.array([10.0, 11.0])
        cons = np.array([1.0, 2.0])
        cfg = StateConfig(order=3)
        with pytest.raises(ValueError, match="need 3 preceding intervals, only 1"):
            direct_feature_row(prices, cons, hour=1, price=11.0, t=1, cfg=cfg)

    def test_order0_is_time_and_price_only(self):
        prices = np.array([10.0])
        cons = np.array([1.0])
        cfg = StateConfig(order=0, time_encoding="scalar")
        row = direct_feature_row(prices, cons, hour=0, price=10.0, t=0, cfg=cfg)
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
        with pytest.raises(ValueError, match="start must be >= 1"):
            sequence_step_inputs(ts, 0, 5, StateConfig(order=1))

    @pytest.mark.parametrize("encoding", ["scalar", "one_hot", "none"])
    @pytest.mark.parametrize("start, stop", [(1, 60), (17, 43), (5, 5), (59, 60)])
    def test_sequence_step_inputs_match_row_by_row(self, encoding, start, stop):
        ts = random_dataset(60, seed=8, intervals_per_day=12)
        cfg = StateConfig(order=3, time_encoding=encoding, intervals_per_day=12)
        lag1 = StateConfig(order=1, time_encoding=encoding, intervals_per_day=12)
        expected = np.array(
            [
                direct_feature_row(
                    ts.prices, ts.consumptions, int(ts.hours[t]), float(ts.prices[t]), t, lag1
                )
                for t in range(start, stop)
            ]
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

        const = SupervisedSet(
            inputs=inputs, targets=ds.targets, feature_layout=ds.feature_layout
        )
        scaler = fit_scaler(const)
        assert scaler.input_std[0] == 1.0
        assert np.all(apply_scaler(scaler, const).inputs[:, 0] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, seed):
        ts = random_dataset(120, seed=seed)
        ds = build_direct_dataset(ts, StateConfig(order=1))
        scaler = fit_scaler(ds)
        back = scaler.inverse_inputs(scaler.transform_inputs(ds.inputs))
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
        assert scaled.window_length == 24

    def test_identity_scaler_is_identity(self):
        scaler = identity_scaler(3)
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(scaler.transform_inputs(x), x)
        assert scaler.transform_targets(np.array([4.0]))[0] == 4.0

    def test_empty_dataset_rejected(self):
        from drlearn.features import SupervisedSet

        empty = SupervisedSet(
            inputs=np.empty((0, 2)), targets=np.empty(0), feature_layout=("a", "b")
        )
        with pytest.raises(ValueError, match="empty"):
            fit_scaler(empty)
