"""Simulator tests: closed-form optimum, backlog recursion, profiles, CSV."""

import math

import numpy as np
import pytest

from drlearn.errors import DataError
from drlearn.eucsim import (
    EucParams,
    LoadProfile,
    TimeSeriesDataset,
    generate_profile,
    load_profile,
    optimal_consumption,
    read_dataset,
    sample_population,
    sample_prices,
    simulate,
    step_demand,
    write_dataset,
)


def grid_optimum(demand: float, price: float, params: EucParams) -> float:
    """Brute-force maximizer of rho (d - c)^2 - p c over the feasible segment."""
    lo = params.min_fraction * demand
    grid = np.linspace(lo, demand, 20001)
    objective = params.rho * (demand - grid) ** 2 - price * grid
    return float(grid[np.argmax(objective)])


class TestOptimalConsumption:
    def test_zero_price_consumes_full_demand(self):
        params = EucParams(peak_demand=1.0, rho=-100.0, alpha=0.5)
        assert optimal_consumption(2.0, 0.0, params) == 2.0

    def test_interior_hand_value(self):
        # c = max(0.5 * 2, 2 + 30 / (2 * -50)) = max(1, 1.7) = 1.7
        params = EucParams(peak_demand=1.0, rho=-50.0, alpha=0.0)
        assert optimal_consumption(2.0, 30.0, params) == 1.7

    def test_floor_binds_at_high_price(self):
        params = EucParams(peak_demand=1.0, rho=-50.0, alpha=0.0)
        # unconstrained 2 + 500 / -100 = -3, floor 1.0 wins
        assert optimal_consumption(2.0, 500.0, params) == 1.0

    def test_zero_demand_consumes_zero(self):
        params = EucParams(peak_demand=1.0, rho=-100.0, alpha=0.5)
        assert optimal_consumption(0.0, 40.0, params) == 0.0

    def test_rejects_negative_inputs(self):
        params = EucParams(peak_demand=1.0, rho=-100.0, alpha=0.5)
        with pytest.raises(ValueError):
            optimal_consumption(-1.0, 10.0, params)
        with pytest.raises(ValueError):
            optimal_consumption(1.0, -10.0, params)

    def test_matches_grid_search_on_1000_random_cases(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            peak = rng.uniform(0.1, 2.0)
            params = EucParams(
                peak_demand=peak,
                rho=-100.0 / peak,
                alpha=float(rng.uniform(0.0, 1.0)),
            )
            demand = float(rng.uniform(0.0, 2.0 * peak))
            price = float(rng.uniform(0.0, 100.0))
            closed = optimal_consumption(demand, price, params)
            assert closed == pytest.approx(grid_optimum(demand, price, params), abs=1e-4)

    def test_monotone_nonincreasing_in_price(self):
        params = EucParams(peak_demand=1.0, rho=-80.0, alpha=0.3)
        prices = np.linspace(0.0, 120.0, 60)
        values = [optimal_consumption(1.4, float(p), params) for p in prices]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestStepDemand:
    def test_hand_recursion(self):
        # 0.5 * (2 - 1.7) + 1 = 1.15
        assert step_demand(2.0, 1.7, 0.5, 1.0) == 1.15

    def test_alpha_zero_forgets_backlog(self):
        assert step_demand(2.0, 1.0, 0.0, 0.25) == 0.25

    def test_alpha_one_keeps_everything(self):
        assert step_demand(3.0, 1.0, 1.0, 0.0) == 2.0

    def test_rejects_consumption_above_demand(self):
        with pytest.raises(ValueError):
            step_demand(1.0, 1.5, 0.5, 0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            step_demand(1.0, 0.5, 1.5, 0.0)


class TestEucParams:
    def test_rejects_nonnegative_rho(self):
        with pytest.raises(ValueError):
            EucParams(peak_demand=1.0, rho=0.0, alpha=0.5)

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            EucParams(peak_demand=1.0, rho=-1.0, alpha=1.2)

    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ValueError):
            EucParams(peak_demand=0.0, rho=-1.0, alpha=0.2)


class TestSamplePopulation:
    def test_deterministic_in_seed(self):
        a = sample_population(20, 5)
        b = sample_population(20, 5)
        assert a == b

    def test_parameter_ranges(self):
        pop = sample_population(200, 9)
        for euc in pop.eucs:
            assert 0.1 <= euc.peak_demand <= 2.0
            assert 0.0 <= euc.alpha <= 1.0
            assert euc.rho == -100.0 / euc.peak_demand
            assert euc.min_fraction == 0.5

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            sample_population(0, 1)


class TestGenerateProfile:
    def test_shape_and_normalization(self):
        profile = generate_profile(8760, 24, 3)
        assert len(profile.values) == 8760
        assert profile.values.max() == 1.0
        assert np.all(profile.values > 0.0)

    def test_deterministic_in_seed(self):
        a = generate_profile(480, 24, 3)
        b = generate_profile(480, 24, 3)
        assert np.array_equal(a.values, b.values)
        c = generate_profile(480, 24, 4)
        assert not np.array_equal(a.values, c.values)

    def test_daily_peak_in_evening(self):
        profile = generate_profile(8760, 24, 7)
        days = profile.values.reshape(-1, 24)
        peak_hours = days.argmax(axis=1)
        assert np.all((peak_hours >= 17) & (peak_hours <= 21))

    def test_rejects_partial_day(self):
        with pytest.raises(ValueError):
            generate_profile(100, 24, 0)


class TestLoadProfile:
    def test_reads_values_and_comments(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("# normalized load\n0.5\n\n1.0\n0.25\n")
        profile = load_profile(str(path))
        assert np.array_equal(profile.values, [0.5, 1.0, 0.25])
        assert profile.source == "file"

    def test_renormalizes_to_unit_max(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("2.0\n4.0\n1.0\n")
        profile = load_profile(str(path))
        assert np.array_equal(profile.values, [0.5, 1.0, 0.25])

    def test_nonpositive_value_reports_file_row(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("# header\n0.5\n0.0\n")
        with pytest.raises(DataError, match="non-positive value at row 3"):
            load_profile(str(path))

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0.5\noops\n")
        with pytest.raises(DataError, match="row 2"):
            load_profile(str(path))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_profile(str(tmp_path / "absent.csv"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("# only comments\n")
        with pytest.raises(DataError, match="no values"):
            load_profile(str(path))


class TestSamplePrices:
    def test_range_and_determinism(self):
        a = sample_prices(500, 20.0, 50.0, 2)
        b = sample_prices(500, 20.0, 50.0, 2)
        assert np.array_equal(a, b)
        assert a.min() >= 20.0 and a.max() <= 50.0

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            sample_prices(10, 50.0, 20.0, 0)
        with pytest.raises(ValueError):
            sample_prices(10, -5.0, 20.0, 0)


def reference_trace(population, prices, profile, noise_std, rng_seed):
    """Independent per-customer scalar recursion using the tested scalar ops."""
    k = len(population)
    horizon = len(prices)
    streams = [
        np.random.default_rng(s) for s in np.random.SeedSequence(rng_seed).spawn(k)
    ]
    trace = np.empty((k, horizon))
    for i, euc in enumerate(population.eucs):
        gauss = streams[i].normal(1.0, noise_std, horizon)
        demand = 0.0
        consumption = 0.0
        for t in range(horizon):
            arrival = euc.peak_demand * profile.values[t] * max(gauss[t], 0.0)
            if t == 0:
                demand = arrival
            else:
                demand = step_demand(demand, consumption, euc.alpha, arrival)
            consumption = optimal_consumption(demand, float(prices[t]), euc)
            trace[i, t] = consumption
    return trace


class TestSimulate:
    def test_matches_scalar_recursion_bitwise(self):
        population = sample_population(7, 21)
        profile = generate_profile(96, 24, 3)
        prices = sample_prices(96, 20.0, 50.0, 5)
        dataset, trace = simulate(
            population, prices, profile, noise_std=0.1, rng_seed=9, return_per_euc=True
        )
        expected = reference_trace(population, prices, profile, 0.1, 9)
        assert np.array_equal(trace, expected)
        assert np.array_equal(dataset.consumptions, expected.sum(axis=0))

    def test_deterministic_in_seed(self):
        population = sample_population(5, 1)
        profile = generate_profile(48, 24, 2)
        prices = sample_prices(48, 20.0, 50.0, 3)
        a = simulate(population, prices, profile, rng_seed=4)
        b = simulate(population, prices, profile, rng_seed=4)
        assert np.array_equal(a.consumptions, b.consumptions)

    def test_zero_noise_gives_deterministic_arrivals(self):
        population = sample_population(3, 2)
        profile = generate_profile(48, 24, 2)
        prices = sample_prices(48, 20.0, 50.0, 3)
        a = simulate(population, prices, profile, noise_std=0.0, rng_seed=0)
        b = simulate(population, prices, profile, noise_std=0.0, rng_seed=99)
        assert np.array_equal(a.consumptions, b.consumptions)

    def test_hours_are_interval_modulo_day(self):
        population = sample_population(2, 2)
        profile = generate_profile(48, 24, 2)
        prices = sample_prices(48, 20.0, 50.0, 3)
        dataset = simulate(population, prices, profile)
        assert np.array_equal(dataset.hours, np.arange(48) % 24)

    def test_alpha_resampling_changes_series(self):
        population = sample_population(5, 1)
        profile = generate_profile(96, 24, 2)
        prices = sample_prices(96, 20.0, 50.0, 3)
        fixed = simulate(population, prices, profile, rng_seed=4)
        resampled = simulate(
            population, prices, profile, rng_seed=4, resample_alpha_hourly=True
        )
        assert not np.array_equal(fixed.consumptions, resampled.consumptions)

    def test_rejects_length_mismatch(self):
        population = sample_population(2, 2)
        profile = generate_profile(48, 24, 2)
        with pytest.raises(ValueError):
            simulate(population, sample_prices(24, 20.0, 50.0, 3), profile)

    def test_rejects_negative_prices(self):
        population = sample_population(2, 2)
        profile = generate_profile(24, 24, 2)
        with pytest.raises(ValueError):
            simulate(population, np.full(24, -1.0), profile)

    def test_consumption_positive_at_bench_scale_prices(self):
        population = sample_population(50, 3)
        profile = generate_profile(720, 24, 4)
        prices = sample_prices(720, 20.0, 50.0, 5)
        dataset = simulate(population, prices, profile)
        assert np.all(dataset.consumptions > 0.0)


class TestDatasetCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        population = sample_population(4, 6)
        profile = generate_profile(72, 24, 1)
        prices = sample_prices(72, 20.0, 50.0, 2)
        dataset = simulate(population, prices, profile)
        path = tmp_path / "data.csv"
        write_dataset(dataset, str(path))
        loaded = read_dataset(str(path))
        assert np.array_equal(loaded.prices, dataset.prices)
        assert np.array_equal(loaded.consumptions, dataset.consumptions)
        assert np.array_equal(loaded.hours, dataset.hours)

    def test_header_written(self, tmp_path):
        dataset = TimeSeriesDataset(
            prices=np.array([30.0]),
            consumptions=np.array([1.5]),
            hours=np.array([0]),
        )
        path = tmp_path / "data.csv"
        write_dataset(dataset, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "t,hour,price_usd_per_mwh,consumption_mwh"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c,d\n0,0,30.0,1.5\n")
        with pytest.raises(DataError, match="header"):
            read_dataset(str(path))

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,hour,price_usd_per_mwh,consumption_mwh\n0,0,30.0\n")
        with pytest.raises(DataError, match="line 2"):
            read_dataset(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_dataset(str(tmp_path / "none.csv"))

    def test_rejects_empty_body(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,hour,price_usd_per_mwh,consumption_mwh\n")
        with pytest.raises(DataError, match="no rows"):
            read_dataset(str(path))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,30.0,nan", "non-finite price or consumption"),
            ("1,1,inf,1.5", "non-finite price or consumption"),
            ("1,1,-30.0,1.5", "negative price -30.0"),
            ("1,99,30.0,1.5", r"hour 99 outside \[0, 24\)"),
            ("1,-1,30.0,1.5", r"hour -1 outside \[0, 24\)"),
            ("7,1,30.0,1.5", "t is 7, expected 1"),
            ("1,1,30.0,0.0", "consumption 0.0 is not positive"),
            ("1,1,30.0,-2.5", "consumption -2.5 is not positive"),
        ],
        ids=[
            "nan-consumption",
            "inf-price",
            "negative-price",
            "hour-past-day",
            "negative-hour",
            "t-not-row-index",
            "zero-consumption",
            "negative-consumption",
        ],
    )
    def test_rejects_bad_row_naming_line(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        path.write_text(
            "t,hour,price_usd_per_mwh,consumption_mwh\n0,0,30.0,1.5\n" + row + "\n2,2,30.0,1.5\n"
        )
        with pytest.raises(DataError, match=f"line 3: {message}"):
            read_dataset(str(path))


class TestTimeSeriesDataset:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeriesDataset(
                prices=np.array([1.0, 2.0]),
                consumptions=np.array([1.0]),
                hours=np.array([0, 1]),
            )
