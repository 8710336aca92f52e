"""Simulator tests: closed-form optimum, backlog recursion, profiles, CSV."""

import math
import tracemalloc

import numpy as np
import pytest

import dataset_csv_reference
import sim_reference
from drlearn.errors import DataError
from drlearn.records import RecordError
from drlearn.eucsim import (
    SIM_BLOCK,
    EucParams,
    LoadProfile,
    Population,
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

    def test_rejects_infinite_peak_and_rho(self):
        # an infinite rho would silently make the customer ignore every price
        with pytest.raises(ValueError, match="^peak_demand: must be a finite number, got inf$"):
            EucParams(peak_demand=math.inf, rho=-1.0, alpha=0.2)
        with pytest.raises(ValueError, match="^rho: must be a finite number, got -inf$"):
            EucParams(peak_demand=1.0, rho=-math.inf, alpha=0.2)


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

    def test_population_of_no_customers_is_refused(self):
        # simulate would return all-zero consumptions for it
        with pytest.raises(RecordError, match=r"^eucs: must not be empty, got \(\)$"):
            Population(eucs=(), seed=0)


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

    def test_infinite_value_reports_file_row(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0.5\ninf\n1.0\n")
        with pytest.raises(DataError, match="infinite value at row 2"):
            load_profile(str(path))

    def test_nan_value_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0.5\nnan\n")
        with pytest.raises(DataError, match="non-positive value at row 2: nan"):
            load_profile(str(path))

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0.5\noops\n")
        with pytest.raises(DataError, match="row 2"):
            load_profile(str(path))

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_profile(str(tmp_path / "absent.csv"))

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_bytes(b"\xff\xfe0.5\n")
        with pytest.raises(DataError, match=f"cannot read profile file {path}"):
            load_profile(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("# only comments\n")
        with pytest.raises(DataError, match="no values"):
            load_profile(str(path))


class TestLoadProfileValues:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_bad_value_naming_first_index(self, bad):
        # one NaN value turned 14 of 24 hourly totals into NaN
        values = np.ones(24)
        values[[10, 12]] = bad
        with pytest.raises(ValueError, match=f"profile value {bad} at index 10 is not finite"):
            LoadProfile(values=values, source="synthetic")

    def test_accepts_zero(self):
        assert len(LoadProfile(values=np.array([0.0, 1.0]), source="synthetic")) == 2


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

    @pytest.mark.parametrize("low, high", [(20.0, math.inf), (-math.inf, 20.0), (math.nan, 20.0)])
    def test_rejects_non_finite_range(self, low, high):
        with pytest.raises(ValueError, match="price range must be finite"):
            sample_prices(10, low, high, 0)


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
        with pytest.raises(ValueError, match="price -1.0 at index 0 is not finite and non-negative"):
            simulate(population, np.full(24, -1.0), profile)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_price_naming_first_index(self, bad):
        population = sample_population(2, 2)
        profile = generate_profile(48, 24, 2)
        prices = sample_prices(48, 20.0, 50.0, 3)
        prices[[5, 9]] = bad
        with pytest.raises(ValueError, match=f"price {bad} at index 5 is not finite and non-negative"):
            simulate(population, prices, profile)

    def test_rejects_empty_horizon(self):
        population = sample_population(2, 2)
        profile = LoadProfile(values=np.empty(0), source="synthetic")
        with pytest.raises(ValueError, match="^horizon must be >= 1, got 0$"):
            simulate(population, np.empty(0), profile)

    @pytest.mark.parametrize("noise_std", [-0.1, math.nan, math.inf])
    def test_rejects_bad_noise_std(self, noise_std):
        population = sample_population(2, 2)
        profile = generate_profile(24, 24, 2)
        prices = sample_prices(24, 20.0, 50.0, 3)
        with pytest.raises(ValueError, match=f"noise_std must be finite and >= 0, got {noise_std}"):
            simulate(population, prices, profile, noise_std=noise_std)

    def test_consumption_positive_at_bench_scale_prices(self):
        population = sample_population(50, 3)
        profile = generate_profile(720, 24, 4)
        prices = sample_prices(720, 20.0, 50.0, 5)
        dataset = simulate(population, prices, profile)
        assert np.all(dataset.consumptions > 0.0)


# a one-hour horizon, one block less or more, and a one-hour last block, by
# role, so that the test ids stay when SIM_BLOCK changes
HORIZONS = {
    "one-hour": 1,
    "block-1": SIM_BLOCK - 1,
    "block": SIM_BLOCK,
    "block+1": SIM_BLOCK + 1,
    "two-blocks+1": 2 * SIM_BLOCK + 1,
}


class TestStreamedSimulator:
    """The block-streamed simulator against the whole-horizon reference."""

    @pytest.mark.parametrize("resample", [False, True], ids=["fixed-alpha", "resampled-alpha"])
    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    # numpy sums 8 or more contiguous values pairwise, so 20 customers catch a
    # total that adds them in another order; 130 customers make three
    # transpose bands, the last one partial
    @pytest.mark.parametrize("count", [1, 7, 20, 130])
    @pytest.mark.parametrize("horizon", HORIZONS.values(), ids=HORIZONS.keys())
    def test_bit_equal_to_reference(self, horizon, count, noise_std, resample):
        # any profile length works, not only whole days
        rng = np.random.default_rng(horizon)
        values = rng.uniform(0.2, 1.0, horizon)
        profile = LoadProfile(values=values / values.max(), source="synthetic")
        population = sample_population(count, 21)
        prices = sample_prices(horizon, 20.0, 50.0, 5)
        kwargs = dict(noise_std=noise_std, rng_seed=9, intervals_per_day=24,
                      resample_alpha_hourly=resample, return_per_euc=True)
        dataset, trace = simulate(population, prices, profile, **kwargs)
        expected, expected_trace = sim_reference.simulate(population, prices, profile, **kwargs)
        assert np.array_equal(trace, expected_trace)
        assert np.array_equal(dataset.consumptions, expected.consumptions)
        assert np.array_equal(dataset.prices, expected.prices)
        assert np.array_equal(dataset.hours, expected.hours)
        alone = simulate(population, prices, profile, **{**kwargs, "return_per_euc": False})
        assert np.array_equal(alone.consumptions, expected.consumptions)


def traced_peak_bytes(count: int, horizon: int, **kwargs) -> int:
    population = sample_population(count, 7)
    profile = generate_profile(horizon, 24, 41)
    prices = sample_prices(horizon, 20.0, 50.0, 13)
    tracemalloc.start()
    try:
        simulate(population, prices, profile, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_block_sized():
    # a (customers x horizon) float64 array is 14 MB here; the whole-horizon
    # reference peaked at about three of them
    count, horizon = 200, 8760
    peak = traced_peak_bytes(count, horizon)
    assert peak < count * horizon * 8
    # doubling the horizon may add only O(horizon) output, a few floats per hour
    grown = traced_peak_bytes(count, 2 * horizon) - peak
    assert grown < 8 * horizon * 8
    # three customers x SIM_BLOCK work arrays, plus the streams and the
    # output; a fourth such array would break it, also for the hourly
    # backlog rates, which take a work array
    count = 500
    assert traced_peak_bytes(count, SIM_BLOCK + 16) < 3.6 * count * SIM_BLOCK * 8
    resampled = traced_peak_bytes(count, SIM_BLOCK + 16, resample_alpha_hourly=True)
    assert resampled < 3.6 * count * SIM_BLOCK * 8


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

    @pytest.mark.parametrize("column", ["prices", "consumptions"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_write_refuses_non_finite_naming_index(self, tmp_path, column, bad):
        values = {"prices": np.full(4, 30.0), "consumptions": np.full(4, 1.5)}
        values[column][[2, 3]] = bad
        dataset = TimeSeriesDataset(hours=np.arange(4), **values)
        path = tmp_path / "data.csv"
        with pytest.raises(DataError, match="dataset row 2: non-finite price or consumption"):
            write_dataset(dataset, str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "column, bad, message",
        [
            ("consumptions", 0.0, "consumption 0.0 is not positive"),
            ("consumptions", -2.5, "consumption -2.5 is not positive"),
            ("prices", -30.0, "negative price -30.0"),
        ],
        ids=["zero-consumption", "negative-consumption", "negative-price"],
    )
    def test_write_refuses_what_read_refuses_naming_index(self, tmp_path, column, bad, message):
        values = {"prices": np.full(4, 30.0), "consumptions": np.full(4, 1.5)}
        values[column][[2, 3]] = bad
        dataset = TimeSeriesDataset(hours=np.arange(4), **values)
        path = tmp_path / "data.csv"
        with pytest.raises(DataError, match=f"dataset row 2: {message}"):
            write_dataset(dataset, str(path))
        assert not path.exists()

    def test_write_accepts_zero_price(self, tmp_path):
        dataset = TimeSeriesDataset(prices=np.zeros(2), consumptions=np.ones(2), hours=np.arange(2))
        path = tmp_path / "data.csv"
        write_dataset(dataset, str(path))
        assert np.array_equal(read_dataset(str(path)).prices, dataset.prices)

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

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xff\xfet,hour,price_usd_per_mwh,consumption_mwh\n")
        with pytest.raises(DataError, match=f"cannot read dataset file {path}"):
            read_dataset(str(path))

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


class TestDatasetCsvReference:
    """write_dataset's bytes against the row-at-a-time csv.writer reference."""

    @staticmethod
    def assert_same_bytes(tmp_path, dataset):
        path = tmp_path / "data.csv"
        write_dataset(dataset, str(path))
        assert path.read_bytes() == dataset_csv_reference.dataset_csv(dataset).encode()

    def test_simulated_series_across_chunks(self, tmp_path):
        horizon = 9000  # two full chunks of 4096 rows and a partial third
        population = sample_population(3, 4)
        profile = LoadProfile(values=np.linspace(0.4, 1.0, horizon), source="synthetic")
        dataset = simulate(population, sample_prices(horizon, 20.0, 50.0, 8), profile)
        self.assert_same_bytes(tmp_path, dataset)

    def test_edge_values(self, tmp_path):
        values = np.array([1e-300, 1.2345678901234567e16, 40.0, 0.1])
        dataset = TimeSeriesDataset(prices=values, consumptions=values[::-1].copy(), hours=np.arange(4))
        self.assert_same_bytes(tmp_path, dataset)
        assert (tmp_path / "data.csv").read_text().splitlines()[1] == "0,0,1e-300,0.1"

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, float], ids=["int64", "int32", "float"])
    def test_hours_of_any_dtype(self, tmp_path, dtype):
        hours = (np.arange(30) % 24).astype(dtype)
        dataset = TimeSeriesDataset(prices=np.full(30, 30.0), consumptions=np.full(30, 1.5), hours=hours)
        self.assert_same_bytes(tmp_path, dataset)
        assert (tmp_path / "data.csv").read_text().splitlines()[4] == "3,3,30.0,1.5"

    def test_one_row(self, tmp_path):
        dataset = TimeSeriesDataset(prices=np.array([30.0]), consumptions=np.array([1.5]), hours=np.array([0]))
        self.assert_same_bytes(tmp_path, dataset)


class TestTimeSeriesDataset:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeriesDataset(
                prices=np.array([1.0, 2.0]),
                consumptions=np.array([1.0]),
                hours=np.array([0, 1]),
            )

    @pytest.mark.parametrize(
        "hours, message",
        [
            ([0, -1, 2, -3], "hour -1 at index 1"),
            ([3, 0, 4], "hour 4 at index 2"),
            ([0.0, 1.0, np.nan], "hour nan at index 2"),
        ],
        ids=["negative", "past-day", "nan"],
    )
    def test_rejects_hour_outside_day_naming_index(self, hours, message):
        # a negative hour would otherwise encode as an hour counted from the end
        with pytest.raises(ValueError, match=rf"{message} outside \[0, 4\)"):
            TimeSeriesDataset(
                prices=np.ones(len(hours)),
                consumptions=np.ones(len(hours)),
                hours=np.array(hours),
                intervals_per_day=4,
            )

    def test_rejects_fractional_hour_naming_index(self):
        # feature rows would truncate it: hour 2.7 would be encoded as hour 2
        with pytest.raises(ValueError, match=r"hour 2.7 at index 1 is not a whole number"):
            TimeSeriesDataset(
                prices=np.ones(3), consumptions=np.ones(3), hours=np.array([1.0, 2.7, 3.5])
            )

    def test_accepts_whole_numbered_float_hour(self):
        # 3.0 names hour 3 exactly, so a float hour column is accepted as is
        ts = TimeSeriesDataset(
            prices=np.ones(2), consumptions=np.ones(2), hours=np.array([3.0, 0.0]), intervals_per_day=4
        )
        assert len(ts) == 2

    def test_accepts_first_and_last_hour_of_day(self):
        ts = TimeSeriesDataset(
            prices=np.ones(2), consumptions=np.ones(2), hours=np.array([0, 3]), intervals_per_day=4
        )
        assert len(ts) == 2
