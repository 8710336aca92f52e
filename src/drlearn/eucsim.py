"""Population simulator for price-responsive customers.

Each end-use customer (EUC) carries an energy demand that it serves only
partially when the posted price is high; the unserved part is backlogged
into the next hour at a customer-specific rate. Hour by hour every customer
solves a small concave maximization in closed form, and the aggregate
consumption across the population, together with the posted prices, is the
dataset that the learning side of the toolkit consumes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .ioutil import atomic_write_text

DATASET_HEADER = ["t", "hour", "price_usd_per_mwh", "consumption_mwh"]


@dataclass(frozen=True)
class EucParams:
    """Immutable behavioral parameters of one customer.

    peak_demand is in MWh per hourly interval. rho is the curvature of the
    quadratic benefit rho * (demand - consumption)^2 and must be strictly
    negative so the objective is concave. alpha is the fraction of unmet
    demand carried into the next interval. min_fraction is the floor on
    consumption as a fraction of current demand.
    """

    peak_demand: float
    rho: float
    alpha: float
    min_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.peak_demand > 0:
            raise ValueError(f"peak_demand must be > 0, got {self.peak_demand}")
        if not self.rho < 0:
            raise ValueError(f"rho must be < 0 for a concave benefit, got {self.rho}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError(f"min_fraction must be in [0, 1], got {self.min_fraction}")


@dataclass(frozen=True)
class Population:
    """Ordered collection of customers plus the seed that produced it."""

    eucs: tuple[EucParams, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.eucs)


@dataclass(frozen=True)
class LoadProfile:
    """Normalized demand multipliers, one per interval, max value 1.0."""

    values: np.ndarray
    source: str  # "synthetic" or "file"

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Aligned hourly sequences of price, aggregate consumption, and hour-of-day."""

    prices: np.ndarray
    consumptions: np.ndarray
    hours: np.ndarray
    intervals_per_day: int = 24

    def __post_init__(self) -> None:
        if not (len(self.prices) == len(self.consumptions) == len(self.hours)):
            raise ValueError(
                "prices, consumptions, and hours must have equal length, got "
                f"{len(self.prices)}/{len(self.consumptions)}/{len(self.hours)}"
            )
        hours = np.asarray(self.hours)
        outside = np.flatnonzero(~((hours >= 0) & (hours < self.intervals_per_day)))  # NaN too
        if len(outside):
            i = outside[0]
            raise ValueError(
                f"hour {hours[i]} at index {i} outside [0, {self.intervals_per_day})"
            )
        # a whole-numbered float such as 3.0 is an hour; 2.7 would be encoded as 2
        fractional = [] if hours.dtype.kind in "biu" else np.flatnonzero(hours != np.floor(hours))
        if len(fractional):
            i = fractional[0]
            raise ValueError(f"hour {hours[i]} at index {i} is not a whole number")

    def __len__(self) -> int:
        return len(self.prices)


def optimal_consumption(demand: float, price: float, params: EucParams) -> float:
    """Closed-form consumption choice of one customer for one hour.

    Maximizes rho * (demand - c)^2 - price * c over c >= min_fraction * demand.
    The unconstrained maximizer is demand + price / (2 * rho); projecting it
    onto the feasible half-line gives the optimum because the objective is
    concave.
    """
    if demand < 0:
        raise ValueError(f"demand must be >= 0, got {demand}")
    if price < 0:
        raise ValueError(f"price must be >= 0, got {price}")
    return max(params.min_fraction * demand, demand + price / (2.0 * params.rho))


def step_demand(demand: float, consumption: float, alpha: float, new_demand: float) -> float:
    """Carry unmet demand into the next interval and add newly arrived demand."""
    if demand < 0 or consumption < 0 or new_demand < 0:
        raise ValueError("demand, consumption, and new_demand must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if consumption > demand:
        raise ValueError(
            f"consumption {consumption} exceeds demand {demand}; unmet demand cannot be negative"
        )
    return alpha * (demand - consumption) + new_demand


def sample_population(
    count: int,
    rng_seed: int,
    peak_range: tuple[float, float] = (0.1, 2.0),
    rho_scale: float = -100.0,
    min_fraction: float = 0.5,
) -> Population:
    """Draw a population of customers.

    Peak demand is uniform over peak_range (MWh per interval), the backlog
    rate is uniform over [0, 1] and held constant per customer, and the
    benefit curvature is rho_scale divided by the customer's peak demand.
    Deterministic in rng_seed.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(rng_seed)
    peaks = rng.uniform(peak_range[0], peak_range[1], count)
    alphas = rng.uniform(0.0, 1.0, count)
    eucs = tuple(
        EucParams(
            peak_demand=float(peaks[i]),
            rho=rho_scale / float(peaks[i]),
            alpha=float(alphas[i]),
            min_fraction=min_fraction,
        )
        for i in range(count)
    )
    return Population(eucs=eucs, seed=rng_seed)


def _daily_shape(hour_frac: np.ndarray) -> np.ndarray:
    # Double-peak day: morning bump around 08:00, dominant evening bump
    # around 18:30, flat base overnight. hour_frac in [0, 1).
    h = hour_frac * 24.0
    morning = 0.18 * np.exp(-0.5 * ((h - 8.0) / 2.2) ** 2)
    evening = 0.30 * np.exp(-0.5 * ((h - 18.5) / 2.8) ** 2)
    return 0.55 + morning + evening


def _seasonal_envelope(day_index: np.ndarray) -> np.ndarray:
    # Two mild peaks per year (winter and summer) with troughs in spring and
    # fall. Most of the day-to-day level variation comes from the smoothed
    # wander applied on top, which is stationary across the year.
    return 0.85 + 0.05 * np.cos(4.0 * math.pi * (day_index - 15.0) / 365.0)


def generate_profile(horizon: int, intervals_per_day: int, rng_seed: int) -> LoadProfile:
    """Synthetic normalized load profile.

    The profile is the product of a per-day envelope (mild seasonal cosine
    times a smoothed day-scale wander, the way weather moves load over
    multi-day stretches) and a fixed double-peak daily curve, renormalized
    so the maximum is 1. Because the perturbation is per-day, the within-day
    shape is identical every day up to the envelope ratio and the daily peak
    always lands in the evening.
    """
    if horizon <= 0 or horizon % intervals_per_day != 0:
        raise ValueError(
            f"horizon ({horizon}) must be a positive multiple of intervals_per_day ({intervals_per_day})"
        )
    days = horizon // intervals_per_day
    rng = np.random.default_rng(rng_seed)

    envelope = _seasonal_envelope(np.arange(days, dtype=float))
    white = rng.standard_normal(days)
    kernel = np.exp(-0.5 * (np.arange(-10, 11) / 3.0) ** 2)
    kernel /= kernel.sum()
    # Centered slice of the full convolution; np.convolve(mode="same") would
    # return the kernel length instead when there are fewer days than taps.
    full = np.convolve(white, kernel, mode="full")
    offset = (len(kernel) - 1) // 2
    smooth = full[offset : offset + days]
    rms = float(np.sqrt(np.mean(smooth**2)))
    if rms > 1e-12:
        envelope = envelope * np.clip(1.0 + 0.15 * smooth / rms, 0.75, 1.25)

    daily = _daily_shape(np.arange(intervals_per_day, dtype=float) / intervals_per_day)
    values = (envelope[:, None] * daily[None, :]).reshape(-1)
    values = values / values.max()
    return LoadProfile(values=values, source="synthetic")


def load_profile(path: str) -> LoadProfile:
    """Read a profile file: one positive number per line, '#' comments allowed."""
    values: list[float] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read profile file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise DataError(f"non-numeric row at row {lineno}: {line!r}") from exc
        if not value > 0:
            raise DataError(f"non-positive value at row {lineno}: {value}")
        values.append(value)
    if not values:
        raise DataError(f"profile file {path} contains no values")
    arr = np.asarray(values, dtype=float)
    return LoadProfile(values=arr / arr.max(), source="file")


def sample_prices(horizon: int, low: float, high: float, rng_seed: int) -> np.ndarray:
    """I.i.d. uniform hourly prices in [low, high], deterministic in the seed."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not low < high:
        raise ValueError(f"price range requires low < high, got [{low}, {high}]")
    if low < 0:
        raise ValueError(f"prices must be non-negative, got low={low}")
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(low, high, horizon)


def simulate(
    population: Population,
    prices: np.ndarray,
    profile: LoadProfile,
    noise_std: float = 0.1,
    rng_seed: int = 0,
    intervals_per_day: int = 24,
    resample_alpha_hourly: bool = False,
    return_per_euc: bool = False,
):
    """Run the hour-by-hour population simulation.

    For each hour, every customer receives new demand
    peak * profile[t] * max(0, gaussian(1, noise_std)), adds it to the
    backlog carried from the previous hour, and consumes the closed-form
    optimum at the posted price. The dataset records the posted price and
    the aggregate consumption.

    Per-customer random substreams are derived from (rng_seed, customer
    index), so results do not depend on evaluation order. With
    resample_alpha_hourly the backlog rate is redrawn from U[0, 1] every
    hour instead of staying fixed per customer.

    Returns the TimeSeriesDataset, or (dataset, per_euc_consumptions) with a
    (K, horizon) trace matrix when return_per_euc is set.
    """
    horizon = len(prices)
    if len(profile.values) != horizon:
        raise ValueError(
            f"prices ({horizon}) and profile ({len(profile.values)}) must have equal length"
        )
    prices = np.asarray(prices, dtype=float)
    if np.any(prices < 0):
        raise ValueError("negative prices are not supported")

    k = len(population)
    peaks = np.array([e.peak_demand for e in population.eucs])
    rhos = np.array([e.rho for e in population.eucs])
    base_alphas = np.array([e.alpha for e in population.eucs])
    min_fracs = np.array([e.min_fraction for e in population.eucs])

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(rng_seed).spawn(k)]
    gauss = np.empty((k, horizon))
    alphas_t = None
    for i, stream in enumerate(streams):
        gauss[i] = stream.normal(1.0, noise_std, horizon)
    if resample_alpha_hourly:
        alphas_t = np.empty((k, horizon))
        for i, stream in enumerate(streams):
            alphas_t[i] = stream.uniform(0.0, 1.0, horizon)

    new_demand = peaks[:, None] * profile.values[None, :] * np.maximum(gauss, 0.0)

    consumption_trace = np.empty((k, horizon))
    demand = np.zeros(k)
    consumption = np.zeros(k)
    for t in range(horizon):
        if t == 0:
            demand = new_demand[:, 0]
        else:
            alpha = alphas_t[:, t - 1] if resample_alpha_hourly else base_alphas
            demand = alpha * (demand - consumption) + new_demand[:, t]
        consumption = np.maximum(min_fracs * demand, demand + prices[t] / (2.0 * rhos))
        consumption_trace[:, t] = consumption

    dataset = TimeSeriesDataset(
        prices=prices.copy(),
        consumptions=consumption_trace.sum(axis=0),
        hours=np.arange(horizon, dtype=np.int64) % intervals_per_day,
        intervals_per_day=intervals_per_day,
    )
    if return_per_euc:
        return dataset, consumption_trace
    return dataset


def write_dataset(dataset: TimeSeriesDataset, path: str) -> None:
    """Write the dataset CSV: t,hour,price_usd_per_mwh,consumption_mwh.

    Prices and consumptions are written with full round-trip precision, and
    the file appears atomically.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    for t in range(len(dataset)):
        writer.writerow(
            [t, int(dataset.hours[t]), repr(float(dataset.prices[t])), repr(float(dataset.consumptions[t]))]
        )
    atomic_write_text(path, buffer.getvalue())


def read_dataset(path: str, intervals_per_day: int = 24) -> TimeSeriesDataset:
    """Read a dataset CSV written by write_dataset."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    if not rows or rows[0] != DATASET_HEADER:
        raise DataError(
            f"dataset file {path} must start with header {','.join(DATASET_HEADER)}"
        )
    prices, consumptions, hours = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise DataError(f"dataset row at line {lineno} has {len(row)} fields, expected 4")
        try:
            t, hour, price, consumption = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        except ValueError as exc:
            raise DataError(f"non-numeric dataset row at line {lineno}: {row}") from exc
        if t != lineno - 2:
            raise DataError(f"dataset row at line {lineno}: t is {t}, expected {lineno - 2}")
        if not 0 <= hour < intervals_per_day:
            raise DataError(
                f"dataset row at line {lineno}: hour {hour} outside [0, {intervals_per_day})"
            )
        if not (math.isfinite(price) and math.isfinite(consumption)):
            raise DataError(f"dataset row at line {lineno}: non-finite price or consumption")
        if price < 0:
            raise DataError(f"dataset row at line {lineno}: negative price {price}")
        if consumption <= 0:  # percentage errors divide by it
            raise DataError(
                f"dataset row at line {lineno}: consumption {consumption} is not positive"
            )
        hours.append(hour)
        prices.append(price)
        consumptions.append(consumption)
    if not prices:
        raise DataError(f"dataset file {path} contains no rows")
    return TimeSeriesDataset(
        prices=np.asarray(prices),
        consumptions=np.asarray(consumptions),
        hours=np.asarray(hours, dtype=np.int64),
        intervals_per_day=intervals_per_day,
    )
