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
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ioutil import atomic_write_text
from .records import Bounded, RecordError, bounded, require, require_integer, require_number

DATASET_HEADER = ["t", "hour", "price_usd_per_mwh", "consumption_mwh"]

# Hours simulated per block: simulate holds customers x SIM_BLOCK values at a
# time instead of customers x horizon. The results do not depend on it.
SIM_BLOCK = 512


@dataclass(frozen=True)
class EucParams(Bounded):
    """Immutable behavioral parameters of one customer.

    peak_demand is in MWh per hourly interval. rho is the curvature of the
    quadratic benefit rho * (demand - consumption)^2 and must be strictly
    negative so the objective is concave. alpha is the fraction of unmet
    demand carried into the next interval. min_fraction is the floor on
    consumption as a fraction of current demand.
    """

    peak_demand: float = bounded(above=0)
    rho: float = bounded(below=0)
    alpha: float = bounded(minimum=0, maximum=1)
    min_fraction: float = bounded(0.5, minimum=0, maximum=1)


@dataclass(frozen=True)
class Population(Bounded):
    """Ordered collection of customers, at least one."""

    eucs: tuple[EucParams, ...]

    def __len__(self) -> int:
        return len(self.eucs)


@dataclass(frozen=True)
class LoadProfile(Bounded):
    """Normalized demand multipliers, one per interval, max value 1.0."""

    values: np.ndarray = bounded(minimum=0)


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Aligned hourly sequences of price, aggregate consumption, and hour-of-day."""

    prices: np.ndarray
    consumptions: np.ndarray
    hours: np.ndarray
    intervals_per_day: int = 24

    def __post_init__(self) -> None:
        require_integer("intervals_per_day", self.intervals_per_day, minimum=1)
        hours = np.asarray(self.hours)
        require("hours", hours, within=(0, self.intervals_per_day))
        for name in ("prices", "consumptions"):  # the shape only: check_series owns the values
            if np.ndim(getattr(self, name)) != 1:
                raise RecordError(name, f"must be 1-D, got shape {np.shape(getattr(self, name))}")
        if not (len(self.prices) == len(self.consumptions) == len(hours)):
            raise ValueError(
                "prices, consumptions, and hours must have equal length, got "
                f"{len(self.prices)}/{len(self.consumptions)}/{len(hours)}"
            )
        # a whole-numbered float such as 3.0 is an hour; 2.7 would be encoded as 2
        fractional = [] if hours.dtype.kind in "biu" else np.flatnonzero(hours != np.floor(hours))
        if len(fractional):
            i = fractional[0]
            raise ValueError(f"hour {hours[i]} at index {i} is not a whole number")

    def __len__(self) -> int:
        return len(self.prices)


def check_series(ts: TimeSeriesDataset, where=None) -> None:
    """Raise DataError naming the first index of ts that breaks a series rule:
    price and consumption finite, price >= 0 and consumption > 0 (percentage
    errors divide by it). where(i) names index i first, as a file line or row.
    Every boundary that learns from or scores a series checks it here."""
    prices = np.asarray(ts.prices, dtype=float)
    consumptions = np.asarray(ts.consumptions, dtype=float)
    finite = np.isfinite(prices) & np.isfinite(consumptions)
    bad = np.flatnonzero(~(finite & (prices >= 0) & (consumptions > 0)))
    if len(bad):
        i = int(bad[0])
        price, consumption = float(prices[i]), float(consumptions[i])
        if not finite[i]:
            rule = (
                f"non-finite price or consumption: price {price} and consumption"
                f" {consumption} at index {i} must both be finite"
            )
        elif price < 0:
            rule = f"negative price {price} at index {i}"
        else:
            rule = f"consumption {consumption} is not positive at index {i}"
        raise DataError(rule if where is None else f"{where(i)}: {rule}")


def optimal_consumption(demand: float, price: float, params: EucParams) -> float:
    """Closed-form consumption choice of one customer for one hour.

    Maximizes rho * (demand - c)^2 - price * c over c >= min_fraction * demand.
    The unconstrained maximizer is demand + price / (2 * rho); projecting it
    onto the feasible half-line gives the optimum because the objective is
    concave.
    """
    require_number("demand", demand, minimum=0)
    require_number("price", price, minimum=0)
    return max(params.min_fraction * demand, demand + price / (2.0 * params.rho))


def step_demand(demand: float, consumption: float, alpha: float, new_demand: float) -> float:
    """Carry unmet demand into the next interval and add newly arrived demand."""
    require_number("demand", demand, minimum=0)
    require_number("consumption", consumption, minimum=0)
    require_number("new_demand", new_demand, minimum=0)
    require_number("alpha", alpha, minimum=0, maximum=1)
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
    require_integer("count", count, minimum=1)
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
    return Population(eucs=eucs)


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
    require_integer("horizon", horizon)
    require_integer("intervals_per_day", intervals_per_day, minimum=1)
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
    return LoadProfile(values=values)


def load_profile(path: str) -> LoadProfile:
    """Read a profile file: one positive number per line, '#' comments allowed."""
    values: list[float] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if value == math.inf:  # would normalize every other row to 0
            raise DataError(f"infinite value at row {lineno}")
        values.append(value)
    if not values:
        raise DataError(f"profile file {path} contains no values")
    arr = np.asarray(values, dtype=float)
    return LoadProfile(values=arr / arr.max())


def sample_prices(horizon: int, low: float, high: float, rng_seed: int) -> np.ndarray:
    """I.i.d. uniform hourly prices in [low, high], deterministic in the seed."""
    require_integer("horizon", horizon, minimum=1)
    require_number("low", low, minimum=0)
    require_number("high", high)
    if not low < high:
        raise ValueError(f"price range requires low < high, got [{low}, {high}]")
    rng = np.random.default_rng(rng_seed)
    return rng.uniform(low, high, horizon)


def _transposed(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a.T into out, 64 rows of a at a time. A band stays in cache and
    in the TLB while it is written; a.T.copy() reads from every row of a
    for each row it writes. It serves simulate's customer-major to time-major
    copy, where numpy's own copy is about twice as slow."""
    for r in range(0, a.shape[0], 64):
        out[:, r : r + 64] = a[r : r + 64].T
    return out


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

    The horizon is walked in blocks of SIM_BLOCK hours, so memory grows
    with customers x SIM_BLOCK + horizon; the results do not depend on the
    block length.

    Returns the TimeSeriesDataset, or (dataset, per_euc_consumptions) with a
    (K, horizon) trace matrix when return_per_euc is set.
    """
    prices = np.asarray(prices, dtype=float)
    require("prices", prices, minimum=0)
    require_number("noise_std", noise_std, minimum=0)
    require_integer("intervals_per_day", intervals_per_day, minimum=1)
    horizon = len(prices)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if len(profile.values) != horizon:
        raise ValueError(
            f"prices ({horizon}) and profile ({len(profile.values)}) must have equal length"
        )

    k = len(population)
    peaks = np.array([e.peak_demand for e in population.eucs])
    two_rhos = 2.0 * np.array([e.rho for e in population.eucs])
    base_alphas = np.array([e.alpha for e in population.eucs])
    min_fracs = np.array([e.min_fraction for e in population.eucs])

    seeds = np.random.SeedSequence(rng_seed).spawn(k)
    streams = [np.random.default_rng(s) for s in seeds]
    alpha_streams = None
    if resample_alpha_hourly:
        # A stream draws its hourly uniforms after all of its normals, so a
        # second generator on the same seed is run past the normals first.
        alpha_streams = [np.random.default_rng(s) for s in seeds]
        for stream in alpha_streams:
            stream.normal(1.0, noise_std, horizon)

    totals = np.empty(horizon)
    trace = np.empty((k, horizon)) if return_per_euc else None
    demand, consumption = np.zeros(k), np.zeros(k)  # carried across blocks; none before hour 0
    scratch, running = np.empty(k), np.empty(k)
    # Every block reuses three work arrays; its (k, n) and (n, k) arrays are
    # C-ordered views of their first k * n values. Not one (3, size) array:
    # numpy asks for huge pages at 4 MiB and up, which added 12 MB of peak RSS.
    work = [np.empty(k * min(SIM_BLOCK, horizon)) for _ in range(3)]
    for t0 in range(0, horizon, SIM_BLOCK):
        n = min(SIM_BLOCK, horizon - t0)
        w0, w1, w2 = (w[: k * n] for w in work)
        gauss = w0.reshape(k, n)
        for i, stream in enumerate(streams):
            stream.standard_normal(n, out=gauss[i])
        # normal(1.0, noise_std) draws 1.0 + noise_std * z: these are its bits
        gauss *= noise_std
        gauss += 1.0
        # peaks * profile * max(gauss, 0), in that operand order
        np.maximum(gauss, 0.0, out=gauss)
        new_demand = np.multiply(peaks[:, None], profile.values[None, t0 : t0 + n], out=w1.reshape(k, n))
        new_demand *= gauss
        new_demand = _transposed(new_demand, w0.reshape(n, k))  # time-major, where gauss was
        shift = np.divide(prices[t0 : t0 + n, None], two_rhos, out=w2.reshape(n, k))

        rates = None  # rates[:, j]: the backlog rates carried into hour t0 + j
        if alpha_streams is not None:
            rates = w1.reshape(k, n)  # free once new_demand is time-major
            first = 1 if t0 == 0 else 0  # hour 0 draws no rate: its backlog is zero
            rates[:, :first] = 0.0
            for i, stream in enumerate(alpha_streams):
                stream.random(n - first, out=rates[i, first:])  # the bits of uniform(0, 1)

        # demand = alpha * (demand - consumption) + new_demand[j] and consumption =
        # max(min_fracs * demand, demand + shift[j]), in place, operands in order;
        # the total adds the customers one by one, as the whole trace's column sum
        for j in range(n):
            alpha = base_alphas if rates is None else rates[:, j]
            np.subtract(demand, consumption, out=scratch)
            np.multiply(alpha, scratch, out=scratch)
            np.add(scratch, new_demand[j], out=demand)
            np.multiply(min_fracs, demand, out=scratch)
            np.add(demand, shift[j], out=consumption)
            np.maximum(scratch, consumption, out=consumption)
            totals[t0 + j] = np.add.accumulate(consumption, out=running)[-1]
            if trace is not None:
                trace[:, t0 + j] = consumption
    if horizon == 1:  # the trace is then one contiguous row, which numpy sums pairwise
        totals[0] = consumption.sum()

    dataset = TimeSeriesDataset(
        prices=prices.copy(),
        consumptions=totals,
        hours=np.arange(horizon, dtype=np.int64) % intervals_per_day,
        intervals_per_day=intervals_per_day,
    )
    if return_per_euc:
        return dataset, trace
    return dataset


def write_dataset(dataset: TimeSeriesDataset, path: str) -> None:
    """Write the dataset CSV: t,hour,price_usd_per_mwh,consumption_mwh.

    Prices and consumptions are written with full round-trip precision, and
    the file appears atomically. A series that breaks a check_series rule is
    refused, naming the row, before anything is written.
    """
    check_series(dataset, "dataset row {}".format)
    prices = np.asarray(dataset.prices, dtype=float)
    consumptions = np.asarray(dataset.consumptions, dtype=float)
    line = "{},{},{!r},{!r}\n".format
    columns = (np.asarray(dataset.hours).astype(np.int64), prices, consumptions)  # hour 3.0 is 3
    # 4096 rows at a time, as a string per row of the whole file would take several
    # times its size; the chunks are freed once joined, before the text is written
    chunks = (
        "".join(map(line, range(t, t + 4096), *(c[t : t + 4096].tolist() for c in columns)))
        for t in range(0, len(dataset), 4096)
    )
    atomic_write_text(path, "".join([",".join(DATASET_HEADER) + "\n", *chunks]))


def read_dataset(path: str, intervals_per_day: int = 24) -> TimeSeriesDataset:
    """Read a dataset CSV written by write_dataset. Its data rows must be plain
    ASCII without '_' (int and float also read 1_000 and other scripts' digits),
    and check_series checks the series, naming the line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            body = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    if next(csv.reader([header]), None) != DATASET_HEADER:
        raise DataError(
            f"dataset file {path} must start with header {','.join(DATASET_HEADER)}"
        )
    rows = list(csv.reader(io.StringIO(body, newline="")))
    lax = not body.isascii() or "_" in body  # the whole text at once; a row only to name it
    prices, consumptions, hours = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise DataError(f"dataset row at line {lineno} has {len(row)} fields, expected 4")
        if lax and any("_" in cell or not cell.isascii() for cell in row):
            raise DataError(f"dataset row at line {lineno} is not plain ASCII without '_': {row}")
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
        hours.append(hour)
        prices.append(price)
        consumptions.append(consumption)
    if not prices:
        raise DataError(f"dataset file {path} contains no rows")
    dataset = TimeSeriesDataset(
        prices=np.asarray(prices),
        consumptions=np.asarray(consumptions),
        hours=np.asarray(hours, dtype=np.int64),
        intervals_per_day=intervals_per_day,
    )
    check_series(dataset, lambda i: f"dataset row at line {i + 2}")
    return dataset
