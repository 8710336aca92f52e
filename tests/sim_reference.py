"""Reference simulator: the original whole-horizon, per-hour derivation.

It holds every customer's normal draws, new demand and consumption trace for
the whole horizon at once, exactly as first written. The streamed simulator
must reproduce its hourly totals and per-customer traces bit for bit; tests
compare the two.
"""

import numpy as np

from drlearn.eucsim import LoadProfile, Population, TimeSeriesDataset


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
