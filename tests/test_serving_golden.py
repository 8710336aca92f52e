"""Served numbers of small fixed models, compared bit for bit with a file.

tests/data/serving_golden.json holds, as float hex, what predict_one_step,
rollout (free-running, teacher-forced, and past the end of the history)
and evaluate return for the models built below: every kind, two-layer
where the kind has layers, every time encoding, parameters drawn by
init_params from fixed seeds and shifted by seeded noise. The file was
written before one-step queries, rollouts and evaluation were merged into
one serving loop, so it pins that loop to the numbers of the separate
paths it replaced. Each model is also served with its queries in
descending order and with a fresh model per query: a recurrent model
resumes from the state its last replay left, and no answer may depend on
what it was asked before. The values are those of the numpy and BLAS build that
wrote them (numpy 2.x, OpenBLAS 0.3.31 Haswell kernels); a BLAS whose
kernels round differently would move their last bits.

Regenerate it only for a change that is meant to move served numbers:

    PYTHONPATH=src python tests/test_serving_golden.py
"""

import json
import os

import numpy as np
import pytest

from drlearn.eucsim import TimeSeriesDataset
from drlearn.features import Scaler, StateConfig, feature_layout
from drlearn.metrics import evaluate
from drlearn.models import init_params, model_from_params, predict_one_step, rollout

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "serving_golden.json")
LENGTH = 300  # longer than one 256-step block of the recurrent run
HISTORY = 250  # rollouts start here
HORIZON = 30
ENCODINGS = ("scalar", "one_hot", "none")
ARCHITECTURES = (
    ("linear", 0, []),
    ("linear", 2, []),
    ("fnn", 0, [6, 4]),
    ("fnn", 2, [6, 4]),
    ("rnn", 1, [5, 3]),
    ("lstm", 1, [4, 3]),
)
CASES = [
    (f"{kind}_n{order}_{encoding}", kind, order, hidden, encoding)
    for kind, order, hidden in ARCHITECTURES
    for encoding in ENCODINGS
]


def golden_series() -> TimeSeriesDataset:
    rng = np.random.default_rng(2024)
    return TimeSeriesDataset(
        prices=rng.uniform(20.0, 50.0, LENGTH),
        consumptions=rng.uniform(10.0, 90.0, LENGTH),
        hours=(np.arange(LENGTH, dtype=np.int64) + 5) % 24,
    )


def golden_model(seed: int, kind: str, order: int, hidden: list[int], encoding: str):
    cfg = StateConfig(order=order, time_encoding=encoding)
    layout = feature_layout(cfg)
    rng = np.random.default_rng(seed)
    # shifted off init_params' zero biases, so no ReLU layer starts dead
    params = init_params(kind, len(layout), hidden, rng)
    params = [p + 0.5 * rng.normal(size=p.shape) for p in params]
    scaler = Scaler(
        input_mean=rng.uniform(0.0, 40.0, len(layout)),
        input_std=rng.uniform(5.0, 30.0, len(layout)),
        target_mean=50.0,
        target_std=20.0,
    )
    return model_from_params(kind, params, scaler, cfg)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def served_outputs(model_for, series: TimeSeriesDataset, descending: bool = False) -> dict:
    """Every served number of one model, as float hex.

    model_for() gives the model each query goes to: the same one, so that
    later queries resume from what earlier ones replayed, or a fresh one.
    The one-step queries and rollouts go in by ascending hour, one-step
    first, or with descending the other way round.
    """
    order = model_for().state_config.order
    history = TimeSeriesDataset(
        prices=series.prices[:HISTORY],
        consumptions=series.consumptions[:HISTORY],
        hours=series.hours[:HISTORY],
    )
    future = slice(HISTORY, HISTORY + HORIZON)
    hours = sorted({max(order, 1), 2, 25, 256, 257, LENGTH - 1, LENGTH})

    def one_step(t):
        price = float(series.prices[t]) if t < LENGTH else 35.5
        return lambda model: predict_one_step(model, series, price, t).hex()

    queries = [(t, one_step(t)) for t in hours] + [
        ("rollout_free", lambda model: hexes(rollout(model, history, series.prices[future]))),
        (
            "rollout_teacher",
            lambda model: hexes(
                rollout(model, history, series.prices[future], series.consumptions[future])
            ),
        ),
        (
            "rollout_past_end",
            lambda model: hexes(rollout(model, series, np.linspace(22.0, 48.0, 26))),
        ),
    ]
    if descending:
        queries.reverse()
    answers = {key: ask(model_for()) for key, ask in queries}
    report = evaluate(model_for(), series, "test")
    return {
        "one_step": {str(t): answers.pop(t) for t in hours},
        **answers,
        "mape": report.mape_pct.hex(),
        "sdape": report.sdape_pct.hex(),
    }


def all_outputs() -> dict:
    series = golden_series()
    return {
        name: served_outputs(lambda: golden_model(seed, kind, order, hidden, encoding), series)
        for seed, (name, kind, order, hidden, encoding) in enumerate(CASES)
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("seed, case", list(enumerate(CASES)), ids=[c[0] for c in CASES])
def test_served_numbers_match_golden_bitwise(seed, case, golden):
    name, kind, order, hidden, encoding = case
    model = golden_model(seed, kind, order, hidden, encoding)
    assert served_outputs(lambda: model, golden_series()) == golden[name]


@pytest.mark.parametrize("way", ["descending hours", "fresh model per query"])
@pytest.mark.parametrize("seed, case", list(enumerate(CASES)), ids=[c[0] for c in CASES])
def test_served_numbers_do_not_depend_on_earlier_queries(seed, case, way, golden):
    # A recurrent model resumes from the state its last replay left, so one
    # model asked in descending order replays from zero each time, and a
    # fresh model per query always does; both must give the golden bits.
    name, kind, order, hidden, encoding = case
    if way == "descending hours":
        model = golden_model(seed, kind, order, hidden, encoding)
        outputs = served_outputs(lambda: model, golden_series(), descending=True)
    else:
        outputs = served_outputs(lambda: golden_model(seed, kind, order, hidden, encoding), golden_series())
    assert outputs == golden[name]


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(all_outputs(), handle, indent=1, sort_keys=True)
        handle.write("\n")
