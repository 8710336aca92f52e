"""Acceptance gate: one test per release criterion.

Criteria 1-8 score the default full-scale benchmark, which runs once per
session (roughly 90 seconds with four workers) and must finish within the
30-minute budget; they are marked slow, so -m "not slow" skips that run.
Criteria 9-14 are fast property checks: optimizer oracle agreement, gradient
checks, byte-level determinism, metric identities, feature-construction
laws, and serialization round-trips. Each test appends a pass/fail summary
line that conftest.py echoes after the run.
"""

import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from drlearn.cli import main
from drlearn.config import RunConfig
from drlearn.eucsim import EucParams, TimeSeriesDataset, optimal_consumption
from drlearn.features import Scaler, StateConfig, build_direct_dataset, identity_scaler
from drlearn.metrics import evaluate, mape, sdape
from drlearn.models import (
    FnnModel,
    LinearModel,
    LstmModel,
    RnnModel,
    gradient_check,
    init_params,
    load_model,
    save_model,
)
from drlearn.pipeline import run_benchmark

TINY_CONFIG = """\
simulation:
  euc_count: 8
  horizon: 480
training:
  steps: 30
  window_length: 24
  fnn_hidden: [8]
  rnn_hidden: [6]
  lstm_hidden: [6]
benchmark:
  train_len: 360
  orders: [0, 1]
"""


def record(num: int, passed: bool, detail: str) -> None:
    """Log one summary line for the criterion, then assert it."""
    verdict = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:02d} {verdict}  {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def benchmark_mape(tmp_path_factory):
    """Test-split and train-split MAPE per model from one full benchmark run."""
    out_dir = tmp_path_factory.mktemp("acceptance_bench")
    start = time.perf_counter()
    result = run_benchmark(RunConfig(), str(out_dir), workers=4)
    minutes = (time.perf_counter() - start) / 60.0
    assert minutes <= 30.0, f"benchmark wall time {minutes:.1f} min exceeds 30"
    table = {}
    for entry in result.trained:
        table[(entry.name, "train")] = entry.train_report.mape_pct
        table[(entry.name, "test")] = entry.test_report.mape_pct
    return table


@pytest.mark.slow  # the session fixture runs the default-config benchmark
class TestBenchmarkCriteria:
    def test_c01_memoryless_linear_error_floor(self, benchmark_mape):
        value = benchmark_mape[("linear n=0", "test")]
        record(1, value >= 10.0, f"linear n=0 test MAPE {value:.2f}% >= 10%")

    def test_c02_first_lag_halves_linear_error(self, benchmark_mape):
        ratio = benchmark_mape[("linear n=0", "test")] / benchmark_mape[("linear n=1", "test")]
        record(2, ratio >= 2.0, f"linear n=0 over n=1 test MAPE ratio {ratio:.2f} >= 2")

    def test_c03_linear_order3_error_bound(self, benchmark_mape):
        value = benchmark_mape[("linear n=3", "test")]
        record(3, value <= 7.0, f"linear n=3 test MAPE {value:.2f}% <= 7%")

    def test_c04_linear_error_plateaus_by_order3(self, benchmark_mape):
        gap = abs(benchmark_mape[("linear n=5", "test")] - benchmark_mape[("linear n=3", "test")])
        record(4, gap <= 1.0, f"linear |n=5 - n=3| test MAPE gap {gap:.2f}pp <= 1pp")

    def test_c05_fnn_order2_beats_linear_order2(self, benchmark_mape):
        fnn = benchmark_mape[("fnn n=2", "test")]
        linear = benchmark_mape[("linear n=2", "test")]
        record(
            5,
            fnn < linear and fnn <= 5.5,
            f"fnn n=2 test MAPE {fnn:.2f}% < linear n=2 {linear:.2f}% and <= 5.5%",
        )

    def test_c06_fnn_order2_matches_deep_linear(self, benchmark_mape):
        fnn = benchmark_mape[("fnn n=2", "test")]
        linear = benchmark_mape[("linear n=5", "test")]
        record(6, fnn <= linear, f"fnn n=2 test MAPE {fnn:.2f}% <= linear n=5 {linear:.2f}%")

    def test_c07_recurrent_error_bounds(self, benchmark_mape):
        rnn = benchmark_mape[("rnn", "test")]
        lstm = benchmark_mape[("lstm", "test")]
        record(
            7,
            rnn <= 5.0 and lstm <= 5.0 and lstm <= rnn + 0.5,
            f"rnn test MAPE {rnn:.2f}% and lstm {lstm:.2f}% <= 5%, lstm <= rnn + 0.5pp",
        )

    def test_c08_train_test_gap_bounded(self, benchmark_mape):
        names = sorted({name for name, _ in benchmark_mape})
        gaps = {
            name: abs(benchmark_mape[(name, "train")] - benchmark_mape[(name, "test")])
            for name in names
        }
        worst = max(gaps, key=gaps.get)
        record(
            8,
            gaps[worst] <= 2.0,
            f"largest train/test MAPE gap {gaps[worst]:.2f}pp ({worst}) <= 2pp",
        )


def test_c09_optimizer_matches_grid_search():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        peak = float(rng.uniform(0.1, 2.0))
        params = EucParams(
            peak_demand=peak,
            rho=float(-rng.uniform(20.0, 200.0) / peak),
            alpha=float(rng.uniform(0.0, 1.0)),
            min_fraction=float(rng.uniform(0.2, 0.9)),
        )
        demand = float(rng.uniform(0.001, 2.0 * peak))
        price = float(rng.uniform(0.0, 100.0))
        closed = optimal_consumption(demand, price, params)
        lo = params.min_fraction * demand
        grid = np.linspace(lo, demand, 20001)
        objective = params.rho * (demand - grid) ** 2 - price * grid
        brute = float(grid[np.argmax(objective)])
        worst = max(worst, abs(closed - brute))
    record(9, worst < 1e-4, f"max |closed form - grid optimum| {worst:.2e} MWh < 1e-4")


def test_c10_gradients_match_finite_differences():
    cases = (
        ("fnn", [6], (8, 4), (8,)),
        ("rnn", [5], (3, 10, 4), (3, 10)),
        ("lstm", [4], (3, 10, 4), (3, 10)),
    )
    worst = 0.0
    for kind, hidden, in_shape, target_shape in cases:
        for seed in range(20):
            rng = np.random.default_rng(7000 + seed)
            inputs = rng.normal(size=in_shape)
            targets = rng.normal(size=target_shape)
            worst = max(worst, gradient_check(kind, hidden, inputs, targets, rng_seed=seed))
    record(10, worst < 1e-4, f"max gradient relative error {worst:.2e} over 20 draws per kind")


def test_c11_runs_are_byte_identical(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(TINY_CONFIG)
    base = ["--config", str(config)]

    data_a, data_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", *base, "--out", str(data_a)]) == 0
    assert main(["simulate", *base, "--out", str(data_b)]) == 0
    same_data = data_a.read_bytes() == data_b.read_bytes()

    model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
    train = ["train", *base, "--data", str(data_a), "--model", "fnn", "--order", "1"]
    assert main([*train, "--out", str(model_a)]) == 0
    assert main([*train, "--out", str(model_b)]) == 0
    same_model = model_a.read_bytes() == model_b.read_bytes()

    bench_a, bench_b = tmp_path / "bench_a", tmp_path / "bench_b"
    assert main(["benchmark", *base, "--out", str(bench_a)]) == 0
    assert main(["benchmark", *base, "--out", str(bench_b)]) == 0
    same_bench = all(
        (bench_a / rel).read_bytes() == (bench_b / rel).read_bytes()
        for rel in ("dataset.csv", "report.json", "violin.csv")
    ) and all(
        left.read_bytes() == (bench_b / "models" / left.name).read_bytes()
        for left in sorted((bench_a / "models").iterdir())
    )

    record(
        11,
        same_data and same_model and same_bench,
        "simulate, train, and benchmark reruns byte-identical "
        f"(data {same_data}, model {same_model}, benchmark {same_bench})",
    )


def test_c12_metric_identities_hold():
    rng = np.random.default_rng(99)
    actual = rng.uniform(1.0, 50.0, 64)
    predicted = actual * rng.uniform(0.8, 1.2, 64)
    base = mape(actual, predicted)
    scale_exact = mape(4.0 * actual, 4.0 * predicted) == base
    scale_close = mape(3.0 * actual, 3.0 * predicted) == pytest.approx(base, rel=1e-12)

    zero_on_exact = mape(actual, actual.copy()) == 0.0
    bumped = actual.copy()
    bumped[7] *= 1.01
    positive_on_mismatch = mape(actual, bumped) > 0.0

    prices = rng.uniform(20.0, 50.0, 120)
    hours = np.arange(120) % 24
    consumptions = 100.0 - prices + rng.uniform(-5.0, 5.0, 120)
    ts = TimeSeriesDataset(prices=prices, consumptions=consumptions, hours=hours)
    model = LinearModel(
        weights=np.array([0.0, -1.0]),
        bias=100.0,
        scaler=identity_scaler(2),
        state_config=StateConfig(order=0, time_encoding="scalar"),
    )
    report = evaluate(model, ts, "test")
    consistent = report.mape_pct == pytest.approx(
        float(np.mean(report.ape_samples)), rel=1e-12
    ) and report.sdape_pct == pytest.approx(float(np.std(report.ape_samples)), rel=1e-12)

    hand = (
        mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0, abs=1e-12)
        and mape([2.0, 4.0], [1.0, 5.0]) == 37.5
        and sdape([2.0, 4.0], [1.0, 5.0]) == 12.5
    )

    record(
        12,
        scale_exact and scale_close and zero_on_exact and positive_on_mismatch
        and consistent and hand,
        "MAPE scale-invariant, zero iff exact, report internally consistent, "
        "hand examples 10.0 / 37.5 / 12.5 reproduced",
    )


def test_c13_feature_shapes_and_causality():
    rng = np.random.default_rng(2024)
    length, mid = 200, 120
    prices = rng.uniform(20.0, 50.0, length)
    consumptions = rng.uniform(50.0, 90.0, length)
    hours = np.arange(length) % 24

    def series(p, c):
        return TimeSeriesDataset(prices=p, consumptions=c, hours=hours)

    ok = True
    for order in range(6):
        cfg = StateConfig(order=order, time_encoding="scalar")
        sup = build_direct_dataset(series(prices, consumptions), cfg)
        ok &= sup.inputs.shape == (length - order, 2 * order + 2)
        ok &= sup.targets.shape == (length - order,)

        # future edit: prices after mid, consumptions from mid onward
        prices2 = prices.copy()
        prices2[mid + 1 :] += 7.0
        consumptions2 = consumptions.copy()
        consumptions2[mid:] += 3.0
        sup2 = build_direct_dataset(series(prices2, consumptions2), cfg)
        i = mid - order  # sample whose current interval is mid
        ok &= np.array_equal(sup.inputs[: i + 1], sup2.inputs[: i + 1])
        ok &= np.array_equal(sup.targets[:i], sup2.targets[:i])
        ok &= not np.array_equal(sup.inputs[i + 1], sup2.inputs[i + 1])
        ok &= sup.targets[i] != sup2.targets[i]
    record(
        13,
        bool(ok),
        "feature width 2n+2, sample count L-n, and past samples untouched by "
        "future edits for n=0..5",
    )


def _round_trip_model(kind: str):
    rng = np.random.default_rng(31)
    scaler = Scaler(
        input_mean=rng.normal(size=4),
        input_std=rng.uniform(0.5, 2.0, 4),
        target_mean=float(rng.normal()),
        target_std=float(rng.uniform(1.0, 3.0)),
    )
    cfg = StateConfig(order=1, time_encoding="scalar")  # price_lag1, consumption_lag1, hour_frac, price
    meta = {"scaler": scaler, "state_config": cfg}
    if kind == "linear":
        return LinearModel(weights=rng.normal(size=4), bias=float(rng.normal()), **meta)
    if kind == "fnn":
        p = init_params("fnn", 4, [5, 3], rng)
        return FnnModel(
            hidden_weights=[p[0], p[2]],
            hidden_biases=[p[1], p[3]],
            out_weight=p[4],
            out_bias=float(rng.normal()),
            **meta,
        )
    if kind == "rnn":
        p = init_params("rnn", 4, [5], rng)
        return RnnModel(
            w_h=[p[0]], w_x=[p[1]], b=[p[2]],
            out_weight=p[3], out_bias=float(rng.normal()), **meta,
        )
    p = init_params("lstm", 4, [4], rng)
    return LstmModel(
        w_fh=[p[0]], w_fx=[p[1]], b_f=[p[2]],
        w_ih=[p[3]], w_ix=[p[4]], b_i=[p[5]],
        w_oh=[p[6]], w_ox=[p[7]], b_o=[p[8]],
        w_ch=[p[9]], w_cx=[p[10]], b_c=[p[11]],
        out_weight=p[12], out_bias=float(rng.normal()), **meta,
    )


def _predictions_on_random_inputs(model) -> np.ndarray:
    """MWh for raw rows, scaled, run and unscaled as ParamModel.predict does:
    the linear rows at once, the FNN rows one at a time, the windows each
    from the zero state."""
    rng = np.random.default_rng(555)
    scaler = model.scaler
    if model.kind in ("linear", "fnn"):
        rows = rng.normal(size=(100, 4))
        batches = rows[:, None] if model.kind == "fnn" else [rows]
        return np.concatenate(
            [scaler.inverse_targets(model.forward(scaler.transform_inputs(b))) for b in batches]
        )
    windows = rng.normal(size=(5, 20, 4))  # 100 step inputs in 5 windows
    return np.concatenate(
        [scaler.inverse_targets(model.forward(scaler.transform_inputs(w)[None])[0]) for w in windows]
    )


def test_c14_save_load_round_trip(tmp_path):
    ok = True
    for kind in ("linear", "fnn", "rnn", "lstm"):
        model = _round_trip_model(kind)
        path = tmp_path / f"{kind}.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        ok &= np.array_equal(
            _predictions_on_random_inputs(model), _predictions_on_random_inputs(loaded)
        )
    record(
        14,
        bool(ok),
        "save/load round trip keeps 100 predictions bit-identical for all four kinds",
    )
