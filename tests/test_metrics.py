"""Metric tests: hand identities, protocol behavior, report documents."""

import json

import numpy as np
import pytest

from drlearn.errors import DataError
from drlearn.eucsim import TimeSeriesDataset
from drlearn.features import StateConfig, identity_scaler
from drlearn.metrics import (
    RECURRENT_WARMUP,
    EvalReport,
    ape_samples,
    evaluate,
    format_error_table,
    mape,
    model_name,
    report_record,
    sdape,
    table_from_reports,
    write_report_document,
    write_violin_csv,
)
from drlearn.models import LinearModel, RnnModel


class TestHandValues:
    def test_mape_ten_percent_each(self):
        # both intervals are off by exactly 10 percent
        assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0, abs=1e-12)

    def test_mape_fifty_and_twentyfive(self):
        # |1-2|/2 = 50%, |5-4|/4 = 25%, mean 37.5
        assert mape([2.0, 4.0], [1.0, 5.0]) == 37.5

    def test_sdape_of_fifty_and_twentyfive(self):
        # APEs are {50, 25}; population std is 12.5
        assert sdape([2.0, 4.0], [1.0, 5.0]) == 12.5

    def test_sdape_zero_for_constant_ape(self):
        # both off by exactly 10 percent, so the spread is zero
        assert sdape([1.0, 2.0], [1.1, 2.2]) == 0.0


class TestApeSamples:
    def test_values(self):
        samples = ape_samples(np.array([2.0, 4.0]), np.array([1.0, 5.0]))
        assert np.array_equal(samples, [50.0, 25.0])

    def test_scale_invariance(self):
        actual = np.array([10.0, 20.0, 30.0])
        predicted = np.array([11.0, 19.0, 33.0])
        base = ape_samples(actual, predicted)
        scaled = ape_samples(1000.0 * actual, 1000.0 * predicted)
        assert np.allclose(base, scaled, rtol=1e-12)

    def test_zero_iff_exact(self):
        actual = np.array([1.0, 2.0, 3.0])
        assert np.all(ape_samples(actual, actual.copy()) == 0.0)
        assert np.all(ape_samples(actual, actual + 1e-9) > 0.0)

    def test_nonpositive_actual_names_index(self):
        with pytest.raises(DataError, match="index 1"):
            ape_samples(np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0]))

    def test_negative_actual_rejected(self):
        with pytest.raises(DataError, match="not positive"):
            ape_samples(np.array([1.0, -2.0]), np.array([1.0, 1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            ape_samples(np.array([1.0, 2.0]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ape_samples(np.array([]), np.array([]))


class TestModelName:
    def test_direct_families_carry_order(self):
        assert model_name("linear", 3) == "linear n=3"
        assert model_name("fnn", 0) == "fnn n=0"

    def test_recurrent_families_do_not(self):
        assert model_name("rnn", 1) == "rnn"
        assert model_name("lstm", 1) == "lstm"


def constant_series(length=120, price=30.0, consumption=50.0):
    return TimeSeriesDataset(
        prices=np.full(length, price),
        consumptions=np.full(length, consumption),
        hours=np.arange(length, dtype=np.int64) % 24,
    )


def price_tracking_series(length=200, seed=0):
    rng = np.random.default_rng(seed)
    prices = rng.uniform(20.0, 50.0, length)
    return TimeSeriesDataset(
        prices=prices,
        consumptions=100.0 - prices,
        hours=np.arange(length, dtype=np.int64) % 24,
    )


def perfect_linear_model():
    """Reproduces consumption = 100 - price exactly, order 0, no time column."""
    cfg = StateConfig(order=0, time_encoding="none")
    return LinearModel(
        weights=np.array([-1.0]),
        bias=100.0,
        feature_layout=("price",),
        scaler=identity_scaler(1),
        state_config=cfg,
    )


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        ts = price_tracking_series()
        report = evaluate(perfect_linear_model(), ts, "train")
        assert report.mape_pct == pytest.approx(0.0, abs=1e-12)
        assert report.sdape_pct == pytest.approx(0.0, abs=1e-12)
        assert report.warmup_excluded == 0
        assert len(report.ape_samples) == len(ts)

    def test_report_is_internally_consistent(self):
        rng = np.random.default_rng(1)
        ts = price_tracking_series(seed=2)
        model = LinearModel(
            weights=np.array([-0.9]),
            bias=rng.uniform(80.0, 120.0),
            feature_layout=("price",),
            scaler=identity_scaler(1),
            state_config=StateConfig(order=0, time_encoding="none"),
        )
        report = evaluate(model, ts, "test")
        assert report.mape_pct == pytest.approx(report.ape_samples.mean(), rel=1e-12)
        assert report.sdape_pct == pytest.approx(report.ape_samples.std(), rel=1e-12)
        assert report.split == "test"
        assert report.name == "linear n=0"

    def test_direct_layout_mismatch_rejected(self):
        # one weight per name, so the model builds; order 0 without a time
        # column builds ("price",) from the data, not these two names
        model = perfect_linear_model()
        mismatched = LinearModel(
            weights=np.array([0.0, *model.weights]),
            bias=model.bias,
            feature_layout=("hour_frac", "price"),
            scaler=identity_scaler(2),
            state_config=StateConfig(order=0, time_encoding="none"),
        )
        with pytest.raises(DataError, match="feature layout mismatch"):
            evaluate(mismatched, price_tracking_series(), "train")

    def make_rnn(self):
        cfg = StateConfig(order=1, time_encoding="scalar")
        return RnnModel(
            w_h=[np.zeros((2, 2))],
            w_x=[np.zeros((2, 4))],
            b=[np.zeros(2)],
            out_weight=np.zeros(2),
            out_bias=50.0,
            feature_layout=("price_lag1", "consumption_lag1", "hour_frac", "price"),
            scaler=identity_scaler(4),
            state_config=cfg,
        )

    def test_interval_count_mismatch_rejected(self):
        # a 24-interval model would read hour h of a 12-interval day as h / 24
        ts = price_tracking_series()
        half_days = TimeSeriesDataset(
            prices=ts.prices,
            consumptions=ts.consumptions,
            hours=ts.hours % 12,
            intervals_per_day=12,
        )
        with pytest.raises(DataError, match="model expects 24, data has 12"):
            evaluate(perfect_linear_model(), half_days, "test")

    def test_non_finite_series_rejected(self):
        # a NaN consumption would otherwise reach the report as a NaN MAPE
        ts = constant_series(length=60)
        ts.consumptions[40] = np.nan
        with pytest.raises(
            DataError, match="price 30.0 and consumption nan at index 40 must both be finite"
        ):
            evaluate(self.make_rnn(), ts, "test")

    def test_recurrent_warmup_exclusion(self):
        ts = constant_series(length=120)
        report = evaluate(self.make_rnn(), ts, "test")
        # predictions exist for t = 1..119; the first 24 are dropped
        assert report.warmup_excluded == RECURRENT_WARMUP
        assert len(report.ape_samples) == 120 - 1 - RECURRENT_WARMUP
        assert report.mape_pct == pytest.approx(0.0, abs=1e-12)

    def test_recurrent_needs_enough_intervals(self):
        ts = constant_series(length=RECURRENT_WARMUP + 1)
        with pytest.raises(
            ValueError, match="evaluation of rnn needs more than 25 intervals, got 25"
        ):
            evaluate(self.make_rnn(), ts, "test")

    def test_recurrent_layout_mismatch_rejected(self):
        model = self.make_rnn()
        wrong_layout = RnnModel(
            w_h=model.w_h,
            w_x=model.w_x,
            b=model.b,
            out_weight=model.out_weight,
            out_bias=model.out_bias,
            feature_layout=("a", "b", "c", "d"),
            scaler=model.scaler,
            state_config=model.state_config,
        )
        with pytest.raises(DataError, match="feature layout mismatch"):
            evaluate(wrong_layout, constant_series(), "test")

    def test_warmup_changes_scores_when_start_differs(self):
        # A model whose error depends on the recurrent state would be unfairly
        # scored in the first hours; excluded samples must not enter the mean.
        ts = constant_series(length=120)
        model = self.make_rnn()
        report = evaluate(model, ts, "test")
        full_actual = ts.consumptions[1:]
        assert len(report.ape_samples) < len(full_actual)


class TestReportDocument:
    def make_reports(self):
        samples = np.array([10.0, 20.0])
        return [
            EvalReport(
                name="linear n=0", kind="linear", order=0, hidden_sizes=(),
                split=split, mape_pct=15.0, sdape_pct=5.0,
                ape_samples=samples, warmup_excluded=0,
            )
            for split in ("train", "test")
        ]

    def test_document_structure(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_document(self.make_reports(), str(path))
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["protocol"]["sdape_denominator"] == "population"
        assert doc["protocol"]["recurrent_warmup_intervals"] == RECURRENT_WARMUP
        assert len(doc["records"]) == 2
        record = doc["records"][0]
        assert set(record) == {"name", "kind", "order", "split", "mape_pct", "sdape_pct"}

    def test_record_values(self):
        record = report_record(self.make_reports()[0])
        assert record == {
            "name": "linear n=0",
            "kind": "linear",
            "order": 0,
            "split": "train",
            "mape_pct": 15.0,
            "sdape_pct": 5.0,
        }

    def test_non_finite_value_is_not_written(self, tmp_path):
        reports = self.make_reports()
        reports[1] = EvalReport(
            name="linear n=0", kind="linear", order=0, hidden_sizes=(),
            split="test", mape_pct=float("nan"), sdape_pct=5.0,
            ape_samples=np.array([np.nan]), warmup_excluded=0,
        )
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_report_document(reports, str(path))
        assert not path.exists()


class TestTables:
    def test_format_skeleton(self):
        cells = {
            ("train", "mape"): [19.67, 6.19],
            ("train", "sdape"): [17.85, 5.51],
            ("test", "mape"): [16.46, 6.02],
            ("test", "sdape"): [14.46, 5.17],
        }
        text = format_error_table("Linear family", "order n", ["0", "1"], cells)
        lines = text.splitlines()
        assert lines[0] == "Linear family"
        assert lines[1].startswith("order n")
        assert lines[2].startswith("train MAPE (%)")
        assert lines[3].startswith("train SDAPE (%)")
        assert lines[4].startswith("test MAPE (%)")
        assert lines[5].startswith("test SDAPE (%)")
        assert "19.67" in lines[2]
        assert "5.17" in lines[5]
        assert len(lines) == 6

    def test_columns_align(self):
        cells = {
            ("train", "mape"): [1.0, 22.33],
            ("train", "sdape"): [2.0, 3.0],
            ("test", "mape"): [4.0, 5.0],
            ("test", "sdape"): [6.0, 7.0],
        }
        text = format_error_table("T", "corner", ["A", "BBBB"], cells)
        lines = text.splitlines()
        assert len({len(line) for line in lines[1:]}) == 1

    def test_table_from_reports_maps_columns(self):
        samples = np.array([1.0])
        reports = []
        for split in ("train", "test"):
            for order, mape_val in ((0, 19.67), (1, 6.19)):
                reports.append(
                    EvalReport(
                        name=f"linear n={order}", kind="linear", order=order,
                        hidden_sizes=(), split=split, mape_pct=mape_val,
                        sdape_pct=1.0, ape_samples=samples, warmup_excluded=0,
                    )
                )
        text = table_from_reports(
            "Linear family", "order n", [("0", "linear n=0"), ("1", "linear n=1")], reports
        )
        train_row = text.splitlines()[2]
        assert train_row.index("19.67") < train_row.index("6.19")


class TestViolinCsv:
    def test_rows_and_round_trip(self, tmp_path):
        samples = np.array([12.5, 0.125, 3.0000000000000004])
        report = EvalReport(
            name="lstm", kind="lstm", order=1, hidden_sizes=(32,),
            split="test", mape_pct=5.0, sdape_pct=1.0,
            ape_samples=samples, warmup_excluded=24,
        )
        path = tmp_path / "violin.csv"
        write_violin_csv([report], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "model,ape_pct"
        assert len(lines) == 4
        for line, expected in zip(lines[1:], samples):
            name, value = line.split(",")
            assert name == "lstm"
            assert float(value) == expected
