"""Percentage-error metrics, the evaluation protocol, and report documents."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .eucsim import TimeSeriesDataset, check_series
from .features import check_rows, feature_rows
from .ioutil import atomic_write_text
from .models.common import model_class

REPORT_SCHEMA_VERSION = 1
RECURRENT_WARMUP = 24  # leading predictions dropped while state leaves zero
SDAPE_DENOMINATOR = "population"

VIOLIN_HEADER = "model,ape_pct"


def ape_samples(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Per-interval absolute percentage errors, 100 |pred - act| / act."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError(
            f"actual and predicted must be equal-length vectors, got shapes"
            f" {actual.shape} and {predicted.shape}"
        )
    if len(actual) < 1:
        raise ValueError("need at least one sample")
    bad = np.nonzero(actual <= 0.0)[0]
    if bad.size:
        raise DataError(
            f"percentage error undefined: actual value {actual[bad[0]]} at index"
            f" {int(bad[0])} is not positive"
        )
    return 100.0 * np.abs(predicted - actual) / actual


def mape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute percentage error, in percent."""
    return float(np.mean(ape_samples(actual, predicted)))


def sdape(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Population standard deviation of the absolute percentage errors."""
    return float(np.std(ape_samples(actual, predicted)))


@dataclass(frozen=True)
class EvalReport:
    """Scored predictions of one model on one split."""

    name: str
    kind: str
    order: int
    hidden_sizes: tuple[int, ...]
    split: str
    mape_pct: float
    sdape_pct: float
    ape_samples: np.ndarray
    warmup_excluded: int


def model_name(kind: str, order: int) -> str:
    """Display label: direct families carry their order, recurrent do not."""
    return kind if model_class(kind).recurrent else f"{kind} n={order}"


def evaluate(model, dataset: TimeSeriesDataset, split: str) -> EvalReport:
    """One-step predictions over the whole split, scored with MAPE/SDAPE.

    The split runs as a single sequence through the model from its initial
    state. A model that carries state starts it at zero, so its first
    RECURRENT_WARMUP predictions are excluded from scoring.
    The split must keep the check_series rules. A non-finite prediction or
    percentage error (an overflowing model, a subnormal consumption) raises
    NumericalError naming its index in the split, with no numpy warning.
    """
    cfg = model.state_config
    check_rows(dataset, cfg, model.feature_layout)
    check_series(dataset)
    warmup = RECURRENT_WARMUP if model.recurrent else 0
    first = cfg.order + warmup  # the index of the first scored interval
    if len(dataset) <= first:
        raise ValueError(
            f"evaluation of {model.kind} needs more than {first} intervals, got {len(dataset)}"
        )
    with np.errstate(all="ignore"):
        x = feature_rows(dataset, cfg.order, len(dataset), cfg)
        model.scaler.transform_inputs(x, out=x)
        outputs, _ = model.run(x[None], model.initial_state(1))
        predicted = model.scaler.inverse_targets(outputs[0])[warmup:]
        actual = dataset.consumptions[first:]
        samples = ape_samples(actual, predicted)
        mape_pct, sdape_pct = float(np.mean(samples)), float(np.std(samples))
    bad = np.flatnonzero(~np.isfinite(samples))
    if len(bad):
        i = int(bad[0])
        raise NumericalError(
            f"{model.kind} prediction {predicted[i]} for consumption {actual[i]} at index"
            f" {first + i} of the {split} split: percentage error {samples[i]} is not finite"
        )
    if not np.isfinite([mape_pct, sdape_pct]).all():
        raise NumericalError(f"{model.kind} {split} MAPE {mape_pct}, SDAPE {sdape_pct}: not finite")
    return EvalReport(
        name=model_name(model.kind, cfg.order),
        kind=model.kind,
        order=cfg.order,
        hidden_sizes=tuple(model.hidden_sizes()),
        split=split,
        mape_pct=mape_pct,
        sdape_pct=sdape_pct,
        ape_samples=samples,
        warmup_excluded=warmup,
    )


def report_record(report: EvalReport) -> dict:
    return {
        "name": report.name,
        "kind": report.kind,
        "order": report.order,
        "split": report.split,
        "mape_pct": report.mape_pct,
        "sdape_pct": report.sdape_pct,
    }


def write_report_document(reports: list[EvalReport], path: str) -> None:
    """Machine-readable summary: one record per (model, split) plus protocol."""
    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "protocol": {
            "sdape_denominator": SDAPE_DENOMINATOR,
            "recurrent_warmup_intervals": RECURRENT_WARMUP,
        },
        "records": [report_record(r) for r in reports],
    }
    atomic_write_text(path, json.dumps(document, indent=1, allow_nan=False) + "\n")


def format_error_table(
    title: str,
    corner: str,
    column_labels: list[str],
    cells: dict[tuple[str, str], list[float]],
) -> str:
    """Aligned text table: train/test MAPE and SDAPE rows, one model per column.

    cells maps (split, metric) to one value per column, splits 'train'/'test'
    and metrics 'mape'/'sdape'.
    """
    width = max(7, *(len(label) + 2 for label in column_labels))
    row_head = 17
    lines = [title, corner.ljust(row_head) + "".join(label.rjust(width) for label in column_labels)]
    for split in ("train", "test"):
        for metric in ("mape", "sdape"):
            label = f"{split} {metric.upper()} (%)".ljust(row_head)
            values = cells[(split, metric)]
            lines.append(label + "".join(f"{v:{width}.2f}" for v in values))
    return "\n".join(lines) + "\n"


def table_from_reports(
    title: str, corner: str, columns: list[tuple[str, str]], reports: list[EvalReport]
) -> str:
    """Standard error table from (column label, report name) pairs."""
    by_key = {(r.name, r.split): r for r in reports}
    cells = {
        (split, metric): [getattr(by_key[(name, split)], f"{metric}_pct") for _, name in columns]
        for split in ("train", "test")
        for metric in ("mape", "sdape")
    }
    return format_error_table(title, corner, [label for label, _ in columns], cells)


def write_violin_csv(reports: list[EvalReport], path: str) -> None:
    """Per-sample test APEs for plotting, one (model, ape_pct) row per sample."""
    lines = [VIOLIN_HEADER, *(f"{r.name},{v!r}" for r in reports for v in r.ape_samples.tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")
