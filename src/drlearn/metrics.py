"""Percentage-error metrics, the evaluation protocol, and report documents."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .eucsim import TimeSeriesDataset
from .features import feature_layout, feature_rows
from .ioutil import atomic_write_text

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
    if kind in ("rnn", "lstm"):
        return kind
    return f"{kind} n={order}"


def evaluate(model, dataset: TimeSeriesDataset, split: str) -> EvalReport:
    """One-step predictions over the whole split, scored with MAPE/SDAPE.

    The split runs as a single sequence through the model from its initial
    state. A model that carries state starts it at zero, so its first
    RECURRENT_WARMUP predictions are excluded from scoring.
    """
    cfg = model.state_config
    if feature_layout(cfg) != model.feature_layout:
        raise DataError(
            "feature layout mismatch: model expects"
            f" {list(model.feature_layout)}, data produces"
            f" {list(feature_layout(cfg))}"
        )
    state = model.initial_state(1)
    warmup = RECURRENT_WARMUP if state else 0
    if len(dataset) <= cfg.order + warmup:
        raise ValueError(
            f"evaluation of {model.kind} needs more than {cfg.order + warmup}"
            f" intervals, got {len(dataset)}"
        )
    x = model.scaler.transform_inputs(feature_rows(dataset, cfg.order, len(dataset), cfg))
    outputs, _ = model.run(x[None], state)
    predicted = model.scaler.inverse_targets(outputs[0])[warmup:]
    actual = dataset.consumptions[cfg.order + warmup :]

    samples = ape_samples(actual, predicted)
    return EvalReport(
        name=model_name(model.kind, cfg.order),
        kind=model.kind,
        order=cfg.order,
        hidden_sizes=tuple(model.hidden_sizes()),
        split=split,
        mape_pct=float(np.mean(samples)),
        sdape_pct=float(np.std(samples)),
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
    lines = [title]
    header = corner.ljust(row_head) + "".join(label.rjust(width) for label in column_labels)
    lines.append(header)
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
    cells: dict[tuple[str, str], list[float]] = {}
    for split in ("train", "test"):
        for metric in ("mape", "sdape"):
            values = []
            for _, name in columns:
                report = by_key[(name, split)]
                values.append(report.mape_pct if metric == "mape" else report.sdape_pct)
            cells[(split, metric)] = values
    return format_error_table(title, corner, [label for label, _ in columns], cells)


def write_violin_csv(reports: list[EvalReport], path: str) -> None:
    """Per-sample test APEs for plotting, one (model, ape_pct) row per sample."""
    lines = [VIOLIN_HEADER]
    for report in reports:
        for value in report.ape_samples:
            lines.append(f"{report.name},{float(value)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
