"""Command-line front end: simulate, train, eval, and benchmark."""

from __future__ import annotations

import argparse
import sys
import time
import traceback

import numpy as np

from .config import MODEL_KINDS, load_config
from .errors import ConfigError, DataError, NumericalError
from .eucsim import read_dataset, write_dataset
from .features import split
from .metrics import evaluate, write_report_document
from .models import load_model, save_model
from .pipeline import run_benchmark, simulate_from_config, train_model


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the config error path."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="drlearn",
        description=(
            "Simulate hourly price/consumption data from a population of"
            " price-responsive customers, train demand-response models on it,"
            " and reproduce the error-table benchmark."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset CSV from the config")
    p.add_argument("--config", help="YAML config; omit for defaults")
    p.add_argument("--out", required=True, help="dataset CSV path")

    p = sub.add_parser("train", help="train one model on the train split")
    p.add_argument("--config", help="YAML config; omit for defaults")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--model", required=True, choices=MODEL_KINDS, help="model kind")
    p.add_argument(
        "--order",
        type=int,
        default=0,
        help="lag order for linear/fnn; ignored for rnn/lstm",
    )
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("eval", help="evaluate a saved model on one split")
    p.add_argument("--config", help="YAML config; omit for defaults")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("benchmark", help="train every configured model and emit tables")
    p.add_argument("--config", help="YAML config; omit for defaults")
    p.add_argument("--out", help="output directory (default: config benchmark.output_dir)")
    p.add_argument("--workers", type=int, default=1, help="parallel trainings")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    dataset = simulate_from_config(config)
    write_dataset(dataset, args.out)
    print(
        f"wrote {args.out}: {len(dataset)} intervals,"
        f" mean price {np.mean(dataset.prices):.2f} $/MWh,"
        f" mean consumption {np.mean(dataset.consumptions):.2f} MWh"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.order < 0:
        raise ConfigError(f"--order must be >= 0, got {args.order}")
    dataset = read_dataset(args.data, config.simulation.intervals_per_day)
    started = time.perf_counter()
    entry = train_model(config, dataset, args.model, args.order, "--order")
    elapsed = time.perf_counter() - started
    save_model(entry.model, args.out)
    loss_text = "closed form" if entry.final_loss is None else f"{entry.final_loss:.6g}"
    print(
        f"wrote {args.out}: final train loss {loss_text},"
        f" train MAPE {entry.train_report.mape_pct:.2f}%,"
        f" wall time {elapsed:.1f}s"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    model = load_model(args.model)
    dataset = read_dataset(args.data, config.simulation.intervals_per_day)
    train_ts, test_ts = split(dataset, config.benchmark.train_len)
    report = evaluate(model, train_ts if args.split == "train" else test_ts, args.split)
    write_report_document([report], args.out)
    print(
        f"wrote {args.out}: {report.name} {report.split}"
        f" MAPE {report.mape_pct:.2f}%, SDAPE {report.sdape_pct:.2f}%"
    )
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    out_dir = args.out if args.out is not None else config.benchmark.output_dir
    result = run_benchmark(config, out_dir, workers=args.workers)
    for text in result.tables.values():
        print(text)
    print(f"wrote {len(result.trained)} models, {result.report_path}, {result.violin_path}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "eval": cmd_eval,
    "benchmark": cmd_benchmark,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of drlearn itself, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
