#!/usr/bin/env python3
"""drlearn benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

Run from a full checkout: the benchmark imports drlearn from ``src/`` next to
this directory. ``--trace 0`` times rounds of the workload with tracing off
and prints the end-to-end metrics; ``--trace 1`` times a few untraced rounds,
then traced rounds (one process), and prints the per-layer metrics. Either
way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full result, with the
machine, thread settings and workload details, goes to
``.perfbench_runs/<workload>-seed<n>-trace<t>/result.json``; traced runs also
write ``spans.json`` there.

Thread settings (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS) are
recorded as found and never set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

MIN_ROUNDS = 3  # timed rounds per run, however long one round takes
SETUP_PROBES = 3  # fresh-process set-ups timed per run; the median is setup_s
UNTRACED_SHARE = 0.4  # share of a traced run's seconds spent on untraced rounds
MAX_SPANS = 300_000  # traced rounds stop early past this many spans, to bound memory
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "test_mape_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: prepare a run directory, or time one fresh-process set-up against it
    parser.add_argument("--prepare", metavar="RUN_DIR", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", metavar="RUN_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_workloads():
    """Import drlearn from this checkout's src/, or exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "drlearn", "__init__.py")):
        print(f"perfbench: no drlearn package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def run_rounds(one_round, budget_s: float, min_rounds: int, full=lambda: False) -> list:
    """Rounds until the next one would overrun budget_s or full() holds, and at least min_rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in rounds)
        if len(rounds) >= min_rounds and (elapsed + typical > budget_s or full()):
            return rounds


def helper(args, flag: str, run_dir: str) -> float:
    """Run this script with an internal flag in a fresh process; its wall seconds."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        flag, run_dir,
    ]
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(args, run_dir: str) -> list[float]:
    """Wall seconds of SETUP_PROBES fresh processes that import and set up, after one warm-up."""
    walls = [helper(args, "--probe-setup", run_dir) for _ in range(SETUP_PROBES + 1)]
    return walls[1:]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus the largest child's when rounds run worker processes.

    Fixture training and set-up probes run in helper processes, so this
    process's peak covers only set-up and the rounds. Helpers only import
    and parse the config on the batch workloads, so with workers > 1 the
    largest child is a pool worker; with one worker no child counts.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------


def play(workload, ctx, out_dir: str, workers: int):
    result = workload.round(ctx, out_dir, workers)
    workload.record(result)
    return result


def timed_run(workload, ctx, args, run_dir):
    """--trace 0: end-to-end metrics, with tracing off."""
    out_dir = os.path.join(run_dir, "out")
    rounds = run_rounds(lambda: play(workload, ctx, out_dir, workload.workers), args.seconds, MIN_ROUNDS)
    rss = peak_rss_mb(workload.workers)
    outcome = workload.outcome(ctx, rounds)
    walls = [r.wall_s for r in rounds]
    details = {
        "rounds": len(rounds),
        "round_wall_s": walls,
        "round_cpu_s": [r.cpu_s for r in rounds],
        **workload.figures(ctx, rounds),
        "test_mape_pct_by_model": outcome.test_mape,
    }
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([r.cpu_s for r in rounds]),
        "peak_rss_mb": rss,
        "test_mape_pct": outcome.test_mape_pct,
    }
    return outcome, values, details


def traced_run(workload, ctx, args, run_dir):
    """--trace 1: untraced rounds, then traced rounds in this one process."""
    start = time.perf_counter()
    untraced_dir = os.path.join(run_dir, "untraced")
    traced_dir = os.path.join(run_dir, "traced")
    untraced = run_rounds(
        lambda: play(workload, ctx, untraced_dir, workload.workers), args.seconds * UNTRACED_SHARE, 1
    )

    tracer = tracing.Tracer()
    tracer.install()
    try:
        index = tracer.open("bench.setup")  # loads the served models on online-pricing
        traced_ctx = workload.setup(args.seed, run_dir)
        tracer.close(index)

        def traced_round():
            index = tracer.open("bench.round")
            try:
                result = workload.round(traced_ctx, traced_dir, 1)  # serial: all spans here
            finally:
                tracer.close(index)
            workload.record(result)
            return result

        remaining = args.seconds - (time.perf_counter() - start)
        traced = run_rounds(traced_round, remaining, 1, lambda: len(tracer.spans) > MAX_SPANS)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(run_dir, "spans.json"))

    # The last round (traced, serial) is checked in full, and every untraced
    # round (workers = nproc on paper-tables) must match its files byte for byte.
    outcome = workload.outcome(ctx, untraced + traced)
    untraced_wall = statistics.median([r.wall_s for r in untraced])
    traced_wall = statistics.median([r.wall_s for r in traced])
    values = tracing.layer_metrics(tracer.spans, len(traced), untraced_wall, workload.workers)
    details = {
        "untraced_rounds": len(untraced),
        "traced_rounds": len(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
    }
    if workload.workers == 1:  # untraced and traced rounds run alike, in one process
        details["trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return outcome, values, details


def main(argv=None) -> int:
    args = parse_args(argv)
    w = import_workloads()
    workload = w.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(w.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.prepare:
        workload.prepare(args.seed, args.prepare)
        return 0
    if args.probe_setup:
        workload.setup(args.seed, args.probe_setup)
        return 0

    run_dir = w.fresh_dir(os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    prepare_s = helper(args, "--prepare", run_dir)
    setup_walls = measure_setup(args, run_dir) if not args.trace else []
    ctx = workload.setup(args.seed, run_dir)

    run = traced_run if args.trace else timed_run
    outcome, values, details = run(workload, ctx, args, run_dir)
    attempted, failed, notes = outcome.attempted, outcome.failed, outcome.problems
    details["failed_frac"] = failed / attempted
    details["prepare_s"] = prepare_s
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        values["setup_s"] = statistics.median(setup_walls)
        details["setup_probe_s"] = setup_walls
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    # a value that could not be measured reads 0 in the result, which is then not correct
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0
            notes.append("a metric could not be measured")
    correct = failed == 0 and not notes

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": workload.document(args.seed),
        "environment": environment(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": notes,
        "details": details,
        "metrics": metrics,
    }
    for entry in os.listdir(run_dir):
        path = os.path.join(run_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1)

    env = result["environment"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
        f" nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
        f" blas={env['blas'].replace(' ', '-')}"
        + "".join(f" {k}={v}" for k, v in env["threads"].items())
    )
    for name, value in details.items():
        if isinstance(value, (int, float, bool, str)):
            print(f"  {name} = {value}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for note in notes:
        print(f"  problem: {note}")
    final = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
