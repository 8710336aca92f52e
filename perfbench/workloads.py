"""The drlearn workloads: seeded configs, timed rounds, and output checks.

Each workload has the same interface:

- ``document(seed)``: the drlearn config document the seed generates;
- ``prepare(seed, run_dir)``: untimed work before set-up (fixture training);
- ``setup(seed, run_dir)``: what a user pays before the first operation;
- ``round(ctx, out_dir, workers)``: one timed unit of work, as a Round;
- ``record(result)``: bookkeeping right after a round, outside its timing;
- ``outcome(ctx, rounds)``: output checks, as an Outcome;
- ``figures(ctx, rounds)``: the workload's own figures for the report.

Every call into drlearn goes through a module attribute (``pipeline.run_benchmark``,
``models.predict_one_step``, ...) looked up at call time, so the tracer's
wrappers see the calls made here as well as those drlearn makes internally.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import drlearn.config as config_mod
import drlearn.eucsim as eucsim
import drlearn.features as features
import drlearn.metrics as metrics
import drlearn.models as models
import drlearn.pipeline as pipeline

# paper-tables: the default config, trained for fewer optimizer steps than the
# default 10 000 so that one round fits several times into a run.
PAPER_STEPS = 300

# population-scale: linear family only, 500 customers over three years.
POPULATION_EUCS = 500
POPULATION_HORIZON = 3 * 8760
POPULATION_TRAIN_LEN = 2 * 8760 + 4380

# online-pricing: models trained on a year of history, then served over the
# next 40 days (the test split). The engine's hour-by-hour walk through that
# split is sampled: a round queries ONLINE_QUERIES hours spaced QUERY_STRIDE
# apart, so that it covers short and long histories (a recurrent query
# replays all t hours before it) at one cost per round.
ONLINE_TRAIN_LEN = 8760
ONLINE_SERVED_HOURS = 40 * 24
ONLINE_QUERIES = 24  # queries per round
ROLLOUT_HOURS = 24
WARMUP = 24  # served hours before the first queried hour and the first scored one
QUERY_STRIDE = 39
# the seed shifts every queried hour by less than this, keeping each plan inside the split
QUERY_OFFSETS = ONLINE_SERVED_HOURS - ROLLOUT_HOURS - WARMUP - (ONLINE_QUERIES - 1) * QUERY_STRIDE + 1
FIXTURES = (("linear", 3), ("fnn", 2), ("rnn", 1), ("lstm", 1))
SERVED = ("fnn", "rnn", "lstm")  # linear is trained only for the rollout check


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def seed_values(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def seeded_document(seed: int, simulation=None, training=None, benchmark=None) -> dict:
    """A drlearn config document whose every seed derives from the workload seed."""
    population, profile, price, noise, rng = seed_values(seed, 5)
    return {
        "simulation": {
            "population_seed": population,
            "profile_seed": profile,
            "price_seed": price,
            "noise_seed": noise,
            **(simulation or {}),
        },
        "training": {"rng_seed": rng, **(training or {})},
        "benchmark": dict(benchmark or {}),
    }


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of the files under root."""
    digest = hashlib.sha256()
    paths = []
    for entry in sorted(os.listdir(root)):
        full = os.path.join(root, entry)
        if os.path.isdir(full):
            paths.extend(os.path.join(full, f) for f in sorted(os.listdir(full)))
        elif os.path.exists(full):
            paths.append(full)
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else float("nan")


def dynamical(kind: str, order: int) -> bool:
    """Whether a model sees history: recurrent, or direct with a lag order >= 1."""
    return kind in ("rnn", "lstm") or order >= 1


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, pct, n)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    out_dir: str
    error: str | None = None
    digest: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str]
    test_mape: dict[str, float]  # per scored model

    @property
    def test_mape_pct(self) -> float:
        """Geometric mean test MAPE of the scored models: every model's
        relative change counts alike, and seed-to-seed training noise averages out."""
        return geomean(list(self.test_mape.values()))


# ---------------------------------------------------------------------------
# Batch workloads: one round is one run_benchmark call; an operation is a job.


class BatchWorkload:
    """The set-up result, ``ctx``, is the drlearn RunConfig itself."""

    def __init__(self, name, overrides, workers):
        self.name = name
        self.overrides = overrides
        self.workers = workers

    def document(self, seed: int) -> dict:
        return seeded_document(seed, **self.overrides)

    def prepare(self, seed: int, run_dir: str) -> None:
        pass

    def setup(self, seed: int, run_dir: str):
        return config_mod.parse_config(self.document(seed))

    def jobs(self, config) -> list[tuple[str, int]]:
        return pipeline.benchmark_jobs(config)

    def round(self, config, out_dir: str, workers: int) -> Round:
        start, cpu = time.perf_counter(), cpu_seconds()
        error = None
        try:
            pipeline.run_benchmark(config, out_dir, workers=workers)
        except Exception as exc:  # a failed round counts every job as failed
            error = f"{type(exc).__name__}: {exc}"
        return Round(time.perf_counter() - start, cpu_seconds() - cpu, out_dir, error)

    def record(self, result: Round) -> None:
        """Digest the round's files before the next round overwrites them."""
        if result.error is None:
            result.digest = tree_digest(result.out_dir)

    def figures(self, config, rounds: list[Round]) -> dict:
        wall = median([r.wall_s for r in rounds])
        return {self.work_label: self.work_per_round(config) / wall, "workers": self.workers}

    def outcome(self, config, rounds: list[Round]) -> Outcome:
        """The last round's files are checked in full; every other round must
        have written byte-identical files, or all its jobs count as failed.

        In a traced run the last round is the serial traced one and the
        others ran with ``workers``, so on paper-tables (workers = nproc)
        this digest comparison is the cross-worker check: report.json,
        violin.csv, models/*.json and every other file must match.
        """
        jobs = len(self.jobs(config))
        last = rounds[-1]
        problems, test_mape = self.check(config, last.out_dir)
        bad_jobs = sum(1 for found in problems.values() if found)
        notes = [f"{name}: {p}" for name, found in problems.items() for p in found]
        failed = 0
        for i, r in enumerate(rounds):
            if r.error is not None:
                notes.append(f"round {i}: {r.error}")
                failed += jobs
            elif r.digest != last.digest:
                notes.append(f"round {i}: files differ from the last round's")
                failed += jobs
            else:
                failed += bad_jobs
        return Outcome(jobs * len(rounds), failed, notes, test_mape)

    def scored(self, kind: str, order: int) -> bool:
        """Whether the model's test MAPE enters test_mape_pct."""
        return dynamical(kind, order)

    def check(self, config, out_dir: str) -> tuple[dict[str, list[str]], dict[str, float]]:
        """Problems per job found in one round's files, and the scored models' test MAPE."""
        jobs = self.jobs(config)
        names = [metrics.model_name(kind, order) for kind, order in jobs]
        problems: dict[str, list[str]] = {name: [] for name in names}

        def blame_all(reason):
            for name in names:
                problems[name].append(reason)

        try:
            with open(os.path.join(out_dir, "report.json")) as handle:
                records = strict_json(handle.read())["records"]
            dataset = eucsim.read_dataset(
                os.path.join(out_dir, "dataset.csv"), config.simulation.intervals_per_day
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            blame_all(f"report.json or dataset.csv unreadable: {exc}")
            return problems, {}
        by_key: dict[tuple[str, str], list[dict]] = {}
        for record in records:
            by_key.setdefault((record.get("name"), record.get("split")), []).append(record)
        if len(by_key) != 2 * len(names):
            blame_all(f"report.json has records for {sorted(map(str, by_key))}")
        splits = dict(zip(("train", "test"), features.split(dataset, config.benchmark.train_len)))

        dynamical_mape: dict[str, float] = {}
        for (kind, order), name in zip(jobs, names):
            file_name = kind if kind in ("rnn", "lstm") else f"{kind}_n{order}"
            try:
                model = models.load_model(os.path.join(out_dir, "models", file_name + ".json"))
            except Exception as exc:
                problems[name].append(f"model file does not load: {exc}")
                continue
            for split_name, series in splits.items():
                found = by_key.get((name, split_name), [])
                if len(found) != 1:
                    problems[name].append(f"{len(found)} {split_name} records in report.json")
                    continue
                record = found[0]
                values = [record.get(k) for k in ("mape_pct", "sdape_pct")]
                if not all(isinstance(v, float) and math.isfinite(v) for v in values):
                    problems[name].append(f"{split_name} record holds {values}, not finite numbers")
                    continue
                again = metrics.evaluate(model, series, split_name)
                if (again.mape_pct, again.sdape_pct) != (record["mape_pct"], record["sdape_pct"]):
                    problems[name].append(
                        f"{split_name} MAPE {record['mape_pct']!r} not reproduced by the saved"
                        f" model ({again.mape_pct!r})"
                    )
                if split_name == "test" and dynamical(kind, order):
                    dynamical_mape[name] = record["mape_pct"]

        baseline = by_key.get((metrics.model_name("linear", 0), "test"))
        if baseline:
            limit = baseline[0]["mape_pct"]
            for name, value in dynamical_mape.items():
                if not value < limit:
                    problems[name].append(f"test MAPE {value:.3f} does not beat linear n=0 ({limit:.3f})")
        scored = {metrics.model_name(kind, order) for kind, order in jobs if self.scored(kind, order)}
        return problems, {name: v for name, v in dynamical_mape.items() if name in scored}


class PaperTables(BatchWorkload):
    work_label = "train_steps_per_s"

    def __init__(self):
        super().__init__(
            "paper-tables",
            overrides={"training": {"steps": PAPER_STEPS}},
            workers=len(os.sched_getaffinity(0)),
        )

    def scored(self, kind: str, order: int) -> bool:
        """The RNN and the LSTM: their BPTT is this workload's critical path,
        and with two models a change in either moves the mean markedly."""
        return kind in ("rnn", "lstm")

    def work_per_round(self, config) -> float:
        """Optimizer steps summed over the gradient-trained jobs."""
        trained = [kind for kind, _ in self.jobs(config) if kind != "linear"]
        return float(len(trained) * config.training.steps)


class PopulationScale(BatchWorkload):
    work_label = "customer_hours_per_s"

    def __init__(self):
        super().__init__(
            "population-scale",
            overrides={
                "simulation": {"euc_count": POPULATION_EUCS, "horizon": POPULATION_HORIZON},
                "benchmark": {"kinds": ["linear"], "train_len": POPULATION_TRAIN_LEN},
            },
            workers=1,
        )

    def work_per_round(self, config) -> float:
        sim = config.simulation
        return float(sim.euc_count * sim.horizon)


# ---------------------------------------------------------------------------
# online-pricing: a closed-loop pricing engine serving saved models; an
# operation is one hourly query.


@dataclass
class OnlineContext:
    config: object
    fixtures: str
    served_period: object  # the test split: the true history since deployment
    served: dict
    hours: range  # queried hours, counted from the start of the served period


class OnlinePricing:
    name = "online-pricing"
    workers = 1

    def document(self, seed: int) -> dict:
        return seeded_document(
            seed,
            simulation={"horizon": ONLINE_TRAIN_LEN + ONLINE_SERVED_HOURS},
            training={"steps": PAPER_STEPS},
            benchmark={"train_len": ONLINE_TRAIN_LEN},
        )

    def prepare(self, seed: int, run_dir: str) -> None:
        """Simulate; train, save and score the fixture models on the train split."""
        config = config_mod.parse_config(self.document(seed))
        fixtures = fresh_dir(os.path.join(run_dir, "fixtures"))
        dataset = pipeline.simulate_from_config(config)
        eucsim.write_dataset(dataset, os.path.join(fixtures, "dataset.csv"))
        expected = {}
        for kind, order in FIXTURES:
            trained = pipeline.train_model(config, dataset, kind, order)
            models.save_model(trained.model, os.path.join(fixtures, f"{kind}.json"))
            expected[kind] = trained.test_report.mape_pct
        with open(os.path.join(fixtures, "expected.json"), "w") as handle:
            json.dump(expected, handle)

    def setup(self, seed: int, run_dir: str) -> OnlineContext:
        """What the engine does at start: read config, history and served models."""
        config = config_mod.parse_config(self.document(seed))
        fixtures = os.path.join(run_dir, "fixtures")
        dataset = eucsim.read_dataset(
            os.path.join(fixtures, "dataset.csv"), config.simulation.intervals_per_day
        )
        _, served_period = features.split(dataset, config.benchmark.train_len)
        served = {k: models.load_model(os.path.join(fixtures, f"{k}.json")) for k in SERVED}
        first = WARMUP + seed_values(seed, 6)[5] % QUERY_OFFSETS
        hours = range(first, first + ONLINE_QUERIES * QUERY_STRIDE, QUERY_STRIDE)
        return OnlineContext(config, fixtures, served_period, served, hours)

    @staticmethod
    def history(ctx: OnlineContext, t: int):
        """The served period's first t hours, as the engine passes them in."""
        d = ctx.served_period
        return eucsim.TimeSeriesDataset(
            prices=d.prices[:t],
            consumptions=d.consumptions[:t],
            hours=d.hours[:t],
            intervals_per_day=d.intervals_per_day,
        )

    def round(self, ctx: OnlineContext, out_dir: str, workers: int) -> Round:
        """One query per queried hour. Each asks every served model for the
        next hour at the posted price, and the LSTM for a 24-hour plan."""
        predict_ms, rollout_ms, answered, errors = [], [], [], []
        prices = ctx.served_period.prices
        start, cpu = time.perf_counter(), cpu_seconds()
        for t in ctx.hours:
            history = self.history(ctx, t)
            try:
                t0 = time.perf_counter()
                answers = {
                    kind: models.predict_one_step(model, history, float(prices[t]), t)
                    for kind, model in ctx.served.items()
                }
                t1 = time.perf_counter()
                plan = models.rollout(ctx.served["lstm"], history, prices[t : t + ROLLOUT_HOURS])
                t2 = time.perf_counter()
            except Exception as exc:  # a failed query is counted, and the run goes on
                errors.append(f"hour {t}: {type(exc).__name__}: {exc}")
                continue
            predict_ms.append(1e3 * (t1 - t0))
            rollout_ms.append(1e3 * (t2 - t1))
            answered.append((t, answers, plan))
        result = Round(time.perf_counter() - start, cpu_seconds() - cpu, out_dir)
        result.extra = {
            "answered": answered,
            "errors": errors,
            "predict_ms": predict_ms,
            "rollout_ms": rollout_ms,
        }
        return result

    def record(self, result: Round) -> None:
        pass

    def figures(self, ctx: OnlineContext, rounds: list[Round]) -> dict:
        predict = [v for r in rounds for v in r.extra["predict_ms"]]
        rollout = [v for r in rounds for v in r.extra["rollout_ms"]]
        tail_ms, tail_pct, n = tail(predict)
        return {
            "predictions_per_s": ONLINE_QUERIES / median([r.wall_s for r in rounds]),
            "predict_p50_ms": median(predict),
            "predict_tail_ms": tail_ms,
            "predict_tail_percentile": tail_pct,
            "predict_samples": n,
            "rollout_p50_ms": median(rollout),
            "rollout_samples": len(rollout),
            "first_query_hour": ctx.hours.start,
            "last_query_hour": ctx.hours[-1],
        }

    def outcome(self, ctx: OnlineContext, rounds: list[Round]) -> Outcome:
        """Timed queries plus the untimed checks below, each one operation.

        The reference for a query at hour t is the teacher-forced rollout,
        from WARMUP on, of a freshly loaded copy of the model: its value at
        t is the one-step prediction given the true history. A timed query
        fails when it raised, or when an answer differs from that reference
        by a single bit, or when the plan is not finite and positive or does
        not start with the LSTM's answer. The linear fixture, which is not
        served, gets the same rollout-equals-one-step check at the queried
        hours. Each fixture must reproduce, after reloading, its test MAPE
        from training.

        The test MAPE of each served model is that of the reference over
        served hours [WARMUP, end).
        """
        loaded = {k: models.load_model(os.path.join(ctx.fixtures, f"{k}.json")) for k, _ in FIXTURES}
        with open(os.path.join(ctx.fixtures, "expected.json")) as handle:
            expected = json.load(handle)
        d = ctx.served_period
        reference = {
            kind: models.rollout(model, self.history(ctx, WARMUP), d.prices[WARMUP:], d.consumptions[WARMUP:])
            for kind, model in loaded.items()
        }

        problems = []
        wrong = 0
        for i, r in enumerate(rounds):
            for t, answers, plan in r.extra["answered"]:
                forced = {kind: reference[kind][t - WARMUP] for kind in answers}
                values = np.array([*answers.values(), *plan])
                if not (
                    answers == forced
                    and np.all(np.isfinite(values))
                    and np.all(values > 0)
                    and plan[0] == answers["lstm"]  # the plan's first hour sees the query's inputs
                ):
                    wrong += 1
                    problems.append(f"round {i}, hour {t}: answers {answers}, plan[0] {plan[0]!r}, expected {forced}")
        errors = [e for r in rounds for e in r.extra["errors"]]
        if errors:
            problems.append(f"{len(errors)} timed queries raised, first: {errors[0]}")

        bad_hours = 0
        for t in ctx.hours:
            single = models.predict_one_step(loaded["linear"], self.history(ctx, t), float(d.prices[t]), t)
            if single != reference["linear"][t - WARMUP]:
                bad_hours += 1
                problems.append(f"linear: teacher-forced rollout differs at hour {t}")
        bad_fixtures = 0
        for kind, model in loaded.items():
            again = metrics.evaluate(model, d, "test").mape_pct
            if again != expected[kind]:
                bad_fixtures += 1
                problems.append(f"{kind}: reloaded test MAPE {again!r} != trained {expected[kind]!r}")
        test_mape = {kind: metrics.mape(d.consumptions[WARMUP:], reference[kind]) for kind in SERVED}

        attempted = ONLINE_QUERIES * len(rounds) + len(ctx.hours) + len(loaded)
        failed = wrong + len(errors) + bad_hours + bad_fixtures
        return Outcome(attempted, failed, problems[:20], test_mape)


WORKLOADS = {w.name: w for w in (PaperTables(), PopulationScale(), OnlinePricing())}
