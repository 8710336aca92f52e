"""End-to-end stages: simulate a dataset, train one model, run the benchmark."""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from .config import MODEL_KINDS, RunConfig, benchmark_jobs, dump_config
from .errors import DataError
from .eucsim import (
    LoadProfile,
    TimeSeriesDataset,
    generate_profile,
    load_profile,
    sample_population,
    sample_prices,
    simulate,
    write_dataset,
)
from .features import (
    build_direct_dataset,
    build_sequence_dataset,
    fit_scaler,
    split,
)
from .metrics import (
    EvalReport,
    evaluate,
    model_name,
    table_from_reports,
    write_report_document,
    write_violin_csv,
)
from .models import LinearModel, linear_fit, save_model, train_fnn, train_recurrent
from .models.common import model_class
from .ioutil import atomic_write_text


def simulate_from_config(config: RunConfig) -> TimeSeriesDataset:
    """Population, profile, and prices from the configured seeds, then simulate."""
    sim = config.simulation
    population = sample_population(
        sim.euc_count,
        sim.population_seed,
        peak_range=(sim.peak_low, sim.peak_high),
        rho_scale=sim.rho_scale,
        min_fraction=sim.min_fraction,
    )
    if sim.profile_path is not None:
        profile = load_profile(sim.profile_path)
        if len(profile.values) < sim.horizon:
            raise DataError(
                f"profile {sim.profile_path} has {len(profile.values)} intervals,"
                f" horizon needs {sim.horizon}"
            )
        if len(profile.values) > sim.horizon:
            profile = LoadProfile(values=profile.values[: sim.horizon], source=profile.source)
    else:
        profile = generate_profile(sim.horizon, sim.intervals_per_day, sim.profile_seed)
    prices = sample_prices(sim.horizon, sim.price_low, sim.price_high, sim.price_seed)
    return simulate(
        population,
        prices,
        profile,
        noise_std=sim.noise_std,
        rng_seed=sim.noise_seed,
        intervals_per_day=sim.intervals_per_day,
        resample_alpha_hourly=sim.resample_alpha_hourly,
    )


@dataclass(frozen=True)
class TrainedModel:
    """One benchmark entry: the fitted model plus its split reports."""

    kind: str
    order: int
    model: object
    final_loss: float | None  # None for the closed-form linear fit
    train_report: EvalReport
    test_report: EvalReport

    @property
    def name(self) -> str:
        return model_name(self.kind, self.order)


def train_model(
    config: RunConfig, dataset: TimeSeriesDataset, kind: str, order: int,
    order_source: str = "benchmark.orders",
) -> TrainedModel:
    """Fit one model on the train split and evaluate it on both splits, at one
    OpenBLAS thread (see `_single_blas_thread`). A job the config cannot
    train is a ConfigError; one for its order names order_source."""
    config.check_jobs([(kind, order)], len(dataset), order_source)
    with _single_blas_thread():
        cls = model_class(kind)
        train_ts, test_ts = split(dataset, config.benchmark.train_len)
        order = 1 if cls.recurrent else order  # a recurrent step carries the latest observation
        state_cfg = config.state_config(order)
        if cls.recurrent:
            raw = build_sequence_dataset(train_ts, config.training.window_length, state_cfg)
        else:
            raw = build_direct_dataset(train_ts, state_cfg)
        scaler = fit_scaler(raw)
        scaler.transform_inputs(raw.inputs, out=raw.inputs)  # raw's arrays are this call's own
        scaler.transform_targets(raw.targets, out=raw.targets)
        if cls is LinearModel:
            model, losses = linear_fit(raw, scaler=scaler, state_config=state_cfg), None
        else:
            hidden = list(getattr(config.training, f"{kind}_hidden"))
            if cls.recurrent:
                model, losses = train_recurrent(raw, kind, hidden, config.training, scaler, state_cfg)
            else:
                model, losses = train_fnn(raw, hidden, config.training, scaler, state_cfg)
        del raw  # not held through the evaluations
        return TrainedModel(
            kind=kind,
            order=order,
            model=model,
            final_loss=None if losses is None else float(losses[-1]),
            train_report=evaluate(model, train_ts, "train"),
            test_report=evaluate(model, test_ts, "test"),
        )


def _file_name(kind: str, order: int) -> str:
    """The model name as a file name: "linear n=2" becomes linear_n2."""
    return model_name(kind, order).replace(" n=", "_n")


# Pool jobs go in longest first, so the LSTM does not start last and set the wall time.
SUBMIT_ORDER = ("lstm", "rnn", "fnn", "linear")

DIRECT_TITLES = {
    "linear": "Dynamic demand-response model, linear family",
    "fnn": "Dynamic demand-response model, feedforward family",
}


@functools.cache
def _blas_thread_functions() -> tuple | None:
    """OpenBLAS's get_num_threads and set_num_threads, or None when numpy
    links no OpenBLAS. Looked up once per process, through numpy's own
    linear-algebra extension: a symbol lookup on its handle searches the
    libraries it depends on, so it finds the OpenBLAS numpy uses, under
    whichever spelling numpy carries (scipy_openblas_get_num_threads64_).
    A forked worker inherits the library and the lookup."""
    try:
        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for spelling in ("openblas_{}", "openblas_{}64_", "scipy_openblas_{}", "scipy_openblas_{}64_"):
        get_threads = getattr(library, spelling.format("get_num_threads"), None)
        set_threads = getattr(library, spelling.format("set_num_threads"), None)
        if get_threads is not None and set_threads is not None:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get_threads, set_threads
    return None


_pin_lock = threading.Lock()
_pin = {"held": 0, "threads": None}  # pins held now, and the count the first one found


@contextmanager
def _single_blas_thread():
    """Run the block at one OpenBLAS thread, if one is loaded, and give the
    caller its process-wide count back after, also when the block raises.
    Pins are counted under a lock: the first to enter keeps the count and
    sets one thread, the last to leave restores it, so train_model calls
    that overlap in threads end at the caller's count.
    The models' matrices are small: a second thread costs CPU and saves
    little or no time, and a pool worker already owns a core."""
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get_threads, set_threads = functions
    with _pin_lock:
        if _pin["held"] == 0:
            _pin["threads"] = get_threads()
            set_threads(1)
        _pin["held"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["held"] -= 1
            if _pin["held"] == 0:
                set_threads(_pin["threads"])


@dataclass(frozen=True)
class BenchmarkResult:
    trained: list[TrainedModel]
    tables: dict[str, str]  # family tag -> rendered text table
    report_path: str
    violin_path: str


def run_benchmark(config: RunConfig, out_dir: str, workers: int = 1) -> BenchmarkResult:
    """Train every configured model, then emit reports, tables, and violin data.

    Any failure removes the files already written to out_dir and re-raises
    with the failing stage named.
    """
    os.makedirs(out_dir, exist_ok=True)
    models_dir = os.path.join(out_dir, "models")
    os.makedirs(models_dir, exist_ok=True)
    written: list[str] = []
    stage = "simulate"
    try:
        dataset = simulate_from_config(config)
        path = os.path.join(out_dir, "dataset.csv")
        write_dataset(dataset, path)
        written.append(path)
        path = os.path.join(out_dir, "config.yaml")
        atomic_write_text(path, dump_config(config))
        written.append(path)

        jobs = benchmark_jobs(config)
        trained: list[TrainedModel] = []
        if workers > 1 and jobs:
            stage = "train (worker pool)"
            # imported here, not at the top: a process that only serves never loads it
            from concurrent.futures import ProcessPoolExecutor

            # a fork pool starts all its workers at the first submit: no more than the jobs
            size = min(workers, len(jobs))
            with ProcessPoolExecutor(max_workers=size) as pool:
                by_length = sorted(range(len(jobs)), key=lambda j: SUBMIT_ORDER.index(jobs[j][0]))
                futures = {j: pool.submit(train_model, config, dataset, *jobs[j]) for j in by_length}
                for j, (kind, order) in enumerate(jobs):  # the report order
                    stage = f"train {_file_name(kind, order)} (worker pool)"
                    trained.append(futures[j].result())
        else:
            for kind, order in jobs:
                stage = f"train {_file_name(kind, order)}"
                trained.append(train_model(config, dataset, kind, order))
        for entry in trained:
            stage = f"save {entry.name}"
            path = os.path.join(models_dir, _file_name(entry.kind, entry.order) + ".json")
            save_model(entry.model, path)
            written.append(path)

        stage = "report"
        reports: list[EvalReport] = []
        for entry in trained:
            reports.extend([entry.train_report, entry.test_report])
        report_path = os.path.join(out_dir, "report.json")
        write_report_document(reports, report_path)
        written.append(report_path)

        tables: dict[str, str] = {}
        orders = config.benchmark.orders
        kinds = [k for k in MODEL_KINDS if k in config.benchmark.kinds]
        direct = [k for k in kinds if not model_class(k).recurrent]
        recurrent = [k for k in kinds if model_class(k).recurrent]
        for kind in direct:
            columns = [(str(n), model_name(kind, n)) for n in orders]
            tables[kind] = table_from_reports(DIRECT_TITLES[kind], "order n", columns, reports)
        if recurrent:
            columns = [(k.upper(), k) for k in recurrent]
            tables["recurrent"] = table_from_reports(
                "Dynamic demand-response model, recurrent families", "", columns, reports
            )
        for tag, text in tables.items():
            path = os.path.join(out_dir, f"table_{tag}.txt")
            atomic_write_text(path, text)
            written.append(path)

        stage = "violin data"
        by_name = {entry.name: entry for entry in trained}
        violin_names = [model_name(k, max(orders)) for k in direct if orders] + recurrent
        violin_reports = [by_name[n].test_report for n in violin_names if n in by_name]
        violin_path = os.path.join(out_dir, "violin.csv")
        write_violin_csv(violin_reports, violin_path)
        written.append(violin_path)
    except BaseException as exc:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        exc.args = (f"benchmark stage '{stage}' failed: {exc}",) + exc.args[1:]
        raise
    return BenchmarkResult(
        trained=trained,
        tables=tables,
        report_path=report_path,
        violin_path=violin_path,
    )
