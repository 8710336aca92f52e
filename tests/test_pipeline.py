"""Pipeline tests: config-driven simulation, job layout, failure cleanup."""

import ctypes
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from drlearn import pipeline
from drlearn.cli import main
from drlearn.config import dump_config, parse_config
from drlearn.errors import ConfigError, DataError
from drlearn.eucsim import write_dataset
from drlearn.models import flat_params
from drlearn.pipeline import (
    benchmark_jobs,
    run_benchmark,
    simulate_from_config,
    train_model,
)

TINY_DOC = {
    "simulation": {"euc_count": 8, "horizon": 480},
    "training": {
        "steps": 30,
        "window_length": 24,
        "fnn_hidden": [8],
        "rnn_hidden": [6],
        "lstm_hidden": [6],
    },
    "benchmark": {"train_len": 360, "orders": [0, 1]},
}


def tiny_config(**overrides):
    doc = {section: dict(values) for section, values in TINY_DOC.items()}
    for section, values in overrides.items():
        doc[section].update(values)
    return parse_config(doc)


class TestSimulateFromConfig:
    def test_deterministic_and_sized(self):
        config = tiny_config()
        a = simulate_from_config(config)
        b = simulate_from_config(config)
        assert len(a) == 480
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.consumptions, b.consumptions)

    def test_profile_file_used_and_truncated(self, tmp_path):
        path = tmp_path / "profile.csv"
        values = 0.5 + 0.4 * np.cos(np.arange(600) / 7.0)
        path.write_text("\n".join(str(v) for v in values) + "\n")
        config = tiny_config(simulation={"profile_path": str(path)})
        dataset = simulate_from_config(config)
        assert len(dataset) == 480
        synthetic = simulate_from_config(tiny_config())
        assert not np.array_equal(dataset.consumptions, synthetic.consumptions)

    def test_short_profile_file_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("\n".join(["0.5"] * 100) + "\n")
        config = tiny_config(simulation={"profile_path": str(path)})
        with pytest.raises(DataError, match="horizon needs 480"):
            simulate_from_config(config)

    def test_price_seed_changes_prices_only(self):
        base = simulate_from_config(tiny_config())
        other = simulate_from_config(tiny_config(simulation={"price_seed": 99}))
        assert not np.array_equal(base.prices, other.prices)


class TestTrainModel:
    def test_recurrent_order_forced_to_one(self):
        config = tiny_config()
        dataset = simulate_from_config(config)
        entry = train_model(config, dataset, "rnn", 5)
        assert entry.order == 1
        assert entry.name == "rnn"
        assert entry.model.state_config.order == 1

    def test_linear_has_no_loss_curve(self):
        config = tiny_config()
        dataset = simulate_from_config(config)
        entry = train_model(config, dataset, "linear", 2)
        assert entry.final_loss is None
        assert entry.train_report.split == "train"
        assert entry.test_report.split == "test"

    def test_trained_losses_are_finite(self):
        config = tiny_config()
        dataset = simulate_from_config(config)
        entry = train_model(config, dataset, "fnn", 1)
        assert entry.final_loss is not None and np.isfinite(entry.final_loss)

    @pytest.mark.parametrize("column, value", [("consumptions", np.nan), ("prices", np.inf)])
    def test_non_finite_data_rejected_before_fitting(self, capfd, column, value):
        # a NaN reaching the least-squares fit made LAPACK print to stderr and fail
        config = tiny_config()
        dataset = simulate_from_config(config)
        getattr(dataset, column)[100] = value
        with pytest.raises(DataError, match="at index 100 must both be finite"):
            train_model(config, dataset, "linear", 1)
        assert capfd.readouterr().err == ""

    def test_finite_data_too_large_to_standardize_names_the_column(self):
        # finite, but their squares overflow, so the standard deviation is not finite
        config = tiny_config()
        dataset = simulate_from_config(config)
        dataset.consumptions[:] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^train split column consumption_lag1: standard"
                               " deviation is not finite"):
                train_model(config, dataset, "linear", 1)

    @pytest.mark.parametrize(
        "overrides, kind, order, message",
        [
            ({"training": {"time_encoding": "one_hot"}, "benchmark": {"kinds": ["fnn"]}},
             "linear", 0, "training.time_encoding: the linear family cannot fit one_hot"),
            ({"training": {"window_length": 400}, "benchmark": {"kinds": ["linear"]}},
             "lstm", 1, "training.window_length: a window of 400 steps"),
            ({"benchmark": {"train_len": 460, "kinds": ["linear"]}}, "rnn", 1,
             "benchmark.train_len: recurrent evaluation needs a test split of more than 25"
             " intervals, got 20 (series length 480)"),
            ({}, "fnn", 200,
             "benchmark.orders: order 200 needs a test split longer than it, got 120"
             " intervals (benchmark.train_len 360, series length 480)"),
        ],
        ids=["linear-one-hot", "lstm-window", "rnn-test-split", "fnn-order-past-test-split"],
    )
    def test_config_rules_of_the_job_refused_before_fitting(self, overrides, kind, order, message):
        config = tiny_config(**overrides)
        dataset = simulate_from_config(config)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            train_model(config, dataset, kind, order)

    def test_order_past_the_test_split_names_the_source_it_is_given(self):
        config = tiny_config()
        dataset = simulate_from_config(config)
        with pytest.raises(ConfigError, match=r"^order: order 200 needs a test split longer"):
            train_model(config, dataset, "fnn", 200, "order")

    def test_series_shorter_than_the_train_split_is_refused(self):
        config = tiny_config()
        short = tiny_config(simulation={"horizon": 336}, benchmark={"train_len": 240})
        dataset = simulate_from_config(short)
        with pytest.raises(
            ConfigError,
            match=r"^benchmark\.train_len: must be < the series length \(336\), got 360$",
        ):
            train_model(config, dataset, "linear", 0)

    def test_unknown_kind_rejected(self):
        config = tiny_config()
        dataset = simulate_from_config(config)
        with pytest.raises(ValueError, match="unknown model kind"):
            train_model(config, dataset, "forest", 0)


class TestBenchmarkJobs:
    def test_default_layout(self):
        jobs = benchmark_jobs(tiny_config())
        assert jobs == [
            ("linear", 0), ("linear", 1),
            ("fnn", 0), ("fnn", 1),
            ("rnn", 1), ("lstm", 1),
        ]

    def test_restricted_kinds(self):
        jobs = benchmark_jobs(tiny_config(benchmark={"kinds": ["fnn", "lstm"]}))
        assert jobs == [("fnn", 0), ("fnn", 1), ("lstm", 1)]


class TestRunBenchmark:
    def test_parallel_matches_serial(self, tmp_path):
        config = tiny_config()  # all four kinds
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_benchmark(config, str(serial), workers=1)
        run_benchmark(config, str(parallel), workers=2)
        models = sorted(os.listdir(serial / "models"))
        assert models == sorted(os.listdir(parallel / "models"))
        assert models == [f"{k}_n{n}.json" for k in ("fnn", "linear") for n in (0, 1)] + [
            "lstm.json",
            "rnn.json",
        ]
        for name in ["report.json", "violin.csv"] + [f"models/{m}" for m in models]:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name

    def test_pool_models_keep_one_buffer(self, tmp_path):
        result = run_benchmark(tiny_config(), str(tmp_path / "bench"), workers=2)
        assert [entry.kind for entry in result.trained] == ["linear"] * 2 + ["fnn"] * 2 + [
            "rnn",
            "lstm",
        ]
        for entry in result.trained:
            model = entry.model
            views = flat_params(model) + [b for layer in model.blocks for b in layer.values()]
            assert all(np.shares_memory(v, model.buffer) for v in views if v.size), entry.name

    def test_failure_names_stage_and_cleans_up(self, tmp_path):
        # order 5 on a 10-interval train split leaves too few samples, so the
        # linear fit fails; the benchmark must remove everything it wrote
        # (linear only: config validation already rejects a 24-step window there)
        config = tiny_config(benchmark={"train_len": 10, "orders": [5], "kinds": ["linear"]})
        out_dir = tmp_path / "bench"
        with pytest.raises(ValueError, match="benchmark stage 'train linear_n5' failed"):
            run_benchmark(config, str(out_dir), workers=1)
        assert not (out_dir / "dataset.csv").exists()
        assert not (out_dir / "report.json").exists()
        assert list((out_dir / "models").iterdir()) == []

    def test_pool_failure_names_job_and_cleans_up(self, tmp_path):
        # the same failing job in a worker pool: the error names the job, not only the pool
        config = tiny_config(benchmark={"train_len": 10, "orders": [5], "kinds": ["linear"]})
        out_dir = tmp_path / "bench"
        stage = r"'train linear_n5 \(worker pool\)'"
        with pytest.raises(ValueError, match=f"benchmark stage {stage} failed"):
            run_benchmark(config, str(out_dir), workers=2)
        assert not (out_dir / "dataset.csv").exists()
        assert not (out_dir / "config.yaml").exists()
        assert list((out_dir / "models").iterdir()) == []

    def test_result_surfaces_tables_and_paths(self, tmp_path):
        config = tiny_config(benchmark={"kinds": ["linear"]})
        result = run_benchmark(config, str(tmp_path / "bench"), workers=1)
        assert set(result.tables) == {"linear"}
        assert os.path.exists(result.report_path)
        assert os.path.exists(result.violin_path)
        assert [entry.name for entry in result.trained] == ["linear n=0", "linear n=1"]


def blas_threads():
    functions = pipeline._blas_thread_functions()
    return None if functions is None else functions[0]()


@pytest.fixture
def two_threads():
    """The caller runs at two OpenBLAS threads, and has its count back after the test."""
    functions = pipeline._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy loaded no OpenBLAS")
    get_threads, set_threads = functions
    before = get_threads()
    set_threads(2)
    yield functions
    set_threads(before)


@pytest.fixture
def fresh_lookup():
    """An uncached OpenBLAS lookup in the test, and none left cached after it:
    a cached None would make two_threads skip every later pin test."""
    pipeline._blas_thread_functions.cache_clear()
    yield
    pipeline._blas_thread_functions.cache_clear()


def record_fit_threads(monkeypatch, tmp_path, fail=False):
    """Make every linear fit inside train_model append the BLAS thread count it
    runs at to a file, since pool workers are other processes; return a
    function that reads the counts."""
    log = tmp_path / "threads.log"
    fit = pipeline.linear_fit

    def recording_fit(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{blas_threads()}\n")
        if fail:
            raise ValueError("job failed")
        return fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "linear_fit", recording_fit)
    return lambda: [int(n) for n in log.read_text().split()] if log.exists() else []


class TestTrainingBlasThreads:
    """train_model trains at one BLAS thread wherever it is called, and gives
    its caller the thread count back afterwards."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_jobs_run_at_one_thread_and_count_is_restored(
        self, tmp_path, monkeypatch, two_threads, workers
    ):
        seen = record_fit_threads(monkeypatch, tmp_path)
        config = tiny_config(benchmark={"kinds": ["linear"]})
        run_benchmark(config, str(tmp_path / "bench"), workers=workers)
        assert seen() == [1, 1]
        assert blas_threads() == 2

    @pytest.mark.parametrize(
        "workers, stage, fits",
        [(1, "'train linear_n0'", [1]), (2, r"'train linear_n0 \(worker pool\)'", [1, 1])],
        ids=["serial", "pool"],
    )
    def test_count_is_restored_when_a_job_fails(
        self, tmp_path, monkeypatch, two_threads, workers, stage, fits
    ):
        seen = record_fit_threads(monkeypatch, tmp_path, fail=True)
        config = tiny_config(benchmark={"kinds": ["linear"]})
        with pytest.raises(ValueError, match=f"{stage} failed: job failed"):
            run_benchmark(config, str(tmp_path / "bench"), workers=workers)
        assert seen() == fits
        assert blas_threads() == 2

    def test_cli_train_runs_at_one_thread(self, tmp_path, monkeypatch, two_threads):
        config = tiny_config()
        config_path, data_path = tmp_path / "config.yaml", tmp_path / "data.csv"
        config_path.write_text(dump_config(config))
        write_dataset(simulate_from_config(config), str(data_path))
        seen = record_fit_threads(monkeypatch, tmp_path)
        code = main([
            "train", "--config", str(config_path), "--data", str(data_path),
            "--model", "linear", "--out", str(tmp_path / "model.json"),
        ])
        assert code == 0
        assert seen() == [1]
        assert blas_threads() == 2


def test_overlapping_train_model_threads_end_at_the_callers_count(monkeypatch, two_threads):
    # thread a enters the pin, then b; a leaves while b still trains, then b
    # leaves: the pins are counted, so the caller gets its two threads back
    config = tiny_config(benchmark={"kinds": ["linear"]})
    dataset = simulate_from_config(config)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}
    fit = pipeline.linear_fit

    def gated_fit(*args, **kwargs):
        name = threading.current_thread().name
        seen[name] = blas_threads()
        (a_in if name == "a" else b_in).set()
        assert (b_in if name == "a" else a_out).wait(10)
        return fit(*args, **kwargs)

    def run_a():
        train_model(config, dataset, "linear", 0)
        a_out.set()

    def run_b():
        assert a_in.wait(10)
        train_model(config, dataset, "linear", 1)

    monkeypatch.setattr(pipeline, "linear_fit", gated_fit)
    threads = [threading.Thread(target=run_a, name="a"), threading.Thread(target=run_b, name="b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {"a": 1, "b": 1}
    assert blas_threads() == 2


def test_blas_pin_holds_under_many_threads(two_threads):
    # more threads than cores, switching often: inside, every thread sees one
    # BLAS thread, and once all have left the caller has its two back
    get_threads = pipeline._blas_thread_functions()[0]
    seen, interval = [], sys.getswitchinterval()

    def pin_often():
        for _ in range(200):
            with pipeline._single_blas_thread():
                seen.append(get_threads())

    threads = [threading.Thread(target=pin_often) for _ in range(6)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1] * 1200
    assert blas_threads() == 2


def test_openblas_is_looked_up_once_per_process(monkeypatch, fresh_lookup):
    config = tiny_config(benchmark={"kinds": ["linear"]})
    dataset = simulate_from_config(config)
    loads = []
    load = pipeline.ctypes.CDLL

    def spying_load(*args, **kwargs):
        loads.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(pipeline.ctypes, "CDLL", spying_load)
    for order in (0, 1, 0, 1, 0):
        train_model(config, dataset, "linear", order)
    assert len(loads) == 1


def raise_os_error(*args, **kwargs):
    raise OSError("cannot load")


@pytest.mark.parametrize(
    "load",
    [raise_os_error, lambda *args, **kwargs: object()],
    ids=["unloadable", "no-symbols"],
)
def test_no_openblas_trains_without_a_pin(monkeypatch, two_threads, fresh_lookup, load):
    # with no OpenBLAS found, train_model trains and leaves the caller's count
    # alone, inside and after the job
    get_threads = two_threads[0]
    monkeypatch.setattr(pipeline.ctypes, "CDLL", load)
    assert pipeline._blas_thread_functions() is None
    seen = []
    fit = pipeline.linear_fit

    def recording_fit(*args, **kwargs):
        seen.append(get_threads())
        return fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "linear_fit", recording_fit)
    config = tiny_config(benchmark={"kinds": ["linear"]})
    trained = train_model(config, simulate_from_config(config), "linear", 1)
    assert trained.test_report.mape_pct > 0
    assert seen == [2]
    assert get_threads() == 2


def test_thread_count_reaches_the_mapped_openblas(two_threads):
    # the oracle: a count set through the looked-up pair is read back by the
    # OpenBLAS that the process's memory map shows loaded
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
    with open("/proc/self/maps") as maps:
        # the pathname, the sixth field, may itself hold spaces
        paths = {
            fields[5]
            for fields in (line.rstrip("\n").split(maxsplit=5) for line in maps)
            if len(fields) == 6 and "openblas" in fields[5].rsplit("/", 1)[-1]
        }
    spellings = ("openblas_{}", "openblas_{}64_", "scipy_openblas_{}", "scipy_openblas_{}64_")
    readers = []
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for spelling in spellings:
            reader = getattr(library, spelling.format("get_num_threads"), None)
            if reader is not None:
                reader.argtypes, reader.restype = [], ctypes.c_int
                readers.append(reader)
                break
    assert readers, f"no OpenBLAS thread getter in the mapped {sorted(paths)}"
    set_threads = two_threads[1]
    readings = []
    for count in (1, 2, 1):
        set_threads(count)
        readings.append([reader() for reader in readers])
    # one mapped OpenBLAS (numpy's) follows every count set
    assert [1, 2, 1] in [list(column) for column in zip(*readings)]


def test_pool_submits_longest_first(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(pool, fn, *args):
        submitted.append(args[2:])
        return submit(pool, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    config = tiny_config(training={"steps": 5})
    result = run_benchmark(config, str(tmp_path / "bench"), workers=2)
    longest_first = [("lstm", 1), ("rnn", 1), ("fnn", 0), ("fnn", 1), ("linear", 0), ("linear", 1)]
    assert submitted == longest_first
    # the results still come back in job order
    assert [(entry.kind, entry.order) for entry in result.trained] == benchmark_jobs(config)


def test_pool_has_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a fork pool starts all max_workers processes at the first submit
    from concurrent.futures import ProcessPoolExecutor

    sizes = []
    init = ProcessPoolExecutor.__init__

    def recording_init(pool, *args, **kwargs):
        sizes.append(kwargs.get("max_workers"))
        init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", recording_init)
    config = tiny_config(benchmark={"kinds": ["linear"], "orders": [0, 1]})
    run_benchmark(config, str(tmp_path / "bench"), workers=4)
    assert sizes == [2]
