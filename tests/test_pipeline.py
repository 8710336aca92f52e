"""Pipeline tests: config-driven simulation, job layout, failure cleanup."""

import builtins
import ctypes
import io
import os
import sys
import threading

import numpy as np
import pytest

from drlearn import pipeline
from drlearn.cli import main
from drlearn.config import dump_config, parse_config
from drlearn.errors import DataError
from drlearn.eucsim import write_dataset
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
    get_threads = pipeline.openblas_function("get_num_threads", [], ctypes.c_int)
    return None if get_threads is None else get_threads()


@pytest.mark.parametrize("with_spaced_copy", [False, True])
def test_openblas_maps_paths_with_spaces_and_skips_unloadable(
    tmp_path, monkeypatch, with_spaced_copy
):
    # the maps pathname is everything after the fifth field; a mapped
    # library that cannot be loaded is passed over, not raised
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy loaded no OpenBLAS")
    with open("/proc/self/maps") as maps:
        real = next(line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1])
    lines = ["7f0000000000-7f0000001000 r-xp 00000000 08:01 1    /absent dir/libopenblas.so\n"]
    if with_spaced_copy:
        spaced = tmp_path / "sp ace" / os.path.basename(real)
        spaced.parent.mkdir()
        spaced.symlink_to(real)
        lines.append(f"7f0000001000-7f0000002000 r-xp 00000000 08:01 2    {spaced}\n")
    monkeypatch.setattr(pipeline, "open", lambda *args: io.StringIO("".join(lines)), raising=False)
    get_threads = pipeline.openblas_function("get_num_threads", [], ctypes.c_int)
    if with_spaced_copy:
        assert get_threads() == threads
    else:
        assert get_threads is None


@pytest.fixture
def two_threads():
    """The caller runs at two OpenBLAS threads, and has its count back after the test."""
    if blas_threads() is None:
        pytest.skip("numpy loaded no OpenBLAS")
    set_threads = pipeline.openblas_function("set_num_threads", [ctypes.c_int], None)
    before = blas_threads()
    set_threads(2)
    yield
    set_threads(before)


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


def test_openblas_is_looked_up_once_per_process(monkeypatch):
    config = tiny_config(benchmark={"kinds": ["linear"]})
    dataset = simulate_from_config(config)
    reads = []

    def spying_open(path, *args, **kwargs):
        if path == "/proc/self/maps":
            reads.append(path)
        return builtins.open(path, *args, **kwargs)

    pipeline._blas_thread_functions.cache_clear()
    monkeypatch.setattr(pipeline, "open", spying_open, raising=False)
    for order in (0, 1, 0, 1, 0):
        train_model(config, dataset, "linear", order)
    assert len(reads) == 1


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
