"""Pipeline tests: config-driven simulation, job layout, failure cleanup."""

import ctypes
import os

import numpy as np
import pytest

from drlearn import pipeline
from drlearn.config import parse_config
from drlearn.errors import DataError
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


def test_pool_worker_runs_one_blas_thread():
    if blas_threads() is None:
        pytest.skip("numpy loaded no OpenBLAS")
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1, initializer=pipeline._one_blas_thread) as pool:
        assert pool.submit(blas_threads).result() == 1


class TestSerialBlasThreads:
    """The serial path trains at one BLAS thread and gives the caller its
    thread count back afterwards."""

    @pytest.fixture
    def two_threads(self):
        if blas_threads() is None:
            pytest.skip("numpy loaded no OpenBLAS")
        set_threads = pipeline.openblas_function("set_num_threads", [ctypes.c_int], None)
        before = blas_threads()
        set_threads(2)
        yield
        set_threads(before)

    @staticmethod
    def record_threads(monkeypatch, fail=False):
        seen = []
        train = pipeline.train_model

        def recording_train(*args):
            seen.append(blas_threads())
            if fail:
                raise ValueError("job failed")
            return train(*args)

        monkeypatch.setattr(pipeline, "train_model", recording_train)
        return seen

    def test_jobs_run_at_one_thread_and_count_is_restored(self, tmp_path, monkeypatch, two_threads):
        seen = self.record_threads(monkeypatch)
        run_benchmark(tiny_config(benchmark={"kinds": ["linear"]}), str(tmp_path / "bench"))
        assert seen == [1, 1]
        assert blas_threads() == 2

    def test_count_is_restored_when_a_job_fails(self, tmp_path, monkeypatch, two_threads):
        seen = self.record_threads(monkeypatch, fail=True)
        with pytest.raises(ValueError, match="'train linear_n0' failed: job failed"):
            run_benchmark(tiny_config(benchmark={"kinds": ["linear"]}), str(tmp_path / "bench"))
        assert seen == [1]
        assert blas_threads() == 2


def test_pool_pins_workers_and_submits_longest_first(tmp_path, monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    initializers, submitted = [], []
    init, submit = ProcessPoolExecutor.__init__, ProcessPoolExecutor.submit

    def recording_init(pool, *args, **kwargs):
        initializers.append(kwargs.get("initializer"))
        init(pool, *args, **kwargs)

    def recording_submit(pool, fn, *args):
        submitted.append(args[2:])
        return submit(pool, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", recording_init)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    config = tiny_config(training={"steps": 5})
    result = run_benchmark(config, str(tmp_path / "bench"), workers=2)
    assert initializers == [pipeline._one_blas_thread]
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
