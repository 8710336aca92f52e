"""The perfbench tracer still finds every function it wraps, training still
calls the wrapped kernels once per step, and serving still calls the wrapped
queries and recurrent steps.

The per-layer metrics of perfbench/run.py count spans of the names in
tracing.TARGETS. A refactor that renames a target, or that makes training
call a kernel some other way than through the module attribute the tracer
replaces, would blank those metrics without failing anything else.
"""

import importlib.util
import os

import numpy as np
import pytest

# Tracer.install finds each module it wraps in sys.modules, so all are imported
import drlearn.ioutil
import drlearn.metrics
import drlearn.models.predict
import drlearn.models.serialize
import drlearn.pipeline
from drlearn.config import parse_config
from drlearn.eucsim import TimeSeriesDataset
from drlearn.features import SequenceSet, SupervisedSet
from drlearn.models import TrainConfig, fnn, recurrent

STEPS = 7
TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
V1_LSTM = os.path.join(os.path.dirname(__file__), "data", "lstm_two_layer_v1.json")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_counts(train) -> dict[str, int]:
    """Span counts by name while train runs under an installed Tracer."""
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # raises when a target no longer exists
        train()
    finally:
        tracer.uninstall()
    counts: dict[str, int] = {}
    for name, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


def train_fnn():
    rng = np.random.default_rng(0)
    dataset = SupervisedSet(
        inputs=rng.normal(size=(40, 3)), targets=rng.normal(size=40), feature_layout=("a", "b", "c")
    )
    fnn.train_fnn(dataset, [4], TrainConfig(steps=STEPS, batch_size=8))


def train_recurrent(kind):
    rng = np.random.default_rng(1)
    dataset = SequenceSet(
        inputs=rng.normal(size=(10, 5, 3)),
        targets=rng.normal(size=(10, 5)),
        window_length=5,
        feature_layout=("a", "b", "c"),
    )
    recurrent.train_recurrent(dataset, kind, [4, 3], TrainConfig(steps=STEPS, batch_size=4))


@pytest.mark.parametrize(
    "train, kernel",
    [
        (train_fnn, "models.fnn.fnn_loss_and_grads"),
        (lambda: train_recurrent("rnn"), "models.recurrent.rnn_loss_and_grads"),
        (lambda: train_recurrent("lstm"), "models.recurrent.lstm_loss_and_grads"),
    ],
    ids=["fnn", "rnn", "lstm"],
)
def test_every_training_step_is_traced(train, kernel):
    counts = traced_counts(train)
    assert counts.get(kernel) == STEPS
    assert counts.get("models.adam.step") == STEPS


def serve_lstm():
    """Three one-step queries and one 5-hour rollout of a two-layer LSTM, each
    called through the drlearn.models attribute, as perfbench/workloads.py
    calls them: a name imported before the tracer is installed is not wrapped."""
    rng = np.random.default_rng(2)
    history = TimeSeriesDataset(
        prices=rng.uniform(20.0, 50.0, 60),
        consumptions=rng.uniform(10.0, 90.0, 60),
        hours=np.arange(60, dtype=np.int64) % 24,
    )
    model = drlearn.models.load_model(V1_LSTM)
    for t in (30, 40, 41):
        drlearn.models.predict_one_step(model, history, 35.0, t)
    drlearn.models.rollout(model, history, np.full(5, 35.0))


def test_every_serving_query_and_step_is_traced():
    # replays go through run, which the tracer does not wrap: one step per query
    # hour and per rollout hour
    counts = traced_counts(serve_lstm)
    assert counts.get("models.predict.predict_one_step") == 3
    assert counts.get("models.predict.rollout") == 1
    assert counts.get("models.recurrent.step") == 8


def test_population_path_is_traced(tmp_path):
    # the population-scale workload in small: a serial, linear-only benchmark
    # whose simulate, write_dataset and fits set that workload's layer figures
    config = parse_config({
        "simulation": {"euc_count": 8, "horizon": 480},
        "benchmark": {"train_len": 360, "orders": [0, 1, 2], "kinds": ["linear"]},
    })
    counts = traced_counts(lambda: drlearn.pipeline.run_benchmark(config, str(tmp_path / "bench")))
    assert counts.get("eucsim.simulate") == 1
    assert counts.get("eucsim.write_dataset") == 1
    assert counts.get("pipeline.train_model") == 3
    assert counts.get("models.linear.linear_fit") == 3
    assert counts.get("metrics.evaluate") == 6  # train and test split per model
