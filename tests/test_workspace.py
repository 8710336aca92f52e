"""The training workspace: a kernel that writes into a reused workspace
gives the bits of a fresh one, and no two calls share what they return
unless they share the workspace.

A kernel runs only in a workspace that a model made, model.workspace(shape).
train_adam makes one per training call and passes it to every
*_loss_and_grads call. Whatever a workspace held from an earlier call must
not reach the next call's results, so every trained and served bit is the
same however often a workspace is reused.
"""

import sys
import threading

import numpy as np
import pytest

from drlearn.features import StateConfig, SupervisedSet, identity_scaler
from drlearn.models import (
    TrainConfig,
    flat_params,
    fnn_loss_and_grads,
    init_params,
    lstm_loss_and_grads,
    model_from_params,
    rnn_loss_and_grads,
    train_recurrent,
)

KERNELS = {"fnn": fnn_loss_and_grads, "rnn": rnn_loss_and_grads, "lstm": lstm_loss_and_grads}
CFG = StateConfig(order=1)  # price_lag1, consumption_lag1, hour_frac, price
SHAPES = [  # hidden sizes, batch, steps
    ([32], 32, 48),
    ([5, 3], 8, 12),
    ([4, 7, 2], 3, 5),
    ([32], 1, 1),
    ([32], 1, 48),
]


def model_over(kind, params):
    """A model of kind over a copy of the flat list params."""
    return model_from_params(kind, params, identity_scaler(4), CFG)


def problem(kind, hidden, batch, steps, seed):
    """A model over perturbed initial parameters, and one minibatch for it:
    (batch, steps, 4) windows for a recurrent family, batch * steps rows
    for the FNN."""
    rng = np.random.default_rng(seed)
    params = [p + 0.3 * rng.normal(size=p.shape) for p in init_params(kind, 4, hidden, rng)]
    model = model_over(kind, params)
    shape = (batch * steps, 4) if kind == "fnn" else (batch, steps, 4)
    return model, 2.0 * rng.normal(size=shape), rng.normal(size=shape[:-1])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["fnn", "rnn", "lstm"])
@pytest.mark.parametrize(
    "hidden, batch, steps", SHAPES, ids=["default", "two", "three", "batch1-step1", "batch1"]
)
def test_reused_workspace_equals_a_fresh_one_bit_for_bit(kind, hidden, batch, steps):
    model, inputs, targets = problem(kind, hidden, batch, steps, seed=len(hidden) + steps)
    params, kernel = flat_params(model), KERNELS[kind]
    loss, grads = kernel(params, inputs, targets, workspace=model.workspace(inputs.shape))
    workspace = model.workspace(inputs.shape)
    # a call on other data first: nothing of it may reach the next call's results
    kernel(params, -inputs[::-1], targets[::-1], workspace=workspace)
    ws_loss, ws_grads = kernel(params, inputs, targets, workspace=workspace)
    assert same_bits(loss, ws_loss)
    assert len(ws_grads) == len(grads)
    assert all(same_bits(g, w) for g, w in zip(grads, ws_grads))
    # the returned views are the workspace's vector, which Adam steps by
    assert all(np.shares_memory(w, workspace.grad) for w in ws_grads)
    assert same_bits(workspace.grad, grads[0].base)


@pytest.mark.parametrize("kind", ["fnn", "rnn", "lstm"])
def test_result_is_not_changed_by_a_call_on_another_workspace(kind):
    model, inputs, targets = problem(kind, [5, 3], 4, 6, seed=1)
    params, kernel = flat_params(model), KERNELS[kind]
    loss, grads = kernel(params, inputs, targets, workspace=model.workspace(inputs.shape))
    kept = [g.copy() for g in grads]
    for _ in range(2):
        kernel(params, inputs[::-1], -targets, workspace=model.workspace(inputs.shape))
    assert all(same_bits(g, k) for g, k in zip(grads, kept))
    assert kernel(params, inputs, targets, workspace=model.workspace(inputs.shape))[0] == loss


@pytest.mark.parametrize("kind", ["fnn", "rnn", "lstm"])
def test_workspace_refuses_another_shape_or_parameter_list(kind):
    model, inputs, targets = problem(kind, [5, 3], 4, 6, seed=2)
    params, kernel = flat_params(model), KERNELS[kind]
    workspace = model.workspace(inputs.shape)
    with pytest.raises(ValueError, match="workspace made for"):
        kernel(params, inputs[:-1], targets[:-1], workspace=workspace)
    other = flat_params(model_over(kind, params))
    with pytest.raises(ValueError, match="another parameter list"):
        kernel(other, inputs, targets, workspace=workspace)


@pytest.mark.parametrize("kind, shape", [("fnn", (8, 5)), ("lstm", (2, 3, 5))])
def test_workspace_refuses_another_feature_count(kind, shape):
    # accepted, it would let the kernel fail inside numpy with a matmul core-dimension error
    model, _, _ = problem(kind, [5, 3], 2, 3, seed=3)
    with pytest.raises(ValueError, match=rf"^{kind} model takes 4 features, got minibatches of 5 "):
        model.workspace(shape)


def windows(seed):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(40, 16, 4))
    targets = np.tanh(np.cumsum(inputs[..., 0], axis=1) / 3.0)
    return SupervisedSet(inputs=inputs, targets=targets, state_config=CFG)


@pytest.mark.parametrize("kind", ["rnn", "lstm"])
def test_concurrent_training_calls_equal_their_serial_results(kind):
    # each call trains from its own workspace, so calls of one shape at once
    # mix nothing: more threads than cores, switching often
    jobs = [(windows(j), TrainConfig(steps=60, batch_size=8, rng_seed=j)) for j in range(3)]
    serial = [train_recurrent(data, kind, [6, 4], cfg) for data, cfg in jobs]
    start, results = threading.Barrier(len(jobs)), [None] * len(jobs)

    def train(j):
        start.wait()
        results[j] = train_recurrent(jobs[j][0], kind, [6, 4], jobs[j][1])

    threads = [threading.Thread(target=train, args=(j,)) for j in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (model, losses), (serial_model, serial_losses) in zip(results, serial):
        assert same_bits(losses, serial_losses)
        assert same_bits(model.buffer, serial_model.buffer)
