"""In-memory span tracing of drlearn's public functions, installed from outside.

A Tracer swaps each traced function for a wrapper in every loaded drlearn
module that holds it by name (and on the class, for methods), records one
span per call, and restores the originals on uninstall. Spans stay in
memory until the run ends; per-layer metrics are derived from them.

A span is [name, start, end, parent, info]: name is "<layer>.<function>",
start and end are perf_counter seconds, parent is the index of the
enclosing span (-1 for none), info is a small per-call dict or None.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

LAYERS = (
    "eucsim",
    "features",
    "models.linear",
    "models.fnn",
    "models.recurrent",
    "models.adam",
    "models.predict",
    "models.serialize",
    "metrics",
    "pipeline",
    "ioutil",
)
UNATTRIBUTED = "unattributed"  # benchmark code between traced calls

JOB_NAMES = tuple(f"{kind}_n{order}" for kind in ("linear", "fnn") for order in range(6)) + (
    "rnn",
    "lstm",
)
SERVED_KINDS = ("fnn", "rnn", "lstm")
KINDS = ("linear", "fnn", "rnn", "lstm")


# ---------------------------------------------------------------------------
# Computed FLOP and byte counts. Matmul FLOPs are 2*m*n*k; elementwise work is
# left out. Bytes are the float64 arrays a call must read or write at least
# once: parameters, inputs, targets, stored activations and gradients.


def _size(arrays) -> int:
    return sum(int(np.size(a)) for a in arrays)


def fnn_cost(params, inputs, targets) -> tuple[float, float]:
    batch = inputs.shape[0]
    n_layers = (len(params) - 2) // 2
    flops = 0.0
    activations = inputs.size
    for l in range(n_layers):
        units, fan_in = params[2 * l].shape
        forward = 2.0 * batch * units * fan_in
        # forward, weight gradient, and input gradient below the first layer
        flops += forward * (3 if l > 0 else 2)
        activations += 2 * batch * units  # pre-activation and activation
    last = params[-2].shape[0]
    flops += 2.0 * batch * last * 2  # readout and its weight gradient
    flops += batch * last  # outer product for the top hidden gradient
    moved = 2 * _size(params) + inputs.size + targets.size + activations
    return flops, 8.0 * moved


def _recurrent_cost(params, inputs, targets, per_layer: int, gates: int) -> tuple[float, float]:
    batch, steps, _ = inputs.shape
    n_layers = (len(params) - 2) // per_layer
    flops = 0.0
    stored = 0
    for l in range(n_layers):
        units, _ = params[per_layer * l].shape
        fan_in = params[per_layer * l + 1].shape[1]
        step = gates * (2.0 * batch * units * units + 2.0 * batch * units * fan_in)
        # forward, weight gradients, and gradients into h_prev and the layer input
        flops += 3.0 * step * steps
        if gates == 1:
            stored += batch * (steps + 1) * units  # hidden states
        else:
            stored += 2 * batch * (steps + 1) * units  # hidden and cell states
            stored += gates * batch * steps * units  # gate activations
    last = params[-2].shape[0]
    flops += 2.0 * batch * steps * last * 2 + batch * steps * last
    moved = 2 * _size(params) + inputs.size + targets.size + stored
    return flops, 8.0 * moved


def rnn_cost(params, inputs, targets) -> tuple[float, float]:
    return _recurrent_cost(params, inputs, targets, per_layer=3, gates=1)


def lstm_cost(params, inputs, targets) -> tuple[float, float]:
    return _recurrent_cost(params, inputs, targets, per_layer=12, gates=4)


# ---------------------------------------------------------------------------
# Per-call info hooks: (args, kwargs, result) -> dict | None


def _cost_info(cost):
    def info(args, kwargs, result):
        flops, nbytes = cost(*args[:3])
        return {"flops": flops, "bytes": nbytes}

    return info


def _kind_info(args, kwargs, result):
    return {"kind": args[0].kind}


def _job_info(args, kwargs, result):
    kind, order = args[2], args[3]
    return {"job": kind if kind in ("rnn", "lstm") else f"{kind}_n{order}"}


def _rows_info(args, kwargs, result):
    return {"rows": int(np.prod(result.targets.shape))}


def _text_bytes_info(args, kwargs, result):
    return {"bytes": len(args[1])}


def _file_bytes_info(position: int):
    def info(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}

    return info


def _clip_info(args, kwargs):
    grads, max_norm = args
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    return {"clipped": norm > max_norm}


_clip_info.before_call = True  # the call scales grads in place


def _simulate_info(args, kwargs, result):
    dataset = result[0] if isinstance(result, tuple) else result
    return {"customer_hours": len(args[0]) * len(dataset)}


# (module, attribute, hook). Methods are "Class.method". Per-row helpers such
# as direct_feature_row and time_features are left untraced: they run
# hundreds of thousands of times per round and a span each would dominate.
TARGETS = (
    ("eucsim", "sample_population", None),
    ("eucsim", "generate_profile", None),
    ("eucsim", "sample_prices", None),
    ("eucsim", "simulate", _simulate_info),
    ("eucsim", "write_dataset", _file_bytes_info(1)),
    ("eucsim", "read_dataset", _file_bytes_info(0)),
    ("features", "split", None),
    ("features", "build_direct_dataset", _rows_info),
    ("features", "build_sequence_dataset", _rows_info),
    ("features", "sequence_step_inputs", None),
    ("features", "fit_scaler", None),
    ("features", "apply_scaler", None),
    ("models.linear", "linear_fit", None),
    ("models.fnn", "train_fnn", None),
    ("models.fnn", "fnn_loss_and_grads", _cost_info(fnn_cost)),
    ("models.recurrent", "train_recurrent", None),
    ("models.recurrent", "rnn_loss_and_grads", _cost_info(rnn_cost)),
    ("models.recurrent", "lstm_loss_and_grads", _cost_info(lstm_cost)),
    ("models.recurrent", "RnnModel.step", None),
    ("models.recurrent", "LstmModel.step", None),
    ("models.adam", "Adam.step", None),
    ("models.adam", "clip_global_norm", _clip_info),
    ("models.predict", "predict_one_step", _kind_info),
    ("models.predict", "rollout", _kind_info),
    ("models.serialize", "save_model", _file_bytes_info(1)),
    ("models.serialize", "load_model", _file_bytes_info(0)),
    ("metrics", "evaluate", _kind_info),
    ("metrics", "write_report_document", None),
    ("metrics", "write_violin_csv", None),
    ("pipeline", "run_benchmark", None),
    ("pipeline", "simulate_from_config", None),
    ("pipeline", "train_model", _job_info),
    ("ioutil", "atomic_write_text", _text_bytes_info),
)


def _span_name(module: str, attribute: str) -> str:
    # RnnModel.step and LstmModel.step share one span name, "...recurrent.step"
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans for the TARGETS while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, info: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, info])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        tracer = self
        before = getattr(hook, "before_call", False)

        def wrapper(*args, **kwargs):
            info = hook(args, kwargs) if before else None
            index = tracer.open(name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None and not before:
                tracer.spans[index][4] = hook(args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "drlearn" or n.startswith("drlearn.")]
        for module_name, attribute, hook in TARGETS:
            name = _span_name(module_name, attribute)
            home = sys.modules[f"drlearn.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, hook))
                continue
            original = getattr(home, attribute)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Compact dump: a name table, then [name_id, start_us, end_us, parent, info]."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = []
        for name, start, end, parent, info in self.spans:
            rows.append(
                [
                    names.setdefault(name, len(names)),
                    round((start - t0) * 1e6, 1),
                    round((end - t0) * 1e6, 1),
                    parent,
                    info,
                ]
            )
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_of(name: str) -> str:
    """The layer is the span name without its last component."""
    layer = name.rsplit(".", 1)[0]
    return layer if layer in LAYERS else UNATTRIBUTED


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer that no traced child span covers."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[layer_of(name)] += (end - start) - child[index]
    return totals


def layer_metrics(
    spans: list[list], rounds: int, untraced_wall_s: float, workers: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Times and counts are per traced round, except where a name says per call
    and for save_model/load_model, which are per call. The traced phase starts
    with one set-up, whose spans count like a round's. Metrics of a function
    the workload never calls read 0.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    sums: dict[str, float] = {}
    by_kind: dict[str, list[float]] = {}
    jobs: dict[str, float] = {}
    clipped = 0
    query_steps = 0
    recurrent_queries = 0

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0.0) + value

    for name, start, end, parent, info in spans:
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + duration
        if info:
            for key, value in info.items():
                if key == "kind":
                    by_kind.setdefault(f"{name}.{value}", []).append(duration)
                elif key == "job":
                    jobs[value] = jobs.get(value, 0.0) + duration
                elif key == "clipped":
                    clipped += bool(value)
                else:
                    add(f"{name}.{key}", value)
        if name == "models.recurrent.step" and parent >= 0:
            parent_span = spans[parent]
            if parent_span[0] == "models.predict.predict_one_step":
                query_steps += 1
        if (
            name == "models.predict.predict_one_step"
            and info
            and info.get("kind") in ("rnn", "lstm")
        ):
            recurrent_queries += 1

    def per_round(value: float) -> float:
        return value / rounds

    def per_call(name: str, scale: float) -> float:
        n = calls.get(name, 0)
        return busy[name] / n * scale if n else 0.0

    out: dict[str, tuple[float, str]] = {}
    for short in ("lstm", "rnn"):
        name = f"models.recurrent.{short}_loss_and_grads"
        _kernel_metrics(out, name, calls, busy, sums, rounds)
    _kernel_metrics(out, "models.fnn.fnn_loss_and_grads", calls, busy, sums, rounds)

    step = "models.recurrent.step"
    out[f"{step}.calls"] = (per_round(calls.get(step, 0)), "count")
    out[f"{step}.us_per_call"] = (per_call(step, 1e6), "us")
    adam = "models.adam.step"
    out[f"{adam}.calls"] = (per_round(calls.get(adam, 0)), "count")
    out[f"{adam}.ms_per_call"] = (per_call(adam, 1e3), "ms")
    clip = "models.adam.clip_global_norm"
    out[f"{clip}.calls"] = (per_round(calls.get(clip, 0)), "count")
    out[f"{clip}.ms_per_call"] = (per_call(clip, 1e3), "ms")
    n_clip = calls.get(clip, 0)
    out[f"{clip}.clipped_frac"] = (clipped / n_clip if n_clip else 0.0, "ratio")

    predict = "models.predict.predict_one_step"
    for kind in SERVED_KINDS:
        samples = by_kind.get(f"{predict}.{kind}", [])
        value = 1e3 * sum(samples) / len(samples) if samples else 0.0
        out[f"{predict}.{kind}.ms_per_call"] = (value, "ms")
    out["models.predict.recurrent_steps_per_query"] = (
        query_steps / recurrent_queries if recurrent_queries else 0.0,
        "count",
    )
    out["models.predict.rollout.ms_per_call"] = (per_call("models.predict.rollout", 1e3), "ms")

    for fn in ("save_model", "load_model"):  # per call: loads happen at set-up
        name = f"models.serialize.{fn}"
        n = calls.get(name, 0)
        out[f"{name}.s"] = (busy[name] / n if n else 0.0, "s")
        out[f"{name}.bytes"] = (sums[f"{name}.bytes"] / n if n else 0.0, "B")
    out["eucsim.simulate.s"] = (per_round(busy.get("eucsim.simulate", 0.0)), "s")
    out["eucsim.simulate.customer_hours"] = (
        per_round(sums.get("eucsim.simulate.customer_hours", 0.0)),
        "count",
    )
    for name in ("eucsim.write_dataset", "ioutil.atomic_write_text"):
        out[f"{name}.s"] = (per_round(busy.get(name, 0.0)), "s")
        out[f"{name}.bytes"] = (per_round(sums.get(f"{name}.bytes", 0.0)), "B")
    for fn in ("build_direct_dataset", "build_sequence_dataset"):
        name = f"features.{fn}"
        out[f"{name}.s"] = (per_round(busy.get(name, 0.0)), "s")
        out[f"{name}.rows"] = (per_round(sums.get(f"{name}.rows", 0.0)), "count")
    out["models.linear.linear_fit.s"] = (per_round(busy.get("models.linear.linear_fit", 0.0)), "s")
    for kind in KINDS:
        samples = by_kind.get(f"metrics.evaluate.{kind}", [])
        out[f"metrics.evaluate.{kind}.s"] = (per_round(sum(samples)), "s")
    out["metrics.write_violin_csv.s"] = (per_round(busy.get("metrics.write_violin_csv", 0.0)), "s")

    for job in JOB_NAMES:
        out[f"pipeline.train_model.{job}.s"] = (per_round(jobs.get(job, 0.0)), "s")
    job_total = per_round(sum(jobs.values()))
    job_max = per_round(max(jobs.values())) if jobs else 0.0
    out["pipeline.critical_job_share"] = (job_max / untraced_wall_s if jobs else 0.0, "ratio")
    out["pipeline.parallel_efficiency"] = (
        job_total / (workers * untraced_wall_s) if jobs else 0.0,
        "ratio",
    )

    for layer, seconds in self_times(spans).items():
        out[f"layer.{layer}.self_s"] = (per_round(seconds), "s")
    return out


def _kernel_metrics(out, name, calls, busy, sums, rounds) -> None:
    n = calls.get(name, 0)
    seconds = busy.get(name, 0.0)
    flops = sums.get(f"{name}.flops", 0.0)
    nbytes = sums.get(f"{name}.bytes", 0.0)
    out[f"{name}.calls"] = (n / rounds, "count")
    out[f"{name}.ms_per_call"] = (1e3 * seconds / n if n else 0.0, "ms")
    out[f"{name}.gflops"] = (flops / seconds / 1e9 if seconds else 0.0, "GFLOP/s")
    out[f"{name}.computed_mflop_per_call"] = (flops / n / 1e6 if n else 0.0, "MFLOP")
    out[f"{name}.computed_kb_per_call"] = (nbytes / n / 1e3 if n else 0.0, "KB")
