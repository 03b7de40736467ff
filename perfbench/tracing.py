"""Span tracer installed from outside the package, for the traced run only.

``Tracer.install`` replaces every public function of the traced decolite
modules with a timing wrapper, under each name a decolite module (or the
package) looks it up by, so ``decolite.model.conv1d`` is wrapped as well
as ``decolite.tensor.conv1d``. It also wraps ``LiteModel.forward``,
``Adam.step`` and the tensor arithmetic methods. For every tensor
primitive the wrapper also wraps the gradient closure on the returned
tensor, so each primitive gets a forward and a backward span. Spans are
kept in memory and written out by ``write``; ``per_layer`` reduces them to
the per-layer metrics.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from decolite import arrayio, data, diversity, evaluation, model, optim, tensor, training

TRACED_MODULES = (tensor, model, optim, training, data, evaluation, diversity, arrayio)
# Tensor functions that build graph nodes or scan activations; anything not
# named by its own group is reported under "other".
PRIMITIVES = ("conv1d", "batch_norm_1d", "relu", "global_avg_pool", "dense",
              "softmax_cross_entropy", "cosine_similarity_matrix", "concat_channels",
              "absolute", "sum_all", "assert_finite")
GROUPS = ("conv1d_depthwise", "conv1d_first", "conv1d_pointwise", "batch_norm_1d",
          "cosine_similarity_matrix", "other")
MIB = float(1 << 20)


def _conv_group(x, kernel, *_, groups: int = 1, **__) -> str:
    cin = np.shape(getattr(x, "data", x))[1]
    klen = np.shape(getattr(kernel, "data", kernel))[2]
    if cin == 1:
        return "conv1d_first"
    if groups == cin:
        return "conv1d_depthwise"
    return "conv1d_pointwise" if klen == 1 else "other"


class Tracer:
    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent index, detail].
        self.spans: list[list] = []
        self.peaks: dict[int, int] = {}  # span index -> tracemalloc peak bytes
        self.enabled = True
        self._open: list[int] = []
        self._mem: list[list[int]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str, detail=None) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, detail])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        self._mem.append([current, current])
        tracemalloc.reset_peak()

    def _mem_exit(self, idx: int) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem.pop()
        self.peaks[idx] = max(seen, peak) - base
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, *, group=None, memory=None, detail=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            grp = group(*args, **kwargs) if callable(group) else group
            label = f"tensor.{grp}.fwd" if grp else name
            measure = memory is not None and memory(*args, **kwargs)
            idx = tracer._enter(label, detail(*args, **kwargs) if detail else None)
            if measure:
                tracer._mem_enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    tracer._mem_exit(idx)
                tracer._exit(idx)
            if grp and isinstance(result, tensor.Tensor) and result._backward is not None:
                result._backward = tracer._wrap_grad(f"tensor.{grp}.bwd", result._backward)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_grad(self, name: str, grad_fn):
        def timed(g):
            idx = self._enter(name)
            try:
                grad_fn(g)
            finally:
                self._exit(idx)
        return timed

    def install(self) -> None:
        """Wrap the traced modules' public functions wherever decolite looks them up."""
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "decolite" or n.startswith("decolite.")]
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__ or attr == "as_tensor":
                    continue
                if mod is tensor and attr in PRIMITIVES:
                    group = _conv_group if attr == "conv1d" else \
                        (attr if attr in GROUPS else "other")
                    wrapped = self._wrap(attr, fn, group=group)
                elif mod is diversity and attr == "feature_statistics":
                    wrapped = self._wrap("diversity.feature_statistics", fn,
                                         memory=lambda *a, **k: True)
                else:
                    wrapped = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            ns[key] = wrapped
        tensor.Tensor.__add__ = self._wrap("add", tensor.Tensor.__add__, group="other")
        tensor.Tensor.__mul__ = tensor.Tensor.__rmul__ = \
            self._wrap("mul", tensor.Tensor.__mul__, group="other")
        optim.Adam.step = self._wrap("optim.adam_step", optim.Adam.step)
        model.LiteModel.forward = self._wrap(
            "model.forward", model.LiteModel.forward,
            memory=lambda self_, x, mode="eval": mode == "eval",
            detail=lambda self_, x, mode="eval": (mode, int(np.shape(getattr(x, "data", x))[0])))

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tdetail\tpeak_bytes\n")
            for i, (name, t0, t1, parent, detail) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0}\t{t1}\t{parent}\t{detail or ''}"
                         f"\t{self.peaks.get(i, '')}\n")

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Reduce the spans to the per-layer metrics, as {name: (value, unit)}."""
        return _reduce(self.spans, self.peaks)


def _ms(ns) -> float:
    return ns / 1e6


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def _steps(spans):
    """Training steps as (start, end) index pairs.

    A step runs from the start of a train-mode forward to the end of the
    next optimizer step; spans are stored in start order.
    """
    out, start = [], None
    for i, (name, _, _, _, detail) in enumerate(spans):
        if name == "model.forward" and detail and detail[0] == "train":
            start = i
        elif name == "optim.adam_step" and start is not None:
            out.append((start, i))
            start = None
    return out


def _reduce(spans, peaks):
    dur = {}
    for name, t0, t1, _, _ in spans:
        dur.setdefault(name, []).append(t1 - t0)

    def med_ms(name):
        return _ms(_median(dur.get(name, [])))

    rows = {f"tensor.{g}.{d}": [] for g in GROUPS for d in ("fwd", "bwd")}
    walk, ops, steps, coverage = [], [], [], []
    for first, last in _steps(spans):
        t_start, t_end = spans[first][1], spans[last][2]
        per = dict.fromkeys(rows, 0)
        n_ops = 0
        self_walk = 0  # backward() spans minus the gradient closures inside them
        for i in range(first, last + 1):
            name, t0, t1, _, _ = spans[i]
            if name in per:
                per[name] += t1 - t0
                n_ops += name.endswith(".fwd")
                if name.endswith(".bwd"):
                    self_walk -= t1 - t0
            elif name == "tensor.backward":
                self_walk += t1 - t0
        step = t_end - t_start
        adam = spans[last][2] - spans[last][1]
        for k, v in per.items():
            rows[k].append(v)
        walk.append(self_walk)
        ops.append(n_ops)
        steps.append(step)
        coverage.append(100.0 * (sum(per.values()) + self_walk + adam) / step)

    metrics = {f"{k}_ms": (_ms(_median(v)), "ms") for k, v in rows.items()}
    metrics["tensor.backward.self_ms"] = (_ms(_median(walk)), "ms")
    metrics["tensor.ops_per_step"] = (_median(ops), "count")

    forwards = [(s, peaks.get(i)) for i, s in enumerate(spans) if s[0] == "model.forward"]
    train_fw = [s[2] - s[1] for s, _ in forwards if s[4][0] == "train"]
    eval_fw = [s for s, _ in forwards if s[4][0] == "eval"]
    metrics["model.forward_train_ms"] = (_ms(_median(train_fw)), "ms")
    metrics["model.forward_eval_ms_per_sample"] = (
        _ms(_median([(s[2] - s[1]) / s[4][1] for s in eval_fw])), "ms")
    metrics["model.eval_forward_peak_mb"] = (
        max((p for s, p in forwards if p is not None), default=0) / MIB, "MiB")

    rounds = [(s[1], s[2]) for s in spans if s[0] == "round"]

    def eval_samples_in(stage_name):
        counts = []
        for r0, r1 in rounds:
            windows = [(s[1], s[2]) for s in spans if s[0] == stage_name and r0 <= s[1] <= r1]
            counts.append(sum(s[4][1] for s in eval_fw
                              if any(a <= s[1] <= b for a, b in windows)))
        return float(statistics.median(counts)) if counts else 0.0

    metrics["model.eval_samples"] = (eval_samples_in("round"), "count")
    metrics["model.eval_samples_build"] = (eval_samples_in("stage.build"), "count")
    metrics["model.eval_samples_accuracy"] = (eval_samples_in("stage.eval"), "count")
    metrics["model.load_model_ms"] = (med_ms("model.load_model"), "ms")
    metrics["model.save_model_ms"] = (med_ms("model.save_model"), "ms")
    metrics["optim.adam_step_ms"] = (med_ms("optim.adam_step"), "ms")
    metrics["training.step_ms"] = (_ms(_median(steps)), "ms")
    metrics["training.step_ms.p90"] = (_ms(_p90(steps)), "ms")
    metrics["training.steps"] = (float(len(steps)), "count")
    metrics["training.orthogonality_loss_ms"] = (
        med_ms("training.sequential_orthogonality_loss"), "ms")
    for name in ("data.batch_indices", "data.load_dataset", "evaluation.ensemble_predict",
                 "evaluation.ensemble_accuracy", "evaluation.mcm",
                 "diversity.feature_statistics", "diversity.fid",
                 "diversity.filter_distance_matrix", "diversity.embed_2d"):
        metrics[f"{name}_ms"] = (med_ms(name), "ms")
    metrics["diversity.feature_statistics_peak_mb"] = (
        max((p for i, p in peaks.items() if spans[i][0] == "diversity.feature_statistics"),
            default=0) / MIB, "MiB")
    metrics["trace.step_coverage_pct"] = (_median(coverage), "%")
    return metrics
