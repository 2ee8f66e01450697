"""In-memory span timer and the instrumentation that times rulkit from outside.

``instrument(tracer)`` rebinds rulkit's public functions, as their callers
bind them, to wrappers that record one span per call (name, start, end,
parent) plus a few exact counts. Leaving the ``with`` block restores every
original binding, so untraced passes run the program untouched.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans and counts of one traced pass, held in memory until written out.

    ``kind`` names the model family whose work is running; the benchmark sets
    it, and per-family spans and counts carry it in their names.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.kind = "none"
        self.nodes_counted: set[str] = set()  # kinds whose step graph was counted
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, where self
        time is a span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - inner
        return dict(out)


def _op_nodes(root) -> int:
    """Operation nodes the backward pass from ``root`` visits (leaves excluded)."""
    seen: set[int] = set()
    stack = [root]
    ops = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._vjp is not None
        stack.extend(p for p in node._parents if p.requires_grad)
    return ops


def _file_bytes(path) -> int:
    path = os.fspath(path)
    for candidate in (path, path + ".npz"):  # np.savez appends .npz when missing
        if os.path.exists(candidate):
            return os.path.getsize(candidate)
    return 0


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route rulkit's layer boundaries through ``tracer`` for the block."""
    from rulkit import autodiff, data, dgp, dspp, experiment, mathcore, mcd, metrics, params, svgp

    restore = []

    def patch(owners, attr, name, after=None):
        original = owners[0].__dict__[attr]

        def wrapper(*args, **kwargs):
            label = name(tracer) if callable(name) else name
            out = tracer.call(label, original, args, kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        for owner in owners:
            restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def counter(key, amount):
        def after(out, args, kwargs):
            tracer.counts[key] += amount(args)
        return after

    def per_kind(suffix):
        return lambda t: f"{t.kind}.{suffix}"

    def count_rows(out, args, kwargs):
        tracer.counts[f"{tracer.kind}.predictive.rows"] += len(args[1])

    def count_retries(result, args, kwargs):
        if result.jitter > 0.0:
            base = args[1] if len(args) > 1 else kwargs.get("base_jitter", 1e-6)
            tracer.counts["mathcore.jitter_retries"] += 1 + round(math.log10(result.jitter / base))

    def count_nodes(out, args, kwargs):
        # The graph of one step has the same shape every step, so its first
        # step per family gives the exact per-step count.
        if tracer.kind not in tracer.nodes_counted:
            tracer.nodes_counted.add(tracer.kind)
            tracer.counts[f"autodiff.nodes_per_step.{tracer.kind}"] = _op_nodes(args[0])

    try:
        patch([experiment], "run_experiment", "experiment.run_experiment")
        patch([experiment], "grid_search", "experiment.grid_search")
        patch([experiment], "build_model", "experiment.build_model")
        patch([experiment], "load_checkpoint", "experiment.load_checkpoint")
        patch([experiment], "checkpoint_records", "experiment.checkpoint_records")
        patch([experiment], "save_checkpoint", "experiment.save_checkpoint",
              counter("experiment.save_checkpoint.bytes", lambda a: _file_bytes(a[0])))
        patch([experiment], "write_predictions", "experiment.write_predictions",
              counter("experiment.write_predictions.bytes", lambda a: _file_bytes(a[0])))
        patch([experiment, metrics], "compute_report", "metrics.compute_report",
              counter("metrics.compute_report.records", lambda a: len(a[0])))
        patch([experiment, params], "adam_step", "params.adam_step")
        patch([experiment, data], "normalize", "data.normalize")
        for cls in (svgp.SVGPModel, dgp.DeepGPModel, dspp.DSPPModel, mcd.MCDModel):
            for method in ("objective_grad", "predictive"):
                if method in cls.__dict__:
                    after = count_rows if method == "predictive" else None
                    patch([cls], method, per_kind(method), after)
        patch([autodiff], "cholesky", "autodiff.cholesky")
        patch([autodiff], "solve_triangular", "autodiff.solve_triangular")
        patch([autodiff.Tensor], "backward", "autodiff.backward", count_nodes)
        patch([mathcore, svgp, dgp], "cholesky_jittered", "mathcore.cholesky_jittered",
              count_retries)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
