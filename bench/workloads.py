"""The rulkit benchmark workloads: ``fit``, ``score`` and ``sweep``.

Each workload drives rulkit's public API in this process. The fleets are
pinned; the seed is the training seed of every run (initialization,
minibatch order and Monte Carlo draws). A workload repeats a pass until the
run length is used up, alternating untraced and traced passes when traced,
checks every pass's outputs and reduces the passes to medians. README.md in
this directory says why each workload exists and what each metric measures.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from rulkit import experiment as ex
from rulkit import metrics
from rulkit.data import SplitSpec, load_fleet, save_fleet, synth_fleet
from rulkit.experiment import MODEL_KINDS, default_config, default_grid

from spans import Tracer, instrument

# Families summed into each group metric; a sweep has no ppgpr or dspp.
GROUPS = {"gp_s": ("svgp", "ppgpr"), "deep_s": ("dgp", "dspp"), "nn_s": ("mcd", "ffnn")}
# deep_s spreads by 0.33 between runs on sweep and nn_s by 0.28 on fit, more
# than a bound may be, so these two are layer metrics; gp_s is end-to-end.
LAYER_GROUPS = ("deep_s", "nn_s")
SWEEP_KINDS = ("svgp", "dgp", "mcd", "ffnn")
# criterion 9's training budget for the sweep; the grids stay verbatim
SWEEP_BUDGET = dict(epochs=1, train_samples=2, test_samples=4)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "completed_frac": "ratio",
    "test_nll_mean": "nats",
    "test_rmse_mean": "steps",
    "peak_rss_mb": "MB",
    "gp_s": "s",
}


def _per_layer_units() -> dict:
    units = {group: "s" for group in LAYER_GROUPS}
    for kind in MODEL_KINDS:
        units[f"{kind}.objective_grad.s"] = "s"
    units |= {
        "autodiff.backward.s": "s",
        "autodiff.cholesky.s": "s",
        "autodiff.cholesky.calls": "count",
        "autodiff.solve_triangular.s": "s",
        "autodiff.solve_triangular.calls": "count",
        "params.adam_step.s": "s",
    }
    for kind in MODEL_KINDS:
        units[f"autodiff.nodes_per_step.{kind}"] = "nodes"
    for kind in MODEL_KINDS:
        units[f"{kind}.predictive.s"] = "s"
        units[f"{kind}.predictive.rows"] = "rows"
    units |= {
        "metrics.compute_report.s": "s",
        "metrics.compute_report.records": "records",
        "experiment.checkpoint_records.self_s": "s",
        "experiment.write_predictions.s": "s",
        "experiment.write_predictions.bytes": "bytes",
        "experiment.load_checkpoint.s": "s",
        "experiment.run_experiment.self_s": "s",
        "experiment.build_model.s": "s",
        "experiment.save_checkpoint.s": "s",
        "experiment.save_checkpoint.bytes": "bytes",
        "data.normalize.s": "s",
        "mathcore.cholesky_jittered.calls": "count",
        "mathcore.jitter_retries": "count",
        "experiment.grid_search.cells": "count",
        "experiment.grid_search.failed": "count",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
    }
    return units


PER_LAYER = _per_layer_units()


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads. ``FULL`` is the benchmark; the smoke test
    shrinks everything, including the models, with ``TINY``."""

    # W1 is synth_fleet(9, 200, seed=42), first 2/3 of the units training. The
    # fleet seed stays fixed: lifetimes, hence row counts, change with it, and
    # that alone moves the timings by more than the bounds.
    units: int = 9
    steps: int = 200
    fleet_seed: int = 42
    fit_epochs: int = 2
    score_units: int = 14    # scoring fleet: same generator seed, more units
    overrides: dict = field(default_factory=dict)  # per-kind config overrides
    grids: dict = field(default_factory=dict)      # per-kind grid, else default_grid

    def config(self, kind: str, seed: int, **extra):
        return default_config(kind).replace(**{**extra, **self.overrides.get(kind, {}), "seed": seed})

    def grid(self, kind: str) -> dict:
        return self.grids.get(kind) or default_grid(kind)


FULL = Sizes()
TINY = Sizes(
    units=4, steps=24, fleet_seed=3, fit_epochs=1, score_units=6,
    overrides={
        "svgp": dict(num_inducing=8),
        "ppgpr": dict(num_inducing=8),
        "dgp": dict(num_inducing=6, train_samples=2, test_samples=3),
        "dspp": dict(num_inducing=6, num_sites=3),
        "mcd": dict(hidden_layers=1, hidden_units=8, test_samples=4),
        "ffnn": dict(hidden_layers=1, hidden_units=8),
    },
    grids={
        "svgp": {"num_inducing": [4, 8]},
        "dgp": {"num_inducing": [4]},
        "mcd": {"keep_prob": [0.05, 0.5]},
        "ffnn": {"hidden_units": [4, 8]},
    },
)


@dataclass
class Checks:
    """Operations attempted and the ones whose outputs broke a check."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


@dataclass
class PassResult:
    kind_s: dict  # seconds per family
    completed: int
    attempted: int
    nll: list
    rmse: list


def _nonfinite(report) -> list:
    bad = []

    def walk(value, path):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{path}.{k}" if path else str(k))
        elif isinstance(value, (int, float)) and not math.isfinite(value):
            bad.append(f"{path}={value!r}")

    walk(report.to_dict(), "")
    return [f"non-finite {b}" for b in bad]


def _split(fleet) -> SplitSpec:
    ids = fleet.unit_ids
    cut = len(ids) * 2 // 3
    return SplitSpec(tuple(ids[:cut]), tuple(ids[cut:]), val_fraction=0.1)


def _same(label: str, first: dict, key, blob: bytes) -> list:
    """Byte-compare ``blob`` with the first pass's copy under ``key``."""
    if first.setdefault(key, blob) != blob:
        return [f"{label} differs from the first repeat"]
    return []


class Workload:
    """One workload bound to a seed: set up, then run checked passes."""

    min_passes = 3
    setup_group = 20  # set-ups before the first pass; setup_s is their median

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path, checks: Checks):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.checks = checks
        self.first: dict = {}  # first repeat's bytes, per output

    def setup_once(self):
        raise NotImplementedError

    def _fleet(self, units: int, name: str):
        """Synthesize a fleet, write it as CSV and read it back, as running
        ``rulkit synth`` and then ``rulkit train --data`` would."""
        path = self.work_dir / "fleets" / name
        save_fleet(synth_fleet(units, self.sizes.steps, seed=self.sizes.fleet_seed), path)
        return load_fleet(path)

    def run_pass(self, index: int, tracer) -> PassResult:
        raise NotImplementedError

    def after_passes(self):
        """Checks that run once, after the timed passes."""


def _set_kind(tracer, kind):
    if tracer is not None:
        tracer.kind = kind


class Fit(Workload):
    """run_experiment for every family on W1: training dominates."""

    def setup_once(self):
        self.fleet = self._fleet(self.sizes.units, "w1")
        self.split = _split(self.fleet)

    def run_pass(self, index, tracer):
        kind_s, nll, rmse, completed = {}, [], [], 0
        for kind in MODEL_KINDS:
            _set_kind(tracer, kind)
            out = self.work_dir / "fit" / kind
            cfg = self.sizes.config(kind, self.seed, epochs=self.sizes.fit_epochs)
            t = perf_counter()
            res = ex.run_experiment(cfg, self.fleet, self.split, out_dir=out)
            kind_s[kind] = perf_counter() - t
            problems = _nonfinite(res.test_report) + _nonfinite(res.val_report)
            for name in ("report.txt", "predictions_test.csv"):
                problems += _same(f"{kind} {name}", self.first, (kind, name),
                                  (out / name).read_bytes())
            self.checks.record(f"fit {kind} pass {index}", problems)
            completed += not problems
            rmse.append(res.test_report.rmse)
            if res.test_report.nll is not None:
                nll.append(res.test_report.nll)
        return PassResult(kind_s, completed, len(MODEL_KINDS), nll, rmse)


class Score(Workload):
    """The evaluate path on a larger fleet from checkpoints: no training."""

    setup_group = 2  # each set-up trains six checkpoints

    def setup_once(self):
        s = self.sizes
        fleet = self._fleet(s.units, "w1")
        split = _split(fleet)
        self.fleet = self._fleet(s.score_units, "scoring")
        self.unit_ids = [u for u in self.fleet.unit_ids if u not in split.train_ids]
        self.checkpoints = {}
        for kind in MODEL_KINDS:
            out = self.work_dir / "train" / kind
            ex.run_experiment(s.config(kind, self.seed, epochs=1), fleet, split, out_dir=out)
            self.checkpoints[kind] = out / "checkpoint.npz"

    def run_pass(self, index, tracer):
        kind_s, nll, rmse, completed = {}, [], [], 0
        for kind in MODEL_KINDS:
            _set_kind(tracer, kind)
            out = self.work_dir / "score" / kind
            t = perf_counter()
            model, cfg, stats = ex.load_checkpoint(self.checkpoints[kind])
            records = ex.checkpoint_records(model, cfg, stats, self.fleet, self.unit_ids)
            report = metrics.compute_report(records, cfg.alpha)
            out.mkdir(parents=True, exist_ok=True)
            ex.write_predictions(out / "predictions.csv", records)
            text = report.to_text()
            (out / "report.txt").write_text(text + "\n")
            kind_s[kind] = perf_counter() - t
            problems = _nonfinite(report)
            problems += _same(f"{kind} report", self.first, (kind, "report"), text.encode())
            problems += _same(f"{kind} predictions", self.first, (kind, "predictions"),
                              (out / "predictions.csv").read_bytes())
            self.checks.record(f"score {kind} pass {index}", problems)
            completed += not problems
            rmse.append(report.rmse)
            if report.nll is not None:
                nll.append(report.nll)
        return PassResult(kind_s, completed, len(MODEL_KINDS), nll, rmse)


class Sweep(Workload):
    """grid_search over the default grids of svgp, dgp, mcd and ffnn on W1:
    many tiny models, so per-run fixed cost and failure handling dominate."""

    min_passes = 1

    def setup_once(self):
        self.fleet = self._fleet(self.sizes.units, "w1")
        self.split = _split(self.fleet)

    def run_pass(self, index, tracer):
        kind_s, nll, rmse, completed, attempted = {}, [], [], 0, 0
        self.results = {}
        for kind in SWEEP_KINDS:
            _set_kind(tracer, kind)
            grid = self.sizes.grid(kind)
            base = self.sizes.config(kind, self.seed, **SWEEP_BUDGET)
            t = perf_counter()
            out = self.work_dir / "sweep" / kind
            with np.errstate(over="ignore", invalid="ignore"):
                result = ex.grid_search(base, grid, self.fleet, self.split, out_dir=out)
            kind_s[kind] = perf_counter() - t
            if tracer is not None:
                tracer.counts["experiment.grid_search.cells"] += len(result.runs)
                tracer.counts["experiment.grid_search.failed"] += sum(
                    r.status != "ok" for r in result.runs)
            self.results[kind] = result
            expected = math.prod(len(v) for v in grid.values())
            problems = _same(f"{kind} grid.txt", self.first, kind, (out / "grid.txt").read_bytes())
            if len(result.runs) != expected:
                problems.append(f"{len(result.runs)} of {expected} cells attempted")
            self.checks.record(f"sweep {kind} grid pass {index}", problems)
            for run in result.runs:
                problems = self._cell_problems(kind, run)
                self.checks.record(f"sweep {kind} cell {run.index}", problems)
                attempted += 1
                completed += run.status == "ok" and not problems
            if result.order:
                rmse.append(result.best.test_rmse)
                if result.best.test_nll is not None:
                    nll.append(result.best.test_nll)
            else:
                self.checks.record(f"sweep {kind}", ["every cell failed"])
        return PassResult(kind_s, completed, attempted, nll, rmse)

    def _cell_problems(self, kind, run) -> list:
        if run.status != "ok":
            # criterion 9: only mcd's extreme-dropout corners may diverge
            if kind == "mcd" and run.overrides.get("keep_prob", 1.0) <= 0.1:
                return []
            return [f"unexpected failure {run.status}"]
        values = [run.val_rmse, run.val_nll, run.test_rmse, run.test_nll,
                  run.test_alpha_lambda, run.test_prob_alpha_lambda]
        if any(v is not None and not math.isfinite(v) for v in values):
            return [f"non-finite metric in {values}"]
        return []

    def after_passes(self):
        # The repeat check of a sweep: retrain each family's selected cell and
        # compare its report with the one the sweep wrote.
        for kind, result in self.results.items():
            if not result.order:
                continue
            best = result.best
            out = self.work_dir / "rerun" / kind
            with np.errstate(over="ignore", invalid="ignore"):
                ex.run_experiment(best.config, self.fleet, self.split, out_dir=out)
            swept = self.work_dir / "sweep" / kind / f"run_{best.index:03d}" / "report.txt"
            problems = []
            if (out / "report.txt").read_bytes() != swept.read_bytes():
                problems.append(f"rerun of cell {best.index} gives a different report")
            self.checks.record(f"sweep {kind} rerun", problems)


WORKLOADS = {"fit": Fit, "score": Score, "sweep": Sweep}


# -- environment ------------------------------------------------------------------


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- running ----------------------------------------------------------------------


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    failures: list
    spans: list = field(default_factory=list)  # one list of spans per traced pass


def _setups(workload: Workload) -> list:
    """Set the workload up ``setup_group`` times; return each one's seconds."""
    times = []
    for _ in range(workload.setup_group):
        t = perf_counter()
        workload.setup_once()
        times.append(perf_counter() - t)
    return times


def _passes(workload: Workload, seconds: float, traced: bool):
    """Run passes until ``seconds`` are used and ``min_passes`` are done.

    A traced run makes pairs of an untraced and a traced pass, swapping their
    order each pair so that neither side always pays the first pass's warm-up.
    """
    plain, traced_passes, tracers = [], [], []
    least = (workload.min_passes + 1) // 2 if traced else workload.min_passes
    start = perf_counter()
    while len(plain) < least or perf_counter() - start < seconds:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order if traced else (False,):
            index = len(plain) + len(traced_passes)
            if not with_trace:
                plain.append(workload.run_pass(index, None))
                continue
            tracer = Tracer()
            with instrument(tracer):
                traced_passes.append(workload.run_pass(index, tracer))
            tracers.append(tracer)
    return plain, traced_passes, tracers


def _median(values):
    return statistics.median(values) if values else float("nan")


def _typical_s(passes: list, kinds) -> float:
    """Sum over ``kinds`` of the median, across passes, of each one's time.

    Per-family medians leave out a family's run that a slow second of the
    machine stretched, which a median of whole-pass times would keep."""
    return sum(_median([p.kind_s[k] for p in passes]) for k in kinds if k in passes[0].kind_s)


def _end_to_end(setup_s: float, plain: list) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": _typical_s(plain, MODEL_KINDS),
        "completed_frac": sum(p.completed for p in plain) / sum(p.attempted for p in plain),
        "test_nll_mean": _median([statistics.fmean(p.nll) for p in plain if p.nll]),
        "test_rmse_mean": _median([statistics.fmean(p.rmse) for p in plain if p.rmse]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gp_s": _typical_s(plain, GROUPS["gp_s"]),
    }


def _layer_values(tracer: Tracer) -> dict:
    summary = tracer.summary()
    values = {}
    for name in PER_LAYER:
        stem, _, stat = name.rpartition(".")
        if stat in ("s", "self_s", "calls") and stem in summary:
            values[name] = summary[stem][stat]
        else:
            values[name] = tracer.counts.get(name, 0)
    return values


def _per_layer(plain: list, traced: list, tracers: list) -> dict:
    per_pass = [_layer_values(t) for t in tracers]
    values = {name: _median([v[name] for v in per_pass]) for name in PER_LAYER}
    for group in LAYER_GROUPS:
        values[group] = _typical_s(plain, GROUPS[group])
    traced_wall = _typical_s(traced, MODEL_KINDS)
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - _typical_s(plain, MODEL_KINDS)
    return values


def run(name: str, seed: int, seconds: float, traced: bool, work_dir: Path,
        sizes: Sizes = FULL) -> Outcome:
    """Set up workload ``name`` for ``seed``, run its passes and check them."""
    checks = Checks()
    workload = WORKLOADS[name](seed, sizes, work_dir, checks)
    setup_times = _setups(workload)
    plain, traced_passes, tracers = _passes(workload, seconds, traced)
    workload.after_passes()
    if traced:
        values, units = _per_layer(plain, traced_passes, tracers), PER_LAYER
    else:
        values, units = _end_to_end(statistics.median(setup_times), plain), END_TO_END
    failed = len(checks.failures)
    return Outcome(
        correct=failed == 0,
        attempted=checks.attempted,
        failed=failed,
        metrics={k: {"value": values[k], "unit": units[k]} for k in units},
        failures=checks.failures,
        spans=[t.spans for t in tracers],
    )


def write_trace(path: Path, env: dict, outcome: Outcome):
    """Write the traced passes' spans, one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"environment": env}) + "\n")
        for index, spans in enumerate(outcome.spans):
            for name, start, end, parent in spans:
                fh.write(json.dumps({"pass": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
