"""Experiment orchestration: configs, training runs, grid search, checkpoints.

A run carves a validation tail off each training unit, z-scores the rows
with training-unit statistics, trains the configured model with
minibatch Adam, and reports metrics on the validation and test rows.
Checkpoints are self-describing npz containers that reload to a model
producing bitwise-identical predictions.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import (FleetDataset, NormalizationStats, SplitSpec, disjoint_units, normalize,
                   stack_rows, stack_slices, unit_list)
from .dgp import MAX_DEPTH, DeepGPModel
from .dspp import DSPPModel
from .mathcore import MAX_QUADRATURE_SITES, NumericalError
from .mcd import MCDModel
from .metrics import MetricsReport, Predictions, Records, compute_report
from .parallel import run_indexed, usable_cpus
from .params import GradientError, OptimizerState, RngStream, adam_step, minibatch_iter
from .svgp import SVGPModel

__all__ = [
    "MODEL_KINDS",
    "KEEP_PROB_GRID",
    "TrainingDiverged",
    "ConfigDataMismatch",
    "ExperimentConfig",
    "default_config",
    "default_grid",
    "build_model",
    "PreparedSplit",
    "prepare_split",
    "ExperimentResult",
    "run_experiment",
    "GridRun",
    "GridSearchResult",
    "grid_search",
    "save_checkpoint",
    "load_checkpoint",
    "model_config",
    "model_from_config",
    "checkpoint_records",
    "write_predictions",
    "write_json",
    "read_json",
    "family_table",
    "TABLE_FAMILIES",
]

MODEL_KINDS = ("svgp", "ppgpr", "dgp", "dspp", "mcd", "ffnn")

# Families of the benchmark summary table, grouped as reported.
TABLE_FAMILIES = {
    "Gaussian Processes": ("svgp", "dgp", "dspp"),
    "Deep Neural Networks": ("mcd", "ffnn"),
}

# Twelve log-spaced keep probabilities inside [0.01, 1]. The spacing is
# chosen so the grid contains 10^(-1/3) = 0.4642, the documented selected
# value; a 12-point grid anchored at both interval endpoints cannot contain
# it (it is the 10th of 13 such points).
KEEP_PROB_GRID = [float(v) for v in np.logspace(-11.0 / 6.0, 0.0, 12)]


class TrainingDiverged(RuntimeError):
    """The objective became non-finite, or a training step failed."""


class ConfigDataMismatch(ValueError):
    """A config that is valid on its own does not fit the training data; the
    message names the config field."""


# -- configuration -----------------------------------------------------------------

_GP_KINDS = ("svgp", "ppgpr", "dgp", "dspp")
_DEEP_KINDS = ("dgp", "dspp")
_NN_KINDS = ("mcd", "ffnn")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


# Checks of a field value: (test, message) pairs, the message formatted with
# the field's name and value. A number is a finite real: its two checks (an
# int of any size is finite; math.isfinite cannot take the largest).
_NUMBER = ((_is_real, "{name} must be a number, got {v!r}"),
           (lambda v: _is_int(v) or math.isfinite(v), "{name} must be finite, got {v}"))
_POSITIVE = (lambda v: v > 0.0, "{name} must be positive, got {v}")
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "{name} must be a positive integer, got {v!r}")
_NON_NEGATIVE_INT = (lambda v: _is_int(v) and v >= 0,
                     "{name} must be a non-negative integer, got {v!r}")
_FLAG = (lambda v: isinstance(v, bool), "{name} must be true or false, got {v!r}")


def _unless_none(*checks) -> tuple:
    """``checks`` for a field that may be None, which passes them all."""
    return tuple((lambda v, test=test: v is None or test(v), message) for test, message in checks)


def _check(name: str, v, checks: tuple):
    """Refuse ``v`` with the message of the first of ``checks`` it fails,
    formatted with ``name``."""
    for test, message in checks:
        if not test(v):
            raise ValueError(message.format(name=name, v=v))


def _field(default, role: str, *checks, kinds: Optional[tuple] = None):
    """A config field: its default, its role (``run``, ``split``, ``model``
    or ``init``), the checks ``validate`` applies in order and the kinds that
    read it (None: every kind)."""
    return field(default=default, metadata={"role": role, "checks": checks, "kinds": kinds})


@dataclass
class ExperimentConfig:
    """Flat, JSON-serializable description of one training run.

    ``kind`` selects the model family; fields that do not apply to the
    selected family are ignored, and a grid that varies one is refused.
    ``ppgpr`` is a sparse GP trained with the predictive-distribution
    objective instead of the classic bound. Each field's metadata is its
    entry in the one table of fields: its checks, its role (run, split, model
    or init) and the kinds that read it.

    Every kind reads ``kind``, the run fields ``epochs``, ``batch_size``,
    ``learning_rate``, ``seed``, ``alpha``, ``standardize_targets`` and
    ``rul_cap``, and the split fields ``val_fraction``, ``train_units`` and
    ``test_units``. Beyond those:

    - svgp, ppgpr: ``objective``, ``beta_reg``, ``jitter``, ``num_inducing``,
      ``inducing_init`` and ``freeze_inducing``;
    - dgp: ``objective``, ``beta_reg``, ``jitter``, ``num_inducing``,
      ``inducing_init``, ``width``, ``depth``, ``skip_connection``,
      ``train_samples`` and ``test_samples``;
    - dspp: ``objective`` (always ppgpr), ``beta_reg``, ``jitter``,
      ``num_inducing``, ``width``, ``depth``, ``skip_connection`` and
      ``num_sites``;
    - mcd: ``hidden_layers``, ``hidden_units``, ``keep_prob``,
      ``heteroscedastic``, ``noise_variance``, ``weight_decay`` and
      ``test_samples``;
    - ffnn: ``hidden_layers``, ``hidden_units``, ``keep_prob``,
      ``noise_variance`` and ``weight_decay``.

    Only svgp and ppgpr honour ``freeze_inducing``. dspp's inducing inputs
    always start at a random subset, and a dspp model draws no samples. ffnn,
    the point baseline, has no noise head and predicts with one maskless pass.
    A run takes its rows from a ``SplitSpec``: the split fields are the split
    the command line asks for, and in a run's config, the split it used.
    """

    kind: str = _field("svgp", "run", (lambda v: v in MODEL_KINDS,
                                       "{name} must be one of " + str(MODEL_KINDS) + ", got {v!r}"))
    objective: str = _field("elbo", "model", (lambda v: v in ("elbo", "ppgpr"),
                                              "{name} must be elbo or ppgpr, got {v!r}"),
                            kinds=_GP_KINDS)
    beta_reg: float = _field(1.0, "model", *_NUMBER, _POSITIVE, kinds=_GP_KINDS)
    epochs: int = _field(100, "run", _POSITIVE_INT)
    batch_size: int = _field(2000, "run", _POSITIVE_INT)
    learning_rate: float = _field(1e-3, "run", *_NUMBER, _POSITIVE)
    seed: int = _field(0, "run", _NON_NEGATIVE_INT)
    alpha: float = _field(0.2, "run", *_NUMBER,
                          (lambda v: 0.0 < v < 1.0, "{name} must be in (0, 1), got {v}"))
    val_fraction: float = _field(0.1, "split", *_NUMBER,
                                 (lambda v: 0.0 <= v < 1.0, "{name} must be in [0, 1), got {v}"))
    standardize_targets: bool = _field(True, "run", _FLAG)
    rul_cap: Optional[float] = _field(None, "run", *_unless_none(*_NUMBER, _POSITIVE))
    jitter: float = _field(1e-6, "model", *_NUMBER, _POSITIVE, kinds=_GP_KINDS)
    # sparse GP and deep GP families
    num_inducing: int = _field(800, "model", _POSITIVE_INT, kinds=_GP_KINDS)
    inducing_init: str = _field(
        "random-subset", "init",
        (lambda v: v in ("random-subset", "kmeans"), "unknown {name} {v!r}"),
        kinds=("svgp", "ppgpr", "dgp"))
    freeze_inducing: bool = _field(False, "init", _FLAG, kinds=("svgp", "ppgpr"))
    width: int = _field(4, "model", _POSITIVE_INT, kinds=_DEEP_KINDS)
    depth: int = _field(1, "model", _NON_NEGATIVE_INT, kinds=_DEEP_KINDS)
    skip_connection: bool = _field(True, "model", _FLAG, kinds=_DEEP_KINDS)
    train_samples: int = _field(10, "model", _POSITIVE_INT, kinds=("dgp",))
    test_samples: int = _field(64, "model", _POSITIVE_INT, kinds=("dgp", "mcd"))
    num_sites: int = _field(15, "model", _POSITIVE_INT, kinds=("dspp",))
    # neural families
    hidden_layers: int = _field(5, "model", _POSITIVE_INT, kinds=_NN_KINDS)
    hidden_units: int = _field(200, "model", _POSITIVE_INT, kinds=_NN_KINDS)
    keep_prob: float = _field(0.4642, "model", *_NUMBER,
                              (lambda v: 0.0 < v <= 1.0, "{name} must be in (0, 1], got {v}"),
                              kinds=_NN_KINDS)
    weight_decay: float = _field(1e-6, "model", *_NUMBER,
                                 (lambda v: v >= 0.0, "{name} must be >= 0, got {v}"),
                                 kinds=_NN_KINDS)
    noise_variance: float = _field(1.0, "model", *_NUMBER, _POSITIVE, kinds=_NN_KINDS)
    heteroscedastic: bool = _field(True, "model", _FLAG, kinds=("mcd",))
    # optional pinned split; validate checks each as a data.unit_list, the two disjoint
    train_units: Optional[list] = _field(None, "split")
    test_units: Optional[list] = _field(None, "split")

    def validate(self):
        for f in dataclasses.fields(self):
            _check(f.name, getattr(self, f.name), f.metadata["checks"])
        for name in ("train_units", "test_units"):
            if getattr(self, name) is not None:
                unit_list(getattr(self, name), name)
        if self.train_units is not None and self.test_units is not None:
            disjoint_units(self.train_units, self.test_units, "train_units", "test_units")
        if self.kind == "ppgpr" and self.objective != "ppgpr":
            raise ValueError("kind=ppgpr requires objective=ppgpr")
        if self.kind == "dspp" and self.objective != "ppgpr":
            raise ValueError("dspp trains only with the ppgpr objective")
        if self.kind == "dspp" and self.depth < 1:
            raise ValueError(f"depth must be at least 1 for kind dspp, got {self.depth}")
        if self.kind in _DEEP_KINDS and self.depth > MAX_DEPTH:
            raise ValueError(f"depth must be at most {MAX_DEPTH} for kind {self.kind}, "
                             f"got {self.depth}")
        if self.kind == "dspp" and self.num_sites > MAX_QUADRATURE_SITES:
            raise ValueError(f"num_sites must be at most {MAX_QUADRATURE_SITES} for kind dspp, "
                             f"got {self.num_sites}")
        return self

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return _fields_of(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d)

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))


def write_json(path, obj):
    """Write ``obj`` to ``path`` as the indented, key-sorted JSON of every file."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The JSON value a file holds; a file that is not JSON is refused by name."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON file: {exc}") from None


def _reads(kind: str, role: Optional[str] = None) -> list[str]:
    """The fields a run of ``kind`` reads, in field order; with ``role``, only
    those of that role."""
    return [
        f.name for f in dataclasses.fields(ExperimentConfig)
        if f.metadata["kinds"] is None or kind in f.metadata["kinds"]
        if role in (None, f.metadata["role"])
    ]


def _fields_of(obj) -> dict:
    """A dataclass's fields as a dict that shares their values, leaving out
    fields marked ``metadata={"saved": False}``; unlike
    ``dataclasses.asdict`` it copies nothing, and it encodes to the same JSON
    for the flat values configs and grid runs hold."""
    return {
        f.name: getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if f.metadata.get("saved", True)
    }


# Each kind's benchmark defaults (selected hyperparameters), where they differ
# from the field defaults.
_KIND_DEFAULTS = {
    "svgp": {},
    "ppgpr": {"objective": "ppgpr"},
    "dgp": {"num_inducing": 100},
    "dspp": {"objective": "ppgpr", "num_inducing": 100, "width": 2},
    "mcd": {"test_samples": 128},
    "ffnn": {"hidden_units": 65, "keep_prob": 0.15, "heteroscedastic": False},
}

# Each kind's benchmark hyperparameter search space.
_KIND_GRIDS = {
    "svgp": {"num_inducing": [200, 400, 800]},
    "ppgpr": {"num_inducing": [200, 400, 800]},
    "dgp": {"num_inducing": [50, 100, 200]},
    "dspp": {"num_inducing": [50, 100, 200], "width": [2, 3], "num_sites": [5, 8, 10, 15, 20]},
    "mcd": {
        "hidden_layers": [2, 3, 4, 5],
        "hidden_units": [50, 65, 80, 100, 150, 200],
        "keep_prob": KEEP_PROB_GRID,
    },
    "ffnn": {"hidden_layers": [2, 3, 4, 5], "hidden_units": [50, 65, 80, 100, 150, 200]},
}


def default_config(kind: str) -> ExperimentConfig:
    """Benchmark defaults for each family (selected hyperparameters)."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    return ExperimentConfig(kind=kind, **_KIND_DEFAULTS[kind]).validate()


def default_grid(kind: str) -> dict:
    """The benchmark hyperparameter search space for each family."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    return {k: list(v) for k, v in _KIND_GRIDS[kind].items()}


# -- model construction --------------------------------------------------------------

# The class of each model kind a checkpoint names.
_MODEL_CLASSES = {
    "svgp": SVGPModel,
    "dgp": DeepGPModel,
    "dspp": DSPPModel,
    "mcd": MCDModel,
    "ffnn": MCDModel,
}

# A checkpoint's model_config keys each model field its kind reads by the
# field's name, except for the fields these kinds store under the given keys
# (key -> field): dgp names its sample counts num_*; a dspp model draws no
# samples, so both of its counts are its number of sites; ffnn keeps mcd's
# keys, with its noise head off.
_CHECKPOINT_KEYS = {
    "dgp": {"num_train_samples": "train_samples", "num_test_samples": "test_samples"},
    "dspp": {"num_sites": "num_sites", "num_train_samples": "num_sites",
             "num_test_samples": "num_sites"},
    "ffnn": {"heteroscedastic": "heteroscedastic", "test_samples": "test_samples"},
}


# The checks of the model_config keys that no config field gives.
_STAT_CHECKS = {
    "input_dim": (_POSITIVE_INT,),
    "target_shift": _NUMBER,
    "target_scale": (*_NUMBER, _POSITIVE),
}


def _model_keys(model_kind: str) -> dict:
    """Each hyperparameter key of a model_config of ``model_kind``, mapped to
    the ExperimentConfig field it is read from. With input_dim and the target
    statistics, these are the keys model_from_config accepts and model_config
    writes."""
    irregular = _CHECKPOINT_KEYS.get(model_kind, {})
    same = [name for name in _reads(model_kind, "model") if name not in irregular.values()]
    return {name: name for name in same} | irregular


def _target_stats(y: np.ndarray, standardize: bool):
    """The shift and scale a model standardizes its targets with."""
    if not standardize or y.size == 0:
        return 0.0, 1.0
    spread = float(y.std())
    return float(y.mean()), max(spread, 1e-8)


def build_model(config: ExperimentConfig, X: np.ndarray, y: np.ndarray, rng: RngStream):
    """A fresh model for ``config`` on the training rows (X, y): the
    model_config its checkpoint stores, built by :func:`model_from_config`,
    with the data-dependent starting values of ``init_from_data`` drawn from
    ``rng``."""
    config.validate()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    model_kind = "svgp" if config.kind == "ppgpr" else config.kind
    cfg = {key: getattr(config, name) for key, name in _model_keys(model_kind).items()}
    if model_kind == "ffnn":  # the point baseline has no noise head
        cfg["heteroscedastic"] = False
    shift, scale = _target_stats(y, config.standardize_targets)
    model = model_from_config(cfg | {
        "kind": model_kind, "input_dim": X.shape[1], "target_shift": shift, "target_scale": scale,
    })
    model.init_from_data(X, rng, **{name: getattr(config, name)
                                    for name in _reads(config.kind, "init")})
    return model


# -- split handling ------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedSplit:
    """The rows a run reads from a raw fleet and ``split``: the training
    units' normalization statistics, and the normalized training rows ``(X,
    y)``, validation rows ``(X, y, unit ids, times)`` (None without a
    validation tail) and test rows ``(X, y, unit ids, times)``.

    Every array is read-only, so one value can be shared by the cells of a
    grid, concurrent ones included.
    """

    split: SplitSpec
    stats: NormalizationStats
    train: tuple
    val: Optional[tuple]
    test: tuple


def prepare_split(data: FleetDataset, split: SplitSpec) -> PreparedSplit:
    """Stack the raw rows of ``split`` and normalize each stack's features
    with the training units' statistics; validation is the last
    ``val_fraction`` (at least one row) of each training unit. A split that
    names a unit ``data`` lacks is refused by side (``train_ids`` or
    ``test_ids``), before any row is stacked."""
    split.check_against(data)
    stats = normalize(data, split.train_ids)
    tr, va = [], []
    for uid in split.train_ids:
        u = data.unit(uid)
        n_val = int(np.floor(split.val_fraction * u.num_rows))
        if split.val_fraction > 0.0 and n_val == 0:
            n_val = 1
        cut = u.num_rows - n_val
        tr.append((u, slice(0, cut)))
        if n_val:
            va.append((u, slice(cut, u.num_rows)))

    def normed(rows: tuple) -> tuple:
        X, *rest = rows
        return (stats.apply(X), *rest)

    X_tr, y_tr, _, _ = normed(stack_slices(tr))
    val = normed(stack_slices(va)) if va else None
    test = normed(stack_rows(data, split.test_ids))
    for a in (X_tr, y_tr, *(val or ()), *test, stats.mean, stats.std):
        a.flags.writeable = False
    return PreparedSplit(split, stats, (X_tr, y_tr), val, test)


def _with_split(config: ExperimentConfig, split: SplitSpec) -> ExperimentConfig:
    """``config`` recording ``split`` in its split fields."""
    return config.replace(val_fraction=split.val_fraction, train_units=list(split.train_ids),
                          test_units=list(split.test_ids))


def _records(preds: Predictions, y, uid, t, rul_cap) -> Records:
    y = np.minimum(y, rul_cap) if rul_cap is not None else y
    return Records(uid, t, y, preds)


# -- training ---------------------------------------------------------------------


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    val_report: Optional[MetricsReport]
    test_report: MetricsReport
    epoch_objectives: list
    val_records: Optional[Records] = field(repr=False, default=None)
    test_records: Optional[Records] = field(repr=False, default=None)
    checkpoint_path: Optional[str] = None


def run_experiment(
    config: ExperimentConfig,
    data: FleetDataset,
    split: SplitSpec,
    out_dir=None,
    *,
    prepared: Optional[PreparedSplit] = None,
) -> ExperimentResult:
    """Train one model per ``config`` and evaluate it on validation and test
    rows, normalized with statistics from the training units alone.
    ``prepared`` is ``prepare_split(data, split)`` when the caller already
    holds it (a grid shares one among its cells); None prepares it here. The
    split decides the rows; the result's config, ``config.json`` and the
    checkpoint's ``experiment_config`` record it in their split fields.
    """
    config.validate()
    if prepared is None:
        prepared = prepare_split(data, split)
    config = _with_split(config, prepared.split)
    X_tr, y_tr = prepared.train
    if config.rul_cap is not None:
        y_tr = np.minimum(y_tr, config.rul_cap)

    n = X_tr.shape[0]
    if config.kind in _GP_KINDS and config.num_inducing > n:
        raise ConfigDataMismatch(f"num_inducing={config.num_inducing} exceeds {n} training rows")

    rng = RngStream(config.seed)
    model = build_model(config, X_tr, y_tr, rng.derive(0))

    batch_size = min(config.batch_size, n)
    state = OptimizerState(learning_rate=config.learning_rate)
    epoch_objectives: list = []
    for epoch in range(config.epochs):
        batch_losses = []
        for b, mb in enumerate(minibatch_iter(n, batch_size, rng.derive(1, epoch))):
            draw = rng.derive(2, epoch, b)
            try:
                loss = model.objective_grad(
                    X_tr[mb.indices], y_tr[mb.indices], mb.scale, rng=draw
                )
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"objective became non-finite at epoch {epoch}")
                adam_step(state, model.params)
            except (GradientError, NumericalError) as exc:
                raise TrainingDiverged(f"training failed at epoch {epoch}: {exc}") from exc
            batch_losses.append(loss)
        epoch_objectives.append(float(np.mean(batch_losses)))

    def score(rows: tuple, stream: int):
        # the report and records of prepared rows, drawing from substream ``stream``
        X, y, uid, t = rows
        records = _records(model.predictive(X, rng=rng.derive(stream)), y, uid, t, config.rul_cap)
        return compute_report(records, config.alpha), records

    val_report, val_records = (None, None) if prepared.val is None else score(prepared.val, 3)
    test_report, test_records = score(prepared.test, 4)

    result = ExperimentResult(
        config, val_report, test_report, epoch_objectives, val_records, test_records
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.checkpoint_path = str(out / "checkpoint.npz")
        save_checkpoint(result.checkpoint_path, model, config, prepared.stats)
        config.save(out / "config.json")
        report = {
            "validation": val_report.to_dict() if val_report else None,
            "test": test_report.to_dict(),
            "epoch_objectives": epoch_objectives,
        }
        write_json(out / "report.json", report)
        text = ["# test", test_report.to_text()]
        if val_report is not None:
            text = ["# validation", val_report.to_text(), ""] + text
        (out / "report.txt").write_text("\n".join(text) + "\n")
        with (out / "epochs.csv").open("w") as fh:
            fh.write("epoch,objective\n")
            for e, v in enumerate(epoch_objectives):
                fh.write(f"{e},{repr(v)}\n")
        if val_records is not None:
            write_predictions(out / "predictions_val.csv", val_records)
        write_predictions(out / "predictions_test.csv", test_records)
    return result


# grid_search spreads its cells over threads only while the module's
# ``run_experiment`` is this function; see there.
_OWN_RUN_EXPERIMENT = run_experiment


# -- checkpoints -------------------------------------------------------------------

# 2: sparse-GP layers store the whitened posterior q(v) = N(m, S S^T)
# 3: a deep model's hidden layer is one stack of GPs, prefix h{l}, not h{l}.{w}
FORMAT_VERSION = 3


def save_checkpoint(path, model, config: ExperimentConfig, stats: NormalizationStats):
    np.savez(
        path,
        format_version=np.asarray(FORMAT_VERSION),
        experiment_config=json.dumps(config.to_dict(), sort_keys=True),
        model_config=json.dumps(model_config(model), sort_keys=True),
        norm_mean=stats.mean,
        norm_std=stats.std,
        state_theta=model.params.values,
    )


def model_config(model) -> dict:
    """The model_config a checkpoint stores for ``model``: its kind (``ffnn``
    for the point baseline), input_dim, the target statistics and each key of
    ``_model_keys(kind)``, read off the model."""
    kind = "ffnn" if getattr(model, "point_baseline", False) else model.kind
    return {key: getattr(model, key) for key in _model_keys(kind)} | {
        "kind": kind, "input_dim": model.input_dim,
        "target_shift": model.target_shift, "target_scale": model.target_scale,
    }


def model_from_config(config: dict, theta: Optional[np.ndarray] = None):
    """The model a :func:`model_config` describes, carrying the raw parameter
    vector ``theta``, or its registered starting values without one: the one
    path that constructs a model, fresh (:func:`build_model`) or saved. A
    config with keys its kind does not take, or without ones it needs, is
    refused with a ValueError naming them, and so is a value that fails the
    checks of the config field its key is read from, or of ``_STAT_CHECKS``."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"checkpoint has unknown model kind {kind!r}")
    fields = {f.name: f.metadata["checks"] for f in dataclasses.fields(ExperimentConfig)}
    checks = {key: fields[name] for key, name in _model_keys(kind).items()} | _STAT_CHECKS
    unknown, missing = sorted(cfg.keys() - checks.keys()), sorted(checks.keys() - cfg.keys())
    if unknown or missing:
        parts = [f"{what} {', '.join(keys)}"
                 for what, keys in (("unknown keys", unknown), ("missing keys", missing)) if keys]
        raise ValueError(f"model_config of kind {kind!r} has {' and '.join(parts)}")
    for key, key_checks in checks.items():
        _check(key, cfg[key], key_checks)
    if kind in ("mcd", "ffnn"):
        cfg["point_baseline"] = kind == "ffnn"
    if kind == "dspp":  # both sample counts are the number of sites
        del cfg["num_train_samples"], cfg["num_test_samples"]
    model = _MODEL_CLASSES[kind](**cfg)
    if theta is None:
        return model
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != model.params.values.shape:
        raise ValueError(
            f"checkpoint holds {theta.shape[0]} raw parameters, "
            f"model expects {model.params.values.shape[0]}"
        )
    model.params.values[:] = theta
    return model


def load_checkpoint(path):
    """Returns (model, experiment config, normalization stats). A file that is
    not an npz archive, or that lacks a member or holds a malformed one, is
    refused with a ValueError naming the file (and the member)."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path} is not a checkpoint: expected an npz archive") from exc
    if isinstance(archive, np.ndarray):  # a lone .npy array
        raise ValueError(f"{path} is not a checkpoint: expected an npz archive")
    with archive as z:

        def member(name: str, read=np.asarray):
            """``read`` of the member ``name``; a missing member, or one that
            ``read`` refuses, is refused by file and member."""
            if name not in z.files:
                raise ValueError(f"{path} is not a checkpoint: it has no member {name}")
            try:
                return read(z[name])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: checkpoint member {name}: {exc}") from None

        version = member("format_version", lambda a: int(a.item()))
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint format_version {version}; "
                f"this rulkit reads format_version {FORMAT_VERSION}"
            )
        exp_cfg = member("experiment_config",
                         lambda a: ExperimentConfig.from_dict(_json_object(a)).validate())
        theta = member("state_theta", _finite)
        model = member("model_config", lambda a: model_from_config(_json_object(a), theta))
        mean = member("norm_mean", _finite)
        stats = member("norm_std", lambda std: _model_stats(model, mean, std))
    return model, exp_cfg, stats


def _model_stats(model, mean: np.ndarray, std: np.ndarray) -> NormalizationStats:
    """The statistics of a checkpoint's features, one per model input."""
    stats = NormalizationStats(mean, std)
    if stats.mean.size != model.input_dim:
        raise ValueError(f"statistics of {stats.mean.size} features for a model of "
                         f"{model.input_dim} inputs")
    return stats


def _finite(a: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"non-finite value at index {bad[0]}")
    return a


def _json_object(a: np.ndarray) -> dict:
    value = json.loads(str(a))
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def checkpoint_records(
    model, config: ExperimentConfig, stats: NormalizationStats,
    data: FleetDataset, unit_ids: Optional[Sequence[str]] = None,
) -> Records:
    """Predict every row of the units ``unit_ids`` names, in its order, or of
    every unit of ``data`` when it is None. ``unit_ids`` is a
    :func:`~rulkit.data.unit_list` of ``data``'s units, refused by that name
    before any prediction otherwise."""
    ids = data.unit_ids if unit_ids is None else unit_list(unit_ids, "unit_ids", data)
    units = [data.unit(uid) for uid in ids]
    preds = [
        model.predictive(stats.apply(u.features), rng=RngStream(config.seed).derive(9, i))
        for i, u in enumerate(units)
    ]
    _, y, uid, t = stack_slices([(u, slice(None)) for u in units])
    return _records(Predictions.concat(preds), y, uid, t, config.rul_cap)


def write_predictions(path, records: Records):
    """Delimited predictions, one row per (unit, t); mixture components are
    appended as extra columns."""
    p = records.pred
    n = len(records)
    with_components = p.kind == "mixture"
    header = ["unit_id", "t", "rul_true", "pred_mean", "pred_variance"]
    if with_components:
        for j in range(1, p.weights.shape[1] + 1):
            header += [f"w_{j}", f"mean_{j}", f"var_{j}"]
        comps = np.stack([p.weights, p.means, p.variances], axis=2).reshape(n, -1)
    lines = [",".join(header)]
    point = p.kind == "point"
    rows = zip(records.unit.tolist(), records.time.tolist(), records.rul.tolist(),
               p.mean.tolist(), p.var.tolist())
    for i, (unit, t, rul, mean, var) in enumerate(rows):
        var = "-" if point else repr(var)
        line = f"{unit},{t},{rul!r},{mean!r},{var}"
        if with_components:
            line = ",".join([line, *map(repr, comps[i].tolist())])
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n")


# -- grid search -------------------------------------------------------------------


@dataclass
class GridRun:
    index: int
    overrides: dict
    config: ExperimentConfig
    status: str
    val_rmse: Optional[float] = None
    val_nll: Optional[float] = None
    test_rmse: Optional[float] = None
    test_nll: Optional[float] = None
    test_alpha_lambda: Optional[float] = None
    test_prob_alpha_lambda: Optional[float] = None
    checkpoint_path: Optional[str] = None
    # In memory only, not in grid.json: the cell's test report, which a
    # family summary shows for the best cell, and the class name of the
    # exception a failed cell recorded.
    test_report: Optional[MetricsReport] = field(
        default=None, repr=False, compare=False, metadata={"saved": False}
    )
    error: Optional[str] = field(default=None, metadata={"saved": False})


@dataclass
class GridSearchResult:
    selection_metric: str
    runs: list
    order: list

    @property
    def best(self) -> GridRun:
        if not self.order:
            raise RuntimeError("every grid run failed; no best run")
        return self.runs[self.order[0]]

    def to_dict(self) -> dict:
        return {
            "selection_metric": self.selection_metric,
            "order": list(self.order),
            "runs": [_fields_of(r) | {"config": r.config.to_dict()} for r in self.runs],
        }

    def to_text(self) -> str:
        def fmt(v):
            return "-" if v is None else f"{v:.6f}"

        keys = sorted(self.runs[0].overrides) if self.runs else []
        lines = [f"selection_metric {self.selection_metric}"]
        lines.append("\t".join(["rank", "run"] + keys + [
            "val_nll", "val_rmse", "test_nll", "test_rmse",
            "test_alpha_lambda", "test_prob_alpha_lambda", "status",
        ]))
        ranked = list(self.order) + [r.index for r in self.runs if r.index not in self.order]
        for rank, idx in enumerate(ranked):
            r = self.runs[idx]
            row = [str(rank), str(r.index)]
            row += [str(r.overrides[k]) for k in keys]
            row += [fmt(r.val_nll), fmt(r.val_rmse), fmt(r.test_nll), fmt(r.test_rmse),
                    fmt(r.test_alpha_lambda), fmt(r.test_prob_alpha_lambda), r.status]
            lines.append("\t".join(row))
        return "\n".join(lines)


def selection_metric_for(kind: str) -> str:
    # the point baseline has no likelihood, so it selects on accuracy
    return "val_rmse" if kind == "ffnn" else "val_nll"


def _child_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((int(master_seed), 6, int(index))).generate_state(1)[0])


def grid_cells(grid: dict, kind: str) -> list[dict]:
    """The overrides of every cell of ``grid`` on a base config of ``kind``,
    in run order: keys sorted, values in the given order. Refuses a grid that
    is not a dict naming at least one hyperparameter and, by key, one that
    names an unknown hyperparameter, ``kind`` or ``seed``, a value that is not
    a non-empty list, a split field (a search takes its split from its
    ``split`` argument) or a field ``kind`` does not read."""
    if not isinstance(grid, dict) or not grid:
        raise ValueError(f"grid must map at least one hyperparameter to a list of values, "
                         f"got {grid!r}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(f"grid names unknown config keys: {', '.join(unknown)}")
    if "kind" in grid:
        raise ValueError("grid cannot vary kind: a search ranks its cells by one family's metric")
    if "seed" in grid:
        raise ValueError("grid cannot vary seed: each cell's seed derives from the base seed")
    keys = sorted(grid)
    for k in keys:
        if not isinstance(grid[k], list) or not grid[k]:
            raise ValueError(f"grid values for {k} must be a non-empty list, got {grid[k]!r}")
    split, read = _reads(kind, "split"), _reads(kind)
    for k in keys:
        if k in split:
            raise ValueError(f"grid cannot vary {k}: a search takes its split from its split "
                             f"argument, so no {kind} cell reads it")
        if k not in read:
            raise ValueError(f"grid cannot vary {k}: kind {kind} does not read it")
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def grid_search(
    base: ExperimentConfig,
    grid: dict,
    data: FleetDataset,
    split: SplitSpec,
    out_dir=None,
) -> GridSearchResult:
    """Train every combination of ``grid`` on top of ``base``.

    Runs are numbered in deterministic order (sorted keys, given value
    order); run i trains with a seed derived from (base.seed, i). Every cell's
    config is validated before the first run, so an invalid grid value raises
    before any run directory is written. The split's rows are then stacked
    and normalized once (:func:`prepare_split`), and every cell reads that one
    read-only value, whose split every cell's config records (``GridRun``,
    ``grid.json``, ``config.json``).

    Cells run on one thread per usable CPU (``parallel.run_indexed``), each a
    pure function of its config and the prepared split, so every result and
    file is the same for any thread count. If the module's ``run_experiment``
    has been rebound (a tracer, a profiler), the cells run in order on the
    calling thread instead: such a wrapper need not be thread-safe, and one
    that keeps a stack of open calls would parent one cell's calls to
    another's.

    A run that fails to train or does not fit the data is recorded and the
    search continues; any other exception stops the search once the running
    cells finish and is raised with a note naming its cell. Ranking uses the
    validation NLL, or validation RMSE for the point baseline.
    """
    if split.val_fraction <= 0.0:
        raise ValueError("grid search needs a validation split (val_fraction > 0)")
    metric = selection_metric_for(base.kind)
    out = Path(out_dir) if out_dir is not None else None

    cells = grid_cells(grid, base.kind)
    configs = [base.replace(**overrides, seed=_child_seed(base.seed, i)).validate()
               for i, overrides in enumerate(cells)]
    prepared = prepare_split(data, split)
    configs = [_with_split(cfg, split) for cfg in configs]

    def run_cell(i: int) -> GridRun:
        overrides, cfg = cells[i], configs[i]
        run_dir = out / f"run_{i:03d}" if out is not None else None
        try:
            res = run_experiment(cfg, data, split, out_dir=run_dir, prepared=prepared)
        except (ConfigDataMismatch, TrainingDiverged, NumericalError, GradientError) as exc:
            return GridRun(i, overrides, cfg, f"failed: {exc}", error=type(exc).__name__)
        except Exception as exc:
            exc.add_note(f"in grid cell {i} with overrides {overrides}")
            raise
        vr, tr = res.val_report, res.test_report
        return GridRun(
            i, overrides, cfg, "ok",
            val_rmse=vr.rmse, val_nll=vr.nll,
            test_rmse=tr.rmse, test_nll=tr.nll,
            test_alpha_lambda=tr.alpha_lambda,
            test_prob_alpha_lambda=tr.prob_alpha_lambda,
            checkpoint_path=res.checkpoint_path,
            test_report=tr,
        )

    workers = usable_cpus() if run_experiment is _OWN_RUN_EXPERIMENT else 1
    runs = run_indexed(run_cell, len(cells), workers)

    def key(r: GridRun):
        return (getattr(r, metric), r.index)

    scored = [r for r in runs if r.status == "ok" and getattr(r, metric) is not None]
    order = [r.index for r in sorted(scored, key=key)]
    result = GridSearchResult(metric, runs, order)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "grid.json", result.to_dict())
        (out / "grid.txt").write_text(result.to_text() + "\n")
    return result


# -- family summary ------------------------------------------------------------------


def family_table(entries: dict) -> str:
    """Benchmark-style summary: one row per family, grouped into sections.

    ``entries`` maps family kind to a dict with optional keys ``report``
    (test MetricsReport), ``selected`` (hyperparameter dict), ``status``.
    Families without an entry are shown as pending.
    """

    def fmt(v):
        return "-" if v is None else f"{v:.4f}"

    lines = []
    for section, kinds in TABLE_FAMILIES.items():
        lines.append(f"== {section} ==")
        lines.append("\t".join(["model", "nll", "rmse", "alpha_lambda",
                                "prob_alpha_lambda", "selected"]))
        for kind in kinds:
            e = entries.get(kind)
            if e is None or e.get("report") is None:
                status = (e or {}).get("status", "pending")
                lines.append("\t".join([kind, "-", "-", "-", "-", status]))
                continue
            rep: MetricsReport = e["report"]
            sel = e.get("selected") or {}
            sel_text = ",".join(f"{k}={sel[k]}" for k in sorted(sel)) or "-"
            lines.append("\t".join([
                kind, fmt(rep.nll), fmt(rep.rmse), fmt(rep.alpha_lambda),
                fmt(rep.prob_alpha_lambda), sel_text,
            ]))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
