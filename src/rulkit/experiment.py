"""Experiment orchestration: configs, training runs, grid search, checkpoints.

A run normalizes the fleet with training-unit statistics, carves a
validation tail off each training unit, trains the configured model with
minibatch Adam, and reports metrics on the validation and test rows.
Checkpoints are self-describing npz containers that reload to a model
producing bitwise-identical predictions.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import FleetDataset, NormalizationStats, SplitSpec, normalize, stack_rows
from .dgp import MAX_DEPTH, DeepGPModel
from .dspp import DSPPModel
from .mathcore import MAX_QUADRATURE_SITES, NumericalError
from .mcd import MCDModel
from .metrics import MetricsReport, Predictions, Records, compute_report
from .params import GradientError, OptimizerState, RngStream, adam_step, minibatch_iter
from .svgp import ObjectiveSpec, SVGPModel

__all__ = [
    "MODEL_KINDS",
    "KEEP_PROB_GRID",
    "TrainingDiverged",
    "ConfigDataMismatch",
    "ExperimentConfig",
    "default_config",
    "default_grid",
    "build_model",
    "train_val_rows",
    "ExperimentResult",
    "run_experiment",
    "GridRun",
    "GridSearchResult",
    "grid_search",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_config",
    "checkpoint_records",
    "write_predictions",
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
    """Objective became non-finite; carries the per-epoch history so far."""

    def __init__(self, message: str, epoch: int, epoch_objectives: list):
        super().__init__(message)
        self.epoch = epoch
        self.epoch_objectives = list(epoch_objectives)


class ConfigDataMismatch(ValueError):
    """A config that is valid on its own does not fit the training data; the
    message names the config field."""


# -- configuration -----------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Flat, JSON-serializable description of one training run.

    ``kind`` selects the model family; fields that do not apply to the
    selected family are ignored. ``ppgpr`` is a sparse GP trained with the
    predictive-distribution objective instead of the classic bound.
    """

    kind: str = "svgp"
    objective: str = "elbo"
    beta_reg: float = 1.0
    epochs: int = 100
    batch_size: int = 2000
    learning_rate: float = 1e-3
    seed: int = 0
    alpha: float = 0.2
    val_fraction: float = 0.1
    standardize_targets: bool = True
    rul_cap: Optional[float] = None
    jitter: float = 1e-6
    # sparse GP and deep GP families
    num_inducing: int = 800
    inducing_init: str = "random-subset"
    freeze_inducing: bool = False
    width: int = 4
    depth: int = 1
    skip_connection: bool = True
    train_samples: int = 10
    test_samples: int = 64
    num_sites: int = 15
    # neural families
    hidden_layers: int = 5
    hidden_units: int = 200
    keep_prob: float = 0.4642
    weight_decay: float = 1e-6
    noise_variance: float = 1.0
    heteroscedastic: bool = True
    # optional pinned split
    train_units: Optional[list] = None
    test_units: Optional[list] = None

    def validate(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.objective not in ("elbo", "ppgpr"):
            raise ValueError(f"objective must be elbo or ppgpr, got {self.objective!r}")
        if self.kind == "ppgpr" and self.objective != "ppgpr":
            raise ValueError("kind=ppgpr requires objective=ppgpr")
        if self.kind == "dspp" and self.objective != "ppgpr":
            raise ValueError("dspp trains only with the ppgpr objective")
        if not self.beta_reg > 0.0:
            raise ValueError(f"beta_reg must be positive, got {self.beta_reg}")
        for name in ("epochs", "batch_size", "num_inducing", "width", "train_samples",
                     "test_samples", "num_sites", "hidden_layers", "hidden_units"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.depth < 0 or (self.kind == "dspp" and self.depth < 1):
            raise ValueError(f"invalid depth {self.depth} for kind {self.kind}")
        if self.kind in ("dgp", "dspp") and self.depth > MAX_DEPTH:
            raise ValueError(f"depth must be at most {MAX_DEPTH} for kind {self.kind}, "
                             f"got {self.depth}")
        if self.kind == "dspp" and self.num_sites > MAX_QUADRATURE_SITES:
            raise ValueError(f"num_sites must be at most {MAX_QUADRATURE_SITES} for kind dspp, "
                             f"got {self.num_sites}")
        for name in ("learning_rate", "jitter", "noise_variance"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.rul_cap is not None and self.rul_cap <= 0.0:
            raise ValueError("rul_cap must be positive when set")
        if self.inducing_init not in ("random-subset", "kmeans"):
            raise ValueError(f"unknown inducing_init {self.inducing_init!r}")
        return self

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def default_config(kind: str) -> ExperimentConfig:
    """Benchmark defaults for each family (selected hyperparameters)."""
    if kind == "svgp":
        cfg = ExperimentConfig(kind="svgp", objective="elbo", num_inducing=800)
    elif kind == "ppgpr":
        cfg = ExperimentConfig(kind="ppgpr", objective="ppgpr", num_inducing=800)
    elif kind == "dgp":
        cfg = ExperimentConfig(
            kind="dgp", objective="elbo", num_inducing=100, width=4, depth=1,
            train_samples=10, test_samples=64,
        )
    elif kind == "dspp":
        cfg = ExperimentConfig(
            kind="dspp", objective="ppgpr", num_inducing=100, width=2, depth=1,
            num_sites=15,
        )
    elif kind == "mcd":
        cfg = ExperimentConfig(
            kind="mcd", hidden_layers=5, hidden_units=200, keep_prob=0.4642,
            heteroscedastic=True, test_samples=128,
        )
    elif kind == "ffnn":
        cfg = ExperimentConfig(
            kind="ffnn", hidden_layers=5, hidden_units=65, keep_prob=0.15,
            heteroscedastic=False,
        )
    else:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    return cfg.validate()


def default_grid(kind: str) -> dict:
    """The benchmark hyperparameter search space for each family."""
    if kind in ("svgp", "ppgpr"):
        return {"num_inducing": [200, 400, 800]}
    if kind == "dgp":
        return {"num_inducing": [50, 100, 200]}
    if kind == "dspp":
        return {
            "num_inducing": [50, 100, 200],
            "width": [2, 3],
            "num_sites": [5, 8, 10, 15, 20],
        }
    if kind == "mcd":
        return {
            "hidden_layers": [2, 3, 4, 5],
            "hidden_units": [50, 65, 80, 100, 150, 200],
            "keep_prob": list(KEEP_PROB_GRID),
        }
    if kind == "ffnn":
        return {
            "hidden_layers": [2, 3, 4, 5],
            "hidden_units": [50, 65, 80, 100, 150, 200],
        }
    raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")


# -- model construction --------------------------------------------------------------


def build_model(config: ExperimentConfig, X: np.ndarray, y: np.ndarray, rng: RngStream):
    config.validate()
    kind = config.kind
    if kind in ("svgp", "ppgpr"):
        return SVGPModel.create(
            X, y, config.num_inducing,
            ObjectiveSpec(config.objective, config.beta_reg),
            rng=rng,
            inducing_strategy=config.inducing_init,
            standardize_targets=config.standardize_targets,
            freeze_inducing=config.freeze_inducing,
            jitter=config.jitter,
        )
    if kind == "dgp":
        return DeepGPModel.create(
            X, y,
            width=config.width,
            depth=config.depth,
            num_inducing=config.num_inducing,
            objective_spec=ObjectiveSpec(config.objective, config.beta_reg),
            skip_connection=config.skip_connection,
            num_train_samples=config.train_samples,
            num_test_samples=config.test_samples,
            rng=rng,
            inducing_strategy=config.inducing_init,
            standardize_targets=config.standardize_targets,
            jitter=config.jitter,
        )
    if kind == "dspp":
        return DSPPModel.create(
            X, y,
            width=config.width,
            depth=config.depth,
            num_inducing=config.num_inducing,
            num_sites=config.num_sites,
            objective_spec=ObjectiveSpec("ppgpr", config.beta_reg),
            skip_connection=config.skip_connection,
            rng=rng,
            standardize_targets=config.standardize_targets,
            jitter=config.jitter,
        )
    if kind in ("mcd", "ffnn"):
        return MCDModel.create(
            X, y,
            hidden_layers=config.hidden_layers,
            hidden_units=config.hidden_units,
            keep_prob=config.keep_prob,
            heteroscedastic=config.heteroscedastic and kind == "mcd",
            noise_variance=config.noise_variance,
            weight_decay=config.weight_decay,
            test_samples=config.test_samples,
            point_baseline=kind == "ffnn",
            rng=rng,
            standardize_targets=config.standardize_targets,
        )
    raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")


# -- split handling ------------------------------------------------------------------


def train_val_rows(data: FleetDataset, split: SplitSpec):
    """Stack training-unit rows, holding out the last ``val_fraction`` of
    each training unit's timeline as validation."""
    split.check_against(data)
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

    def pack(parts):
        X = np.concatenate([u.features[s] for u, s in parts], axis=0)
        y = np.concatenate([u.rul[s] for u, s in parts])
        uid = np.concatenate([np.repeat(u.unit_id, len(u.rul[s])) for u, s in parts])
        t = np.concatenate([u.time[s] for u, s in parts])
        return X, y, uid, t

    return pack(tr), (pack(va) if va else None)


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
) -> ExperimentResult:
    """Train one model per ``config`` and evaluate it on validation and test
    rows. ``data`` must be a raw (unnormalized) fleet; normalization
    statistics come from the training units alone.
    """
    config.validate()
    split.check_against(data)
    normed, stats = normalize(data, split.train_ids)
    (X_tr, y_tr, _, _), val = train_val_rows(normed, split)
    if config.rul_cap is not None:
        y_tr = np.minimum(y_tr, config.rul_cap)

    n = X_tr.shape[0]
    if config.kind in ("svgp", "ppgpr", "dgp", "dspp") and config.num_inducing > n:
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
                    raise TrainingDiverged(
                        f"objective became non-finite at epoch {epoch}",
                        epoch, epoch_objectives,
                    )
                adam_step(state, model.params)
            except (GradientError, NumericalError) as exc:
                raise TrainingDiverged(
                    f"training failed at epoch {epoch}: {exc}", epoch, epoch_objectives
                ) from exc
            batch_losses.append(loss)
        epoch_objectives.append(float(np.mean(batch_losses)))

    val_report, val_records = None, None
    if val is not None:
        X_v, y_v, uid_v, t_v = val
        preds = model.predictive(X_v, rng=rng.derive(3))
        val_records = _records(preds, y_v, uid_v, t_v, config.rul_cap)
        val_report = compute_report(val_records, config.alpha)

    X_te, y_te, uid_te, t_te = stack_rows(normed, list(split.test_ids))
    preds = model.predictive(X_te, rng=rng.derive(4))
    test_records = _records(preds, y_te, uid_te, t_te, config.rul_cap)
    test_report = compute_report(test_records, config.alpha)

    result = ExperimentResult(
        config, val_report, test_report, epoch_objectives, val_records, test_records
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.checkpoint_path = str(out / "checkpoint.npz")
        save_checkpoint(result.checkpoint_path, model, config, stats)
        config.save(out / "config.json")
        report = {
            "validation": val_report.to_dict() if val_report else None,
            "test": test_report.to_dict(),
            "epoch_objectives": epoch_objectives,
        }
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
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


# -- checkpoints -------------------------------------------------------------------

# 2: sparse-GP layers store the whitened posterior q(v) = N(m, S S^T)
FORMAT_VERSION = 2

_MODEL_CLASSES = {
    "svgp": SVGPModel,
    "dgp": DeepGPModel,
    "dspp": DSPPModel,
    "mcd": MCDModel,
    "ffnn": MCDModel,
}


def save_checkpoint(path, model, config: ExperimentConfig, stats: NormalizationStats):
    np.savez(
        path,
        format_version=np.asarray(FORMAT_VERSION),
        experiment_config=json.dumps(config.to_dict(), sort_keys=True),
        model_config=json.dumps(model.config_dict(), sort_keys=True),
        norm_mean=stats.mean,
        norm_std=stats.std,
        state_theta=model.params.values,
    )


def model_from_config(config: dict, theta: np.ndarray):
    """The model a ``config_dict()`` describes, carrying the raw parameter
    vector ``theta``: the one path that rebuilds a saved model."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in _MODEL_CLASSES:
        raise ValueError(f"checkpoint has unknown model kind {kind!r}")
    if kind in ("mcd", "ffnn"):
        cfg["point_baseline"] = kind == "ffnn"
    else:
        cfg["objective_spec"] = ObjectiveSpec(cfg.pop("objective"), cfg.pop("beta_reg"))
    if kind == "dspp":  # both sample counts are the number of sites
        del cfg["num_train_samples"], cfg["num_test_samples"]
    model = _MODEL_CLASSES[kind](**cfg)
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != model.params.values.shape:
        raise ValueError(
            f"checkpoint holds {theta.shape[0]} raw parameters, "
            f"model expects {model.params.values.shape[0]}"
        )
    model.params.values[:] = theta
    return model


def load_checkpoint(path):
    """Returns (model, experiment config, normalization stats)."""
    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format_version {version}; "
                f"this rulkit reads format_version {FORMAT_VERSION}"
            )
        exp_cfg = ExperimentConfig.from_dict(json.loads(str(z["experiment_config"])))
        model = model_from_config(json.loads(str(z["model_config"])), z["state_theta"])
        stats = NormalizationStats(z["norm_mean"], z["norm_std"])
    return model, exp_cfg, stats


def checkpoint_records(
    model, config: ExperimentConfig, stats: NormalizationStats,
    data: FleetDataset, unit_ids: Optional[Sequence[str]] = None,
) -> Records:
    """Predict every row of the chosen units of a raw fleet."""
    if data.stats is not None:
        raise ValueError("expected a raw fleet; this one is already normalized")
    ids = list(unit_ids) if unit_ids is not None else data.unit_ids
    units = [data.unit(uid) for uid in ids]
    preds = [
        model.predictive(stats.apply(u.features), rng=RngStream(config.seed).derive(9, i))
        for i, u in enumerate(units)
    ]
    return _records(
        Predictions.concat(preds),
        np.concatenate([u.rul for u in units]),
        np.repeat(ids, [u.num_rows for u in units]),
        np.concatenate([u.time for u in units]),
        config.rul_cap,
    )


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
            "runs": [
                {k: v for k, v in dataclasses.asdict(r).items() if k != "config"}
                | {"config": r.config.to_dict()}
                for r in self.runs
            ],
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


def grid_search(
    base: ExperimentConfig,
    grid: dict,
    data: FleetDataset,
    split: SplitSpec,
    out_dir=None,
) -> GridSearchResult:
    """Train every combination of ``grid`` on top of ``base``.

    Runs execute in deterministic order (sorted keys, given value order);
    run i trains with a seed derived from (base.seed, i). Every cell's config
    is validated before the first run, so an invalid grid value raises before
    any run directory is written. A failed run is recorded and the search
    continues. Ranking uses the validation NLL, or validation RMSE for the
    point baseline.
    """
    if not grid:
        raise ValueError("grid must name at least one hyperparameter")
    if split.val_fraction <= 0.0:
        raise ValueError("grid search needs a validation split (val_fraction > 0)")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(grid) - known)
    if unknown:
        raise ValueError(f"grid names unknown config keys: {', '.join(unknown)}")
    keys = sorted(grid)
    combos = list(itertools.product(*(list(grid[k]) for k in keys)))
    metric = selection_metric_for(base.kind)
    out = Path(out_dir) if out_dir is not None else None

    cells = []
    for i, combo in enumerate(combos):
        overrides = dict(zip(keys, combo))
        cfg = base.replace(**overrides, seed=_child_seed(base.seed, i))
        cells.append((overrides, cfg.validate()))

    runs = []
    for i, (overrides, cfg) in enumerate(cells):
        run_dir = out / f"run_{i:03d}" if out is not None else None
        try:
            res = run_experiment(cfg, data, split, out_dir=run_dir)
            vr, tr = res.val_report, res.test_report
            runs.append(GridRun(
                i, overrides, cfg, "ok",
                val_rmse=vr.rmse, val_nll=vr.nll,
                test_rmse=tr.rmse, test_nll=tr.nll,
                test_alpha_lambda=tr.alpha_lambda,
                test_prob_alpha_lambda=tr.prob_alpha_lambda,
                checkpoint_path=res.checkpoint_path,
            ))
        except (ConfigDataMismatch, TrainingDiverged, NumericalError, GradientError) as exc:
            runs.append(GridRun(i, overrides, cfg, f"failed: {exc}"))

    def key(r: GridRun):
        return (getattr(r, metric), r.index)

    scored = [r for r in runs if r.status == "ok" and getattr(r, metric) is not None]
    order = [r.index for r in sorted(scored, key=key)]
    result = GridSearchResult(metric, runs, order)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "grid.json").write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
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
