"""Command line interface.

Subcommands: synth, train, predict, evaluate, gridsearch. Results land in
--out directories as plain text and npz files; progress notes go to stderr,
final reports to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import SplitSpec, disjoint_units, load_fleet, save_fleet, synth_fleet, unit_list
from .experiment import (
    MODEL_KINDS,
    TABLE_FAMILIES,
    ExperimentConfig,
    TrainingDiverged,
    checkpoint_records,
    default_config,
    default_grid,
    family_table,
    grid_cells,
    grid_search,
    load_checkpoint,
    read_json,
    run_experiment,
    write_json,
    write_predictions,
)
from .mathcore import NumericalError
from .metrics import compute_report
from .params import GradientError

_TABLE_KINDS = tuple(k for kinds in TABLE_FAMILIES.values() for k in kinds)


def _note(msg: str):
    print(msg, file=sys.stderr)


def _named_ids(text: str) -> list:
    """The ids a comma-separated flag value names; blanks name none."""
    return [s for s in (p.strip() for p in text.split(",")) if s]


def _resolve_config(args) -> ExperimentConfig:
    """Overlay: family defaults <- config file <- CLI flags."""
    overrides = {}
    if getattr(args, "config", None):
        overrides = read_json(args.config)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: expected a JSON object of config keys")
    kind = getattr(args, "kind", None) or overrides.get("kind") or "svgp"
    overrides.pop("kind", None)
    ExperimentConfig.from_dict({**overrides, "kind": kind})  # unknown-key check
    cfg = default_config(kind).replace(**overrides)
    for flag in ("seed", "epochs", "batch_size", "alpha", "val_fraction"):
        v = getattr(args, flag, None)
        if v is not None:
            cfg = cfg.replace(**{flag: v})
    return cfg.validate()


def _resolve_split(args, cfg: ExperimentConfig, data) -> SplitSpec:
    """Each side of the split from its flag, else from the config, refused by
    that flag or field unless it is a unit list of ``data`` that shares no
    unit with the other side. A side that neither names is every unit the
    other side leaves; with neither side named, the first 70 % of the sorted
    unit ids train and the rest test."""
    sides = []
    for flag, field in (("--train-units", "train_units"), ("--test-units", "test_units")):
        text = getattr(args, field)
        name, named = (field, getattr(cfg, field)) if text is None else (flag, _named_ids(text))
        if named is not None:
            unit_list(named, name, data)
        sides.append((name, named))
    (train_name, train), (test_name, test) = sides
    ids = sorted(data.unit_ids)
    if train is None and test is None:
        if len(ids) < 2:
            raise ValueError("need at least 2 units to split into train and test")
        cut = min(max(1, int(round(0.7 * len(ids)))), len(ids) - 1)
        train, test = ids[:cut], ids[cut:]
        _note(f"note: no split given; defaulting to train={train} test={test}")
    elif train is None or test is None:
        side, given = ("train", test_name) if train is None else ("test", train_name)
        rest = [i for i in ids if i not in set(train or test)]
        if not rest:
            raise ValueError(f"{given} names every unit; name the {side} units too")
        _note(f"note: no {side} units given; defaulting to {side}={rest}")
        train, test = train or rest, test or rest
    else:
        disjoint_units(train, test, train_name, test_name)
    return SplitSpec(train, test, cfg.val_fraction)


# -- subcommands -------------------------------------------------------------------


def _cmd_synth(args) -> int:
    fleet = synth_fleet(
        args.units, args.steps, args.noise, args.mode_mix, args.seed,
        feature_dim=args.feature_dim,
        shifted_units=args.shifted_units,
        shift=args.shift,
        drift_spread=args.drift_spread,
        regime_spread=args.regime_spread,
    )
    save_fleet(fleet, args.out)
    rows = ", ".join(f"{u.unit_id}:{u.num_rows}" for u in fleet.units)
    print(f"wrote {fleet.num_rows} rows over {len(fleet.units)} units to {args.out} ({rows})")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    data = load_fleet(args.data)
    split = _resolve_split(args, cfg, data)
    result = run_experiment(cfg, data, split, out_dir=args.out)
    _note(f"trained {cfg.kind} for {cfg.epochs} epochs; "
          f"final objective {result.epoch_objectives[-1]:.6f}")
    print(Path(args.out, "report.txt").read_text(), end="")
    _note(f"artifacts in {args.out}")
    return 0


def _checkpoint_records(args):
    """The checkpoint's config and its records of the ``--units`` of ``--data``."""
    model, cfg, stats = load_checkpoint(args.checkpoint)
    data = load_fleet(args.data)
    ids = None if args.units is None else unit_list(_named_ids(args.units), "--units", data)
    if data.feature_dim != model.input_dim:
        raise ValueError(f"{args.checkpoint}: the checkpoint's model reads {model.input_dim} "
                         f"features, but the fleet in {args.data} has {data.feature_dim}")
    return cfg, checkpoint_records(model, cfg, stats, data, ids)


def _cmd_predict(args) -> int:
    _, records = _checkpoint_records(args)
    path = Path(args.out) / "predictions.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_predictions(path, records)
    print(f"wrote {len(records)} predictions to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg, records = _checkpoint_records(args)
    report = compute_report(records, cfg.alpha if args.alpha is None else args.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_predictions(out / "predictions.csv", records)
    (out / "report.txt").write_text(report.to_text() + "\n")
    write_json(out / "report.json", report.to_dict())
    print(report.to_text())
    return 0


def _cmd_gridsearch(args) -> int:
    data = load_fleet(args.data)
    out = Path(args.out)
    if args.all_families and args.grid:
        raise ValueError("--grid applies to a single family; drop --all-families")
    kinds = _TABLE_KINDS if args.all_families else (None,)
    entries = {}
    for kind in kinds:
        if kind is not None:
            args.kind = kind
        cfg = _resolve_config(args)
        split = _resolve_split(args, cfg, data)
        grid = read_json(args.grid) if args.grid else default_grid(cfg.kind)
        run_dir = out / cfg.kind if args.all_families else out
        _note(f"{cfg.kind}: {len(grid_cells(grid, cfg.kind))} runs")
        result = grid_search(cfg, grid, data, split, out_dir=run_dir)
        if result.order:
            best = result.best
            entries[cfg.kind] = {"report": best.test_report, "selected": best.overrides}
            _note(f"{cfg.kind}: best run {best.index} {best.overrides} "
                  f"({result.selection_metric} {getattr(best, result.selection_metric):.6f})")
        else:
            entries[cfg.kind] = {"status": _failure_status(result.runs)}
        if not args.all_families:
            print(result.to_text())
    if args.all_families:
        table = family_table(entries)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.txt").write_text(table)
        write_json(out / "summary.json", {
            k: {
                "selected": e.get("selected"),
                "status": e.get("status", "ok"),
                "test": e["report"].to_dict() if e.get("report") else None,
            }
            for k, e in entries.items()
        })
        print(table, end="")
    return 0


def _failure_status(runs) -> str:
    """The summary status of a family none of whose runs was ranked: the
    exception classes its runs raised."""
    causes = sorted({r.error for r in runs if r.error is not None})
    if not causes:
        return "failed: no run was ranked"
    return f"failed: every run raised {' or '.join(causes)}"


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulkit",
        description="Probabilistic remaining-useful-life models with "
                    "uncertainty-aware metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic run-to-failure fleet")
    p.add_argument("--out", required=True, help="output directory for unit csv files")
    p.add_argument("--units", type=int, default=8)
    p.add_argument("--steps", type=int, default=150, help="nominal lifetime in steps")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--mode-mix", type=float, default=0.5, dest="mode_mix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-dim", type=int, default=8, dest="feature_dim")
    p.add_argument("--shifted-units", type=int, default=0, dest="shifted_units")
    p.add_argument("--shift", type=float, default=3.0)
    p.add_argument("--drift-spread", type=float, default=0.25, dest="drift_spread")
    p.add_argument("--regime-spread", type=float, default=0.5, dest="regime_spread")
    p.set_defaults(func=_cmd_synth)

    def add_train_flags(p):
        p.add_argument("--data", required=True, help="fleet directory")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config; keys override family defaults")
        p.add_argument("--kind", choices=MODEL_KINDS)
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--alpha", type=float)
        p.add_argument("--val-fraction", type=float, dest="val_fraction")
        p.add_argument("--train-units", dest="train_units",
                       help="comma-separated unit ids")
        p.add_argument("--test-units", dest="test_units",
                       help="comma-separated unit ids")

    p = sub.add_parser("train", help="train one model and report metrics")
    add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict with a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--units", help="comma-separated unit ids (default: all)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a checkpoint on a fleet")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--units", help="comma-separated unit ids (default: all)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gridsearch", help="hyperparameter search, one family or all")
    add_train_flags(p)
    p.add_argument("--grid", help="JSON file {name: [values, ...]}")
    p.add_argument("--all-families", action="store_true", dest="all_families",
                   help="run the benchmark grids for every family")
    p.set_defaults(func=_cmd_gridsearch)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, GradientError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
