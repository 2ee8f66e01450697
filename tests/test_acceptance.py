"""End-to-end behavioral gates for the library.

Each test here checks one user-facing guarantee at a fixed tolerance and
prints a single [PASS]/[FAIL] line (run ``pytest tests/test_acceptance.py -s``
to see them). The designs are deliberately frozen — fleets, seeds, learning
rates and step counts are pinned so every run exercises the identical path.
"""

import math
import time

import numpy as np
import pytest

from gp_oracle import exact_gp_predict
from rulkit import autodiff as ad
from rulkit.data import SplitSpec, normalize, stack_rows, synth_fleet
from rulkit.dgp import DeepGPModel
from rulkit.dspp import DSPPModel, init_sigma_points
from rulkit.experiment import (
    TABLE_FAMILIES,
    default_config,
    default_grid,
    family_table,
    grid_search,
    run_experiment,
    write_predictions,
)
from rulkit.mathcore import Kernel, gauss_hermite, kernel_eval
from rulkit.mcd import MCDModel
from rulkit.metrics import (
    Predictions,
    Records,
    alpha_lambda,
    prob_alpha_lambda,
)
from rulkit.params import (
    OptimizerState,
    ParamView,
    RngStream,
    adam_step,
    fd_check,
    minibatch_iter,
)
from rulkit.svgp import ObjectiveSpec, SVGPModel, latent_graph, layer_from_view


def _gate(num: int, label: str, passed: bool) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {label}")
    assert passed, f"criterion {num}: {label}"


# -- 1. analytic gradients agree with finite differences -------------------------------


def test_gradients_match_finite_differences_across_all_objectives():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    errs = {}

    X = rng.standard_normal((12, 2))
    y = 3.0 * X[:, 0] - X[:, 1] + 0.1 * rng.standard_normal(12)
    for kind in ("elbo", "ppgpr"):
        model = SVGPModel.create(
            X, y, num_inducing=4, objective_spec=ObjectiveSpec(kind), rng=RngStream(6)
        )
        model.params.values += 0.05 * rng.standard_normal(model.params.size)
        errs[f"svgp-{kind}"] = fd_check(
            lambda p: model.objective_grad(X, y), model.params, probes=20, rng=RngStream(3)
        )

    Xd = rng.standard_normal((10, 2))
    yd = np.sin(Xd[:, 0]) + 0.1 * rng.standard_normal(10)
    deep = DeepGPModel.create(
        Xd, yd, width=2, depth=1, num_inducing=4,
        objective_spec=ObjectiveSpec("elbo"), rng=RngStream(2), num_train_samples=3,
    )
    deep.params.values += 0.2 * rng.standard_normal(deep.params.size)
    # a fresh stream per evaluation freezes the hidden-layer draws, so the
    # objective is deterministic
    errs["dgp"] = fd_check(
        lambda p: deep.objective_grad(Xd, yd, rng=RngStream(4)),
        deep.params,
        probes=20,
        rng=RngStream(1),
    )

    Xs = rng.standard_normal((9, 2))
    ys = np.cos(Xs[:, 1]) + 0.1 * rng.standard_normal(9)
    sigma = DSPPModel.create(
        Xs, ys, width=2, depth=1, num_inducing=3, num_sites=3, rng=RngStream(21)
    )
    sigma.params.values += 0.15 * rng.standard_normal(sigma.params.size)
    errs["dspp"] = fd_check(
        lambda p: sigma.objective_grad(Xs, ys), sigma.params, probes=20, rng=RngStream(2)
    )

    Xm = rng.standard_normal((16, 2))
    ym = Xm[:, 0] - 0.5 * Xm[:, 1] + 0.05 * rng.standard_normal(16)
    mcd = MCDModel.create(
        Xm, ym, hidden_layers=2, hidden_units=6, keep_prob=0.7,
        test_samples=16, rng=RngStream(1),
    )
    # a fresh stream per evaluation freezes the dropout masks across the
    # probed evaluations
    errs["mcd"] = fd_check(
        lambda p: mcd.objective_grad(Xm, ym, rng=RngStream(2)),
        mcd.params,
        probes=20,
        rng=RngStream(5),
    )

    elapsed = time.monotonic() - t0
    worst = max(errs.values())
    ok = worst < 1e-4 and elapsed < 30.0
    _gate(
        1,
        f"finite-difference gradient agreement (max rel err {worst:.2e} over "
        f"{sorted(errs)}, {elapsed:.1f}s)",
        ok,
    )


# -- 2. sparse model with Z = X collapses to the exact GP ------------------------------


def test_svgp_with_inducing_at_data_matches_exact_gp():
    t0 = time.monotonic()
    N, steps = 20, 5000
    rng = np.random.default_rng(0)
    X = (np.arange(N) * 1.2)[:, None]
    y = np.sin(0.6 * X[:, 0]) + 0.3 * rng.standard_normal(N)

    model = SVGPModel.create(
        X, y, N, ObjectiveSpec("elbo"), rng=RngStream(0),
        standardize_targets=False, freeze_inducing=True,
    )
    p = model.params
    for name in ("gp.kernel_variance", "gp.lengthscales", "obs_variance"):
        p.set_trainable(name, False)
    assert np.array_equal(p.decode("gp.z"), X)

    kernel = Kernel(p.decode("gp.kernel_variance"), p.decode("gp.lengthscales"))
    noise = float(p.decode("obs_variance"))
    L = np.linalg.cholesky(kernel_eval(kernel, X, X) + noise * np.eye(N))
    a = np.linalg.solve(L, y)
    lml = -0.5 * a @ a - np.sum(np.log(np.diag(L))) - N / 2 * math.log(2 * math.pi)

    state = OptimizerState()
    for i in range(steps):
        state.learning_rate = 0.1 * 0.5 * (1.0 + math.cos(math.pi * i / steps))
        loss = model.objective_grad(X, y, 1.0)
        adam_step(state, p)

    bound_ok = -loss <= lml + 1e-6

    xs = np.linspace(-0.5, 23.3, 20)[:, None]
    exact = exact_gp_predict(kernel, noise, X, y, xs)
    approx = model.predictive(xs)
    mu_err = max(abs(s - e.mean) for s, e in zip(approx.mean, exact))
    var_err = max(abs(s - e.variance) for s, e in zip(approx.var, exact))
    elapsed = time.monotonic() - t0

    ok = bound_ok and mu_err < 1e-3 and var_err < 1e-3 and elapsed < 60.0
    _gate(
        2,
        f"Z=X collapse to the exact GP (gap {lml + loss:.2e}, mean err {mu_err:.2e}, "
        f"var err {var_err:.2e}, {elapsed:.1f}s)",
        ok,
    )


# -- 3. the deep families nest the shallow ones ----------------------------------------


def test_degenerate_deep_models_reduce_to_their_shallow_counterparts():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((9, 2))
    y = rng.standard_normal(9)
    worst = 0.0

    for kind in ("elbo", "ppgpr"):
        flat = SVGPModel.create(
            X, y, num_inducing=4, objective_spec=ObjectiveSpec(kind), rng=RngStream(3)
        )
        deep = DeepGPModel.create(
            X, y, width=1, depth=0, num_inducing=4,
            objective_spec=ObjectiveSpec(kind), rng=RngStream(3),
        )
        flat.params.values += 0.1 * rng.standard_normal(flat.params.size)
        deep.params.values[:] = flat.params.values
        worst = max(worst, abs(deep.objective_grad(X, y) - flat.objective_grad(X, y)))
        worst = max(worst, float(np.max(np.abs(deep.params.grad - flat.params.grad))))
        mix, gauss = deep.predictive(X), flat.predictive(X)
        for mean, var, g_mean, g_var in zip(mix.mean, mix.var, gauss.mean, gauss.var):
            worst = max(worst, abs(mean - g_mean), abs(var - g_var))
        mus, vars_ = deep._component_moments(X, deep._draw_eps(X.shape[0], 5, RngStream(0)))
        view = ParamView(flat.params, trainable=False)
        mu_ref, var_ref, _ = latent_graph(layer_from_view(view, "gp"), ad.constant(X), flat.jitter)
        mu_ref, var_ref = mu_ref.data, var_ref.data
        worst = max(worst, float(np.max(np.abs(mus[0] - mu_ref))))
        worst = max(worst, float(np.max(np.abs(vars_[0] - var_ref))))

    spec = ObjectiveSpec("ppgpr")
    sigma = DSPPModel.create(
        X, y, width=2, depth=1, num_inducing=3, num_sites=1,
        objective_spec=spec, rng=RngStream(6),
    )
    deep = DeepGPModel.create(
        X, y, width=2, depth=1, num_inducing=3, objective_spec=spec, rng=RngStream(6)
    )
    noise = 0.1 * rng.standard_normal(deep.params.size)
    sigma.params.values[: deep.params.size] += noise
    deep.params.values += noise
    eps = np.zeros((1, X.shape[0], deep.depth * deep.width))
    sigma_loss = sigma._build(ParamView(sigma.params, trainable=False), X, y, 1.0, None)
    deep_loss = deep._build(ParamView(deep.params, trainable=False), X, y, 1.0, eps)
    worst = max(worst, abs(float(sigma_loss.data) - float(deep_loss.data)))
    mus, vars_ = deep._component_moments(X, eps)
    s_mus, s_vars = sigma._component_moments(X)
    worst = max(worst, float(np.max(np.abs(s_mus - mus))))
    worst = max(worst, float(np.max(np.abs(s_vars - vars_))))

    _gate(
        3,
        f"depth-0 deep GP == sparse GP and 1-site sigma model == mean-propagated "
        f"deep GP (max deviation {worst:.2e})",
        worst < 1e-12,
    )


# -- 4. quadrature is exact and seeds the sigma points ---------------------------------


def test_quadrature_moments_and_sigma_point_initialization():
    worst = 0.0
    for s in range(1, 11):
        rule = gauss_hermite(s)
        for k in range(2 * s):
            approx = float(rule.weights @ rule.sites**k)
            exact = 0.0 if k % 2 else float(np.prod(np.arange(k - 1, 0, -2), initial=1.0))
            # odd moments vanish; measure them against the absolute-moment scale
            denom = max(abs(exact), float(rule.weights @ np.abs(rule.sites) ** k), 1.0)
            worst = max(worst, abs(approx - exact) / denom)

        points = init_sigma_points(s, total_width=3)
        site_err = float(np.max(np.abs(points.sites - rule.sites[:, None])))
        weight_err = float(np.max(np.abs(points.weights - rule.weights)))
        worst = max(worst, site_err, weight_err)

    _gate(
        4,
        f"Gauss-Hermite moments exact through degree 2S-1, S=1..10, and sigma-point "
        f"init reproduces the rule (max err {worst:.2e})",
        worst < 1e-9,
    )


# -- 5. accuracy-band metrics ------------------------------------------------------------


def test_band_metric_identities():
    checks = []

    def recs(means, var):
        n = len(means)
        return Records(["u"] * n, range(n), [100.0] * n, Predictions.gaussian(means, [var] * n))

    # the band around rul=100 at alpha=0.2 is [80, 120], endpoints included
    four = recs([119.0, 121.0, 80.0, 120.0], 1.0)
    checks.append(abs(alpha_lambda(four, alpha=0.2) - 0.75) < 1e-15)
    checks.append(alpha_lambda(recs([119.0], 1.0), alpha=0.2) == 1.0)
    checks.append(alpha_lambda(recs([121.0], 1.0), alpha=0.2) == 0.0)

    # a predictive sd of 20 puts the band edges exactly one sigma out
    centered = recs([100.0], 400.0)
    checks.append(abs(prob_alpha_lambda(centered, alpha=0.2) - 0.682689) <= 1e-6)

    # as sd -> 0 the banded mass becomes the indicator of the point estimate
    inside = recs([110.0], 1e-16)
    outside = recs([125.0], 1e-16)
    checks.append(abs(prob_alpha_lambda(inside, alpha=0.2) - 1.0) < 1e-12)
    checks.append(abs(prob_alpha_lambda(outside, alpha=0.2)) < 1e-12)

    _gate(
        5,
        "accuracy band is [80, 120] at alpha=0.2; centered Gaussian mass is "
        "Phi(1)-Phi(-1); zero-width predictives recover the indicator",
        all(checks),
    )


# -- 6. calibrated intervals under a well-specified noise model --------------------------


def test_two_sigma_coverage_on_well_specified_fleet():
    t0 = time.monotonic()
    fleet = synth_fleet(
        20, 380, noise=0.0, mode_mix=0.0, seed=21,
        feature_dim=5, drift_spread=0.0, regime_spread=0.0,
    )
    ids = fleet.unit_ids
    train_ids, test_ids = ids[:6], ids[6:]
    normed, _ = normalize(fleet, train_ids)
    X_tr, y_tr, _, _ = stack_rows(normed, train_ids)
    X_te, y_te, _, _ = stack_rows(normed, test_ids)

    # the targets carry known iid Gaussian noise, so the Gaussian likelihood
    # is exactly right and 2-sigma intervals should cover ~95.45%
    sigma = 8.0
    y_tr = y_tr + sigma * RngStream(77).derive(0).normal(y_tr.shape)
    y_te = y_te + sigma * RngStream(77).derive(1).normal(y_te.shape)

    model = SVGPModel.create(X_tr, y_tr, 64, ObjectiveSpec("ppgpr"), rng=RngStream(5))
    state = OptimizerState(learning_rate=5e-3)
    n = len(y_tr)
    for epoch in range(250):
        for mb in minibatch_iter(n, 256, RngStream(9).derive(1, epoch)):
            model.objective_grad(X_tr[mb.indices], y_tr[mb.indices], mb.scale)
            adam_step(state, model.params)

    preds = model.predictive(X_te)
    mu = preds.mean
    sd = np.sqrt(preds.var)
    coverage = float(np.mean(np.abs(y_te - mu) <= 2.0 * sd))
    elapsed = time.monotonic() - t0

    ok = len(y_te) >= 5000 and 0.924 <= coverage <= 0.984 and elapsed < 300.0
    _gate(
        6,
        f"2-sigma coverage {coverage:.4f} in [0.924, 0.984] over {len(y_te)} "
        f"held-out rows ({elapsed:.0f}s)",
        ok,
    )


# -- 7. predictive uncertainty tracks degradation and distribution shift -----------------


def test_uncertainty_shrinks_near_failure_and_grows_off_distribution():
    t0 = time.monotonic()
    wins = 0
    for seed in range(5):
        fleet = synth_fleet(
            7, 100, seed=100 + seed, shifted_units=1, feature_dim=6, shift=6.0
        )
        split = SplitSpec(
            ("u001", "u002", "u003", "u004", "u005"),
            ("u006", "u007", "s001"),
            val_fraction=0.0,
        )
        result = run_experiment(default_config("dspp").replace(seed=seed), fleet, split)

        recs = result.test_records
        stats = {}
        for uid in set(recs.unit.tolist()):
            rows = np.flatnonzero(recs.unit == uid)
            rows = rows[np.argsort(recs.time[rows], kind="stable")]
            var = recs.pred.var[rows]
            sd = np.sqrt(var)
            k = max(1, int(0.2 * len(rows)))
            stats[uid] = (sd[:k].mean(), sd[-k:].mean(), var[len(rows) // 2 :].mean())

        shrinks = all(stats[u][1] < stats[u][0] for u in ("u006", "u007"))
        shifted_late = stats["s001"][2]
        inflates = all(shifted_late > stats[u][2] for u in ("u006", "u007"))
        wins += shrinks and inflates

    elapsed = time.monotonic() - t0
    ok = wins >= 4 and elapsed < 900.0
    _gate(
        7,
        f"late-life sd contraction on in-distribution units and variance inflation "
        f"on the shifted unit: {wins}/5 seeds ({elapsed:.0f}s)",
        ok,
    )


# -- 8. bitwise reproducibility -----------------------------------------------------------


def test_identical_seeds_give_identical_reports(tmp_path):
    fleet = synth_fleet(4, 15, seed=3, feature_dim=4)
    split = SplitSpec(("u001", "u002", "u003"), ("u004",))
    shared = dict(epochs=2, batch_size=64, seed=0)
    configs = {
        "svgp": dict(num_inducing=8),
        "dgp": dict(num_inducing=4, width=2, train_samples=2, test_samples=3),
        "dspp": dict(num_inducing=4, width=2, num_sites=3, test_samples=3),
        "mcd": dict(hidden_layers=1, hidden_units=8, keep_prob=0.8, test_samples=4),
        "ffnn": dict(hidden_layers=1, hidden_units=8),
    }
    stable = True
    for kind, overrides in configs.items():
        cfg = default_config(kind).replace(**shared, **overrides)
        first = run_experiment(cfg, fleet, split)
        second = run_experiment(cfg, fleet, split)
        same = (
            first.test_report.to_text() == second.test_report.to_text()
            and first.val_report.to_text() == second.val_report.to_text()
        )
        a, b = tmp_path / f"{kind}_a.csv", tmp_path / f"{kind}_b.csv"
        write_predictions(a, first.test_records)
        write_predictions(b, second.test_records)
        same = same and a.read_bytes() == b.read_bytes()
        stable = stable and same

    _gate(8, "reruns with the same seed produce byte-identical reports "
             "and prediction files for every model family", stable)


# -- 9. the benchmark harness runs every family's full search space -----------------------


def test_full_hyperparameter_sweep_and_summary_table():
    t0 = time.monotonic()
    fleet = synth_fleet(9, 200, seed=42)
    ids = fleet.unit_ids
    split = SplitSpec(tuple(ids[:6]), tuple(ids[6:]), val_fraction=0.1)

    expected_cells = {"svgp": 3, "dgp": 3, "dspp": 30, "mcd": 288, "ffnn": 24}
    table_kinds = [k for kinds in TABLE_FAMILIES.values() for k in kinds]

    entries = {}
    total = 0
    all_ok = True
    for kind in table_kinds:
        grid = default_grid(kind)
        size = int(np.prod([len(v) for v in grid.values()]))
        all_ok = all_ok and size == expected_cells[kind]
        # the search spaces above are used verbatim; only the training budget
        # shrinks so the sweep stays a harness check rather than a benchmark
        base = default_config(kind).replace(
            epochs=1, train_samples=2, test_samples=4, seed=0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = grid_search(base, grid, fleet, split)
        total += len(result.runs)
        all_ok = all_ok and len(result.runs) == size
        # every cell must be attempted and given a recorded outcome; the only
        # tolerated failures are the extreme-dropout corners, where the
        # inverted-dropout 1/keep_prob amplification genuinely diverges
        for r in result.runs:
            if r.status == "ok":
                continue
            benign = (
                r.status.startswith("failed: ")
                and kind == "mcd"
                and r.overrides.get("keep_prob", 1.0) <= 0.1
            )
            all_ok = all_ok and benign
        all_ok = all_ok and len(result.order) >= 1
        best = result.best
        rerun = run_experiment(best.config, fleet, split)
        entries[kind] = {"report": rerun.test_report, "selected": best.overrides}

    table = family_table(entries)
    lines = table.splitlines()
    all_ok = all_ok and total == 348
    for section in TABLE_FAMILIES:
        all_ok = all_ok and f"== {section} ==" in lines
    rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines if "\t" in ln}
    for kind in table_kinds:
        all_ok = all_ok and kind in rows and len(rows[kind]) == 6
        all_ok = all_ok and rows[kind][2] != "-"  # rmse column is populated
        all_ok = all_ok and rows[kind][5] != "-"  # selected hyperparameters shown
    for kind in ("svgp", "dgp", "dspp", "mcd"):
        all_ok = all_ok and rows[kind][1] != "-"  # probabilistic families report nll

    elapsed = time.monotonic() - t0
    _gate(
        9,
        f"full search grids ({total} runs) execute and fill the grouped summary "
        f"table ({elapsed:.0f}s)",
        all_ok,
    )
