"""Experiment orchestration: configs, runs, grids, checkpoints, reports.

Training runs here are deliberately tiny (a few epochs on small synthetic
fleets); they exercise wiring and reproducibility, not model quality. The
one quality check trains the point baseline on a noiseless in-distribution
fleet where it must beat a constant predictor by a wide margin.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rulkit.data import FleetDataset, SplitSpec, UnitSeries, load_fleet, normalize, synth_fleet
from rulkit.metrics import Predictions, Records, compute_report
from rulkit.params import RngStream
from rulkit.experiment import (
    KEEP_PROB_GRID,
    MODEL_KINDS,
    TABLE_FAMILIES,
    ConfigDataMismatch,
    ExperimentConfig,
    TrainingDiverged,
    _child_seed,
    build_model,
    checkpoint_records,
    default_config,
    default_grid,
    family_table,
    grid_search,
    load_checkpoint,
    run_experiment,
    selection_metric_for,
    train_val_rows,
    write_predictions,
)


def small_fleet(seed=3):
    return synth_fleet(4, 15, seed=seed, feature_dim=4)


def small_split():
    return SplitSpec(("u001", "u002", "u003"), ("u004",))


def tiny_mcd(**overrides):
    base = dict(
        kind="mcd", epochs=2, batch_size=64, learning_rate=1e-2, seed=0,
        hidden_layers=1, hidden_units=4, keep_prob=0.8, test_samples=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestKeepProbGrid:
    def test_twelve_log_spaced_points(self):
        assert len(KEEP_PROB_GRID) == 12
        assert KEEP_PROB_GRID[0] == pytest.approx(10.0 ** (-11.0 / 6.0), rel=1e-12)
        assert KEEP_PROB_GRID[-1] == pytest.approx(1.0, rel=1e-12)
        ratios = np.diff(np.log10(KEEP_PROB_GRID))
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_contains_selected_keep_probability(self):
        assert KEEP_PROB_GRID[9] == pytest.approx(10.0 ** (-1.0 / 3.0), rel=1e-12)


class TestDefaults:
    def test_default_configs_validate(self):
        for kind in MODEL_KINDS:
            cfg = default_config(kind)
            assert cfg.kind == kind
            cfg.validate()

    def test_selected_hyperparameters(self):
        assert default_config("svgp").num_inducing == 800
        assert default_config("ppgpr").objective == "ppgpr"
        dgp = default_config("dgp")
        assert (dgp.num_inducing, dgp.width, dgp.depth) == (100, 4, 1)
        assert (dgp.train_samples, dgp.test_samples) == (10, 64)
        dspp = default_config("dspp")
        assert (dspp.num_inducing, dspp.width, dspp.num_sites) == (100, 2, 15)
        assert dspp.objective == "ppgpr"
        mcd = default_config("mcd")
        assert (mcd.hidden_layers, mcd.hidden_units) == (5, 200)
        assert mcd.keep_prob == pytest.approx(0.4642)
        assert mcd.heteroscedastic
        ffnn = default_config("ffnn")
        assert (ffnn.hidden_layers, ffnn.hidden_units) == (5, 65)
        assert ffnn.keep_prob == pytest.approx(0.15)
        assert not ffnn.heteroscedastic

    def test_grid_sizes_sum_to_benchmark_run_count(self):
        def size(kind):
            g = default_grid(kind)
            return int(np.prod([len(v) for v in g.values()]))

        assert size("svgp") == 3
        assert size("dgp") == 3
        assert size("dspp") == 3 * 2 * 5
        assert size("mcd") == 4 * 6 * 12
        assert size("ffnn") == 4 * 6
        families = [k for ks in TABLE_FAMILIES.values() for k in ks]
        assert sum(size(k) for k in families) == 348

    def test_mcd_grid_carries_keep_prob_grid(self):
        assert default_grid("mcd")["keep_prob"] == KEEP_PROB_GRID
        assert "keep_prob" not in default_grid("ffnn")

    def test_beta_reg_not_searched_by_default(self):
        for kind in MODEL_KINDS:
            assert "beta_reg" not in default_grid(kind)


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_mcd(rul_cap=125.0)
        cfg.save(tmp_path / "cfg.json")
        back = ExperimentConfig.load(tmp_path / "cfg.json")
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: dropout"):
            ExperimentConfig.from_dict({"kind": "mcd", "dropout": 0.5})

    def test_kind_objective_coupling(self):
        with pytest.raises(ValueError, match="kind=ppgpr"):
            ExperimentConfig(kind="ppgpr", objective="elbo").validate()
        with pytest.raises(ValueError, match="ppgpr objective"):
            ExperimentConfig(kind="dspp", objective="elbo").validate()
        ExperimentConfig(kind="dspp", objective="ppgpr").validate()

    def test_dspp_needs_depth(self):
        with pytest.raises(ValueError, match="depth"):
            ExperimentConfig(kind="dspp", objective="ppgpr", depth=0).validate()

    @pytest.mark.parametrize(
        "overrides,msg",
        [
            (dict(kind="vae"), "kind"),
            (dict(objective="map"), "objective"),
            (dict(beta_reg=-0.1), "beta_reg"),
            (dict(epochs=0), "epochs"),
            (dict(batch_size=2.5), "batch_size"),
            (dict(learning_rate=0.0), "learning_rate"),
            (dict(alpha=1.0), "alpha"),
            (dict(val_fraction=1.0), "val_fraction"),
            (dict(keep_prob=0.0), "keep_prob"),
            (dict(weight_decay=-1e-4), "weight_decay"),
            (dict(rul_cap=0.0), "rul_cap"),
            (dict(inducing_init="grid"), "inducing_init"),
            (dict(beta_reg=0.0), "beta_reg"),
            (dict(kind="dgp", depth=4), "depth must be at most 3 for kind dgp"),
            (dict(kind="dspp", objective="ppgpr", depth=4), "depth must be at most 3"),
            (dict(kind="dspp", objective="ppgpr", num_sites=51), "num_sites must be at most 50"),
        ],
    )
    def test_validation(self, overrides, msg):
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(**overrides).validate()

    def test_replace_does_not_mutate(self):
        cfg = tiny_mcd()
        other = cfg.replace(epochs=9)
        assert cfg.epochs == 2
        assert other.epochs == 9


class TestTrainValRows:
    def _fleet(self, n=10):
        def mk(uid):
            rng = np.random.default_rng(abs(hash(uid)) % 2**32)
            return UnitSeries(
                uid, np.arange(n, dtype=float), rng.standard_normal((n, 2)),
                np.arange(n - 1, -1, -1, dtype=float),
            )
        return FleetDataset((mk("u1"), mk("u2"), mk("u3")))

    def test_validation_is_the_temporal_tail(self):
        (X_tr, y_tr, uid_tr, t_tr), val = train_val_rows(
            self._fleet(), SplitSpec(("u1", "u2"), ("u3",), val_fraction=0.1)
        )
        assert X_tr.shape == (18, 2)
        X_v, y_v, uid_v, t_v = val
        assert X_v.shape == (2, 2)
        np.testing.assert_array_equal(t_v, [9.0, 9.0])
        np.testing.assert_array_equal(y_v, [0.0, 0.0])
        assert y_tr.min() == 1.0
        assert set(uid_tr) == {"u1", "u2"}

    def test_small_fraction_still_holds_one_row_out(self):
        _, val = train_val_rows(
            self._fleet(), SplitSpec(("u1",), (), val_fraction=0.05)
        )
        assert val[0].shape == (1, 2)

    def test_zero_fraction_means_no_validation(self):
        (X_tr, *_), val = train_val_rows(
            self._fleet(), SplitSpec(("u1", "u2"), ("u3",), val_fraction=0.0)
        )
        assert val is None
        assert X_tr.shape == (20, 2)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unknown units"):
            train_val_rows(self._fleet(), SplitSpec(("u9",), ()))


class TestRunExperiment:
    def test_result_shape(self):
        res = run_experiment(tiny_mcd(), small_fleet(), small_split())
        assert len(res.epoch_objectives) == 2
        assert res.val_report is not None
        assert res.test_report.num_records == small_fleet().unit("u004").num_rows
        assert len(res.test_records) == res.test_report.num_records
        assert all(np.isfinite(v) for v in res.epoch_objectives)

    def test_same_seed_reproduces_reports_exactly(self):
        a = run_experiment(tiny_mcd(), small_fleet(), small_split())
        b = run_experiment(tiny_mcd(), small_fleet(), small_split())
        assert a.test_report.to_text() == b.test_report.to_text()
        assert a.val_report.to_text() == b.val_report.to_text()
        assert a.epoch_objectives == b.epoch_objectives

    def test_seed_changes_predictions(self):
        a = run_experiment(tiny_mcd(), small_fleet(), small_split())
        b = run_experiment(tiny_mcd(seed=1), small_fleet(), small_split())
        assert a.test_report.rmse != b.test_report.rmse

    def test_rul_cap_applies_to_targets_and_truth(self):
        cap = 5.0
        res = run_experiment(tiny_mcd(rul_cap=cap), small_fleet(), small_split())
        assert res.test_records.rul.max() <= cap

    def test_no_validation_split(self):
        # the split, not the config, owns the validation fraction
        split = SplitSpec(("u001", "u002", "u003"), ("u004",), val_fraction=0.0)
        res = run_experiment(tiny_mcd(), small_fleet(), split)
        assert res.val_report is None
        assert res.val_records is None

    def test_point_baseline_beats_constant_predictor(self):
        # noiseless single-mode fleet with shared operating regime: features
        # determine health exactly, so the net must do far better than
        # predicting the mean
        fleet = synth_fleet(10, 60, noise=0.0, mode_mix=0.0, seed=1,
                            feature_dim=5, drift_spread=0.0, regime_spread=0.0)
        ids = fleet.unit_ids
        split = SplitSpec(tuple(ids[:8]), tuple(ids[8:]))
        cfg = ExperimentConfig(
            kind="ffnn", hidden_layers=1, hidden_units=16, keep_prob=0.9,
            epochs=400, batch_size=4096, learning_rate=1e-2, seed=0,
            heteroscedastic=False,
        )
        res = run_experiment(cfg, fleet, split)
        y_te = np.concatenate([fleet.unit(i).rul for i in ids[8:]])
        constant = float(np.sqrt(np.mean((y_te - y_te.mean()) ** 2)))
        assert res.test_report.rmse < 0.3 * constant

    def test_out_dir_artifacts(self, tmp_path):
        res = run_experiment(tiny_mcd(), small_fleet(), small_split(), out_dir=tmp_path)
        for name in ("checkpoint.npz", "config.json", "report.json", "report.txt",
                     "epochs.csv", "predictions_val.csv", "predictions_test.csv"):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["test"]["rmse"] == res.test_report.rmse
        assert len(report["epoch_objectives"]) == 2


class TestCheckpoints:
    def test_reload_reproduces_validation_metrics(self, tmp_path):
        data = small_fleet()
        split = small_split()
        res = run_experiment(tiny_mcd(), data, split, out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")

        normed, stats2 = normalize(data, split.train_ids)
        np.testing.assert_array_equal(stats.mean, stats2.mean)
        np.testing.assert_array_equal(stats.std, stats2.std)
        _, val = train_val_rows(normed, split)
        X_v, y_v, uid_v, t_v = val
        preds = model.predictive(X_v, rng=RngStream(cfg.seed).derive(3))
        records = Records(uid_v, t_v, y_v, preds)
        assert compute_report(records, cfg.alpha).to_text() == res.val_report.to_text()

    def test_training_ignores_test_units(self, tmp_path):
        base = small_fleet()
        train = [base.unit(i) for i in ("u001", "u002", "u003")]
        other = base.unit("u004")
        doubled = UnitSeries(other.unit_id, other.time, 2.0 * other.features, other.rul)
        fleet_a = FleetDataset(tuple(train) + (other,))
        fleet_b = FleetDataset(tuple(train) + (doubled,))
        run_experiment(tiny_mcd(), fleet_a, small_split(), out_dir=tmp_path / "a")
        run_experiment(tiny_mcd(), fleet_b, small_split(), out_dir=tmp_path / "b")
        with np.load(tmp_path / "a" / "checkpoint.npz") as za, \
                np.load(tmp_path / "b" / "checkpoint.npz") as zb:
            np.testing.assert_array_equal(za["norm_mean"], zb["norm_mean"])
            np.testing.assert_array_equal(za["state_theta"], zb["state_theta"])

    def test_checkpoint_records_cover_requested_units(self, tmp_path):
        data = small_fleet()
        run_experiment(tiny_mcd(), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")
        records = checkpoint_records(model, cfg, stats, data, ["u002"])
        assert len(records) == data.unit("u002").num_rows
        assert set(records.unit.tolist()) == {"u002"}
        again = checkpoint_records(model, cfg, stats, data, ["u002"])
        for r, s in zip(records.pred.mean, again.pred.mean):
            assert r == s

    def test_checkpoint_records_reject_normalized_fleet(self, tmp_path):
        data = small_fleet()
        run_experiment(tiny_mcd(), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")
        normed, _ = normalize(data, list(small_split().train_ids))
        with pytest.raises(ValueError, match="already normalized"):
            checkpoint_records(model, cfg, stats, normed)

    @pytest.mark.parametrize("version", [1, 99])
    def test_format_version_enforced(self, tmp_path, version):
        run_experiment(tiny_mcd(), small_fleet(), small_split(), out_dir=tmp_path)
        path = tmp_path / "checkpoint.npz"
        with np.load(path) as z:
            arrays = dict(z)
        arrays["format_version"] = np.asarray(version)
        np.savez(path, **arrays)
        # the message names the file's version and the one this code reads
        with pytest.raises(ValueError, match=rf"format_version {version};.*format_version 2$"):
            load_checkpoint(path)


class TestGridSearch:
    def test_single_cell_matches_run_experiment_with_child_seed(self):
        base = ExperimentConfig(kind="svgp", epochs=1, batch_size=64,
                                num_inducing=8, seed=7)
        gs = grid_search(base, {"num_inducing": [8]}, small_fleet(), small_split())
        manual = run_experiment(
            base.replace(num_inducing=8, seed=_child_seed(7, 0)),
            small_fleet(), small_split(),
        )
        assert gs.runs[0].val_nll == manual.val_report.nll
        assert gs.runs[0].test_rmse == manual.test_report.rmse

    def test_two_by_two_grid_ranked_by_validation_nll(self):
        gs = grid_search(
            tiny_mcd(),
            {"hidden_units": [4, 8], "hidden_layers": [1, 2]},
            small_fleet(), small_split(),
        )
        assert len(gs.runs) == 4
        assert gs.runs[1].overrides == {"hidden_layers": 1, "hidden_units": 8}
        assert gs.selection_metric == "val_nll"
        scores = [gs.runs[i].val_nll for i in gs.order]
        assert scores == sorted(scores)
        assert gs.best.index == gs.order[0]

    def test_divergent_run_recorded_and_search_continues(self, tmp_path):
        # the absurd learning rate overflows the noise head on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            gs = grid_search(
                tiny_mcd(epochs=3),
                {"learning_rate": [1e-2, 1e20]},
                small_fleet(), small_split(), out_dir=tmp_path,
            )
        assert gs.runs[0].status == "ok"
        assert gs.runs[1].status.startswith("failed: ")
        assert gs.order == [0]
        assert gs.best.index == 0
        text = (tmp_path / "grid.txt").read_text()
        assert "failed: " in text
        grid_json = json.loads((tmp_path / "grid.json").read_text())
        assert grid_json["runs"][1]["val_nll"] is None

    def test_ffnn_selects_on_rmse(self):
        assert selection_metric_for("ffnn") == "val_rmse"
        assert selection_metric_for("mcd") == "val_nll"
        gs = grid_search(
            tiny_mcd(kind="ffnn", heteroscedastic=False),
            {"hidden_units": [4, 8]},
            small_fleet(), small_split(),
        )
        assert gs.selection_metric == "val_rmse"
        assert all(r.val_nll is None for r in gs.runs)

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: dropout"):
            grid_search(tiny_mcd(), {"dropout": [0.5]}, small_fleet(), small_split())

    def test_needs_validation_split(self):
        split = SplitSpec(("u001", "u002", "u003"), ("u004",), val_fraction=0.0)
        with pytest.raises(ValueError, match="val_fraction"):
            grid_search(tiny_mcd(), {"hidden_units": [4]}, small_fleet(), split)

    def test_inducing_count_beyond_training_rows_fails_its_cell(self):
        fleet = synth_fleet(4, 40, seed=0)
        ids = fleet.unit_ids
        split = SplitSpec(ids[:3], ids[3:], val_fraction=0.1)
        base = default_config("svgp").replace(epochs=1)
        with pytest.raises(ConfigDataMismatch, match="num_inducing=200 exceeds 94 training rows"):
            run_experiment(base.replace(num_inducing=200), fleet, split)
        gs = grid_search(base, {"num_inducing": [8, 200]}, fleet, split)
        assert [r.status for r in gs.runs] == [
            "ok", "failed: num_inducing=200 exceeds 94 training rows",
        ]
        assert gs.order == [0]

    def test_invalid_grid_value_fails_before_any_run(self, tmp_path):
        base = ExperimentConfig(kind="svgp", epochs=1, batch_size=64, num_inducing=8)
        with pytest.raises(ValueError, match="beta_reg must be positive"):
            grid_search(base, {"beta_reg": [1.0, 0.0]}, small_fleet(), small_split(),
                        out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_out_of_range_depth_fails_before_any_run(self, tmp_path):
        # the model constructor's range, checked with every other cell's config
        base = ExperimentConfig(kind="dgp", epochs=1, batch_size=64, num_inducing=8,
                                width=1, train_samples=2, test_samples=2)
        with pytest.raises(ValueError, match="depth must be at most 3 for kind dgp, got 4"):
            grid_search(base, {"depth": [1, 4]}, small_fleet(), small_split(),
                        out_dir=tmp_path)
        assert not (tmp_path / "run_000").exists()

    def test_child_seeds_are_frozen(self):
        assert _child_seed(0, 0) == 2617721224
        assert _child_seed(0, 1) == 1749781631
        assert _child_seed(7, 3) == 4178234391


class TestWritePredictions:
    def test_mixture_components_as_columns(self, tmp_path):
        records = Records(["u1"] * 3, range(3), [5.0 - t for t in range(3)], Predictions.mixture(
            [0.25, 0.75], [[4.0 + t, 6.0] for t in range(3)], [[1.0, 2.0]] * 3))
        path = tmp_path / "preds.csv"
        write_predictions(path, records)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "unit_id", "t", "rul_true", "pred_mean", "pred_variance",
            "w_1", "mean_1", "var_1", "w_2", "mean_2", "var_2",
        ]
        cells = lines[1].split(",")
        assert float(cells[5]) == 0.25
        assert float(cells[6]) == 4.0

    def test_point_predictions_have_no_variance(self, tmp_path):
        records = Records(["u1"], [0], [3.0], Predictions.point([2.5]))
        path = tmp_path / "preds.csv"
        write_predictions(path, records)
        line = path.read_text().splitlines()[1]
        assert line == "u1,0,3.0,2.5,-"

    def test_gaussian_rows_bytes(self, tmp_path):
        records = Records(["u1", "u2"], [0, 7], [3.0, 0.0], Predictions.gaussian(
            [0.30000000000000004, -1.0], [0.25, 1e-3]))
        path = tmp_path / "preds.csv"
        write_predictions(path, records)
        assert path.read_text() == (
            "unit_id,t,rul_true,pred_mean,pred_variance\n"
            "u1,0,3.0,0.30000000000000004,0.25\n"
            "u2,7,0.0,-1.0,0.001\n"
        )

    def test_mixture_rows_bytes(self, tmp_path):
        records = Records(["u1", "u1"], [0, 1], [3.0, 2.0], Predictions.mixture(
            [[0.25, 0.75], [0.5, 0.5]], [[0.0, 4.0], [1.0, 3.0]], [[1.0, 1.0], [2.0, 2.0]]))
        path = tmp_path / "preds.csv"
        write_predictions(path, records)
        assert path.read_text() == (
            "unit_id,t,rul_true,pred_mean,pred_variance,w_1,mean_1,var_1,w_2,mean_2,var_2\n"
            "u1,0,3.0,3.0,4.0,0.25,0.0,1.0,0.75,4.0,1.0\n"
            "u1,1,2.0,2.0,3.0,0.5,1.0,2.0,0.5,3.0,2.0\n"
        )


class TestFamilyTable:
    def test_sections_and_pending_rows(self):
        text = family_table({})
        assert "== Gaussian Processes ==" in text
        assert "== Deep Neural Networks ==" in text
        assert text.count("pending") == 5

    def test_report_row_with_selection(self):
        rul = [10.0 - t for t in range(5)]
        records = Records(["u1"] * 5, range(5), rul, Predictions.gaussian(rul, [4.0] * 5))
        rep = compute_report(records)
        text = family_table({
            "svgp": {"report": rep, "selected": {"num_inducing": 800}},
            "mcd": {"status": "failed: diverged"},
        })
        svgp_line = next(l for l in text.splitlines() if l.startswith("svgp"))
        assert "num_inducing=800" in svgp_line
        assert f"{rep.rmse:.4f}" in svgp_line
        assert "failed: diverged" in text


class TestBuildModel:
    def test_each_kind_constructs(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        for kind in MODEL_KINDS:
            cfg = default_config(kind).replace(
                num_inducing=4, hidden_layers=1, hidden_units=4,
                width=2, num_sites=3, train_samples=2, test_samples=2,
            )
            model = build_model(cfg, X, y, RngStream(0))
            preds = model.predictive(X[:2], rng=RngStream(1))
            assert len(preds) == 2

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predictive_input_rule(self, kind):
        # zero rows give an empty batch of the family's kind; any other shape
        # than (n, input_dim) is refused with that shape in the message
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        cfg = default_config(kind).replace(
            num_inducing=4, hidden_layers=1, hidden_units=4,
            width=2, num_sites=3, train_samples=2, test_samples=2,
        )
        model = build_model(cfg, X, y, RngStream(0))
        expected = model.predictive(X[:2], rng=RngStream(1)).kind
        empty = model.predictive(np.zeros((0, 3)), rng=RngStream(1))
        assert (len(empty), empty.kind) == (0, expected)
        for bad in (np.zeros((2, 4)), np.zeros((0, 2)), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"expected inputs of shape \(n, 3\)"):
                model.predictive(bad, rng=RngStream(1))

    def test_ffnn_is_a_point_baseline(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        cfg = default_config("ffnn").replace(hidden_layers=1, hidden_units=4)
        model = build_model(cfg, X, y, RngStream(0))
        preds = model.predictive(X[:1], rng=RngStream(1))
        assert preds.kind == "point"
