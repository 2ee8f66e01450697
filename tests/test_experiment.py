"""Experiment orchestration: configs, runs, grids, checkpoints, reports.

Training runs here are deliberately tiny (a few epochs on small synthetic
fleets); they exercise wiring and reproducibility, not model quality. The
one quality check trains the point baseline on a noiseless in-distribution
fleet where it must beat a constant predictor by a wide margin.
"""

import json
import os
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rulkit import experiment, mcd, parallel, svgp
from rulkit.data import (FleetDataset, SplitSpec, UnitSeries, load_fleet, normalize, stack_rows,
                         synth_fleet)
from rulkit.mathcore import NumericalError, cholesky_jittered
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
    _records,
    build_model,
    checkpoint_records,
    default_config,
    default_grid,
    family_table,
    grid_cells,
    grid_search,
    load_checkpoint,
    model_config,
    model_from_config,
    prepare_split,
    run_experiment,
    save_checkpoint,
    selection_metric_for,
    write_predictions,
)


def small_fleet(seed=3):
    return synth_fleet(4, 15, seed=seed, feature_dim=4)


def small_split():
    return SplitSpec(("u001", "u002", "u003"), ("u004",))


def tiny_config(kind):
    """One epoch of ``kind`` at sizes the small fleet's 42 training rows allow."""
    return default_config(kind).replace(
        epochs=1, batch_size=64, seed=4, num_inducing=8, width=2, depth=2 if kind == "dgp" else 1,
        num_sites=3, train_samples=2, test_samples=4, hidden_layers=1, hidden_units=4,
    )


def tiny_mcd(**overrides):
    base = dict(
        kind="mcd", epochs=2, batch_size=64, learning_rate=1e-2, seed=0,
        hidden_layers=1, hidden_units=4, keep_prob=0.8, test_samples=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def file_tree(root: Path) -> dict:
    """Every file under ``root``, by path relative to it, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


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

    def test_default_grids_vary_only_fields_their_kind_reads(self):
        for kind in MODEL_KINDS:
            grid = default_grid(kind)
            assert len(grid_cells(grid, kind)) == int(np.prod([len(v) for v in grid.values()]))


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_mcd(rul_cap=125.0)
        cfg.save(tmp_path / "cfg.json")
        back = ExperimentConfig.load(tmp_path / "cfg.json")
        assert back == cfg

    @pytest.mark.parametrize("text", [b"{not json", b"\xff"])
    def test_a_file_that_is_not_json_is_refused_by_name(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: not a JSON file: "):
            ExperimentConfig.load(path)

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

    def test_dspp_depth_refusal_names_the_bound_and_kind(self):
        with pytest.raises(ValueError, match=r"^depth must be at least 1 for kind dspp, got 0$"):
            ExperimentConfig(kind="dspp", objective="ppgpr", depth=0).validate()

    def test_docstring_lists_the_fields_each_kind_reads(self):
        def names(text):
            return set(re.findall(r"``(\w+)``", text))

        every, beyond = ExperimentConfig.__doc__.split("Every kind reads")[1].split("Beyond those:")
        assert names(every) == set.intersection(*(set(experiment._reads(k)) for k in MODEL_KINDS))
        listed = {}
        for item in re.split(r"^\s*- ", beyond.strip().split("\n\n")[0], flags=re.M)[1:]:
            kinds, fields = item.split(":", 1)
            for kind in kinds.split(", "):
                listed[kind] = names(fields)
        assert set(listed) == set(MODEL_KINDS)
        for kind in MODEL_KINDS:
            assert listed[kind] == set(experiment._reads(kind)) - names(every), kind

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
            (dict(learning_rate=float("nan")), "learning_rate must be finite, got nan"),
            (dict(jitter=float("nan")), "jitter must be finite, got nan"),
            (dict(noise_variance=float("nan")), "noise_variance must be finite, got nan"),
            (dict(weight_decay=float("nan")), "weight_decay must be finite, got nan"),
            (dict(rul_cap=float("nan")), "rul_cap must be finite, got nan"),
            # a number is finite: these passed validate as inf
            (dict(jitter=float("inf")), "jitter must be finite, got inf"),
            (dict(beta_reg=float("inf")), "beta_reg must be finite, got inf"),
            (dict(learning_rate=np.float64("inf")), "learning_rate must be finite, got inf"),
            (dict(noise_variance=float("inf")), "noise_variance must be finite, got inf"),
            (dict(weight_decay=float("inf")), "weight_decay must be finite, got inf"),
            (dict(rul_cap=float("inf")), "rul_cap must be finite, got inf"),
            (dict(train_units=[]), r"train_units must name at least one unit, got \[\]"),
            (dict(test_units=[]), r"test_units must name at least one unit, got \[\]"),
            (dict(kind="dgp", depth=1.5), "depth must be a non-negative integer, got 1.5"),
            (dict(kind="dgp", depth=True), "depth must be a non-negative integer, got True"),
            (dict(kind="dgp", depth=-1), "depth must be a non-negative integer, got -1"),
            (dict(seed=0.5), "seed must be a non-negative integer, got 0.5"),
            (dict(seed=False), "seed must be a non-negative integer, got False"),
            (dict(seed=-3), "seed must be a non-negative integer, got -3"),
            (dict(epochs=True), "epochs must be a positive integer, got True"),
            (dict(hidden_units="16"), "hidden_units must be a positive integer, got '16'"),
            (dict(standardize_targets=1), "standardize_targets must be true or false, got 1"),
            (dict(freeze_inducing=None), "freeze_inducing must be true or false, got None"),
            (dict(skip_connection="true"), "skip_connection must be true or false, got 'true'"),
            (dict(heteroscedastic="false"), "heteroscedastic must be true or false, got 'false'"),
            (dict(learning_rate="0.01"), "learning_rate must be a number, got '0.01'"),
            (dict(alpha=None), "alpha must be a number, got None"),
            (dict(keep_prob=True), "keep_prob must be a number, got True"),
            (dict(beta_reg=True), "beta_reg must be a number, got True"),
            (dict(rul_cap=True), "rul_cap must be a number, got True"),
            (dict(jitter=[1e-6]), r"jitter must be a number, got \[1e-06\]"),
            (dict(val_fraction="0.1"), "val_fraction must be a number, got '0.1'"),
            (dict(weight_decay=None), "weight_decay must be a number, got None"),
            (dict(noise_variance=False), "noise_variance must be a number, got False"),
            (dict(train_units="u001"),
             "train_units must be a list of unit ids, got 'u001'"),
            (dict(test_units=["u004", 4]),
             r"test_units must be a list of unit ids, got \['u004', 4\]"),
            (dict(train_units=["u001"], test_units=["u001"]),
             "^train_units and test_units both name u001$"),
        ],
    )
    def test_validation(self, overrides, msg):
        with pytest.raises(ValueError, match=msg):
            ExperimentConfig(**overrides).validate()

    def test_float_fields_take_ints_and_rul_cap_takes_none(self):
        ExperimentConfig(
            learning_rate=1, alpha=np.float32(0.5), keep_prob=1, beta_reg=2, rul_cap=None,
            jitter=np.float64(1e-6), weight_decay=0, noise_variance=np.int64(1),
        ).validate()
        ExperimentConfig(rul_cap=125, train_units=["u001"], test_units=("u002",)).validate()

    def test_replace_does_not_mutate(self):
        cfg = tiny_mcd()
        other = cfg.replace(epochs=9)
        assert cfg.epochs == 2
        assert other.epochs == 9


class TestTrainValRows:
    """The training and validation rows ``prepare_split`` stacks."""

    def _fleet(self, n=10):
        def mk(uid):
            rng = np.random.default_rng(abs(hash(uid)) % 2**32)
            return UnitSeries(
                uid, np.arange(n, dtype=float), rng.standard_normal((n, 2)),
                np.arange(n - 1, -1, -1, dtype=float),
            )
        return FleetDataset((mk("u1"), mk("u2"), mk("u3")))

    def test_validation_is_the_temporal_tail(self):
        prepared = prepare_split(self._fleet(), SplitSpec(("u1", "u2"), ("u3",), val_fraction=0.1))
        X_tr, y_tr = prepared.train
        assert X_tr.shape == (18, 2)
        X_v, y_v, uid_v, t_v = prepared.val
        assert X_v.shape == (2, 2)
        np.testing.assert_array_equal(t_v, [9.0, 9.0])
        np.testing.assert_array_equal(y_v, [0.0, 0.0])
        assert y_tr.min() == 1.0
        assert set(uid_v) == {"u1", "u2"}

    def test_small_fraction_still_holds_one_row_out(self):
        prepared = prepare_split(self._fleet(), SplitSpec(("u1",), ("u2",), val_fraction=0.05))
        assert prepared.val[0].shape == (1, 2)

    def test_zero_fraction_means_no_validation(self):
        prepared = prepare_split(self._fleet(), SplitSpec(("u1", "u2"), ("u3",), val_fraction=0.0))
        assert prepared.val is None
        assert prepared.train[0].shape == (20, 2)

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="train_ids names units not in the fleet: u9"):
            prepare_split(self._fleet(), SplitSpec(("u9",), ("u1",)))


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

    def test_empty_test_ids_are_refused_before_training(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiment, "build_model", never)
        with pytest.raises(ValueError, match="test_ids must name at least one unit"):
            split = SplitSpec(("u001", "u002", "u003"), ())
            run_experiment(tiny_mcd(), small_fleet(), split, out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

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

    def test_the_run_records_the_split_it_used(self, tmp_path):
        # the config's own split fields ask for another split; the split
        # argument decides, and every record of the run names it
        cfg = tiny_mcd(val_fraction=0.5, train_units=["u009"])
        res = run_experiment(cfg, small_fleet(), small_split(), out_dir=tmp_path)
        assert len(res.val_records) == 3  # a tenth, not half, of each unit: one row
        recorded = {"val_fraction": 0.1, "train_units": ["u001", "u002", "u003"],
                    "test_units": ["u004"]}
        assert res.config == cfg.replace(**recorded)
        assert ExperimentConfig.load(tmp_path / "config.json") == res.config
        _, saved, _ = load_checkpoint(tmp_path / "checkpoint.npz")
        assert saved == res.config

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
        # the split is rebuilt from the checkpoint's config alone
        data = small_fleet()
        res = run_experiment(tiny_mcd(), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")

        prepared = prepare_split(data, SplitSpec(cfg.train_units, cfg.test_units,
                                                 cfg.val_fraction))
        np.testing.assert_array_equal(stats.mean, prepared.stats.mean)
        np.testing.assert_array_equal(stats.std, prepared.stats.std)
        X_v, y_v, uid_v, t_v = prepared.val
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

    def test_checkpoint_records_reject_an_empty_unit_list(self, tmp_path):
        data = small_fleet()
        run_experiment(tiny_mcd(), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")

        def refuse(X, rng=None):
            raise AssertionError("predictive ran")

        model.predictive = refuse
        with pytest.raises(ValueError, match=r"unit_ids must name at least one unit, got \[\]"):
            checkpoint_records(model, cfg, stats, data, [])

    def test_checkpoint_records_reject_a_unit_listed_twice(self, tmp_path):
        data = small_fleet()
        run_experiment(tiny_mcd(), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")

        def refuse(X, rng=None):
            raise AssertionError("predictive ran")

        model.predictive = refuse
        with pytest.raises(ValueError, match="unit_ids names u002 more than once"):
            checkpoint_records(model, cfg, stats, data, ["u002", "u001", "u002"])

    def test_checkpoint_records_refuse_a_bare_string(self, tmp_path):
        data = small_fleet()
        run_experiment(tiny_mcd(), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")
        with pytest.raises(ValueError, match="^unit_ids must be a list of unit ids, got 'u001'$"):
            checkpoint_records(model, cfg, stats, data, "u001")

    def test_svgp_scoring_factors_kmm_once(self, tmp_path, monkeypatch):
        data = small_fleet()
        run_experiment(tiny_config("svgp"), data, small_split(), out_dir=tmp_path)
        model, cfg, stats = load_checkpoint(tmp_path / "checkpoint.npz")
        calls = []

        def counting(a, base_jitter=1e-6):
            calls.append(a.shape)
            return cholesky_jittered(a, base_jitter)

        monkeypatch.setattr(svgp, "cholesky_jittered", counting)
        checkpoint_records(model, cfg, stats, data)
        checkpoint_records(model, cfg, stats, data, ["u004", "u001"])
        assert calls == [(8, 8)]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_scoring_many_units_matches_fresh_models_per_unit(self, kind, tmp_path):
        # one model scoring every unit writes the bytes of a freshly loaded
        # model per unit, so nothing a call leaves behind reaches the next
        data = small_fleet()
        run_experiment(tiny_config(kind), data, small_split(), out_dir=tmp_path)
        path = tmp_path / "checkpoint.npz"
        model, cfg, stats = load_checkpoint(path)
        ids = ["u004", "u002", "u001", "u003"]
        write_predictions(tmp_path / "together.csv", checkpoint_records(model, cfg, stats, data, ids))
        preds = []
        for i, uid in enumerate(ids):
            fresh = load_checkpoint(path)[0]
            preds.append(fresh.predictive(
                stats.apply(data.unit(uid).features), rng=RngStream(cfg.seed).derive(9, i)
            ))
        units = [data.unit(uid) for uid in ids]
        apart = _records(
            Predictions.concat(preds),
            np.concatenate([u.rul for u in units]),
            np.repeat(ids, [u.num_rows for u in units]),
            np.concatenate([u.time for u in units]),
            cfg.rul_cap,
        )
        write_predictions(tmp_path / "apart.csv", apart)
        assert (tmp_path / "together.csv").read_bytes() == (tmp_path / "apart.csv").read_bytes()

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_format_version_enforced(self, tmp_path, version):
        run_experiment(tiny_mcd(), small_fleet(), small_split(), out_dir=tmp_path)
        path = tmp_path / "checkpoint.npz"
        with np.load(path) as z:
            arrays = dict(z)
        arrays["format_version"] = np.asarray(version)
        np.savez(path, **arrays)
        # the message names the file's version and the one this code reads
        with pytest.raises(ValueError, match=rf"format_version {version};.*format_version 3$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"PK\x03\x04 not an archive", b"plain text", b"", None])
    def test_a_file_that_is_not_an_npz_archive_is_refused_by_path(self, tmp_path, content):
        path = tmp_path / "checkpoint.npz"
        if content is None:  # a lone .npy array
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes(content)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} is not a checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _members(tmp_path) -> dict:
        run_experiment(tiny_mcd(), small_fleet(), small_split(), out_dir=tmp_path)
        with np.load(tmp_path / "checkpoint.npz") as z:
            return dict(z)

    @pytest.mark.parametrize("member", ["format_version", "experiment_config", "model_config",
                                        "norm_mean", "norm_std", "state_theta"])
    def test_a_missing_member_is_refused_by_file_and_member(self, tmp_path, member):
        arrays = self._members(tmp_path)
        del arrays[member]
        path = tmp_path / "foreign.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} is not a checkpoint: "
                                             rf"it has no member {member}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("member, value, message", [
        ("format_version", np.asarray([3, 3]),
         "format_version: can only convert an array of size 1"),
        ("format_version", np.asarray("three"), "format_version: invalid literal for int"),
        ("experiment_config", np.asarray("{not json"),
         "experiment_config: Expecting property name"),
        ("experiment_config", np.asarray("[1, 2]"),
         "experiment_config: expected a JSON object, got list"),
        ("experiment_config", np.asarray('{"dropout": 0.5}'),
         "experiment_config: unknown config keys: dropout"),
        ("experiment_config", np.asarray('{"alpha": 2.0}'),
         r"experiment_config: alpha must be in \(0, 1\), got 2\.0$"),
        ("experiment_config", np.asarray('{"seed": -3}'),
         "experiment_config: seed must be a non-negative integer, got -3$"),
        ("state_theta", np.array([0.0, np.inf, 1.0]), "state_theta: non-finite value at index 1$"),
        ("model_config", np.asarray('"mcd"'), "model_config: expected a JSON object, got str"),
        ("model_config", np.asarray("{}"), "model_config: checkpoint has unknown model kind None"),
        # the vector's length is checked against the model the config describes
        ("state_theta", np.zeros(2), "model_config: checkpoint holds 2 raw parameters"),
        ("norm_std", np.ones(1), "norm_std: mean and std must be 1-D arrays of equal length"),
        # the mean is checked in its own member, not blamed on norm_std
        ("norm_mean", np.array([0.0, 0.0, np.nan, 0.0]), "norm_mean: non-finite value at index 2$"),
    ])
    def test_a_malformed_member_is_refused_by_file_and_member(self, tmp_path, member, value,
                                                             message):
        arrays = self._members(tmp_path)
        arrays[member] = value
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: checkpoint member {message}"):
            load_checkpoint(path)

    def test_statistics_of_another_feature_count_are_refused_by_file_and_member(self, tmp_path):
        arrays = self._members(tmp_path)  # the model reads 4 features
        arrays["norm_mean"], arrays["norm_std"] = arrays["norm_mean"][:3], arrays["norm_std"][:3]
        path = tmp_path / "cut.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint member "
                                             r"norm_std: statistics of 3 features for a model "
                                             r"of 4 inputs$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        # dgp's predictive divided by zero draws
        ("num_test_samples", 0, "num_test_samples must be a positive integer, got 0"),
        # these four loaded and predicted: 8.7 as 8 inducing points, "no" as true
        ("jitter", -1.0, "jitter must be positive, got -1.0"),
        ("num_inducing", 8.7, "num_inducing must be a positive integer, got 8.7"),
        ("skip_connection", "no", "skip_connection must be true or false, got 'no'"),
        ("input_dim", 4.0, "input_dim must be a positive integer, got 4.0"),
        # these were refused only at prediction, by no key, or not at all
        ("target_scale", 0, "target_scale must be positive, got 0"),
        ("target_scale", float("nan"), "target_scale must be finite, got nan"),
        ("target_shift", float("inf"), "target_shift must be finite, got inf"),
        # these two loaded: an infinite jitter is never read by a first factor that succeeds
        ("jitter", float("inf"), "jitter must be finite, got inf"),
        ("beta_reg", float("inf"), "beta_reg must be finite, got inf"),
    ])
    def test_a_model_config_value_is_held_to_its_fields_rules(self, tmp_path, key, value,
                                                               message):
        run_experiment(tiny_config("dgp"), small_fleet(), small_split(), out_dir=tmp_path)
        with np.load(tmp_path / "checkpoint.npz") as z:
            arrays = dict(z)
        stored = json.loads(str(arrays["model_config"]))
        assert key in stored
        arrays["model_config"] = np.asarray(json.dumps(stored | {key: value}))
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: checkpoint member "
                                             rf"model_config: {re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_config_with_an_unknown_or_missing_key_is_refused(self, kind):
        X, y = np.ones((10, 4)), np.arange(10.0)
        config = model_config(build_model(tiny_config(kind), X, y, RngStream(0)))
        with pytest.raises(ValueError, match=rf"kind '{config['kind']}' has unknown keys extra$"):
            model_from_config(config | {"extra": 1})
        dropped = dict(config)
        del dropped["input_dim"], dropped["target_scale"]
        with pytest.raises(ValueError, match="has missing keys input_dim, target_scale$"):
            model_from_config(dropped)
        with pytest.raises(ValueError, match="has unknown keys extra and missing keys input_dim"):
            model_from_config(dropped | {"extra": 1})

    @pytest.mark.parametrize("key", ["noise_variance", "weight_decay"])
    def test_an_infinite_model_config_number_is_refused_by_key(self, key):
        config = model_config(build_model(tiny_config("mcd"), np.ones((10, 4)), np.arange(10.0),
                                          RngStream(0)))
        with pytest.raises(ValueError, match=rf"^{key} must be finite, got inf$"):
            model_from_config(config | {key: float("inf")})

    @given(
        kind=st.sampled_from(MODEL_KINDS),
        depth=st.integers(1, 2),
        width=st.integers(1, 3),
        num_sites=st.integers(1, 5),
        hidden_units=st.integers(1, 5),
        flag=st.booleans(),
        keep_prob=st.sampled_from(KEEP_PROB_GRID),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_model_config_rebuilds_the_model(self, kind, depth, width, num_sites,
                                             hidden_units, flag, keep_prob, seed):
        # model_from_config(model_config(m), theta) is m again: the same
        # model_config and the same predictive bytes
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal((8, 2)), 10.0 * rng.standard_normal(8)
        config = default_config(kind).replace(
            num_inducing=3, depth=depth if kind == "dspp" else depth - 1, width=width,
            num_sites=num_sites, train_samples=2, test_samples=3, hidden_layers=depth,
            hidden_units=hidden_units, keep_prob=keep_prob, skip_connection=flag,
            standardize_targets=flag, heteroscedastic=flag and kind == "mcd",
        )
        model = build_model(config, X, y, RngStream(seed))
        model.params.values += 0.1 * rng.standard_normal(model.params.size)
        clone = model_from_config(model_config(model), model.params.values)
        assert model_config(clone) == model_config(model)
        a, b = model.predictive(X, rng=RngStream(1)), clone.predictive(X, rng=RngStream(1))
        for name in ("weights", "means", "variances", "mean", "var"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @given(depth=st.integers(1, 2), width=st.integers(1, 2), flag=st.booleans(),
           seed=st.integers(0, 2**16), at=st.floats(0.0, 1.0, exclude_max=True),
           step=st.sampled_from([-0.3, 0.2]))
    @settings(max_examples=25, deadline=None)
    def test_a_checkpoint_file_round_trip_keeps_every_predictive_bit(self, kind, depth, width,
                                                                    flag, seed, at, step):
        # an untrained model of a tiny fleet, saved and loaded: the loaded
        # model predicts the original's bits, again on a second call (a memo
        # hit for the GP kinds), and after a write to one raw parameter the
        # bits of a model built afresh from the new vector
        data = synth_fleet(3, 12, seed=seed, feature_dim=4)
        ids = data.unit_ids
        stats = normalize(data, ids)
        X_raw, y, _, _ = stack_rows(data, ids)
        X = stats.apply(X_raw)
        config = default_config(kind).replace(
            num_inducing=4, depth=depth if kind == "dspp" else depth - 1, width=width,
            num_sites=3, train_samples=2, test_samples=3, hidden_layers=depth,
            hidden_units=3, skip_connection=flag, seed=seed,
        )
        model = build_model(config, X, y, RngStream(seed))
        # off the prior, where Kmm would not show in the output
        rng = np.random.default_rng(seed)
        model.params.values += 0.1 * rng.standard_normal(model.params.size)

        def bits(m):
            p = m.predictive(X, rng=RngStream(1))
            return [getattr(p, name).tobytes()
                    for name in ("weights", "means", "variances", "mean", "var")]

        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "checkpoint.npz"
            save_checkpoint(path, model, config, stats)
            loaded, loaded_config, loaded_stats = load_checkpoint(path)
        assert loaded_config == config
        assert loaded_stats.mean.tobytes() == stats.mean.tobytes()
        assert loaded_stats.std.tobytes() == stats.std.tobytes()
        assert bits(loaded) == bits(model)
        assert bits(loaded) == bits(model)
        loaded.params.values[int(at * loaded.params.size)] += step
        fresh = model_from_config(model_config(loaded), loaded.params.values.copy())
        assert bits(loaded) == bits(fresh)

    # Each kind's checkpoint strings for ``tiny_config(kind)`` on the small
    # fleet: the model_config that build_model maps the run's config to, then
    # the run's config itself.
    PINNED = {
        "svgp": (
            '{"beta_reg": 1.0, "input_dim": 4, "jitter": 1e-06, "kind": "svgp", '
            '"num_inducing": 8, "objective": "elbo", "target_scale": 4.565355313204272, '
            '"target_shift": 8.155555555555555}',
            '{"alpha": 0.2, "batch_size": 64, "beta_reg": 1.0, "depth": 1, "epochs": 1, '
            '"freeze_inducing": false, "heteroscedastic": true, "hidden_layers": 1, '
            '"hidden_units": 4, "inducing_init": "random-subset", "jitter": 1e-06, '
            '"keep_prob": 0.4642, "kind": "svgp", "learning_rate": 0.001, '
            '"noise_variance": 1.0, "num_inducing": 8, "num_sites": 3, "objective": "elbo", '
            '"rul_cap": null, "seed": 4, "skip_connection": true, '
            '"standardize_targets": true, "test_samples": 4, "test_units": ["u004"], '
            '"train_samples": 2, "train_units": ["u001", "u002", "u003"], '
            '"val_fraction": 0.1, "weight_decay": 1e-06, "width": 2}',
        ),
        "ppgpr": (
            '{"beta_reg": 1.0, "input_dim": 4, "jitter": 1e-06, "kind": "svgp", '
            '"num_inducing": 8, "objective": "ppgpr", "target_scale": 4.565355313204272, '
            '"target_shift": 8.155555555555555}',
            '{"alpha": 0.2, "batch_size": 64, "beta_reg": 1.0, "depth": 1, "epochs": 1, '
            '"freeze_inducing": false, "heteroscedastic": true, "hidden_layers": 1, '
            '"hidden_units": 4, "inducing_init": "random-subset", "jitter": 1e-06, '
            '"keep_prob": 0.4642, "kind": "ppgpr", "learning_rate": 0.001, '
            '"noise_variance": 1.0, "num_inducing": 8, "num_sites": 3, "objective": "ppgpr", '
            '"rul_cap": null, "seed": 4, "skip_connection": true, '
            '"standardize_targets": true, "test_samples": 4, "test_units": ["u004"], '
            '"train_samples": 2, "train_units": ["u001", "u002", "u003"], '
            '"val_fraction": 0.1, "weight_decay": 1e-06, "width": 2}',
        ),
        "dgp": (
            '{"beta_reg": 1.0, "depth": 2, "input_dim": 4, "jitter": 1e-06, "kind": "dgp", '
            '"num_inducing": 8, "num_test_samples": 4, "num_train_samples": 2, '
            '"objective": "elbo", "skip_connection": true, '
            '"target_scale": 4.565355313204272, "target_shift": 8.155555555555555, '
            '"width": 2}',
            '{"alpha": 0.2, "batch_size": 64, "beta_reg": 1.0, "depth": 2, "epochs": 1, '
            '"freeze_inducing": false, "heteroscedastic": true, "hidden_layers": 1, '
            '"hidden_units": 4, "inducing_init": "random-subset", "jitter": 1e-06, '
            '"keep_prob": 0.4642, "kind": "dgp", "learning_rate": 0.001, '
            '"noise_variance": 1.0, "num_inducing": 8, "num_sites": 3, "objective": "elbo", '
            '"rul_cap": null, "seed": 4, "skip_connection": true, '
            '"standardize_targets": true, "test_samples": 4, "test_units": ["u004"], '
            '"train_samples": 2, "train_units": ["u001", "u002", "u003"], '
            '"val_fraction": 0.1, "weight_decay": 1e-06, "width": 2}',
        ),
        "dspp": (
            '{"beta_reg": 1.0, "depth": 1, "input_dim": 4, "jitter": 1e-06, "kind": "dspp", '
            '"num_inducing": 8, "num_sites": 3, "num_test_samples": 3, '
            '"num_train_samples": 3, "objective": "ppgpr", "skip_connection": true, '
            '"target_scale": 4.565355313204272, "target_shift": 8.155555555555555, '
            '"width": 2}',
            '{"alpha": 0.2, "batch_size": 64, "beta_reg": 1.0, "depth": 1, "epochs": 1, '
            '"freeze_inducing": false, "heteroscedastic": true, "hidden_layers": 1, '
            '"hidden_units": 4, "inducing_init": "random-subset", "jitter": 1e-06, '
            '"keep_prob": 0.4642, "kind": "dspp", "learning_rate": 0.001, '
            '"noise_variance": 1.0, "num_inducing": 8, "num_sites": 3, "objective": "ppgpr", '
            '"rul_cap": null, "seed": 4, "skip_connection": true, '
            '"standardize_targets": true, "test_samples": 4, "test_units": ["u004"], '
            '"train_samples": 2, "train_units": ["u001", "u002", "u003"], '
            '"val_fraction": 0.1, "weight_decay": 1e-06, "width": 2}',
        ),
        "mcd": (
            '{"heteroscedastic": true, "hidden_layers": 1, "hidden_units": 4, '
            '"input_dim": 4, "keep_prob": 0.4642, "kind": "mcd", "noise_variance": 1.0, '
            '"target_scale": 4.565355313204272, "target_shift": 8.155555555555555, '
            '"test_samples": 4, "weight_decay": 1e-06}',
            '{"alpha": 0.2, "batch_size": 64, "beta_reg": 1.0, "depth": 1, "epochs": 1, '
            '"freeze_inducing": false, "heteroscedastic": true, "hidden_layers": 1, '
            '"hidden_units": 4, "inducing_init": "random-subset", "jitter": 1e-06, '
            '"keep_prob": 0.4642, "kind": "mcd", "learning_rate": 0.001, '
            '"noise_variance": 1.0, "num_inducing": 8, "num_sites": 3, "objective": "elbo", '
            '"rul_cap": null, "seed": 4, "skip_connection": true, '
            '"standardize_targets": true, "test_samples": 4, "test_units": ["u004"], '
            '"train_samples": 2, "train_units": ["u001", "u002", "u003"], '
            '"val_fraction": 0.1, "weight_decay": 1e-06, "width": 2}',
        ),
        "ffnn": (
            '{"heteroscedastic": false, "hidden_layers": 1, "hidden_units": 4, '
            '"input_dim": 4, "keep_prob": 0.15, "kind": "ffnn", "noise_variance": 1.0, '
            '"target_scale": 4.565355313204272, "target_shift": 8.155555555555555, '
            '"test_samples": 4, "weight_decay": 1e-06}',
            '{"alpha": 0.2, "batch_size": 64, "beta_reg": 1.0, "depth": 1, "epochs": 1, '
            '"freeze_inducing": false, "heteroscedastic": false, "hidden_layers": 1, '
            '"hidden_units": 4, "inducing_init": "random-subset", "jitter": 1e-06, '
            '"keep_prob": 0.15, "kind": "ffnn", "learning_rate": 0.001, '
            '"noise_variance": 1.0, "num_inducing": 8, "num_sites": 3, "objective": "elbo", '
            '"rul_cap": null, "seed": 4, "skip_connection": true, '
            '"standardize_targets": true, "test_samples": 4, "test_units": ["u004"], '
            '"train_samples": 2, "train_units": ["u001", "u002", "u003"], '
            '"val_fraction": 0.1, "weight_decay": 1e-06, "width": 2}',
        ),

    }

    # Per kind: the model kind its checkpoint names, each hyperparameter key of
    # its model_config with the config field it holds, and the keywords
    # build_model passes to init_from_data.
    _GP_KEYS = {"num_inducing": "num_inducing", "objective": "objective",
                "beta_reg": "beta_reg", "jitter": "jitter"}
    _DEEP_KEYS = _GP_KEYS | {"width": "width", "depth": "depth",
                             "skip_connection": "skip_connection"}
    _NN_KEYS = {"hidden_layers": "hidden_layers", "hidden_units": "hidden_units",
                "keep_prob": "keep_prob", "heteroscedastic": "heteroscedastic",
                "noise_variance": "noise_variance", "weight_decay": "weight_decay",
                "test_samples": "test_samples"}
    FORMAT = {
        "svgp": ("svgp", _GP_KEYS, {"inducing_init", "freeze_inducing"}),
        "ppgpr": ("svgp", _GP_KEYS, {"inducing_init", "freeze_inducing"}),
        "dgp": ("dgp", _DEEP_KEYS | {"num_train_samples": "train_samples",
                                     "num_test_samples": "test_samples"}, {"inducing_init"}),
        "dspp": ("dspp", _DEEP_KEYS | {"num_sites": "num_sites", "num_train_samples": "num_sites",
                                       "num_test_samples": "num_sites"}, set()),
        "mcd": ("mcd", _NN_KEYS, set()),
        "ffnn": ("ffnn", _NN_KEYS, set()),
    }

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_config_keys_and_init_keywords_are_pinned(self, kind, monkeypatch):
        model_kind, keys, init_keywords = self.FORMAT[kind]
        seen = {}
        real = experiment.model_from_config

        def spy(config, theta=None):
            model = real(config, theta)
            init = model.init_from_data

            def init_spy(X, rng, **keywords):
                seen["init"] = set(keywords)
                return init(X, rng, **keywords)

            model.init_from_data = init_spy
            return model

        monkeypatch.setattr(experiment, "model_from_config", spy)
        # every hyperparameter a model_config holds has a value no other has
        config = tiny_config(kind).replace(beta_reg=0.5, width=3, train_samples=5,
                                           test_samples=6, num_sites=7, hidden_layers=2)
        stored = model_config(build_model(config, np.ones((10, 4)), np.arange(10.0),
                                          RngStream(0)))
        assert stored.pop("kind") == model_kind
        assert set(stored) == set(keys) | {"input_dim", "target_shift", "target_scale"}
        for key, name in keys.items():
            noise_head_off = kind == "ffnn" and key == "heteroscedastic"
            assert stored[key] == (False if noise_head_off else getattr(config, name)), key
        assert seen["init"] == init_keywords

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_checkpoint_config_strings_are_pinned(self, kind, tmp_path):
        run_experiment(tiny_config(kind), small_fleet(), small_split(), out_dir=tmp_path)
        with np.load(tmp_path / "checkpoint.npz") as z:
            saved = (str(z["model_config"]), str(z["experiment_config"]))
        assert saved == self.PINNED[kind]


class TestPinnedCheckpoints:
    """FORMAT_VERSION 3 checkpoints of every sparse-GP kind and of the
    dropout nets (mcd at keep_prob 0.8 and 1, ffnn) written by an earlier
    rulkit (``fixtures/checkpoints/generate.py``) still load and give the
    predictions they gave then: slice names, the order of the raw parameter
    vector, the model_config keys and the nets' passes are unchanged."""

    HERE = Path(__file__).parent / "fixtures" / "checkpoints"

    @pytest.mark.parametrize("kind", ["svgp", "ppgpr", "dgp", "dspp", "mcd", "mcd_p1", "ffnn"])
    def test_pinned_checkpoint_reproduces_its_predictions(self, kind):
        model, _, _ = load_checkpoint(self.HERE / f"{kind}.npz")
        pinned = "expected.npz" if kind in ("svgp", "ppgpr", "dgp", "dspp") else "expected_nn.npz"
        with np.load(self.HERE / pinned) as expected:
            preds = model.predictive(expected["X"])
            for name in ("weights", "means", "variances"):
                np.testing.assert_allclose(
                    getattr(preds, name), expected[f"{kind}.{name}"], rtol=1e-12, atol=0.0
                )


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

    def test_every_record_of_a_cell_names_the_split(self, tmp_path):
        base = tiny_mcd(val_fraction=0.5, train_units=["u009"])
        gs = grid_search(base, {"hidden_units": [4, 8]}, small_fleet(), small_split(),
                         out_dir=tmp_path)
        saved = json.loads((tmp_path / "grid.json").read_text())["runs"]
        for run, entry in zip(gs.runs, saved):
            assert run.config == base.replace(
                hidden_units=run.overrides["hidden_units"], seed=run.config.seed,
                val_fraction=0.1, train_units=["u001", "u002", "u003"], test_units=["u004"])
            assert entry["config"] == run.config.to_dict()
            assert ExperimentConfig.load(tmp_path / f"run_{run.index:03d}" / "config.json") \
                == run.config

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

    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        real_build = experiment.build_model
        seen = []  # per cell: whether the calling thread ran it, and its errstate
        both_running = threading.Barrier(2, timeout=30)

        def build(*args, **kwargs):
            if workers == 2:
                both_running.wait()  # so that a helper thread runs one of the cells
            seen.append((threading.current_thread() is threading.main_thread(),
                         np.geterr()["over"]))
            return real_build(*args, **kwargs)

        monkeypatch.setattr(experiment, "build_model", build)
        trees = {}
        for workers in (1, 2):
            monkeypatch.setattr(experiment, "usable_cpus", lambda w=workers: w)
            out = tmp_path / f"w{workers}"
            # the absurd learning rate overflows the noise head on purpose
            with np.errstate(over="ignore", invalid="ignore"):
                gs = grid_search(
                    tiny_mcd(epochs=3),
                    {"learning_rate": [1e-2, 1e20]},
                    small_fleet(), small_split(), out_dir=out,
                )
            assert [r.status[:7] for r in gs.runs] == ["ok", "failed:"]
            tree = file_tree(out)
            tree["grid.json"] = tree["grid.json"].replace(str(out).encode(), b"<out>")
            trees[workers] = tree
        assert {"grid.json", "grid.txt", "run_000/report.txt",
                "run_000/checkpoint.npz"} <= set(trees[1])
        assert trees[2] == trees[1]
        assert (False, "ignore") in seen  # a helper thread saw the caller's errstate
        assert {over for _, over in seen} == {"ignore"}

    def test_cells_match_standalone_runs_and_share_one_prepared_split(
        self, tmp_path, monkeypatch
    ):
        # mcd cells, one of them a keep_prob <= 0.1 corner that fails at this
        # learning rate and one with keep_prob 1, and an svgp cell: each
        # cell's files must be those of a standalone run on the raw fleet,
        # while each grid normalizes the fleet once for all of its cells
        real_normalize = experiment.normalize
        normalized = []

        def normalize_counted(*args, **kwargs):
            normalized.append(args)
            return real_normalize(*args, **kwargs)

        monkeypatch.setattr(experiment, "normalize", normalize_counted)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        fleet, split = small_fleet(), small_split()
        searches = [
            (tiny_mcd(epochs=3, learning_rate=1.0, hidden_layers=2, hidden_units=16),
             {"keep_prob": [0.05, 0.5, 1.0]}),
            (tiny_config("svgp"), {"num_inducing": [8]}),
        ]
        for g, (base, grid) in enumerate(searches):
            out = tmp_path / f"grid{g}"
            normalized.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                gs = grid_search(base, grid, fleet, split, out_dir=out)
            assert len(normalized) == 1
            for cell in gs.runs:
                alone = tmp_path / f"alone{g}_{cell.index}"
                run_dir = out / f"run_{cell.index:03d}"
                if cell.status != "ok":
                    with np.errstate(over="ignore", invalid="ignore"):
                        with pytest.raises((TrainingDiverged, NumericalError)) as info:
                            run_experiment(cell.config, fleet, split, out_dir=alone)
                    assert cell.status == f"failed: {info.value}"
                    assert not run_dir.exists() and not alone.exists()
                    continue
                run_experiment(cell.config, fleet, split, out_dir=alone)
                assert file_tree(alone) == file_tree(run_dir)
            statuses = [r.status[:7] for r in gs.runs]
            assert statuses == (["failed:", "ok", "ok"] if g == 0 else ["ok"])

    def test_prepared_split_is_read_only(self):
        prepared = experiment.prepare_split(small_fleet(), small_split())
        arrays = [*prepared.train, *prepared.val, *prepared.test,
                  prepared.stats.mean, prepared.stats.std]
        assert len(arrays) == 12
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = a[:1]

    def test_mcd_prediction_in_a_grid_cell_starts_no_thread(self, tmp_path, monkeypatch):
        # Two CPUs, and every prediction big enough to spread its passes: alone,
        # a cell's val and test predictions would each start a helper thread.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(mcd, "PARALLEL_MIN_UNIFORMS", 0)
        started = []
        real_thread = parallel.Thread

        def thread(*args, **kwargs):
            started.append(kwargs)
            return real_thread(*args, **kwargs)

        monkeypatch.setattr(parallel, "Thread", thread)
        gs = grid_search(tiny_mcd(), {"hidden_units": [4, 8]}, small_fleet(), small_split(),
                         out_dir=tmp_path / "grid")
        assert len(started) == 1  # the grid's one helper
        run_experiment(gs.runs[0].config, small_fleet(), small_split(), out_dir=tmp_path / "alone")
        assert len(started) == 3
        assert file_tree(tmp_path / "alone") == file_tree(tmp_path / "grid" / "run_000")

    def test_unexpected_exception_stops_the_search_and_names_its_cell(
        self, tmp_path, monkeypatch
    ):
        # Cell 2 fails first, then cell 1, while cell 0 is still running.
        real_build = experiment.build_model
        two_failed, one_failed = threading.Event(), threading.Event()
        started = []

        def build(cfg, *args, **kwargs):
            i = cfg.hidden_units - 1
            started.append(i)
            if i == 2:
                two_failed.set()
                raise KeyError("cell 2")
            if i == 1:
                two_failed.wait(30)
                one_failed.set()
                raise RuntimeError("cell 1")
            one_failed.wait(30)
            return real_build(cfg, *args, **kwargs)

        monkeypatch.setattr(experiment, "build_model", build)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match="cell 1") as info:
            grid_search(tiny_mcd(), {"hidden_units": [1, 2, 3, 4]}, small_fleet(),
                        small_split(), out_dir=tmp_path)
        assert info.value.__notes__ == ["in grid cell 1 with overrides {'hidden_units': 2}"]
        assert sorted(started) == [0, 1, 2]  # cell 3 never starts
        # the running cell is joined: it wrote its last file before the raise
        assert [p.name for p in tmp_path.iterdir()] == ["run_000"]
        assert (tmp_path / "run_000" / "predictions_test.csv").is_file()

    def test_rebound_run_experiment_gets_the_cells_in_order_on_the_calling_thread(
        self, tmp_path, monkeypatch
    ):
        # A wrapper that keeps a stack of open calls, as a span tracer does,
        # stays consistent only if no two cells run at once.
        real_run = experiment.run_experiment
        open_calls, seen = [], []

        def run(cfg, *args, **kwargs):
            seen.append((cfg.hidden_units, threading.current_thread() is threading.main_thread(),
                         list(open_calls)))
            open_calls.append(cfg.hidden_units)
            try:
                return real_run(cfg, *args, **kwargs)
            finally:
                open_calls.pop()

        monkeypatch.setattr(experiment, "run_experiment", run)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 3)
        trees = {}
        for name in ("wrapped", "own"):
            if name == "own":
                monkeypatch.setattr(experiment, "run_experiment", real_run)
            out = tmp_path / name
            gs = grid_search(tiny_mcd(), {"hidden_units": [4, 8, 12]}, small_fleet(),
                             small_split(), out_dir=out)
            assert [r.status for r in gs.runs] == ["ok"] * 3
            tree = file_tree(out)
            tree["grid.json"] = tree["grid.json"].replace(str(out).encode(), b"<out>")
            trees[name] = tree
        assert seen == [(4, True, []), (8, True, []), (12, True, [])]
        assert trees["wrapped"] == trees["own"]

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

    @pytest.mark.parametrize("grid,key,shown", [
        ({"hidden_units": []}, "hidden_units", r"\[\]"),
        ({"hidden_units": 16}, "hidden_units", "16"),
        ({"inducing_init": "kmeans"}, "inducing_init", "'kmeans'"),
        ({"hidden_units": [4], "keep_prob": (0.5,)}, "keep_prob", r"\(0\.5,\)"),
    ])
    def test_grid_value_that_is_not_a_non_empty_list_is_refused_by_key(
        self, grid, key, shown, tmp_path
    ):
        with pytest.raises(ValueError, match=f"grid values for {key} must be a non-empty list, got {shown}"):
            grid_search(tiny_mcd(), grid, small_fleet(), small_split(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind,grid,msg", [
        ("mcd", {"val_fraction": [0.1, 0.5], "num_inducing": [7]},
         "grid cannot vary num_inducing: kind mcd does not read it"),
        ("mcd", {"num_inducing": [7]}, "grid cannot vary num_inducing: kind mcd does not read it"),
        ("mcd", {"val_fraction": [0.1, 0.5]},
         "grid cannot vary val_fraction: a search takes its split from its split argument, "
         "so no mcd cell reads it"),
        ("svgp", {"train_units": [["u001"]]}, "grid cannot vary train_units: .* no svgp cell"),
        ("svgp", {"keep_prob": [0.5, 1.0]}, "grid cannot vary keep_prob: kind svgp does not"),
        ("dgp", {"freeze_inducing": [True]}, "grid cannot vary freeze_inducing: kind dgp"),
        ("dspp", {"inducing_init": ["kmeans"]}, "grid cannot vary inducing_init: kind dspp"),
        ("ffnn", {"heteroscedastic": [True]}, "grid cannot vary heteroscedastic: kind ffnn"),
        ("ffnn", {"test_samples": [4, 8]}, "grid cannot vary test_samples: kind ffnn"),
    ], ids=["mcd-split-and-gp", "mcd-gp", "mcd-split", "svgp-units", "svgp-nn", "dgp-freeze",
            "dspp-init", "ffnn-noise-head", "ffnn-passes"])
    def test_grid_key_no_cell_reads_is_refused_by_key_and_kind(self, kind, grid, msg, tmp_path):
        with pytest.raises(ValueError, match=f"^{msg}"):
            grid_search(tiny_config(kind), grid, small_fleet(), small_split(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: dropout"):
            grid_search(tiny_mcd(), {"dropout": [0.5]}, small_fleet(), small_split())

    @pytest.mark.parametrize("grid,msg", [
        ({"kind": ["mcd", "ffnn"]}, "grid cannot vary kind"),
        ({"seed": [1, 2], "hidden_units": [4]}, "grid cannot vary seed"),
    ])
    def test_kind_and_seed_are_refused_as_grid_keys(self, grid, msg, tmp_path):
        with pytest.raises(ValueError, match=msg):
            grid_search(tiny_mcd(), grid, small_fleet(), small_split(), out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("kind", ["svgp", "dgp", "dspp", "mcd"])
    def test_training_input_rule(self, kind):
        # objective_grad reads rows as predictive does and exactly one target
        # per row, as a vector; a column of targets would broadcast the
        # residuals to an (n, n) objective
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((12, 3)), rng.standard_normal(12)
        cfg = default_config(kind).replace(
            num_inducing=4, hidden_layers=1, hidden_units=4,
            width=2, num_sites=3, train_samples=2, test_samples=2,
        )
        model = build_model(cfg, X, y, RngStream(0))
        assert np.isfinite(model.objective_grad(X, y, rng=RngStream(1)))
        for bad in (y[:, None], y[:11]):
            with pytest.raises(ValueError, match=r"expected targets of shape \(12,\)"):
                model.objective_grad(X, bad, rng=RngStream(1))
        with pytest.raises(ValueError, match=r"expected inputs of shape \(n, 3\)"):
            model.objective_grad(X[:, :2], y, rng=RngStream(1))

    @pytest.mark.parametrize("kind", ["svgp", "ppgpr", "dspp", "ffnn"])
    def test_predictive_on_a_row_subset_is_those_rows_of_the_whole(self, kind):
        # the kinds that draw nothing: a row's prediction does not depend on
        # the other rows of the call, here on both sides of dspp's 2,048-row
        # chunk boundary
        rng = np.random.default_rng(3)
        X = rng.standard_normal((2100, 3))
        y = rng.standard_normal(12)
        cfg = default_config(kind).replace(
            num_inducing=4, hidden_layers=1, hidden_units=4, width=2, num_sites=3,
        )
        model = build_model(cfg, X[:12], y, RngStream(0))
        model.params.values += 0.3 * rng.standard_normal(model.params.size)  # off the prior
        whole = model.predictive(X)
        for rows in (np.array([0, 5, 2047, 2048, 2049, 2099]), np.arange(2040, 2060),
                     np.arange(1, 2100, 3)):
            part = model.predictive(X[rows])
            for name in ("weights", "means", "variances", "mean", "var"):
                assert getattr(part, name).tobytes() == getattr(whole, name)[rows].tobytes(), name

    # Property versions of the two contracts above, over random row counts on
    # either side of dgp's 512-row and dspp's 2,048-row chunks and random
    # model shapes: depth 0-2 (1-2 for dspp), width 1-3, skip on and off.
    ROWS = st.one_of(
        st.integers(0, 2100),
        st.builds(lambda edge, step: max(edge + step, 0),
                  st.sampled_from([0, 512, 1024, 2048]), st.integers(-3, 60)),
    )
    SHAPES = dict(n=ROWS, depth=st.integers(0, 2), width=st.integers(1, 3), skip=st.booleans(),
                  seed=st.integers(0, 2**16))
    BATCH_KINDS = {"svgp": "gaussian", "ppgpr": "gaussian", "dgp": "mixture",
                   "dspp": "mixture", "mcd": "gaussian", "ffnn": "point"}

    @staticmethod
    def _drawn_model(kind, depth, width, skip, seed):
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal((12, 3)), 5.0 * rng.standard_normal(12)
        cfg = default_config(kind).replace(
            num_inducing=4, hidden_layers=1, hidden_units=4, num_sites=3, train_samples=2,
            test_samples=2, depth=max(depth, int(kind == "dspp")), width=width, skip_connection=skip,
        )
        model = build_model(cfg, X, y, RngStream(seed))
        model.params.values += 0.3 * rng.standard_normal(model.params.size)  # off the prior
        return model, rng

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @given(**SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_predictive_batch_has_one_row_per_input_row(self, kind, n, depth, width, skip, seed):
        model, rng = self._drawn_model(kind, depth, width, skip, seed)
        pred = model.predictive(rng.standard_normal((n, 3)), rng=RngStream(seed))
        comps = {"dgp": 2 if depth else 1, "dspp": 3}.get(kind, 1)
        assert (pred.kind, len(pred)) == (self.BATCH_KINDS[kind], n)
        for name in ("weights", "means", "variances"):
            assert getattr(pred, name).shape == (n, comps), name
        assert pred.mean.shape == pred.var.shape == (n,)

    def _subset_and_whole(self, kind, n, depth, width, skip, seed):
        """A drawn model's predictive on a random subset of n rows (in random
        order), its predictive on all n, and the subset's row indices."""
        model, rng = self._drawn_model(kind, depth, width, skip, seed)
        X = rng.standard_normal((n, 3))
        rows = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
        return model.predictive(X[rows]), model.predictive(X), rows

    @pytest.mark.parametrize("kind", ["svgp", "ppgpr", "dspp", "ffnn"])
    @given(**SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_predictive_on_a_random_row_subset_is_those_rows(self, kind, n, depth, width, skip,
                                                             seed):
        part, whole, rows = self._subset_and_whole(kind, n, depth, width, skip, seed)
        assert part.weights.tobytes() == whole.weights[rows].tobytes()
        for name in ("means", "variances", "mean", "var"):
            np.testing.assert_allclose(getattr(part, name), getattr(whole, name)[rows],
                                       rtol=1e-12, atol=1e-12, err_msg=name)

    # Bit for bit the property fails: BLAS takes other kernels for other row
    # counts, so a one-row call, and at 8 or more inducing points most calls,
    # differ in the last bits from the same rows of a larger call. Strict, so
    # the test fails once the program holds the property.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a row's bits depend on the other rows of the call")
    @given(kind=st.sampled_from(["svgp", "ppgpr", "dspp", "ffnn"]), **SHAPES)
    @settings(max_examples=60, deadline=None, phases=[Phase.generate])
    def test_predictive_on_a_random_row_subset_is_those_rows_bit_for_bit(self, kind, n, depth,
                                                                        width, skip, seed):
        part, whole, rows = self._subset_and_whole(kind, n, depth, width, skip, seed)
        for name in ("weights", "means", "variances", "mean", "var"):
            assert getattr(part, name).tobytes() == getattr(whole, name)[rows].tobytes(), name

    def test_ffnn_is_a_point_baseline(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        cfg = default_config("ffnn").replace(hidden_layers=1, hidden_units=4)
        model = build_model(cfg, X, y, RngStream(0))
        preds = model.predictive(X[:1], rng=RngStream(1))
        assert preds.kind == "point"
