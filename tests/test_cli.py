"""End-to-end command line flows on a tiny synthetic fleet.

Every test drives ``main(argv)`` in-process and checks exit codes, artifact
files, and the error contract (nonzero exit, message on stderr).
"""

import json

import numpy as np
import pytest

from rulkit.cli import main

UNITS = "u001,u002,u003"
TEST_UNIT = "u004"


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    rc = main([
        "synth", "--out", str(out), "--units", "4", "--steps", "15",
        "--seed", "3", "--feature-dim", "4",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def mcd_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mcd.json"
    path.write_text(json.dumps({
        "kind": "mcd", "hidden_layers": 1, "hidden_units": 4,
        "keep_prob": 0.8, "test_samples": 4, "batch_size": 64,
    }))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, fleet_dir, mcd_config):
    out = tmp_path_factory.mktemp("trained")
    rc = main([
        "train", "--data", str(fleet_dir), "--out", str(out),
        "--config", str(mcd_config), "--epochs", "2", "--seed", "0",
        "--train-units", UNITS, "--test-units", TEST_UNIT,
    ])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_unit_files(self, fleet_dir, capsys):
        files = sorted(p.name for p in fleet_dir.glob("*.csv"))
        assert files == ["u001.csv", "u002.csv", "u003.csv", "u004.csv"]

    def test_reports_row_counts(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "f"), "--units", "2",
                   "--steps", "10", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 units" in out and "u001:" in out

    def test_invalid_arguments_fail_cleanly(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "f"), "--units", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestTrain:
    def test_report_on_stdout_and_artifacts_on_disk(self, trained, capsys):
        for name in ("checkpoint.npz", "report.txt", "report.json",
                     "predictions_test.csv", "epochs.csv", "config.json"):
            assert (trained / name).exists(), name

    def test_stdout_carries_both_reports(self, fleet_dir, mcd_config, tmp_path, capsys):
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1", "--seed", "0",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# validation" in out and "# test" in out
        assert "rmse" in out and "prob_alpha_lambda" in out

    def test_same_seed_same_artifacts(self, fleet_dir, mcd_config, tmp_path, capsys):
        argv = [
            "train", "--data", str(fleet_dir), "--config", str(mcd_config),
            "--epochs", "1", "--seed", "5",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.txt").read_bytes() == \
            (tmp_path / "b" / "report.txt").read_bytes()

    def test_default_split_is_announced(self, fleet_dir, mcd_config, tmp_path, capsys):
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1",
        ])
        assert rc == 0
        assert "no split given" in capsys.readouterr().err

    def test_stdout_is_the_written_report(self, fleet_dir, mcd_config, tmp_path, capsys):
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 0
        assert capsys.readouterr().out == (tmp_path / "o" / "report.txt").read_text()

    @pytest.mark.parametrize("flag, units, side, rest", [
        ("--test-units", "u001", "train", ["u002", "u003", "u004"]),
        ("--train-units", "u001", "test", ["u002", "u003", "u004"]),
        ("--train-units", "u004,u002", "test", ["u001", "u003"]),
    ])
    def test_one_named_side_leaves_every_other_unit_to_the_other(
        self, flag, units, side, rest, fleet_dir, mcd_config, tmp_path, capsys
    ):
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1", flag, units,
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"note: no {side} units given; defaulting to {side}={rest}" in err
        assert "no split given" not in err
        config = json.loads((tmp_path / "o" / "config.json").read_text())
        assert config[f"{side}_units"] == rest
        assert config[flag[2:].replace("-", "_")] == units.split(",")

    def test_a_side_naming_every_unit_is_refused(self, fleet_dir, mcd_config, tmp_path, capsys):
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1",
            "--train-units", UNITS + "," + TEST_UNIT,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --train-units names every unit; name the test units too")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["{\n", "\xff"])
    def test_a_config_file_that_is_not_json_is_named(self, text, fleet_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode("latin-1"))
        rc = main(["train", "--data", str(fleet_dir),
                   "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not a JSON file: ")

    def test_missing_data_directory(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o"), "--kind", "svgp"])
        assert rc == 1
        assert "error: " in capsys.readouterr().err

    def test_unknown_config_key(self, fleet_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "svgp", "dropout": 0.5}))
        rc = main(["train", "--data", str(fleet_dir),
                   "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_kind_objective_combination(self, fleet_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "dspp", "objective": "elbo"}))
        rc = main(["train", "--data", str(fleet_dir),
                   "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 1
        assert "ppgpr" in capsys.readouterr().err

    def test_a_config_value_of_the_wrong_type_is_refused_by_field(
        self, fleet_dir, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mcd", "learning_rate": "0.01"}))
        rc = main(["train", "--data", str(fleet_dir),
                   "--out", str(tmp_path / "o"), "--config", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: learning_rate must be a number, got '0.01'")
        assert not (tmp_path / "o").exists()


class TestPredict:
    def test_writes_predictions(self, trained, fleet_dir, tmp_path, capsys):
        rc = main([
            "predict", "--checkpoint", str(trained / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "p"),
            "--units", TEST_UNIT,
        ])
        assert rc == 0
        lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()
        assert lines[0].startswith("unit_id,t,rul_true,pred_mean,pred_variance")
        assert len(lines) > 2
        assert all(ln.startswith(TEST_UNIT) for ln in lines[1:])

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_an_unknown_unit_is_refused_by_flag(self, command, trained, fleet_dir, tmp_path,
                                                capsys):
        rc = main([
            command, "--checkpoint", str(trained / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "p"), "--units", "u009",
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: --units names units not in the fleet: u009\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_fleet_of_another_feature_count_names_the_checkpoint_and_both_counts(
        self, command, trained, tmp_path, capsys
    ):
        fleet = tmp_path / "fleet"
        assert main(["synth", "--out", str(fleet), "--units", "2", "--steps", "15",
                     "--seed", "3", "--feature-dim", "6"]) == 0
        capsys.readouterr()
        checkpoint = trained / "checkpoint.npz"
        rc = main([command, "--checkpoint", str(checkpoint), "--data", str(fleet),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: the checkpoint's model reads 4 features, "
            f"but the fleet in {fleet} has 6\n")
        assert not (tmp_path / "o").exists()

    def test_a_malformed_model_config_value_is_refused_by_key(self, trained, fleet_dir,
                                                              tmp_path, capsys):
        with np.load(trained / "checkpoint.npz") as z:
            arrays = dict(z)
        stored = json.loads(str(arrays["model_config"]))
        arrays["model_config"] = np.asarray(json.dumps(stored | {"test_samples": 0}))
        checkpoint = tmp_path / "edited.npz"
        np.savez(checkpoint, **arrays)
        rc = main(["predict", "--checkpoint", str(checkpoint), "--data", str(fleet_dir),
                   "--out", str(tmp_path / "p")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: checkpoint member model_config: "
            "test_samples must be a positive integer, got 0\n")
        assert not (tmp_path / "p").exists()

    def test_missing_checkpoint(self, fleet_dir, tmp_path, capsys):
        rc = main(["predict", "--checkpoint", str(tmp_path / "nope.npz"),
                   "--data", str(fleet_dir), "--out", str(tmp_path / "p")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestUnitsFlag:
    @pytest.mark.parametrize("units", [",", "", " , "])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_list_naming_no_unit_is_refused(
        self, command, units, trained, fleet_dir, tmp_path, capsys
    ):
        rc = main([
            command, "--checkpoint", str(trained / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "o"), "--units", units,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --units must name at least one unit, "
                                                  "got []")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--train-units", "--test-units"])
    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_a_split_flag_naming_no_unit_is_refused(
        self, command, flag, fleet_dir, mcd_config, tmp_path, capsys
    ):
        units = {"--train-units": UNITS, "--test-units": TEST_UNIT, flag: ","}
        rc = main([
            command, "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1",
            "--train-units", units["--train-units"], "--test-units", units["--test-units"],
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must name at least one unit, "
                                                  "got []")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_unit_listed_twice_is_refused_by_flag(
        self, command, trained, fleet_dir, tmp_path, capsys
    ):
        rc = main([
            command, "--checkpoint", str(trained / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--units", f"{TEST_UNIT},u001,{TEST_UNIT}",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: --units names {TEST_UNIT} more than once")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--train-units", "--test-units"])
    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_a_split_flag_listing_a_unit_twice_is_refused(
        self, command, flag, fleet_dir, mcd_config, tmp_path, capsys
    ):
        units = {"--train-units": UNITS, "--test-units": TEST_UNIT}
        twice = units[flag].split(",")[0]
        units[flag] += f",{twice}"
        rc = main([
            command, "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1",
            "--train-units", units["--train-units"], "--test-units", units["--test-units"],
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} names {twice} more than once")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["train_units", "test_units"])
    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_a_unit_listed_twice_in_a_config_file_is_refused_by_field(
        self, command, field, fleet_dir, tmp_path, capsys
    ):
        ids = {"train_units": UNITS.split(","), "test_units": [TEST_UNIT]}
        ids[field] = ids[field] + ids[field][:1]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kind": "mcd", "hidden_layers": 1, "hidden_units": 4, "test_samples": 4, **ids,
        }))
        rc = main([
            command, "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(cfg), "--epochs", "1",
        ])
        assert rc == 1
        twice = ids[field][0]
        assert capsys.readouterr().err.startswith(f"error: {field} names {twice} more than once")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--train-units", "--test-units"])
    def test_an_unknown_unit_is_refused_by_flag(self, flag, fleet_dir, mcd_config, tmp_path,
                                                capsys):
        units = {"--train-units": UNITS, "--test-units": TEST_UNIT}
        units[flag] += ",u099"
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(mcd_config), "--epochs", "1",
            "--train-units", units["--train-units"], "--test-units", units["--test-units"],
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag} names units not in the fleet: u099\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["train_units", "test_units"])
    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_an_empty_unit_list_in_a_config_file_is_refused(
        self, command, field, fleet_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kind": "mcd", "hidden_layers": 1, "hidden_units": 4, "test_samples": 4,
            "train_units": UNITS.split(","), "test_units": [TEST_UNIT], field: [],
        }))
        rc = main([
            command, "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(cfg), "--epochs", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must name at least one unit, got []")
        assert "no split given" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("train_from, test_from", [
        ("--train-units", "--test-units"), ("train_units", "test_units"),
        ("--train-units", "test_units"),
    ])
    def test_overlapping_sides_are_refused_by_flag_or_field(
        self, train_from, test_from, fleet_dir, tmp_path, capsys
    ):
        ids = {train_from: ["u001", "u002"], test_from: ["u002"]}
        config = {"kind": "mcd", "hidden_layers": 1, "hidden_units": 4, "test_samples": 4}
        flags = []
        for name, named in ids.items():
            if name.startswith("--"):
                flags += [name, ",".join(named)]
            else:
                config[name] = named
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(tmp_path / "o"),
            "--config", str(cfg), "--epochs", "1", *flags,
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {train_from} and {test_from} both name u002\n"
        assert not (tmp_path / "o").exists()


class TestEvaluate:
    def test_report_files_and_stdout(self, trained, fleet_dir, tmp_path, capsys):
        rc = main([
            "evaluate", "--checkpoint", str(trained / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "e"),
            "--units", TEST_UNIT,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prob_alpha_lambda" in out
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert report["nll_convention"] == "per_sample_mean"
        assert (tmp_path / "e" / "predictions.csv").exists()

    def test_a_foreign_npz_is_refused_by_file_and_member(self, fleet_dir, tmp_path, capsys):
        # no checkpoint members at all, a format_version that is no scalar,
        # and a config that parses but is not valid
        foreign, bad = tmp_path / "foreign.npz", tmp_path / "bad.npz"
        invalid = tmp_path / "invalid.npz"
        np.savez(foreign, x=np.zeros(3))
        np.savez(bad, format_version=np.arange(3))
        np.savez(invalid, format_version=np.asarray(3), experiment_config='{"alpha": 2.0}')
        for path, message in ((foreign, " is not a checkpoint: it has no member format_version"),
                              (bad, ": checkpoint member format_version: "),
                              (invalid, ": checkpoint member experiment_config: alpha must be "
                                        "in (0, 1), got 2.0\n")):
            rc = main(["evaluate", "--checkpoint", str(path), "--data", str(fleet_dir),
                       "--out", str(tmp_path / "e")])
            assert rc == 1
            assert capsys.readouterr().err.startswith(f"error: {path}{message}")
        assert not (tmp_path / "e").exists()

    def test_alpha_override(self, trained, fleet_dir, tmp_path, capsys):
        rc = main([
            "evaluate", "--checkpoint", str(trained / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "e"),
            "--alpha", "0.35", "--units", TEST_UNIT,
        ])
        assert rc == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert report["alpha"] == 0.35

    def test_deterministic_model_matches_training_report(
        self, fleet_dir, tmp_path, capsys
    ):
        # the sparse GP predicts deterministically, so scoring the reloaded
        # checkpoint on the test unit reproduces the training-time metrics
        cfg = tmp_path / "svgp.json"
        cfg.write_text(json.dumps({"kind": "svgp", "num_inducing": 8,
                                   "batch_size": 64}))
        out = tmp_path / "train"
        rc = main([
            "train", "--data", str(fleet_dir), "--out", str(out),
            "--config", str(cfg), "--epochs", "1", "--seed", "0",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 0
        rc = main([
            "evaluate", "--checkpoint", str(out / "checkpoint.npz"),
            "--data", str(fleet_dir), "--out", str(tmp_path / "e"),
            "--units", TEST_UNIT,
        ])
        assert rc == 0
        trained_report = json.loads((out / "report.json").read_text())["test"]
        scored = json.loads((tmp_path / "e" / "report.json").read_text())
        assert scored["rmse"] == trained_report["rmse"]
        assert scored["nll"] == trained_report["nll"]


class TestGridsearch:
    def test_single_family_grid(self, fleet_dir, mcd_config, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hidden_units": [4, 8]}))
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--config", str(mcd_config), "--grid", str(grid),
            "--epochs", "1", "--seed", "0",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selection_metric val_nll" in out
        assert (tmp_path / "g" / "grid.txt").exists()
        assert (tmp_path / "g" / "run_000" / "checkpoint.npz").exists()
        assert (tmp_path / "g" / "run_001" / "checkpoint.npz").exists()

    def test_each_cell_records_the_defaulted_split(self, fleet_dir, mcd_config, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hidden_units": [4, 8]}))
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--config", str(mcd_config), "--grid", str(grid), "--epochs", "1",
            "--val-fraction", "0.2",
        ])
        assert rc == 0
        assert "no split given" in capsys.readouterr().err
        for run in ("run_000", "run_001"):
            cfg = json.loads((tmp_path / "g" / run / "config.json").read_text())
            assert (cfg["train_units"], cfg["test_units"], cfg["val_fraction"]) == \
                (UNITS.split(","), [TEST_UNIT], 0.2)

    @pytest.mark.parametrize("grid", [
        {"hidden_units": []}, {"hidden_units": 16}, {"inducing_init": "kmeans"},
    ])
    def test_grid_value_that_is_not_a_non_empty_list_is_refused(
        self, grid, fleet_dir, mcd_config, tmp_path, capsys
    ):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--config", str(mcd_config), "--grid", str(path), "--epochs", "1",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 1
        (key,) = grid
        assert capsys.readouterr().err.startswith(
            f"error: grid values for {key} must be a non-empty list, got {grid[key]!r}")
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("grid", [[1, 2], "keep_prob", 3, {}])
    def test_a_grid_that_is_not_an_object_is_refused(
        self, grid, fleet_dir, mcd_config, tmp_path, capsys
    ):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--config", str(mcd_config), "--grid", str(path), "--epochs", "1",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: grid must map at least one hyperparameter to a list of values, got ")
        assert not (tmp_path / "g").exists()

    def test_a_grid_file_that_is_not_json_is_named(self, fleet_dir, mcd_config, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"keep_prob": [0.5,\n')
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--config", str(mcd_config), "--grid", str(path), "--epochs", "1",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not a JSON file: ")

    def test_grid_key_the_family_does_not_read_is_refused(
        self, fleet_dir, mcd_config, tmp_path, capsys
    ):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"num_inducing": [4, 8]}))
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--config", str(mcd_config), "--grid", str(path), "--epochs", "1",
            "--train-units", UNITS, "--test-units", TEST_UNIT,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: grid cannot vary num_inducing: kind mcd does not read it")
        assert not (tmp_path / "g").exists()

    def test_all_families_rejects_custom_grid(self, fleet_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"num_inducing": [4]}))
        rc = main([
            "gridsearch", "--data", str(fleet_dir), "--out", str(tmp_path / "g"),
            "--grid", str(grid), "--all-families",
        ])
        assert rc == 1
        assert "--all-families" in capsys.readouterr().err


@pytest.fixture(scope="module")
def family_summary(tmp_path_factory):
    """``gridsearch --all-families --epochs 1`` on ``synth --units 5 --steps
    40 --seed 1``, training on u001-u003 (125 training rows) and testing on
    u004-u005. Only svgp, whose default grid asks for 200 to 800 inducing
    points, and mcd run; mcd's grid is cut to two cells that both draw
    dropout masks, which keeps the test short."""
    from rulkit import cli

    root = tmp_path_factory.mktemp("families")
    assert main(["synth", "--out", str(root / "fleet"), "--units", "5", "--steps", "40",
                 "--seed", "1"]) == 0
    small = {"hidden_layers": [2], "hidden_units": [50], "keep_prob": [0.5, 0.9]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_TABLE_KINDS", ("svgp", "mcd"))
        mp.setattr(cli, "default_grid",
                   lambda kind, grid=cli.default_grid: small if kind == "mcd" else grid(kind))
        rc = main([
            "gridsearch", "--data", str(root / "fleet"), "--out", str(root / "out"),
            "--all-families", "--epochs", "1",
            "--train-units", "u001,u002,u003", "--test-units", "u004,u005",
        ])
    assert rc == 0
    return root / "out"


class TestFamilySummary:
    def test_the_summary_shows_the_best_runs_own_test_numbers(self, family_summary):
        grid = json.loads((family_summary / "mcd" / "grid.json").read_text())
        best = grid["runs"][grid["order"][0]]
        summary = json.loads((family_summary / "summary.json").read_text())["mcd"]
        assert summary["status"] == "ok"
        assert summary["test"]["nll"] == best["test_nll"]
        assert summary["test"]["rmse"] == best["test_rmse"]
        assert summary["selected"] == best["overrides"]

    def test_a_family_whose_runs_all_fail_names_their_exception(self, family_summary):
        runs = json.loads((family_summary / "svgp" / "grid.json").read_text())["runs"]
        assert len(runs) == 3
        assert all(r["status"].startswith("failed: num_inducing=") for r in runs)
        status = "failed: every run raised ConfigDataMismatch"
        summary = json.loads((family_summary / "summary.json").read_text())["svgp"]
        assert summary == {"selected": None, "status": status, "test": None}
        assert f"svgp\t-\t-\t-\t-\t{status}" in (family_summary / "summary.txt").read_text()
