"""The package's public surface: every name it exports resolves, the names
the benchmark harness instruments stay where it looks for them, and what
importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import rulkit
from rulkit import autodiff, data, dgp, dspp, experiment, mathcore, mcd, metrics, params, svgp


def test_every_exported_name_resolves():
    assert [name for name in rulkit.__all__ if not hasattr(rulkit, name)] == []
    assert len(set(rulkit.__all__)) == len(rulkit.__all__)


def test_star_import():
    namespace = {}
    exec("from rulkit import *", namespace)
    assert set(rulkit.__all__) <= set(namespace)


def test_test_oracles_are_not_exported():
    oracles = {"GaussianDist", "MultivariateNormal", "mvn_kl", "gaussian_nll",
               "exact_gp_predict", "kernel_diag", "Kernel", "kernel_eval"}
    assert oracles & set(rulkit.__all__) == set()
    assert [name for name in oracles if hasattr(mathcore, name) or hasattr(rulkit, name)] == []


def test_benchmark_instrumentation_points_exist():
    # bench/spans.py rebinds each name below in every module listed with it,
    # where each module must hold the same object as the first; it also wraps
    # the tape's backward pass and each family's training step and prediction,
    # looking only in the class's own namespace. The deep GP models inherit
    # the flat model's training step, so its wrapper times theirs as well.
    # autodiff.cholesky and autodiff.solve_triangular are timed by name though
    # no model calls them; test_svgp.py's composed layer also builds them, as
    # the oracle of the fused sparse-GP node.
    bound_in = {
        "run_experiment": [experiment],
        "grid_search": [experiment],
        "build_model": [experiment],
        "load_checkpoint": [experiment],
        "checkpoint_records": [experiment],
        "save_checkpoint": [experiment],
        "write_predictions": [experiment],
        "compute_report": [experiment, metrics],
        "adam_step": [experiment, params],
        "normalize": [experiment, data],
        "cholesky": [autodiff],
        "solve_triangular": [autodiff],
        "cholesky_jittered": [mathcore, svgp, dgp],
    }
    for name, owners in bound_in.items():
        for owner in owners:
            assert vars(owner).get(name) is vars(owners[0])[name], (owner.__name__, name)
    assert "backward" in vars(autodiff.Tensor)
    for cls in (svgp.SVGPModel, mcd.MCDModel):
        assert {"objective_grad", "predictive"} <= set(vars(cls)), cls.__name__
    for cls in (dgp.DeepGPModel, dspp.DSPPModel):
        assert cls.predictive is svgp.SVGPModel.predictive, cls.__name__
        assert cls.objective_grad is svgp.SVGPModel.objective_grad, cls.__name__


def test_import_loads_no_scipy_linalg_or_special():
    # Together they cost an import about 32 MB of memory and 0.46 s; the
    # routines rulkit took from them are numpy's OpenBLAS and mathcore's erf
    # and expit now.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(rulkit.__file__).parents[1]), env.get("PYTHONPATH")]))
    script = "import json, sys, rulkit.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "rulkit.cli" in loaded
    assert [m for m in loaded if m.startswith(("scipy.linalg", "scipy.special"))] == []
