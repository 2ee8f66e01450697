"""The package's public surface: every name it exports resolves, and the
names the benchmark harness instruments stay where it looks for them."""

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
               "exact_gp_predict", "kernel_diag"}
    assert oracles & set(rulkit.__all__) == set()
    assert [name for name in oracles if hasattr(mathcore, name)] == []


def test_benchmark_instrumentation_points_exist():
    # bench/spans.py rebinds each name below in every module listed with it,
    # where each module must hold the same object as the first; it also wraps
    # the tape's backward pass and each family's training step and prediction,
    # looking only in the class's own namespace. autodiff.cholesky and
    # autodiff.solve_triangular are timed by name though no model calls them.
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
    for cls in (svgp.SVGPModel, dgp.DeepGPModel, dspp.DSPPModel, mcd.MCDModel):
        assert {"objective_grad", "predictive"} <= set(vars(cls)), cls.__name__
