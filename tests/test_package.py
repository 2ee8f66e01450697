"""The package's public surface: every name it exports resolves, and the
names the benchmark harness instruments stay where it looks for them."""

import rulkit
from rulkit import dgp, dspp, mathcore, mcd, svgp


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
    # bench/spans.py wraps each family's training step and prediction per
    # class, looking only in the class's own namespace, and times the jittered
    # Cholesky under the names svgp and dgp bind it to
    for cls in (svgp.SVGPModel, dgp.DeepGPModel, dspp.DSPPModel, mcd.MCDModel):
        assert {"objective_grad", "predictive"} <= set(vars(cls)), cls.__name__
    for module in (svgp, dgp):
        assert module.cholesky_jittered is mathcore.cholesky_jittered
