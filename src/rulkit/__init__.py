"""Probabilistic remaining-useful-life regression.

Model families: sparse variational GP regression (ELBO and predictive-variance
objectives), doubly-stochastic deep GPs, deep sigma-point processes and
MC-dropout neural baselines, plus prognostics metrics, a synthetic fleet
generator and a training/evaluation pipeline with a CLI.
"""

__version__ = "0.1.0"

from . import parallel
from .data import (
    DataFormatError,
    FleetDataset,
    NormalizationStats,
    SplitSpec,
    UnitSeries,
    load_fleet,
    normalize,
    save_fleet,
    stack_rows,
    synth_fleet,
)
from .dgp import DeepGPModel
from .dspp import DSPPModel, init_sigma_points
from .experiment import (
    ConfigDataMismatch,
    ExperimentConfig,
    ExperimentResult,
    GridSearchResult,
    TrainingDiverged,
    build_model,
    default_config,
    default_grid,
    grid_search,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
)
from .mathcore import (
    NumericalError,
    QuadratureRule,
    cholesky_jittered,
    gauss_hermite,
    gaussian_cdf,
)
from .mcd import MCDModel
from .metrics import (
    MetricsReport,
    Predictions,
    Records,
    alpha_lambda,
    compute_report,
    nll,
    prob_alpha_lambda,
    rmse,
)
from .params import (
    GradientError,
    OptimizerState,
    ParamVector,
    RngStream,
    adam_step,
    fd_check,
    minibatch_iter,
)
from .svgp import SVGPModel

__all__ = [
    "DataFormatError",
    "FleetDataset",
    "NormalizationStats",
    "SplitSpec",
    "UnitSeries",
    "load_fleet",
    "normalize",
    "save_fleet",
    "stack_rows",
    "synth_fleet",
    "DeepGPModel",
    "DSPPModel",
    "init_sigma_points",
    "ConfigDataMismatch",
    "ExperimentConfig",
    "ExperimentResult",
    "GridSearchResult",
    "TrainingDiverged",
    "build_model",
    "default_config",
    "default_grid",
    "grid_search",
    "load_checkpoint",
    "run_experiment",
    "save_checkpoint",
    "NumericalError",
    "QuadratureRule",
    "cholesky_jittered",
    "gauss_hermite",
    "gaussian_cdf",
    "MCDModel",
    "MetricsReport",
    "Predictions",
    "Records",
    "alpha_lambda",
    "compute_report",
    "nll",
    "prob_alpha_lambda",
    "rmse",
    "GradientError",
    "OptimizerState",
    "ParamVector",
    "RngStream",
    "adam_step",
    "fd_check",
    "minibatch_iter",
    "SVGPModel",
    "__version__",
]

parallel.pin_blas_threads()
