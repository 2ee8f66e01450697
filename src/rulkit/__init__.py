"""Probabilistic remaining-useful-life regression.

Model families: sparse variational GP regression (ELBO and predictive-variance
objectives), doubly-stochastic deep GPs, deep sigma-point processes and
MC-dropout neural baselines, plus prognostics metrics, a synthetic fleet
generator and a training/evaluation pipeline with a CLI.
"""

__version__ = "0.1.0"

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
from .dgp import DeepGPModel, MixturePredictive, mixture_moments
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
    GaussianDist,
    Kernel,
    MultivariateNormal,
    NumericalError,
    QuadratureRule,
    cholesky_jittered,
    exact_gp_predict,
    gauss_hermite,
    gaussian_cdf,
    gaussian_nll,
    kernel_eval,
    mvn_kl,
)
from .mcd import MCDModel
from .metrics import (
    MetricsReport,
    PointPredictive,
    PredictionRecord,
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
from .svgp import ObjectiveSpec, SVGPModel

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
    "MixturePredictive",
    "mixture_moments",
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
    "GaussianDist",
    "Kernel",
    "MultivariateNormal",
    "NumericalError",
    "QuadratureRule",
    "cholesky_jittered",
    "exact_gp_predict",
    "gauss_hermite",
    "gaussian_cdf",
    "gaussian_nll",
    "kernel_eval",
    "mvn_kl",
    "MCDModel",
    "MetricsReport",
    "PointPredictive",
    "PredictionRecord",
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
    "ObjectiveSpec",
    "SVGPModel",
    "__version__",
]
