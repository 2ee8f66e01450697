"""Sparse variational Gaussian-process regression.

A GP prior is summarized by M inducing points Z. The inducing values are
whitened, u = L v with L the Cholesky factor of Kmm = k(Z, Z), so the prior
is p(v) = N(0, I) and the Gaussian posterior q(v) = N(m, S S^T) keeps S as
its Cholesky factor (Hensman, Matthews & Ghahramani 2015). Training
maximizes either the classic evidence lower bound

    sum_i [log N(y_i | mu_f(x_i), s2_obs) - s2_f(x_i) / (2 s2_obs)] * scale - KL

or the predictive-variance objective that scores each point against the full
latent predictive and down-weights the KL by a regularization constant

    sum_i log N(y_i | mu_f(x_i), s2_f(x_i) + s2_obs) * scale - beta * KL.

The differentiable graph builders here are reused by the deep variants, which
stack the same layer computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mathcore import GaussianDist, Kernel, NumericalError
# unused here, but the benchmark's span timer rebinds this module's name
from .mathcore import cholesky_jittered  # noqa: F401
from .params import (
    IDENTITY,
    POSITIVE,
    CholeskyFactor,
    ParamVector,
    ParamView,
    RngStream,
    value_and_grad,
)

DEFAULT_JITTER = 1e-6
# worst tolerated negative latent variance before erroring; values above it
# are clamped to the floor
NEG_VARIANCE_TOL = -1e-9
VARIANCE_FLOOR = 1e-12


@dataclass
class LikelihoodParams:
    """Homoscedastic Gaussian observation noise."""

    obs_variance: float

    def __post_init__(self):
        self.obs_variance = float(self.obs_variance)
        if not self.obs_variance > 0.0:
            raise ValueError(f"observation variance must be positive, got {self.obs_variance}")


@dataclass
class ObjectiveSpec:
    """Which bound to optimize: 'elbo' or 'ppgpr', with KL regularization."""

    kind: str = "elbo"
    beta_reg: float = 1.0

    def __post_init__(self):
        if self.kind not in ("elbo", "ppgpr"):
            raise ValueError(f"objective kind must be 'elbo' or 'ppgpr', got {self.kind!r}")
        if not self.beta_reg > 0.0:
            raise ValueError(f"beta_reg must be positive, got {self.beta_reg}")


@dataclass
class VariationalGPLayer:
    """Inducing inputs plus the whitened variational posterior and kernel of one GP.

    ``variational_mean`` and ``variational_cov_factor`` are m and S of
    q(v) = N(m, S S^T) over the whitened inducing values v = L^{-1} u.
    """

    inducing_points: np.ndarray
    variational_mean: np.ndarray
    variational_cov_factor: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        self.inducing_points = np.atleast_2d(np.asarray(self.inducing_points, dtype=np.float64))
        self.variational_mean = np.asarray(self.variational_mean, dtype=np.float64)
        self.variational_cov_factor = np.asarray(self.variational_cov_factor, dtype=np.float64)
        m, d = self.inducing_points.shape
        if m < 1 or d < 1:
            raise ValueError("need at least one inducing point and one input dimension")
        if self.variational_mean.shape != (m,):
            raise ValueError(
                f"variational mean has shape {self.variational_mean.shape}, expected ({m},)"
            )
        if self.variational_cov_factor.shape != (m, m):
            raise ValueError("variational covariance factor must be (M, M)")
        if np.any(np.diag(self.variational_cov_factor) <= 0.0):
            raise ValueError("variational covariance factor needs a positive diagonal")
        if d != self.kernel.input_dim:
            raise ValueError(
                f"inducing points have {d} columns, kernel expects {self.kernel.input_dim}"
            )

    @property
    def num_inducing(self) -> int:
        return self.inducing_points.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inducing_points.shape[1]


# -- inducing-point initialization --------------------------------------------


def init_inducing(
    X: np.ndarray, num: int, strategy: str = "random-subset", rng: Optional[RngStream] = None
) -> np.ndarray:
    """Pick inducing inputs from data by random subset or k-means centers."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not 1 <= num <= X.shape[0]:
        raise ValueError(f"num must be in [1, {X.shape[0]}], got {num}")
    if rng is None:
        rng = RngStream(0)
    subset = X[np.sort(rng.choice(X.shape[0], num, replace=False))].copy()
    if strategy == "random-subset":
        return subset
    if strategy == "kmeans":
        return _lloyd(X, subset, iters=25)
    raise ValueError(f"unknown inducing strategy {strategy!r}")


def _lloyd(X: np.ndarray, centers: np.ndarray, iters: int) -> np.ndarray:
    centers = centers.copy()
    for _ in range(iters):
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            + np.sum(centers * centers, axis=1)[None, :]
            - 2.0 * X @ centers.T
        )
        assign = np.argmin(d2, axis=1)
        for k in range(centers.shape[0]):
            members = X[assign == k]
            if members.shape[0]:
                centers[k] = members.mean(axis=0)
        # empty clusters keep their previous center
    return centers


# -- differentiable layer computation ------------------------------------------


@dataclass
class LayerTensors:
    """Tensor-valued view of a VariationalGPLayer for graph building."""

    inducing: Tensor
    mean: Tensor
    cov_factor: Tensor
    kernel_variance: Tensor
    lengthscales: Tensor


def layer_constants(layer: VariationalGPLayer) -> LayerTensors:
    return LayerTensors(
        inducing=ad.constant(layer.inducing_points),
        mean=ad.constant(layer.variational_mean),
        cov_factor=ad.constant(layer.variational_cov_factor),
        kernel_variance=ad.constant(layer.kernel.variance),
        lengthscales=ad.constant(layer.kernel.lengthscales),
    )


def layer_from_view(view: ParamView, prefix: str) -> LayerTensors:
    return LayerTensors(
        inducing=view.get(f"{prefix}.z"),
        mean=view.get(f"{prefix}.m"),
        cov_factor=view.get(f"{prefix}.L"),
        kernel_variance=view.get(f"{prefix}.kernel_variance"),
        lengthscales=view.get(f"{prefix}.lengthscales"),
    )


def gram(lt: LayerTensors, a: Tensor, b: Tensor) -> Tensor:
    """Squared-exponential Gram matrix between row sets a and b."""
    ascaled = a / lt.lengthscales
    bscaled = b / lt.lengthscales
    d2 = (
        (ascaled * ascaled).sum(axis=1, keepdims=True)
        + (bscaled * bscaled).sum(axis=1)
        - 2.0 * (ascaled @ bscaled.T)
    )
    d2 = ad.clamp_min(d2, 0.0)
    return lt.kernel_variance * ad.exp(d2 * -0.5)


def latent_graph(lt: LayerTensors, x: Tensor, jitter: float = DEFAULT_JITTER):
    """Latent predictive moments at rows of x under the whitened posterior.

    With L = chol(Kmm) and b = L^{-1} k(Z, x):

    mu  = b^T m
    s2  = k(x, x) - ||b||^2 + ||S^T b||^2   (diagonal only, per column of b)

    Returns (mu, s2).
    """
    kmm = gram(lt, lt.inducing, lt.inducing)
    kxz = gram(lt, x, lt.inducing)
    chol = ad.cholesky(kmm, base_jitter=jitter)
    b = ad.solve_triangular(chol, kxz.T)
    mu = b.T @ lt.mean
    kdiag = lt.kernel_variance * ad.constant(np.ones(x.shape[0]))
    qdiag = (b * b).sum(axis=0)
    sdiag = ((lt.cov_factor.T @ b) ** 2).sum(axis=0)
    raw = kdiag - qdiag + sdiag
    worst = float(raw.data.min())
    if worst < NEG_VARIANCE_TOL:
        raise NumericalError(f"latent variance fell to {worst:.3e}; matrix too ill-conditioned")
    return mu, ad.clamp_min(raw, VARIANCE_FLOOR)


def kl_graph(lt: LayerTensors) -> Tensor:
    """KL(q(v) || N(0, I)) = 1/2 (||S||_F^2 + ||m||^2 - M) - log|S|."""
    m = lt.inducing.shape[0]
    trace = (lt.cov_factor * lt.cov_factor).sum()
    quad = (lt.mean * lt.mean).sum()
    logdet_q = ad.log(ad.diag_part(lt.cov_factor)).sum()
    return (trace + quad - float(m)) * 0.5 - logdet_q


def gaussian_loglik_graph(y: Tensor, mu: Tensor, var: Tensor) -> Tensor:
    """Elementwise log N(y | mu, var) as a graph node."""
    resid = y - mu
    return (ad.log(var) + resid * resid / var + np.log(2.0 * np.pi)) * -0.5


def objective_graph(
    lt: LayerTensors,
    obs_variance: Tensor,
    spec: ObjectiveSpec,
    x: Tensor,
    y: Tensor,
    scale: float,
    jitter: float = DEFAULT_JITTER,
) -> Tensor:
    """Negated training bound for one sparse GP layer on a batch."""
    mu, var = latent_graph(lt, x, jitter)
    kl = kl_graph(lt)
    if spec.kind == "elbo":
        ll = gaussian_loglik_graph(y, mu, obs_variance * ad.constant(np.ones(y.shape[0])))
        corrected = ll - var / (obs_variance * 2.0)
        bound = corrected.sum() * scale - kl
    else:
        ll = gaussian_loglik_graph(y, mu, var + obs_variance)
        bound = ll.sum() * scale - spec.beta_reg * kl
    return -bound


# -- plain-numpy public API -----------------------------------------------------


def latent_predict(layer: VariationalGPLayer, X: np.ndarray, jitter: float = DEFAULT_JITTER):
    """Latent predictive moments (mu_f, s2_f) per row of X, as arrays."""
    X = _check_rows(layer, X)
    mu, var = latent_graph(layer_constants(layer), ad.constant(X), jitter)
    return mu.data, var.data


def predict(
    layer: VariationalGPLayer,
    lik: LikelihoodParams,
    X: np.ndarray,
    jitter: float = DEFAULT_JITTER,
) -> list[GaussianDist]:
    """Observation-space predictive N(mu_f, s2_f + s2_obs) per row of X."""
    mu, var = latent_predict(layer, X, jitter)
    return [GaussianDist(m, v + lik.obs_variance) for m, v in zip(mu, var)]


def objective(
    layer: VariationalGPLayer,
    lik: LikelihoodParams,
    spec: ObjectiveSpec,
    X: np.ndarray,
    y: np.ndarray,
    scale: float = 1.0,
    jitter: float = DEFAULT_JITTER,
) -> float:
    """Value of the negated training bound on a batch (no gradient)."""
    X = _check_rows(layer, X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    loss = objective_graph(
        layer_constants(layer),
        ad.constant(lik.obs_variance),
        spec,
        ad.constant(X),
        ad.constant(y),
        scale,
        jitter,
    )
    return float(loss.data)


def _check_rows(layer: VariationalGPLayer, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != layer.input_dim:
        raise ValueError(f"X has {X.shape[1]} columns, layer expects {layer.input_dim}")
    return X


# -- trainable model --------------------------------------------------------------


class SVGPModel:
    """Sparse variational GP regressor backed by a flat parameter vector.

    Targets are standardized internally (shift/scale recorded with the model)
    so the zero-mean prior is sensible on natural-unit labels; predictions are
    mapped back before they leave the model.
    """

    kind = "svgp"

    def __init__(
        self,
        params: ParamVector,
        objective_spec: ObjectiveSpec,
        input_dim: int,
        num_inducing: int,
        jitter: float = DEFAULT_JITTER,
        target_shift: float = 0.0,
        target_scale: float = 1.0,
    ):
        self.params = params
        self.objective_spec = objective_spec
        self.input_dim = int(input_dim)
        self.num_inducing = int(num_inducing)
        self.jitter = float(jitter)
        self.target_shift = float(target_shift)
        self.target_scale = float(target_scale)

    @staticmethod
    def _register(params: ParamVector, input_dim: int, num_inducing: int):
        params.register("gp.z", (num_inducing, input_dim), IDENTITY)
        params.register("gp.m", (num_inducing,), IDENTITY)
        # q(v) starts at the whitened prior N(0, I)
        params.register(
            "gp.L", (num_inducing, num_inducing), CholeskyFactor(num_inducing),
            init=np.eye(num_inducing),
        )
        params.register("gp.kernel_variance", (), POSITIVE, init=1.0)
        params.register("gp.lengthscales", (input_dim,), POSITIVE, init=np.ones(input_dim))
        params.register("obs_variance", (), POSITIVE, init=0.25)

    @classmethod
    def create(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        num_inducing: int,
        objective_spec: Optional[ObjectiveSpec] = None,
        *,
        rng: Optional[RngStream] = None,
        inducing_strategy: str = "random-subset",
        kernel_variance_init: float = 1.0,
        obs_variance_init: float = 0.25,
        lengthscale_init: float = 1.0,
        standardize_targets: bool = True,
        freeze_inducing: bool = False,
        jitter: float = DEFAULT_JITTER,
    ) -> "SVGPModel":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if rng is None:
            rng = RngStream(0)
        shift, scale = _target_stats(y, standardize_targets)
        z = init_inducing(X, num_inducing, inducing_strategy, rng)
        params = ParamVector()
        cls._register(params, X.shape[1], num_inducing)
        params.set_value("gp.z", z)
        params.set_value("gp.kernel_variance", kernel_variance_init)
        params.set_value("gp.lengthscales", np.full(X.shape[1], lengthscale_init))
        params.set_value("obs_variance", obs_variance_init)
        if freeze_inducing:
            params.set_trainable("gp.z", False)
        return cls(
            params,
            objective_spec or ObjectiveSpec(),
            X.shape[1],
            num_inducing,
            jitter,
            shift,
            scale,
        )

    # -- decoded views ----------------------------------------------------

    def layer(self) -> VariationalGPLayer:
        p = self.params
        return VariationalGPLayer(
            inducing_points=p.decode("gp.z"),
            variational_mean=p.decode("gp.m"),
            variational_cov_factor=p.decode("gp.L"),
            kernel=Kernel(p.decode("gp.kernel_variance"), p.decode("gp.lengthscales")),
        )

    def likelihood(self) -> LikelihoodParams:
        return LikelihoodParams(self.params.decode("obs_variance"))

    # -- training and prediction -------------------------------------------

    def _build(self, view: ParamView, X: np.ndarray, y: np.ndarray, scale: float) -> Tensor:
        return objective_graph(
            layer_from_view(view, "gp"),
            view.get("obs_variance"),
            self.objective_spec,
            ad.constant(X),
            ad.constant((y - self.target_shift) / self.target_scale),
            scale,
            self.jitter,
        )

    def objective_grad(self, X, y, scale: float = 1.0, rng=None) -> float:
        """Loss on a batch; leaves the gradient on ``self.params``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        return value_and_grad(self.params, lambda view: self._build(view, X, y, scale))

    def loss_fn(self, X, y, scale: float = 1.0, rng=None):
        """Objective closure following the gradient contract (for fd checks)."""
        return lambda params: value_and_grad(
            params, lambda view: self._build(view, X, y, scale)
        )

    def predictive(self, X, rng=None) -> list[GaussianDist]:
        mu, var = latent_predict(self.layer(), X, self.jitter)
        obs = self.likelihood().obs_variance
        s = self.target_scale
        return [
            GaussianDist(m * s + self.target_shift, (v + obs) * s * s) for m, v in zip(mu, var)
        ]

    # -- checkpoint support --------------------------------------------------

    def config_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "num_inducing": self.num_inducing,
            "objective": self.objective_spec.kind,
            "beta_reg": self.objective_spec.beta_reg,
            "jitter": self.jitter,
            "target_shift": self.target_shift,
            "target_scale": self.target_scale,
        }

    def state_arrays(self) -> dict:
        return {"theta": self.params.values.copy()}

    @classmethod
    def from_state(cls, config: dict, arrays: dict) -> "SVGPModel":
        params = ParamVector()
        cls._register(params, config["input_dim"], config["num_inducing"])
        model = cls(
            params,
            ObjectiveSpec(config["objective"], config["beta_reg"]),
            config["input_dim"],
            config["num_inducing"],
            config["jitter"],
            config["target_shift"],
            config["target_scale"],
        )
        _load_theta(params, arrays)
        return model


def _target_stats(y: np.ndarray, standardize: bool):
    if not standardize or y.size == 0:
        return 0.0, 1.0
    spread = float(y.std())
    return float(y.mean()), max(spread, 1e-8)


def _load_theta(params: ParamVector, arrays: dict):
    theta = np.asarray(arrays["theta"], dtype=np.float64)
    if theta.shape != params.values.shape:
        raise ValueError(
            f"checkpoint holds {theta.shape[0]} raw parameters, model expects {params.values.shape[0]}"
        )
    params.values[:] = theta
