"""Deep sigma-point process regression.

Same layer stack as the deep GP, stacked hidden layers ``h{l}`` included,
but the hidden integral is carried by a small set of learnable quadrature
sites instead of Monte-Carlo draws: hidden activations for component s are
mu + xi_w^(s) * sigma (one shared component index across every hidden GP),
weighted by a learnable simplex. The sites are one (S, depth * width) slice,
``sites``, that scales the hidden stds as an (S, 1, depth * width) block in
place of the deep GP's (T, n, depth * width) draws; that block, the log
weights and the predictive are all it overrides of
:class:`rulkit.dgp.DeepGPModel`, whose training path it inherits. Sites
start at the Gauss-Hermite nodes, log-weights at the Gauss-Hermite
log-weights. Both the objective and the predictive distribution are
deterministic finite mixtures, so training needs no sampling and two runs
agree bit for bit.

Objective per point: log sum_s omega_s N(y_i | mu_f^(s), s2_f^(s) + s2_obs),
summed with the minibatch scale, minus beta_reg times the summed KL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dgp import DeepGPModel
from .mathcore import gauss_hermite
from .metrics import Predictions
from .params import IDENTITY, SIMPLEX, ParamView
from .svgp import DEFAULT_JITTER

_PREDICT_CHUNK = 2048


@dataclass
class SigmaPointSet:
    """Learnable quadrature: logits over components and per-GP sites."""

    logits: np.ndarray
    sites: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=np.float64))
        if self.logits.ndim != 1 or self.sites.shape[0] != self.logits.shape[0]:
            raise ValueError("need one row of sites per logit")

    @property
    def weights(self) -> np.ndarray:
        e = np.exp(self.logits - self.logits.max())
        return e / e.sum()


def init_sigma_points(num_sites: int, total_width: int) -> SigmaPointSet:
    """Gauss-Hermite starting point: nodes replicated across hidden GPs."""
    rule = gauss_hermite(num_sites)
    sites = np.tile(rule.sites[:, None], (1, total_width))
    return SigmaPointSet(logits=np.log(rule.weights), sites=sites)


class DSPPModel(DeepGPModel):
    """Deep GP whose hidden integral runs over trainable sigma points."""

    kind = "dspp"

    def __init__(self, objective_spec, input_dim, width, depth, num_inducing,
                 num_sites: int = 15, skip_connection: bool = True,
                 jitter: float = DEFAULT_JITTER, target_shift: float = 0.0,
                 target_scale: float = 1.0):
        if depth < 1:
            raise ValueError("sigma-point models need at least one hidden layer")
        super().__init__(objective_spec, input_dim, width, depth, num_inducing, skip_connection,
                         num_train_samples=num_sites, num_test_samples=num_sites, jitter=jitter,
                         target_shift=target_shift, target_scale=target_scale)
        self.num_sites = int(num_sites)
        start = init_sigma_points(self.num_sites, self.depth * self.width)
        self.params.register("sites", start.sites.shape, IDENTITY, init=start.sites)
        self.params.register("site_logits", (self.num_sites,), SIMPLEX, init=start.weights)

    # -- sigma points as components of the deep GP's builders --------------------

    def _multiplier(self, view: ParamView, eps):
        """The trainable sites as one (S, 1, depth * width) block; they
        replace the hidden draws, so ``eps`` is unused."""
        return ad.reshape(view.get("sites"), (self.num_sites, 1, -1))

    def _draw_eps(self, n: int, samples: int, rng):
        """None: the sites replace the hidden draws, so training and
        prediction are deterministic and need no ``rng``."""
        return None

    def _log_weights(self, view: ParamView):
        return view.log_simplex("site_logits")

    def predictive(self, X, rng=None) -> Predictions:
        """Deterministic mixture over sigma points per row of X, in natural
        target units."""
        return self._mixture(X, self.params.decode("site_logits"), _PREDICT_CHUNK, rng)

    def config_dict(self) -> dict:
        return super().config_dict() | {"num_sites": self.num_sites}
