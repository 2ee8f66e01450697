"""Deep sigma-point process regression.

Same layer stack as the deep GP, stacked hidden layers ``h{l}`` included,
but the hidden integral is carried by a small set of learnable quadrature
sites instead of Monte-Carlo draws: hidden activations for component s are
mu + xi_w^(s) * sigma (one shared component index across every hidden GP),
weighted by a learnable simplex. The sites are one (S, depth * width) slice,
``sites``, that scales the hidden stds as an (S, 1, depth * width) block in
place of the deep GP's (T, n, depth * width) draws; the weights are the
softmax of the (S,) slice ``site_logits``, so ``params.decode("site_logits")``
gives the logits. That block, the log weights and the predictive's weights
(the softmax of the logits) and row chunk (2,048) are all it overrides of
:class:`rulkit.dgp.DeepGPModel`, whose training and prediction paths it
inherits. Sites and logits start at the Gauss-Hermite rule of
:func:`rulkit.mathcore.gauss_hermite` (:func:`init_sigma_points`). Both the
objective and the predictive distribution are deterministic finite mixtures,
so training needs no sampling and two runs agree bit for bit.

Objective per point: log sum_s omega_s N(y_i | mu_f^(s), s2_f^(s) + s2_obs),
summed with the minibatch scale, minus beta_reg times the summed KL.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .dgp import DeepGPModel
from .mathcore import QuadratureRule, gauss_hermite
from .params import IDENTITY, ParamView
from .svgp import DEFAULT_JITTER


def init_sigma_points(num_sites: int, total_width: int) -> QuadratureRule:
    """Gauss-Hermite starting point: the nodes replicated across the hidden
    GPs as (S, total_width) sites, and as weights the softmax of the rule's
    log-weights. A model's starting logits are the logs of these weights;
    they differ from the rule's own weights in the last bits, and dspp's
    first training step is steered by bits that small."""
    rule = gauss_hermite(num_sites)
    return QuadratureRule(sites=np.tile(rule.sites[:, None], (1, total_width)),
                          weights=_softmax(np.log(rule.weights)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


class DSPPModel(DeepGPModel):
    """Deep GP whose hidden integral runs over trainable sigma points."""

    kind = "dspp"
    _predict_chunk = 2048

    def __init__(self, objective, beta_reg, input_dim, width, depth, num_inducing,
                 num_sites: int = 15, skip_connection: bool = True,
                 jitter: float = DEFAULT_JITTER, target_shift: float = 0.0,
                 target_scale: float = 1.0):
        if depth < 1:
            raise ValueError("sigma-point models need at least one hidden layer")
        super().__init__(objective, beta_reg, input_dim, width, depth, num_inducing, skip_connection,
                         num_train_samples=num_sites, num_test_samples=num_sites, jitter=jitter,
                         target_shift=target_shift, target_scale=target_scale)
        self.num_sites = int(num_sites)
        start = init_sigma_points(self.num_sites, self.depth * self.width)
        self.params.register("sites", start.sites.shape, IDENTITY, init=start.sites)
        self.params.register("site_logits", (self.num_sites,), IDENTITY,
                             init=np.log(start.weights))

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
        logits = view.get("site_logits")
        return logits - ad.logsumexp(logits)

    def _mixture_weights(self) -> np.ndarray:
        """The sigma points' weights, the softmax of their logits."""
        return _softmax(self.params.decode("site_logits"))
