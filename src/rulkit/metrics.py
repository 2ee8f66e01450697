"""Prognostics metrics over per-row predictive distributions.

Each record pairs a true remaining useful life with a predictive that is a
Gaussian, a finite Gaussian mixture, or a bare point estimate. Reported
quantities:

* rmse of the point estimates (mixtures reduce to their moment mean),
* mean negative log likelihood (mixtures via stable log-sum-exp),
* alpha-lambda accuracy: fraction of predictions inside the band
  (1 - alpha) rul <= prediction <= (1 + alpha) rul,
* probability mass the predictive assigns to that band (mixtures are
  moment-matched to a Gaussian first).

Records whose true RUL is zero have a degenerate band; they are excluded
from both alpha-lambda metrics and counted separately in the report. NLL is
the per-sample mean, stated in the report header.

Scoring gathers the records into columns once (``_gather``) and evaluates
every metric as an array expression over them; the per-unit breakdown
reduces the same per-row terms over each unit's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import logsumexp

from .dgp import MixturePredictive
from .mathcore import GaussianDist, NumericalError, gaussian_cdf, gaussian_logpdf


@dataclass
class PointPredictive:
    """Prediction with no distribution attached (deterministic baselines)."""

    value: float

    def __post_init__(self):
        self.value = float(self.value)


Predictive = Union[GaussianDist, MixturePredictive, PointPredictive]


@dataclass
class PredictionRecord:
    unit_id: str
    time_index: int
    rul_true: float
    predictive: Predictive

    def __post_init__(self):
        self.rul_true = float(self.rul_true)
        if self.rul_true < 0.0:
            raise ValueError(f"true RUL must be nonnegative, got {self.rul_true}")


# rows per nll block: the (rows, K) temporaries stay near 0.5 MB at K = 64
_BLOCK_ROWS = 1024

# -- columns -----------------------------------------------------------------


@dataclass
class _Columns:
    """Records as arrays, one row per record.

    Every row is a mixture zero-padded to K components: a Gaussian row is
    one component of weight 1, padded entries have weight 0 and variance 1.
    ``mean``/``var`` are the moment-matched Gaussian (a point row keeps its
    value as ``mean`` and has ``var`` nan).
    """

    rul: np.ndarray  # (n,)
    unit: list  # (n,) unit ids
    counts: np.ndarray  # (n,) components per row
    weights: np.ndarray  # (n, K)
    means: np.ndarray  # (n, K)
    variances: np.ndarray  # (n, K)
    point: np.ndarray  # (n,) rows without a distribution
    mixture: np.ndarray  # (n,) rows given as MixturePredictive
    mean: np.ndarray  # (n,)
    var: np.ndarray  # (n,)


def _gather(records: list[PredictionRecord]) -> _Columns:
    """One pass over the records into columns; moments computed once."""
    n = len(records)
    rul, unit, mean, var = [], [], [], []
    mix_rows, point_rows, ws, ms, vs = [], [], [], [], []
    for i, r in enumerate(records):
        p = r.predictive
        rul.append(r.rul_true)
        unit.append(r.unit_id)
        if isinstance(p, MixturePredictive):
            mix_rows.append(i)
            ws.append(p.weights)
            ms.append(p.means)
            vs.append(p.variances)
            mean.append(math.nan)
            var.append(math.nan)
        elif isinstance(p, GaussianDist):
            mean.append(p.mean)
            var.append(p.variance)
        elif isinstance(p, PointPredictive):
            point_rows.append(i)
            mean.append(p.value)
            var.append(math.nan)
        else:
            raise TypeError(f"unsupported predictive type {type(p).__name__}")

    point = np.zeros(n, dtype=bool)
    point[point_rows] = True
    mixture = np.zeros(n, dtype=bool)
    mixture[mix_rows] = True
    sizes = [len(w) for w in ws]
    counts = np.ones(n, dtype=np.int64)
    counts[mix_rows] = sizes
    k = int(counts.max(initial=1))

    mean, var = np.array(mean, dtype=np.float64), np.array(var, dtype=np.float64)
    if len(mix_rows) == n and len(set(sizes)) == 1:
        # mixtures of one size, the deep models' case: nothing to pad
        W, M, V = np.array(ws), np.array(ms), np.array(vs)
    else:
        single = ~mixture
        W, M, V = np.zeros((n, k)), np.zeros((n, k)), np.ones((n, k))
        W[single, 0], M[single, 0], V[single, 0] = 1.0, mean[single], var[single]
        for size in set(sizes):  # one block per component count
            pick = [j for j, s in enumerate(sizes) if s == size]
            rows = [mix_rows[j] for j in pick]
            for dst, src in ((W, ws), (M, ms), (V, vs)):
                dst[rows, :size] = [src[j] for j in pick]
    if mix_rows:
        # batched row dot products; at one component count they are
        # bit-identical to ``weights @ means`` row by row
        mu = np.matmul(W[:, None, :], M[:, :, None])[:, 0, 0]
        second = np.matmul(W[:, None, :], (V + M * M)[:, :, None])[:, 0, 0]
        mean[mixture], var[mixture] = mu[mixture], (second - mu * mu)[mixture]
    return _Columns(
        np.array(rul, dtype=np.float64), unit, counts,
        W, M, V, point, mixture, mean, var,
    )


# -- per-row terms and their reductions ------------------------------------------


def _neg_logpdf(c: _Columns) -> np.ndarray:
    if c.point.any():
        raise TypeError("point predictions carry no density")
    out = np.empty(len(c.rul))
    # rows are independent, so scoring them in blocks changes no bit
    for start in range(0, len(out), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        comp = gaussian_logpdf(c.rul[rows, None], c.means[rows], c.variances[rows])
        out[rows] = -logsumexp(comp, axis=1, b=c.weights[rows])
    return out


def _band_hits(c: _Columns, alpha: float) -> np.ndarray:
    return ((1.0 - alpha) * c.rul <= c.mean) & (c.mean <= (1.0 + alpha) * c.rul)


def _band_mass(c: _Columns, band: np.ndarray, alpha: float) -> np.ndarray:
    """Moment-matched Gaussian mass inside the band, on the ``band`` rows."""
    if c.point.any():
        raise TypeError("point predictions carry no distribution")
    rul, mean, var = c.rul[band], c.mean[band], c.var[band]
    bad = ~(var > 0.0)
    if bad.any():
        raise ValueError(f"variance must be positive, got {var[bad][0]!r}")
    std = np.sqrt(var)
    hi = gaussian_cdf((1.0 + alpha) * rul, mean, std)
    return hi - gaussian_cdf((1.0 - alpha) * rul, mean, std)


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(errors * errors)))


def _nll(neg_logpdf: np.ndarray) -> float:
    out = float(np.mean(neg_logpdf))
    if not math.isfinite(out):
        raise NumericalError("predictive density vanished on at least one record")
    return out


def _fraction(hits: np.ndarray) -> float:
    return float(np.count_nonzero(hits) / len(hits))


# -- public metrics --------------------------------------------------------------


def _require_records(records):
    if not records:
        raise ValueError("empty record set")


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _banded(records, alpha) -> tuple[_Columns, np.ndarray]:
    _check_alpha(alpha)
    _require_records(records)
    c = _gather(records)
    band = c.rul > 0.0
    if not band.any():
        raise ValueError("every record has zero RUL; the accuracy band is degenerate")
    return c, band


def rmse(records: list[PredictionRecord]) -> float:
    _require_records(records)
    c = _gather(records)
    return _rmse(c.mean - c.rul)


def nll(records: list[PredictionRecord]) -> float:
    """Per-sample mean negative log likelihood."""
    _require_records(records)
    return _nll(_neg_logpdf(_gather(records)))


def alpha_lambda(records: list[PredictionRecord], alpha: float = 0.2) -> float:
    """Fraction of point estimates inside the relative accuracy band."""
    c, band = _banded(records, alpha)
    return _fraction(_band_hits(c, alpha)[band])


def prob_alpha_lambda(records: list[PredictionRecord], alpha: float = 0.2) -> float:
    """Mean predictive mass inside the band, Gaussians by moment matching."""
    c, band = _banded(records, alpha)
    return float(np.mean(_band_mass(c, band, alpha)))


@dataclass
class MetricsReport:
    """Fleet-level and per-unit metric values with deterministic rendering."""

    alpha: float
    num_records: int
    excluded_eol: int
    rmse: float
    nll: float | None
    alpha_lambda: float | None
    prob_alpha_lambda: float | None
    per_unit: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "nll_convention": "per_sample_mean",
            "num_records": self.num_records,
            "excluded_eol": self.excluded_eol,
            "rmse": self.rmse,
            "nll": self.nll,
            "alpha_lambda": self.alpha_lambda,
            "prob_alpha_lambda": self.prob_alpha_lambda,
            "per_unit": self.per_unit,
        }

    def to_text(self) -> str:
        lines = [
            f"alpha {self.alpha!r}",
            "nll_convention per_sample_mean",
            f"num_records {self.num_records}",
            f"excluded_eol {self.excluded_eol}",
            f"rmse {self.rmse!r}",
            f"nll {_fmt(self.nll)}",
            f"alpha_lambda {_fmt(self.alpha_lambda)}",
            f"prob_alpha_lambda {_fmt(self.prob_alpha_lambda)}",
        ]
        for unit in sorted(self.per_unit):
            for key in ("rmse", "nll", "alpha_lambda", "prob_alpha_lambda"):
                lines.append(f"per_unit.{unit}.{key} {_fmt(self.per_unit[unit][key])}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return "-" if value is None else repr(value)


def compute_report(records: list[PredictionRecord], alpha: float = 0.2) -> MetricsReport:
    """Metrics over all records plus a per-unit breakdown."""
    _require_records(records)
    c = _gather(records)
    has_dist = not c.point.any()
    band = c.rul > 0.0
    errors = c.mean - c.rul
    neg_logpdf = _neg_logpdf(c) if has_dist else None
    hits = _band_hits(c, alpha)
    mass = np.full(len(records), np.nan)
    if band.any():
        _check_alpha(alpha)
        if has_dist:
            mass[band] = _band_mass(c, band, alpha)

    def block(rows):
        # a block of all end-of-life rows has no accuracy band to score
        in_band = band[rows]
        has_band = bool(in_band.any())
        return {
            "rmse": _rmse(errors[rows]),
            "nll": _nll(neg_logpdf[rows]) if has_dist else None,
            "alpha_lambda": _fraction(hits[rows][in_band]) if has_band else None,
            "prob_alpha_lambda": (
                float(np.mean(mass[rows][in_band])) if has_dist and has_band else None
            ),
        }

    fleet = block(slice(None))
    # each unit's rows, in record order
    units, codes = np.unique(np.array(c.unit, dtype=str), return_inverse=True)
    by_unit = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])
    per_unit = {unit: block(rows) for unit, rows in zip(units.tolist(), by_unit)}
    return MetricsReport(
        alpha=alpha,
        num_records=len(records),
        excluded_eol=int(np.count_nonzero(c.rul == 0.0)),
        rmse=fleet["rmse"],
        nll=fleet["nll"],
        alpha_lambda=fleet["alpha_lambda"],
        prob_alpha_lambda=fleet["prob_alpha_lambda"],
        per_unit=per_unit,
    )
