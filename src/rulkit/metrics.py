"""Prognostics metrics over batches of predictive distributions.

A model's ``predictive(X)`` returns one :class:`Predictions` batch: n
Gaussians, n finite Gaussian mixtures, or n bare point estimates. A
:class:`Records` holds such a batch with the unit id, time index and true
remaining useful life of each row, all as columns. Reported quantities:

* rmse of the point estimates (mixtures reduce to their moment mean),
* mean negative log likelihood (mixtures via stable log-sum-exp),
* alpha-lambda accuracy: fraction of predictions inside the band
  (1 - alpha) rul <= prediction <= (1 + alpha) rul,
* probability mass the predictive assigns to that band (mixtures are
  moment-matched to a Gaussian first).

Records whose true RUL is zero have a degenerate band; they are excluded
from both alpha-lambda metrics and counted separately in the report. NLL is
the per-sample mean, stated in the report header.

Every metric is an array expression over the columns; the per-unit breakdown
reduces the same per-row terms over each unit's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .mathcore import NumericalError, gaussian_cdf, gaussian_logpdf

# rows per nll block: the (rows, K) temporaries stay near 0.5 MB at K = 64
_BLOCK_ROWS = 1024


def _vector(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {values.shape}")
    return values


def _check_positive(values: np.ndarray, what: str):
    bad = ~(values > 0.0)  # nan fails too
    if bad.any():
        raise ValueError(f"{what} must be positive, got {float(values[bad][0])!r}")


@dataclass
class Predictions:
    """Predictive distributions of n rows as one batch.

    Every row is a mixture zero-padded to K components: a Gaussian row is one
    component of weight 1, and a point row is its value with variance nan.
    ``mean``/``var`` are each row's moment-matched Gaussian (``var`` is nan
    for points). Build a batch with :meth:`gaussian`, :meth:`mixture` or
    :meth:`point`, which validate their input.
    """

    kind: str  # "gaussian", "mixture" or "point"
    weights: np.ndarray  # (n, K)
    means: np.ndarray  # (n, K)
    variances: np.ndarray  # (n, K)
    mean: np.ndarray  # (n,)
    var: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.mean)

    @classmethod
    def gaussian(cls, mean, var) -> "Predictions":
        mean, var = _vector(mean, "mean"), _vector(var, "var")
        if mean.shape != var.shape:
            raise ValueError(f"mean has shape {mean.shape} but var has {var.shape}")
        _check_positive(var, "variance")
        return cls("gaussian", np.ones((len(mean), 1)), mean[:, None], var[:, None], mean, var)

    @classmethod
    def mixture(cls, weights, means, variances) -> "Predictions":
        """Rows of ``(n, K)`` components; one ``(K,)`` weight vector serves
        every row. Padded components have weight 0 and a positive variance."""
        means = np.ascontiguousarray(means, dtype=np.float64)
        variances = np.ascontiguousarray(variances, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        shape = means.shape
        if (len(shape) != 2 or shape[1] < 1 or variances.shape != shape
                or weights.shape not in (shape, shape[1:])):
            raise ValueError(
                "means and variances must be (n, K) arrays with K >= 1 and "
                f"weights (n, K) or (K,); got {weights.shape}, {shape}, {variances.shape}"
            )
        weights = np.ascontiguousarray(np.broadcast_to(weights, shape))
        if not (weights >= 0.0).all():
            raise ValueError("mixture weights must be nonnegative")
        total = weights.sum(axis=1)
        off = ~(np.abs(total - 1.0) <= 1e-12)
        if off.any():
            raise ValueError(f"mixture weights sum to {float(total[off][0])!r}, not 1")
        _check_positive(variances, "mixture component variances")
        # batched row dot products; at one component count they are
        # bit-identical to ``weights @ means`` row by row
        mean = np.matmul(weights[:, None, :], means[:, :, None])[:, 0, 0]
        second = np.matmul(weights[:, None, :], (variances + means * means)[:, :, None])[:, 0, 0]
        return cls("mixture", weights, means, variances, mean, second - mean * mean)

    @classmethod
    def point(cls, values) -> "Predictions":
        values = _vector(values, "values")
        nan = np.full(len(values), np.nan)
        return cls("point", np.ones((len(values), 1)), values[:, None], nan[:, None], values, nan)

    @classmethod
    def concat(cls, parts: list) -> "Predictions":
        """The rows of ``parts`` in order, as one batch of their common kind."""
        kinds = {p.kind for p in parts}
        if len(kinds) != 1:
            raise ValueError(f"cannot join predictions of kinds {sorted(kinds)}")
        columns = ("weights", "means", "variances", "mean", "var")
        return cls(kinds.pop(), *(np.concatenate([getattr(p, c) for p in parts]) for c in columns))


@dataclass
class Records:
    """Scored rows as columns: unit id, whole-number time index and true RUL
    of each row, with the predictive batch of the same rows. A time with a
    fractional part is refused, not truncated."""

    unit: np.ndarray  # (n,) str
    time: np.ndarray  # (n,) int
    rul: np.ndarray  # (n,)
    pred: Predictions

    def __post_init__(self):
        self.unit = np.asarray(self.unit, dtype=str)
        time = np.asarray(self.time)
        if np.any(time % 1.0 != 0.0):  # nan and inf too
            raise ValueError(f"time must hold whole numbers, got {time[time % 1.0 != 0.0][0]}")
        self.time = time.astype(np.int64)
        self.rul = np.asarray(self.rul, dtype=np.float64)
        n = len(self.pred)
        if any(a.shape != (n,) for a in (self.unit, self.time, self.rul)):
            raise ValueError(
                f"unit, time and rul must be vectors of the {n} predicted rows; got "
                f"{self.unit.shape}, {self.time.shape}, {self.rul.shape}"
            )
        negative = self.rul < 0.0
        if negative.any():
            raise ValueError(f"true RUL must be nonnegative, got {float(self.rul[negative][0])!r}")

    def __len__(self) -> int:
        return len(self.rul)


# -- per-row terms and their reductions ------------------------------------------


def _neg_logpdf(r: Records) -> np.ndarray:
    p = r.pred
    if p.kind == "point":
        raise TypeError("point predictions carry no density")
    out = np.empty(len(r))
    # rows are independent, so scoring them in blocks changes no bit
    for start in range(0, len(out), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        comp = gaussian_logpdf(r.rul[rows, None], p.means[rows], p.variances[rows])
        out[rows] = -_log_mix(comp, p.weights[rows])
    return out


def _log_mix(comp: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row, log sum_k w_k exp(comp_k), overwriting ``comp``.

    The stable form: each row is shifted by its largest component among those
    of nonzero weight, so zero-padded components cannot set the shift.
    """
    np.copyto(comp, -np.inf, where=weights == 0.0)
    top = comp.max(axis=1, keepdims=True)
    top[np.isneginf(top)] = 0.0  # every density vanished: the log of 0 is -inf
    comp -= top
    np.exp(comp, out=comp)
    comp *= weights
    with np.errstate(divide="ignore"):
        return np.log(comp.sum(axis=1)) + top[:, 0]


def _band_hits(r: Records, alpha: float) -> np.ndarray:
    mean = r.pred.mean
    return ((1.0 - alpha) * r.rul <= mean) & (mean <= (1.0 + alpha) * r.rul)


def _band_mass(r: Records, band: np.ndarray, alpha: float) -> np.ndarray:
    """Moment-matched Gaussian mass inside the band, on the ``band`` rows."""
    if r.pred.kind == "point":
        raise TypeError("point predictions carry no distribution")
    rul, mean, var = r.rul[band], r.pred.mean[band], r.pred.var[band]
    # a mixture's moment variance can cancel to zero
    _check_positive(var, "variance")
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


def _require_records(records: Records):
    if not len(records):
        raise ValueError("empty record set")


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _band(records: Records, alpha) -> np.ndarray:
    _check_alpha(alpha)
    _require_records(records)
    band = records.rul > 0.0
    if not band.any():
        raise ValueError("every record has zero RUL; the accuracy band is degenerate")
    return band


def rmse(records: Records) -> float:
    _require_records(records)
    return _rmse(records.pred.mean - records.rul)


def nll(records: Records) -> float:
    """Per-sample mean negative log likelihood."""
    _require_records(records)
    return _nll(_neg_logpdf(records))


def alpha_lambda(records: Records, alpha: float = 0.2) -> float:
    """Fraction of point estimates inside the relative accuracy band."""
    band = _band(records, alpha)
    return _fraction(_band_hits(records, alpha)[band])


def prob_alpha_lambda(records: Records, alpha: float = 0.2) -> float:
    """Mean predictive mass inside the band, Gaussians by moment matching."""
    band = _band(records, alpha)
    return float(np.mean(_band_mass(records, band, alpha)))


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
        """The fields in order, the NLL convention after ``alpha``."""
        head = {"alpha": self.alpha, "nll_convention": "per_sample_mean"}
        return head | {f.name: getattr(self, f.name) for f in fields(self)}

    def to_text(self) -> str:
        """``to_dict`` as ``key value`` lines, per_unit one per unit and metric."""
        d = self.to_dict()
        lines = [f"{key} {_fmt(value)}" for key, value in d.items() if key != "per_unit"]
        for unit in sorted(self.per_unit):
            for key in ("rmse", "nll", "alpha_lambda", "prob_alpha_lambda"):
                lines.append(f"per_unit.{unit}.{key} {_fmt(self.per_unit[unit][key])}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return "-" if value is None else value if isinstance(value, str) else repr(value)


def compute_report(records: Records, alpha: float = 0.2) -> MetricsReport:
    """Metrics over all records plus a per-unit breakdown."""
    _check_alpha(alpha)
    _require_records(records)
    has_dist = records.pred.kind != "point"
    band = records.rul > 0.0
    errors = records.pred.mean - records.rul
    neg_logpdf = _neg_logpdf(records) if has_dist else None
    hits = _band_hits(records, alpha)
    mass = np.full(len(records), np.nan)
    if has_dist and band.any():
        mass[band] = _band_mass(records, band, alpha)

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
    units, codes = np.unique(records.unit, return_inverse=True)
    by_unit = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])
    per_unit = {unit: block(rows) for unit, rows in zip(units.tolist(), by_unit)}
    return MetricsReport(
        alpha=alpha,
        num_records=len(records),
        excluded_eol=int(np.count_nonzero(records.rul == 0.0)),
        rmse=fleet["rmse"],
        nll=fleet["nll"],
        alpha_lambda=fleet["alpha_lambda"],
        prob_alpha_lambda=fleet["prob_alpha_lambda"],
        per_unit=per_unit,
    )
