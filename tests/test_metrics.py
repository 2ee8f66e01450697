"""Metric-level tests: RMSE, NLL, accuracy band, band probability, reports.

Expected values are frozen from closed forms: peak Gaussian density
1/sqrt(2 pi s^2), standard normal mass Phi(1) - Phi(-1) = erf(1/sqrt(2)),
and hand-chosen residuals. math.erf serves as the independent CDF oracle.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from rulkit.dgp import MixturePredictive, mixture_moments
from rulkit.mathcore import GaussianDist, NumericalError, gaussian_cdf, gaussian_logpdf
from rulkit.metrics import (
    MetricsReport,
    PointPredictive,
    PredictionRecord,
    alpha_lambda,
    compute_report,
    nll,
    prob_alpha_lambda,
    rmse,
)

# central standard normal interval, 30-digit mpmath erf(1/sqrt(2))
PHI_PM_ONE = 0.682689492137086


def gauss_rec(rul, mean, var, unit="u1", t=0):
    return PredictionRecord(unit, t, rul, GaussianDist(mean, var))


def point_rec(rul, value, unit="u1", t=0):
    return PredictionRecord(unit, t, rul, PointPredictive(value))


def peak_variance(density):
    """Variance making the Gaussian peak density equal `density`."""
    return 1.0 / (2.0 * math.pi * density * density)


class TestPointEstimate:
    def test_each_predictive_kind(self):
        # at true RUL 0 the rmse of one record is its point estimate
        def estimate(pred):
            return rmse([PredictionRecord("u1", 0, 0.0, pred)])

        assert estimate(PointPredictive(4.5)) == 4.5
        assert estimate(GaussianDist(2.0, 9.0)) == 2.0
        mix = MixturePredictive([0.25, 0.75], [0.0, 4.0], [1.0, 1.0])
        assert estimate(mix) == pytest.approx(3.0, abs=1e-15)

    def test_moment_gaussian_matches_mixture_moments(self):
        mix = MixturePredictive([0.5, 0.5], [90.0, 110.0], [1.0, 1.0])
        mean, var = mixture_moments(mix)
        as_mix = prob_alpha_lambda([PredictionRecord("u1", 0, 100.0, mix)])
        assert as_mix == prob_alpha_lambda([gauss_rec(100.0, mean, var)])
        assert rmse([PredictionRecord("u1", 0, 0.0, mix)]) == mean
        assert var == pytest.approx(101.0, rel=1e-12)

    def test_moment_gaussian_rejects_point(self):
        with pytest.raises(TypeError):
            prob_alpha_lambda([point_rec(1.0, 1.0)])


class TestRmse:
    def test_hand_residuals(self):
        # residuals 3 and -4: sqrt((9 + 16) / 2) = sqrt(12.5)
        records = [point_rec(10.0, 13.0), point_rec(10.0, 6.0)]
        assert rmse(records) == pytest.approx(3.5355339059327378, abs=1e-14)

    def test_mixture_uses_moment_mean(self):
        mix = MixturePredictive([0.5, 0.5], [6.0, 20.0], [1.0, 4.0])
        records = [PredictionRecord("u1", 0, 10.0, mix)]
        assert rmse(records) == pytest.approx(3.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([])


class TestNll:
    def test_gaussian_at_mode_with_unit_density(self):
        # variance 1/(2 pi) puts the peak density at exactly 1, log = 0
        records = [gauss_rec(7.0, 7.0, 1.0 / (2.0 * math.pi))]
        assert nll(records) == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_hand_value(self):
        # -log N(1 | 0, 4) = 0.5 (log(2 pi) + log 4 + 1/4)
        expected = 0.5 * (math.log(2.0 * math.pi) + math.log(4.0) + 0.25)
        records = [gauss_rec(1.0, 0.0, 4.0)]
        assert nll(records) == pytest.approx(expected, abs=1e-14)

    def test_mean_over_records(self):
        a = gauss_rec(1.0, 0.0, 4.0)
        b = gauss_rec(2.0, 2.0, 1.0 / (2.0 * math.pi))
        both = nll([a, b])
        assert both == pytest.approx(0.5 * (nll([a]) + nll([b])), abs=1e-14)

    def test_mixture_density_one_fifth(self):
        # components peaked at y with peak densities 0.1 and 0.3; equal
        # weights give mixture density 0.2 at y
        y = 42.0
        mix = MixturePredictive(
            [0.5, 0.5], [y, y], [peak_variance(0.1), peak_variance(0.3)]
        )
        records = [PredictionRecord("u1", 0, y, mix)]
        assert nll(records) == pytest.approx(-math.log(0.2), abs=1e-13)

    def test_coincident_mixture_equals_gaussian(self):
        # weights cancel inside log-sum-exp when every component is the same
        w = np.array([0.2, 0.5, 0.3])
        mix = MixturePredictive(w, [5.0, 5.0, 5.0], [2.0, 2.0, 2.0])
        lone = gauss_rec(4.0, 5.0, 2.0)
        assert nll([PredictionRecord("u1", 0, 4.0, mix)]) == pytest.approx(
            nll([lone]), abs=1e-13
        )

    def test_point_predictive_has_no_density(self):
        with pytest.raises(TypeError, match="no density"):
            nll([point_rec(1.0, 1.0)])

    def test_vanished_density_raises(self):
        far = gauss_rec(1e200, 0.0, 1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="vanished"):
                nll([far])


class TestAlphaLambda:
    def test_band_membership(self):
        # rul 100 at alpha 0.2 gives the band [80, 120]
        assert alpha_lambda([point_rec(100.0, 119.0)]) == 1.0
        assert alpha_lambda([point_rec(100.0, 121.0)]) == 0.0
        assert alpha_lambda([point_rec(100.0, 100.0)]) == 1.0

    def test_band_edges_inclusive(self):
        assert alpha_lambda([point_rec(100.0, 80.0)]) == 1.0
        assert alpha_lambda([point_rec(100.0, 120.0)]) == 1.0

    def test_fraction(self):
        records = [
            point_rec(100.0, 119.0),
            point_rec(100.0, 121.0),
            point_rec(50.0, 50.0),
        ]
        assert alpha_lambda(records) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_rul_rows_excluded(self):
        records = [point_rec(100.0, 119.0), point_rec(0.0, 0.0), point_rec(0.0, 5.0)]
        assert alpha_lambda(records) == 1.0

    def test_all_zero_rul_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            alpha_lambda([point_rec(0.0, 0.0)])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            alpha_lambda([point_rec(100.0, 100.0)], alpha=alpha)


class TestProbAlphaLambda:
    def test_one_sigma_band_mass(self):
        # mean at the true rul, sigma = 20 on the band [80, 120]: the band
        # is exactly +-1 sigma, mass erf(1/sqrt(2))
        records = [gauss_rec(100.0, 100.0, 400.0)]
        assert prob_alpha_lambda(records) == pytest.approx(PHI_PM_ONE, abs=1e-9)

    def test_against_erf_oracle(self):
        def band_mass(rul, mean, var, alpha=0.2):
            sd = math.sqrt(2.0 * var)
            hi = 0.5 * (1.0 + math.erf(((1 + alpha) * rul - mean) / sd))
            lo = 0.5 * (1.0 + math.erf(((1 - alpha) * rul - mean) / sd))
            return hi - lo

        rng = np.random.default_rng(3)
        records = []
        expected = []
        for t in range(12):
            rul = float(rng.uniform(10.0, 200.0))
            mean = rul + float(rng.normal(0.0, 20.0))
            var = float(rng.uniform(1.0, 900.0))
            records.append(gauss_rec(rul, mean, var, t=t))
            expected.append(band_mass(rul, mean, var))
        got = prob_alpha_lambda(records)
        assert got == pytest.approx(float(np.mean(expected)), abs=1e-12)

    def test_tiny_sigma_is_an_indicator(self):
        inside = gauss_rec(100.0, 110.0, 1e-16)
        outside = gauss_rec(100.0, 130.0, 1e-16)
        assert prob_alpha_lambda([inside]) == pytest.approx(1.0, abs=1e-12)
        assert prob_alpha_lambda([outside]) == pytest.approx(0.0, abs=1e-12)

    def test_huge_sigma_mass_drains(self):
        spread = gauss_rec(100.0, 100.0, 1e16)
        assert prob_alpha_lambda([spread]) < 1e-6

    def test_monotone_in_sigma_at_band_center(self):
        # start wide enough that the band mass is strictly below 1 in floats
        masses = [
            prob_alpha_lambda([gauss_rec(100.0, 100.0, sd * sd)])
            for sd in np.logspace(0.8, 4.0, 12)
        ]
        assert masses[0] < 1.0
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_coincident_mixture_matches_gaussian(self):
        mix = MixturePredictive([0.3, 0.3, 0.4], [104.0] * 3, [250.0] * 3)
        as_mix = prob_alpha_lambda([PredictionRecord("u1", 0, 100.0, mix)])
        as_gauss = prob_alpha_lambda([gauss_rec(100.0, 104.0, 250.0)])
        assert as_mix == pytest.approx(as_gauss, rel=1e-10)

    def test_mixture_moment_matched_before_scoring(self):
        # two well separated modes: the score must use the single
        # moment-matched Gaussian N(100, 101), not the component masses
        mix = MixturePredictive([0.5, 0.5], [90.0, 110.0], [1.0, 1.0])
        got = prob_alpha_lambda([PredictionRecord("u1", 0, 100.0, mix)])
        sd = math.sqrt(2.0 * 101.0)
        expected = 0.5 * (math.erf(20.0 / sd) - math.erf(-20.0 / sd))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_rul_rows_excluded(self):
        records = [gauss_rec(100.0, 100.0, 400.0), gauss_rec(0.0, 3.0, 4.0)]
        assert prob_alpha_lambda(records) == pytest.approx(PHI_PM_ONE, abs=1e-9)


def toy_records():
    rng = np.random.default_rng(11)
    records = []
    for unit in ("b2", "a1"):
        for t in range(6):
            rul = float(6 - t)
            mean = rul + float(rng.normal(0.0, 1.0))
            records.append(gauss_rec(rul, mean, 4.0, unit=unit, t=t))
    records.append(gauss_rec(0.0, 0.5, 4.0, unit="a1", t=6))
    return records


class TestComputeReport:
    def test_fleet_aggregates_match_metric_functions(self):
        records = toy_records()
        report = compute_report(records, alpha=0.2)
        assert report.num_records == 13
        assert report.excluded_eol == 1
        assert report.rmse == rmse(records)
        assert report.nll == nll(records)
        assert report.alpha_lambda == alpha_lambda(records, 0.2)
        assert report.prob_alpha_lambda == prob_alpha_lambda(records, 0.2)

    def test_per_unit_blocks(self):
        records = toy_records()
        report = compute_report(records)
        assert list(report.per_unit) == ["a1", "b2"]
        own = [r for r in records if r.unit_id == "a1"]
        assert report.per_unit["a1"]["rmse"] == rmse(own)
        assert report.per_unit["a1"]["nll"] == nll(own)

    def test_permutation_invariance(self):
        records = toy_records()
        base = compute_report(records)
        rng = np.random.default_rng(0)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        other = compute_report(shuffled)
        assert other.rmse == pytest.approx(base.rmse, rel=1e-12)
        assert other.nll == pytest.approx(base.nll, rel=1e-12)
        assert other.alpha_lambda == base.alpha_lambda
        assert other.prob_alpha_lambda == pytest.approx(
            base.prob_alpha_lambda, rel=1e-12
        )

    def test_point_predictions_blank_the_density_metrics(self):
        records = [point_rec(100.0, 90.0), gauss_rec(50.0, 55.0, 4.0, t=1)]
        report = compute_report(records)
        assert report.nll is None
        assert report.prob_alpha_lambda is None
        assert report.rmse > 0.0
        assert report.alpha_lambda == 1.0
        assert report.per_unit["u1"]["nll"] is None

    def test_all_eol_unit_loses_its_band(self):
        records = [
            gauss_rec(100.0, 100.0, 400.0, unit="alive"),
            gauss_rec(0.0, 1.0, 4.0, unit="dead"),
            gauss_rec(0.0, 0.5, 4.0, unit="dead", t=1),
        ]
        report = compute_report(records)
        assert report.alpha_lambda is not None
        assert report.per_unit["dead"]["alpha_lambda"] is None
        assert report.per_unit["dead"]["prob_alpha_lambda"] is None
        assert report.per_unit["dead"]["nll"] is not None
        assert report.excluded_eol == 2

    def test_to_text_deterministic_and_labeled(self):
        records = toy_records()
        first = compute_report(records).to_text()
        second = compute_report(records).to_text()
        assert first == second
        assert "nll_convention per_sample_mean" in first
        assert "per_unit.a1.rmse" in first
        assert first.index("per_unit.a1.rmse") < first.index("per_unit.b2.rmse")

    def test_alpha_lambda_values_are_builtin_floats(self):
        report = compute_report(toy_records())
        assert "np." not in report.to_text()
        values = [report.alpha_lambda] + [u["alpha_lambda"] for u in report.per_unit.values()]
        assert all(type(v) is float for v in values)

    def test_to_text_renders_missing_as_dash(self):
        report = compute_report([point_rec(10.0, 10.0)])
        assert "nll -" in report.to_text()

    def test_to_dict_fields(self):
        report = compute_report(toy_records())
        d = report.to_dict()
        assert d["nll_convention"] == "per_sample_mean"
        assert d["num_records"] == 13
        assert set(d["per_unit"]) == {"a1", "b2"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_report([])


def reference_blocks(records, alpha=0.2):
    """Fleet and per-unit metrics from the per-record loops that the array
    expressions replaced, kept as the oracle for them."""

    def point_estimate(p):
        if isinstance(p, PointPredictive):
            return p.value
        if isinstance(p, MixturePredictive):
            return mixture_moments(p)[0]
        return p.mean

    def moment_gaussian(p):
        if isinstance(p, GaussianDist):
            return p
        mean, var = mixture_moments(p)
        return GaussianDist(mean, var)

    def logpdf(p, y):
        if isinstance(p, GaussianDist):
            return float(gaussian_logpdf(y, p.mean, p.variance))
        return float(logsumexp(gaussian_logpdf(y, p.means, p.variances), b=p.weights))

    def block(rs):
        errs = np.array([point_estimate(r.predictive) - r.rul_true for r in rs])
        out = {
            "rmse": float(np.sqrt(np.mean(errs * errs))),
            "nll": float(np.mean([-logpdf(r.predictive, r.rul_true) for r in rs])),
            "alpha_lambda": None,
            "prob_alpha_lambda": None,
        }
        valid = [r for r in rs if r.rul_true > 0.0]
        if valid:
            hits, total = 0, 0.0
            for r in valid:
                lo, hi = (1.0 - alpha) * r.rul_true, (1.0 + alpha) * r.rul_true
                hits += lo <= point_estimate(r.predictive) <= hi
                g = moment_gaussian(r.predictive)
                total += float(gaussian_cdf(hi, g.mean, g.std) - gaussian_cdf(lo, g.mean, g.std))
            out["alpha_lambda"] = hits / len(valid)
            out["prob_alpha_lambda"] = total / len(valid)
        return out

    units = sorted({r.unit_id for r in records})
    return block(records), {u: block([r for r in records if r.unit_id == u]) for u in units}


def mixed_records():
    """Interleaved units, Gaussian rows among mixtures of 2 to 11 components,
    zero-RUL rows, and a unit ("d4") that is all end of life."""
    rng = np.random.default_rng(5)
    records = []
    for t in range(10):
        for unit in ("c3", "a1", "d4", "b2"):
            rul = 0.0 if unit == "d4" or t == 9 else float(rng.uniform(5.0, 150.0))
            if (t + len(records)) % 3 == 0:
                pred = GaussianDist(rul + rng.normal(0.0, 10.0), rng.uniform(1.0, 400.0))
            else:
                k = int(rng.integers(2, 12))
                w = rng.uniform(0.1, 1.0, k)
                pred = MixturePredictive(
                    w / w.sum(), rul + rng.normal(0.0, 15.0, k), rng.uniform(1.0, 300.0, k)
                )
            records.append(PredictionRecord(unit, t, rul, pred))
    return records


class TestAgainstPerRecordReference:
    KEYS = ("rmse", "nll", "alpha_lambda", "prob_alpha_lambda")

    def assert_block_close(self, got, want):
        for key in self.KEYS:
            if want[key] is None:
                assert got[key] is None, key
            else:
                assert math.isclose(got[key], want[key], rel_tol=1e-12, abs_tol=0.0), key

    def test_fleet_and_per_unit_match(self):
        records = mixed_records()
        report = compute_report(records)
        fleet, per_unit = reference_blocks(records)
        self.assert_block_close(report.to_dict(), fleet)
        assert list(report.per_unit) == ["a1", "b2", "c3", "d4"]
        for unit, want in per_unit.items():
            self.assert_block_close(report.per_unit[unit], want)
        assert report.per_unit["d4"]["alpha_lambda"] is None
        assert report.excluded_eol == 13

    def test_cancelled_moment_variance_rejected(self):
        # a valid mixture whose moment-matched variance cancels to zero
        mix = MixturePredictive([0.5, 0.5], [1e8, 1e8], [1e-10, 1e-10])
        assert mixture_moments(mix)[1] <= 0.0
        records = [gauss_rec(50.0, 55.0, 4.0), PredictionRecord("u1", 1, 1e8, mix)]
        with pytest.raises(ValueError, match="variance must be positive"):
            compute_report(records)
        with pytest.raises(ValueError, match="variance must be positive"):
            prob_alpha_lambda(records)


class TestRecordValidation:
    def test_negative_rul_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PredictionRecord("u1", 0, -1.0, PointPredictive(0.0))

    def test_point_value_coerced_to_float(self):
        assert PointPredictive(3).value == 3.0
        assert isinstance(PointPredictive(3).value, float)
