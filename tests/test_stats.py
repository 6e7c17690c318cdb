import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from trendlab import (
    BivariateLogNormalParams,
    HistogramSpec,
    LogNormalParams,
    anderson_darling_lognormal,
    conditional_cross_mean,
    fit_bivariate_lognormal,
    fit_lognormal_report,
    histogram,
    log_correlation,
    lognormal_mle,
    lognormal_moments,
    lognormal_sf,
    truncated_lognormal_mean,
)
from hypothesis_counts import examples
from oracles import lognormal_cdf

PHI_1 = 0.8413447460685429  # reference value of the standard normal CDF at 1


def bivariate_draws(params, n, seed):
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x = np.exp(params.mu_x + params.sigma_x * z1)
    d = np.exp(params.mu_d + params.sigma_d * (params.rho * z1 + math.sqrt(1.0 - params.rho**2) * z2))
    return x, d


class TestMle:
    def test_constant_e(self):
        p = lognormal_mle([math.e, math.e, math.e])
        assert p.mu == pytest.approx(1.0) and p.sigma == 0.0

    def test_single_one(self):
        p = lognormal_mle([1.0])
        assert (p.mu, p.sigma) == (0.0, 0.0)

    def test_seeded_recovery(self):
        rng = np.random.default_rng(101)
        draws = np.exp(0.5 + 0.3 * rng.standard_normal(100_000))
        p = lognormal_mle(draws)
        assert abs(p.mu - 0.5) < 0.01
        assert abs(p.sigma - 0.3) < 0.01

    def test_rejects_non_positive_and_empty(self):
        with pytest.raises(ValueError):
            lognormal_mle([1.0, 0.0])
        with pytest.raises(ValueError):
            lognormal_mle([])

    def test_consistency_error_shrinks_with_n(self):
        errs = {}
        for n in (1_000, 100_000):
            errs[n] = np.mean(
                [
                    abs(lognormal_mle(np.exp(0.5 + 0.3 * np.random.default_rng(5000 + s).standard_normal(n))).mu - 0.5)
                    for s in range(20)
                ]
            )
        ratio = errs[1_000] / errs[100_000]
        # n grows by 100 so the error should shrink about 10x
        assert 5.0 < ratio < 20.0


class TestMoments:
    def test_point_mass(self):
        assert lognormal_moments(LogNormalParams(0.0, 0.0)) == (1.0, 1.0)

    def test_unit_sigma(self):
        median, mean = lognormal_moments(LogNormalParams(0.0, 1.0))
        assert median == 1.0
        assert mean == pytest.approx(math.exp(0.5))

    @given(st.floats(-3, 3), st.floats(0, 2))
    def test_mean_at_least_median(self, mu, sigma):
        median, mean = lognormal_moments(LogNormalParams(mu, sigma))
        assert mean >= median


class TestCdf:
    def test_sf_complements_cdf(self):
        p = LogNormalParams(0.2, 0.5)
        for x in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert lognormal_sf(x, p) == pytest.approx(1.0 - lognormal_cdf(x, p), abs=1e-12)


class TestAndersonDarling:
    def test_null_data_accepted(self):
        rng = np.random.default_rng(7)
        stat, p = anderson_darling_lognormal(np.exp(0.2 + 0.4 * rng.standard_normal(5_000)))
        assert p > 0.01

    def test_power_against_exp_uniform(self):
        rng = np.random.default_rng(3)
        stat, p = anderson_darling_lognormal(np.exp(rng.uniform(0.0, 1.0, 10_000)))
        assert p < 0.01

    def test_rejects_small_and_non_positive(self):
        with pytest.raises(ValueError):
            anderson_darling_lognormal([1.0] * 7)
        with pytest.raises(ValueError):
            anderson_darling_lognormal([1.0, 2.0, 3.0, -1.0, 1.0, 2.0, 3.0, 4.0])

    def test_clamp_flagged_on_extreme_outlier(self):
        data = np.concatenate([np.full(200, 2.0) * np.exp(0.001 * np.arange(200)), [1e280]])
        with pytest.warns(UserWarning, match="clamped"):
            anderson_darling_lognormal(data)

    def test_calibration_rate_sane(self):
        rejections = 0
        for k in range(200):
            rng = np.random.default_rng(9_000 + k)
            _, p = anderson_darling_lognormal(np.exp(-0.5 + 0.3 * rng.standard_normal(200)))
            rejections += p < 0.05
        assert 0.01 <= rejections / 200 <= 0.12

    def test_null_calibration(self):
        """On log-normal samples, P(p < alpha) is alpha within 4 binomial SE at n = 8 to 5000.

        Seed 2027; the repetitions scale with the deep profile. D'Agostino and
        Stephens' (1986) p-value approximation is fitted for the tail, so only
        alpha up to 0.10 is checked: at n = 8 and alpha = 0.5 the rate reads
        0.535 (+4.4 SE) on these draws. At n = 8 and alpha = 0.10 it reads
        +0.8 SE here and +3.7 SE under the deep profile's tenfold draws.
        """
        rng = np.random.default_rng(2027)
        for n, reps in ((8, 4000), (30, 4000), (200, 2000), (1000, 1000), (5000, 400)):
            reps = examples(reps)
            p = np.array([anderson_darling_lognormal(rng.lognormal(-0.5, 0.3, n))[1] for _ in range(reps)])
            for alpha in (0.01, 0.05, 0.10):
                se = math.sqrt(alpha * (1.0 - alpha) / reps)
                assert abs(np.mean(p < alpha) - alpha) <= 4.0 * se, (n, alpha, np.mean(p < alpha))


class TestLogCorrelation:
    def test_perfect_dependence(self):
        xs = np.exp(np.random.default_rng(1).standard_normal(50))
        assert log_correlation(np.column_stack([xs, xs])) == pytest.approx(1.0)

    def test_perfect_antidependence(self):
        xs = np.exp(np.random.default_rng(2).standard_normal(50))
        assert log_correlation(np.column_stack([xs, 1.0 / xs])) == pytest.approx(-1.0)

    def test_independent_pairs_near_zero(self):
        rng = np.random.default_rng(11)
        pairs = np.column_stack([np.exp(rng.standard_normal(100_000)), np.exp(rng.standard_normal(100_000))])
        assert abs(log_correlation(pairs)) < 0.01

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            log_correlation([(1.0, 2.0), (1.0, 3.0)])

    def test_fit_bivariate_roundtrip(self):
        params = BivariateLogNormalParams(-0.4, -1.5, 0.5, 0.6, 0.4)
        x, d = bivariate_draws(params, 200_000, seed=21)
        fitted = fit_bivariate_lognormal(np.column_stack([x, d]))
        assert fitted.mu_x == pytest.approx(params.mu_x, abs=0.01)
        assert fitted.sigma_d == pytest.approx(params.sigma_d, abs=0.01)
        assert fitted.rho == pytest.approx(params.rho, abs=0.01)


class TestBivariateDensity:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BivariateLogNormalParams(0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            BivariateLogNormalParams(0.0, 0.0, 1.0, 1.0, 1.0)


def quad_truncated_mean(mu, sigma, a):
    za = (math.log(a) - mu) / sigma
    sq2pi = math.sqrt(2.0 * math.pi)
    num = integrate.quad(lambda z: math.exp(mu + sigma * z - 0.5 * z * z) / sq2pi, za, np.inf, epsabs=0, epsrel=1e-11)[0]
    den = integrate.quad(lambda z: math.exp(-0.5 * z * z) / sq2pi, za, np.inf, epsabs=0, epsrel=1e-11)[0]
    return num / den


class TestTruncatedMean:
    def test_limit_recovers_unconditional_mean(self):
        p = LogNormalParams(0.3, 0.6)
        assert truncated_lognormal_mean(p, 1e-12) == pytest.approx(math.exp(0.3 + 0.18), rel=1e-12)

    def test_reference_point(self):
        value = truncated_lognormal_mean(LogNormalParams(0.0, 1.0), 1.0)
        assert value == pytest.approx(math.exp(0.5) * PHI_1 / 0.5, rel=1e-12)
        assert value == pytest.approx(quad_truncated_mean(0.0, 1.0, 1.0), rel=1e-9)

    def test_against_quadrature_grid(self):
        for mu, sigma in [(0.0, 1.0), (-0.35, 0.5), (0.2, 0.8)]:
            p = LogNormalParams(mu, sigma)
            for a in (0.1, 0.25, 0.382, 0.5, 0.618, 1.0):
                assert truncated_lognormal_mean(p, a) == pytest.approx(
                    quad_truncated_mean(mu, sigma, a), rel=1e-6
                )

    def test_monotone_in_threshold(self):
        p = LogNormalParams(-0.2, 0.7)
        grid = [0.05, 0.1, 0.3, 0.6, 1.0, 2.0, 5.0]
        values = [truncated_lognormal_mean(p, a) for a in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= a for v, a in zip(values, grid))

    def test_deep_tail_raises(self):
        with pytest.raises(ValueError, match="tail too deep"):
            truncated_lognormal_mean(LogNormalParams(0.0, 0.1), 1e9)

    # exp overflows, sigma**2 overflows, and a finite exp times the tail ratio overflows
    @pytest.mark.parametrize("mu, sigma, a", [(1000.0, 1.0, 0.5), (0.0, 40.0, 0.5), (0.0, 1e200, 0.5), (708.9, 0.5, 1.7e308)])
    def test_a_mean_beyond_the_float_range_raises(self, mu, sigma, a):
        with pytest.raises(ValueError, match="overflows$"):
            truncated_lognormal_mean(LogNormalParams(mu, sigma), a)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            truncated_lognormal_mean(LogNormalParams(0.0, 0.0), 0.5)


class TestConditionalCrossMean:
    def test_independence_is_flat(self):
        p = BivariateLogNormalParams(0.0, -1.0, 1.0, 0.5, 0.0)
        expected = math.exp(-1.0 + 0.125)
        for a in (0.01, 0.382, 1.0, 3.0):
            assert conditional_cross_mean(p, a) == pytest.approx(expected, rel=1e-12)

    def test_limit_recovers_unconditional_mean(self):
        p = BivariateLogNormalParams(0.1, -0.8, 0.6, 0.4, 0.5)
        assert conditional_cross_mean(p, 1e-12) == pytest.approx(math.exp(-0.8 + 0.08), rel=1e-9)

    def test_against_monte_carlo(self):
        p = BivariateLogNormalParams(0.0, 0.0, 1.0, 1.0, 0.5)
        x, d = bivariate_draws(p, 1_000_000, seed=17)
        for a in (0.382, 1.0):
            sel = d[x >= a]
            se = sel.std(ddof=1) / math.sqrt(sel.size)
            assert abs(conditional_cross_mean(p, a) - sel.mean()) < 3.0 * se

    @pytest.mark.parametrize("mu_d, sigma_d", [(800.0, 0.15), (0.0, 1e200), (708.9, 0.5)])
    def test_a_mean_beyond_the_float_range_raises(self, mu_d, sigma_d):
        with pytest.raises(ValueError, match="overflows$"):
            conditional_cross_mean(BivariateLogNormalParams(0.0, mu_d, 1.0, sigma_d, 0.9), 1e10)

    def test_positive_rho_raises_conditional_mean(self):
        p = BivariateLogNormalParams(0.0, -1.0, 1.0, 0.5, 0.6)
        flat = math.exp(-1.0 + 0.125)
        assert conditional_cross_mean(p, 2.0) > flat


class TestHistogram:
    def test_two_bins_one_each(self):
        hist = histogram([0.05, 0.15], HistogramSpec(0.0, 0.2, 0.1))
        assert hist.densities.tolist() == [5.0, 5.0]
        assert hist.out_of_range == 0

    def test_all_out_of_range(self):
        hist = histogram([7.0, 9.0], HistogramSpec(0.0, 1.0, 0.5))
        assert hist.counts.tolist() == [0, 0]
        assert hist.out_of_range == 2

    def test_histograms_compare_by_identity(self):
        a, b = (histogram([0.25, 0.75], HistogramSpec(0.0, 1.0, 0.5)) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("samples", [[], [0.25, 0.75]])
    def test_arrays_are_read_only(self, samples):
        hist = histogram(samples, HistogramSpec(0.0, 1.0, 0.5))
        for array in (hist.counts, hist.densities):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_edge_value_goes_to_upper_bin(self):
        hist = histogram([0.1], HistogramSpec(0.0, 0.2, 0.1))
        assert hist.counts.tolist() == [0, 1]

    def test_hi_is_excluded(self):
        hist = histogram([0.2], HistogramSpec(0.0, 0.2, 0.1))
        assert hist.out_of_range == 1

    def test_retracement_spec_bin_count(self):
        assert HistogramSpec(0.0, 5.0, 0.11).n_bins == 46

    @pytest.mark.parametrize("hi, width", [(1e-12, 1.0), (1e-300, 0.11)])
    def test_a_range_below_the_tolerance_keeps_one_bin(self, hi, width):
        # the quotient is under the 1e-9 rounding tolerance, yet [0, hi) is not empty
        spec = HistogramSpec(0.0, hi, width)
        assert spec.n_bins == 1
        assert spec.edges.tolist() == [0.0, width]
        hist = histogram([hi / 2, -hi], spec)
        assert hist.counts.tolist() == [1]
        assert hist.out_of_range == 1

    @given(st.lists(st.floats(min_value=-2.0, max_value=8.0, allow_nan=False), max_size=200))
    @settings(max_examples=examples(40))
    def test_density_mass_equals_in_range_fraction(self, values):
        spec = HistogramSpec(0.0, 5.0, 0.11)
        hist = histogram(values, spec)
        if values:
            in_fraction = (len(values) - hist.out_of_range) / len(values)
            assert float(hist.densities.sum() * spec.bin_width) == pytest.approx(in_fraction, rel=1e-9, abs=1e-12)
        else:
            assert hist.densities.sum() == 0.0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            HistogramSpec(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            HistogramSpec(0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "lo, hi, width",
        [(-1e308, 1e308, 1.0), (0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf), (0.0, 1.0, 5e-324)],
    )
    def test_non_finite_spec_or_bin_count(self, lo, hi, width):
        # the bin count (hi - lo) / width must be finite; the error names all three values
        with pytest.raises(ValueError, match="need finite values") as err:
            histogram([0.5], HistogramSpec(lo, hi, width))
        for value in (lo, hi, width):
            assert repr(value) in str(err.value)


class TestFitReport:
    def test_small_cell_has_no_p_value(self):
        report = fit_lognormal_report([1.1, 0.9, 1.3])
        assert report.n == 3
        assert report.p_value is None and report.ad_stat is None
        assert any("n<8" in f for f in report.flags)

    def test_full_cell_reports_everything(self):
        rng = np.random.default_rng(13)
        report = fit_lognormal_report(np.exp(-0.6 + 0.3 * rng.standard_normal(500)))
        assert report.n == 500
        assert 0.0 <= report.p_value <= 1.0
        assert report.median == pytest.approx(math.exp(report.params.mu))
        assert report.mean == pytest.approx(math.exp(report.params.mu + report.params.sigma**2 / 2.0))
