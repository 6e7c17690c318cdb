"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is calibrated at
run time.
"""
import math
import time

import numpy as np
import pytest
from scipy import integrate

from trendlab import (
    BivariateLogNormalParams,
    CandleSeries,
    LogNormalParams,
    ScalingConfig,
    TradeSpec,
    anderson_darling_lognormal,
    conditional_cross_mean,
    detect_trends,
    expected_return,
    extract_samples,
    lognormal_mle,
    log_correlation,
    macd_sar,
    period_gaps,
    run_minmax,
    simulate_expected_return,
    synth_gbm,
    synth_trend_series,
    truncated_lognormal_mean,
)
from trendlab.cli import DEFAULT_HISTOGRAMS, DEFAULT_SWEEP, parse_scaling_range
import swing_fixtures as fx


def report(criterion, description, elapsed=None, limit=None):
    timing = f" [{elapsed:.1f}s <= {limit}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: PASS - {description}{timing}")


def pipeline(series, scaling=1.0):
    return run_minmax(series, macd_sar(series, ScalingConfig(scaling)))


def test_criterion_1_minmax_alternation_and_causality():
    """1000 seeded GBM series, 2000 bars, scaling 1: alternation + prefix replay."""
    t0 = time.time()
    rng = np.random.default_rng(20_240_101)
    for seed in range(1000):
        series = synth_gbm(100.0, 0.0002, 0.02, 2000, seed=seed)
        full = pipeline(series)
        points = full.points
        for i in range(1, len(points)):
            assert points[i].kind != points[i - 1].kind, f"alternation broken (seed {seed})"
            assert points[i].bar > points[i - 1].bar
        for cut in rng.integers(30, 2000, size=10):
            cut = int(cut)
            prefix = pipeline(series[:cut])
            expected = [p for p in points if p.detection_bar < cut]
            assert list(prefix.points) == expected, f"prefix replay diverged (seed {seed}, cut {cut})"
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    report(1, "minmax alternation and prefix causality over 1000 GBM series", elapsed, 60)


def test_criterion_2_fixture_fidelity():
    """Hand-derived fixtures reproduce extrema, phases, and samples exactly."""
    # rise-fall-rise: extrema with detection delays
    mm = pipeline(CandleSeries.from_closes("fix", fx.rise_fall_rise_path()))
    assert [(p.kind, p.price, p.bar, p.detection_bar, p.detection_close) for p in mm.points] == list(
        fx.RISE_FALL_RISE_POINTS
    )
    for point in mm.points:
        assert point.d_abs == abs(point.price - point.detection_close)

    # multi-swing up-trend: points, phase, every sample variable, mean period
    series = CandleSeries.from_closes("multi", fx.multi_swing_path())
    mm = pipeline(series)
    assert [(p.kind, p.price, p.bar, p.detection_bar, p.detection_close) for p in mm.points] == list(
        fx.MULTI_SWING_POINTS
    )
    phases = detect_trends(mm)
    assert len(phases) == 1
    for key, value in fx.MULTI_SWING_PHASE.items():
        assert getattr(phases[0], key) == value, key
    batch = extract_samples(mm, phases, series, scaling=1.0)
    for variable, expected in fx.MULTI_SWING_SAMPLES.items():
        assert batch.values(variable, "up").tolist() == expected, variable
    assert np.mean(period_gaps(mm, phases)) == fx.MULTI_SWING_MEAN_PERIOD

    # mirrored down-trend
    series = CandleSeries.from_closes("mirror", fx.mirror_swing_path())
    mm = pipeline(series)
    assert [(p.kind, p.price, p.bar, p.detection_bar, p.detection_close) for p in mm.points] == list(
        fx.MIRROR_SWING_POINTS
    )
    phases = detect_trends(mm)
    for key, value in fx.MIRROR_SWING_PHASE.items():
        assert getattr(phases[0], key) == value, key
    batch = extract_samples(mm, phases, series, scaling=1.0)
    for variable, expected in fx.MIRROR_SWING_SAMPLES.items():
        assert batch.values(variable, "down").tolist() == expected, variable

    # detection bars match an independent evaluation of the EMA recurrences
    for path in (fx.rise_fall_rise_path(), fx.multi_swing_path(), fx.mirror_swing_path()):
        mm = pipeline(CandleSeries.from_closes("oracle", path))
        assert [b for b, _ in fx.reference_flip_bars(path)] == [p.detection_bar for p in mm.points]
    report(2, "fixture extrema, phases, and sample values exact (zero tolerance)")


def test_criterion_3_estimator_recovery():
    """MLE and log-correlation recover planted parameters within +/- 0.01 at n = 1e5."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    draws = np.exp(0.5 + 0.3 * rng.standard_normal(100_000))
    params = lognormal_mle(draws)
    assert abs(params.mu - 0.5) <= 0.01
    assert abs(params.sigma - 0.3) <= 0.01
    for rho in (-0.5, 0.0, 0.5):
        r = np.random.default_rng(202)
        z1 = r.standard_normal(100_000)
        z2 = r.standard_normal(100_000)
        zd = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
        pairs = np.column_stack([np.exp(0.2 + 0.4 * z1), np.exp(-1.0 + 0.7 * zd)])
        assert abs(log_correlation(pairs) - rho) <= 0.01, rho
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    report(3, "MLE (mu, sigma) and log-correlation within 0.01 at n = 1e5", elapsed, 5)


def test_criterion_4_ad_calibration_and_power():
    """Null rejection rate in [0.02, 0.09] over 500 seeded datasets; power at n = 1e4."""
    t0 = time.time()
    rejections = 0
    for k in range(500):
        rng = np.random.default_rng(1000 + k)
        data = np.exp(-0.5 + 0.3 * rng.standard_normal(200))
        _, p = anderson_darling_lognormal(data)
        rejections += p < 0.05
    rate = rejections / 500.0
    assert 0.02 <= rate <= 0.09, rate
    rng = np.random.default_rng(3)
    _, p_power = anderson_darling_lognormal(np.exp(rng.uniform(0.0, 1.0, 10_000)))
    assert p_power < 0.01
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    report(4, f"AD null rejection rate {rate:.3f} in [0.02, 0.09]; exp(uniform) rejected", elapsed, 30)


MOMENT_GRID = (0.1, 0.25, 0.382, 0.5, 0.618, 1.0)
UNIVARIATE_SETS = ((0.0, 1.0), (-0.35, 0.5), (0.2, 0.8))
BIVARIATE_SETS = (
    (-0.35, -1.7, 0.5, 0.55, 0.35),
    (0.0, 0.3, 1.0, 0.8, -0.4),
    (0.2, -0.5, 0.6, 0.4, 0.0),
)


def test_criterion_5_moment_formulas_vs_oracles():
    """Closed-form truncated/conditional moments vs quadrature and Monte Carlo."""
    t0 = time.time()
    sq2pi = math.sqrt(2.0 * math.pi)
    for mu, sigma in UNIVARIATE_SETS:
        params = LogNormalParams(mu, sigma)
        for a in MOMENT_GRID:
            za = (math.log(a) - mu) / sigma
            num = integrate.quad(
                lambda z: math.exp(mu + sigma * z - 0.5 * z * z) / sq2pi, za, np.inf, epsabs=0, epsrel=1e-11
            )[0]
            den = integrate.quad(lambda z: math.exp(-0.5 * z * z) / sq2pi, za, np.inf, epsabs=0, epsrel=1e-11)[0]
            oracle = num / den
            value = truncated_lognormal_mean(params, a)
            assert abs(value - oracle) / oracle <= 1e-6, (mu, sigma, a)
    for mu_x, mu_d, s_x, s_d, rho in BIVARIATE_SETS:
        params = BivariateLogNormalParams(mu_x, mu_d, s_x, s_d, rho)
        rng = np.random.default_rng(7)
        z1 = rng.standard_normal(1_000_000)
        z2 = rng.standard_normal(1_000_000)
        x = np.exp(mu_x + s_x * z1)
        d = np.exp(mu_d + s_d * (rho * z1 + math.sqrt(1.0 - rho * rho) * z2))
        for a in MOMENT_GRID:
            sel = d[x >= a]
            se = sel.std(ddof=1) / math.sqrt(sel.size)
            assert abs(conditional_cross_mean(params, a) - sel.mean()) <= 3.0 * se, (rho, a)
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    report(5, "truncated mean vs quadrature (rel 1e-6); cross mean vs 1e6-draw MC (3 SE)", elapsed, 60)


def test_criterion_6_lemma_consistency():
    """Analytic expected return vs Monte Carlo on the (entry, target) grid."""
    t0 = time.time()
    params = BivariateLogNormalParams(-0.35, -1.7, 0.5, 0.55, 0.35)
    for entry in (0.2, 0.382, 0.5):
        for target in (0.8, 1.0, 1.5):
            spec = TradeSpec(entry, target)
            analytic = expected_return(params, spec)
            mc_mean, mc_se = simulate_expected_return(params, spec, n=1_000_000, seed=11)
            assert abs(analytic - mc_mean) <= 3.0 * mc_se, (entry, target)
    reduced = truncated_lognormal_mean(params.x, 0.382) - (0.382 + conditional_cross_mean(params, 0.382))
    assert abs(expected_return(params, TradeSpec(0.382, 1e6)) - reduced) <= 1e-6
    elapsed = time.time() - t0
    report(6, "expected_return within 3 SE of MC on 9 (entry, target) pairs; t->inf reduction", elapsed, 60)


def test_criterion_7_published_defaults():
    """Histogram, MACD scaling, and sweep defaults match their published anchors."""
    spec = DEFAULT_HISTOGRAMS["retracement"]
    assert (spec.lo, spec.hi, spec.bin_width) == (0.0, 5.0, 0.11)
    cfg = ScalingConfig(2.0)
    assert (cfg.fast, cfg.slow, cfg.signal) == (24.0, 52.0, 18.0)
    cfg1 = ScalingConfig(1.0)
    assert (cfg1.fast, cfg1.slow, cfg1.signal) == (12.0, 26.0, 9.0)
    assert len(parse_scaling_range(DEFAULT_SWEEP)) == 46
    report(7, "defaults: retracement histogram 0-5/0.11, scaling 2 -> (24/52/18), sweep 46 cells")


def test_criterion_8_end_to_end_synthetic_closure():
    """Planted log-normal corrections recovered through detect -> stats."""
    t0 = time.time()
    planted_mu, planted_sigma = math.log(0.55), 0.30
    measured = []
    planted_count = 0
    for rep in range(50):
        series, planted = synth_trend_series(
            swings=120, retracement_mu=planted_mu, retracement_sigma=planted_sigma, seed=rep
        )
        planted_count += len(planted)
        mm = pipeline(series)
        batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
        measured.append(batch.values("retracement", direction="up"))
    values = np.concatenate(measured)
    fitted = lognormal_mle(values)
    se = planted_sigma / math.sqrt(values.size)
    bias = fitted.mu - planted_mu
    assert abs(bias) <= 3.0 * se, f"bias {bias:+.5f} exceeds 3 SE ({3 * se:.5f})"
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    report(
        8,
        f"pipeline recovered mu: bias {bias:+.5f} within 3 SE ({3 * se:.5f}); "
        f"captured {values.size}/{planted_count} planted corrections",
        elapsed,
        120,
    )
