import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendlab import (
    BivariateLogNormalParams,
    CandleSeries,
    ScalingConfig,
    TradeSpec,
    backtest_anticyclic,
    conditional_cross_mean,
    detect_trends,
    expected_return,
    macd_sar,
    run_minmax,
    simulate_expected_return,
    truncated_lognormal_mean,
)
from trendlab.trend import DOWN, UP
import swing_fixtures as fx

PARAMS = BivariateLogNormalParams(mu_x=-0.35, mu_d=-1.7, sigma_x=0.5, sigma_d=0.55, rho=0.35)


class TestExpectedReturn:
    def test_far_target_matches_no_target_reduction(self):
        spec = TradeSpec(0.382, 1e6)
        reduced = truncated_lognormal_mean(PARAMS.x, 0.382) - (0.382 + conditional_cross_mean(PARAMS, 0.382))
        assert expected_return(PARAMS, spec) == pytest.approx(reduced, abs=1e-6)

    def test_independent_delay_reduces_to_constant_term(self):
        p = BivariateLogNormalParams(-0.35, -1.7, 0.5, 0.55, 0.0)
        spec = TradeSpec(0.3, 1.0)
        d_mean = math.exp(-1.7 + 0.55**2 / 2.0)
        sf = lambda a: 0.5 * math.erfc(((math.log(a) + 0.35) / 0.5) / math.sqrt(2.0))
        weight = sf(1.0) / sf(0.3)
        manual = (
            truncated_lognormal_mean(p.x, 0.3)
            - (0.3 + d_mean)
            + weight * (1.0 + d_mean - truncated_lognormal_mean(p.x, 1.0))
        )
        assert expected_return(p, spec) == pytest.approx(manual, rel=1e-12)

    def test_agrees_with_monte_carlo(self):
        spec = TradeSpec(0.382, 1.0)
        analytic = expected_return(PARAMS, spec)
        mc_mean, mc_se = simulate_expected_return(PARAMS, spec, n=1_000_000, seed=5)
        assert abs(analytic - mc_mean) < 3.0 * mc_se

    def test_return_capped_by_target_minus_entry(self):
        for entry, target in [(0.2, 0.8), (0.382, 1.0), (0.5, 1.5)]:
            assert expected_return(PARAMS, TradeSpec(entry, target)) <= target - entry


class TestSimulate:
    def test_deterministic_per_seed(self):
        spec = TradeSpec(0.3, 1.0)
        a = simulate_expected_return(PARAMS, spec, n=50_000, seed=9)
        b = simulate_expected_return(PARAMS, spec, n=50_000, seed=9)
        assert a == b

    def test_near_degenerate_limit(self):
        p = BivariateLogNormalParams(math.log(0.6), math.log(0.05), 1e-9, 1e-9, 0.0)
        mean, stderr = simulate_expected_return(p, TradeSpec(0.3, 1.0), n=10_000, seed=1)
        assert mean == pytest.approx(0.6 - 0.3 - 0.05, abs=1e-6)
        assert stderr < 1e-6

    def test_too_few_accepted_draws(self):
        p = BivariateLogNormalParams(-3.0, -1.0, 0.1, 0.1, 0.0)
        with pytest.raises(ValueError, match="reach the entry"):
            simulate_expected_return(p, TradeSpec(0.9, 1.0), n=10_000, seed=1)

    def test_minimum_draw_count(self):
        with pytest.raises(ValueError):
            simulate_expected_return(PARAMS, TradeSpec(0.3, 1.0), n=5_000, seed=1)

    def test_peak_memory_per_draw(self):
        # numpy reports its buffers to tracemalloc. The Monte Carlo holds one
        # n-long buffer, ~9 bytes per draw with the block temporaries; a
        # second n-long array (a separate returns buffer, or the ``ret - mean``
        # temporary of ``ret.std``) makes it ~16, the one-shot formula over
        # full-length arrays ~50
        n = 1_000_000
        tracemalloc.start()
        try:
            simulate_expected_return(PARAMS, TradeSpec(0.382, 1.0), n=n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n


class TestBacktest:
    def test_shelf_fixture_partial_exit(self):
        series = CandleSeries.from_closes("shelf", fx.shelf_path())
        trades = backtest_anticyclic(series, 1.0, TradeSpec(0.3, 1.0)).trades
        assert len(trades) == 2
        # correction 120 -> 112 (x = 0.4): exits at the detected end, close 120
        assert trades.x[0] == 0.4
        assert trades.ret[0] == ((120.0 - 0.3 * 20.0) - 120.0) / 20.0  # -0.3
        assert not trades.reached_target[0]
        # correction 134 -> 123 (x = 0.5), detected at close 125.2: ret = 0.1
        assert trades.x[1] == 0.5
        assert trades.ret[1] == ((134.0 - 0.3 * 22.0) - 125.2) / 22.0
        assert trades.ret[1] == pytest.approx(0.1, abs=1e-12)
        assert trades.d[1] == pytest.approx(0.1, abs=1e-12)
        assert trades.entry_bar[1] == 86 and trades.exit_bar[1] == 111

    def test_multi_swing_fixture_trades(self):
        series = CandleSeries.from_closes("multi", fx.multi_swing_path())
        trades = backtest_anticyclic(series, 1.0, TradeSpec(0.3, 1.0)).trades
        assert trades.x.tolist() == [
            (120.0 - 112.0) / 20.0,
            (134.0 - 122.0) / 22.0,
            (146.0 - 116.0) / 24.0,
        ]
        assert trades.ret[0] == ((120.0 - 0.3 * 20.0) - 120.0) / 20.0
        assert trades.ret[1] == ((134.0 - 0.3 * 22.0) - 130.0) / 22.0
        # the trend-breaking correction runs through the target: ret = t - a
        assert trades.reached_target[2]
        assert trades.ret[2] == pytest.approx(0.7)

    def test_lemma_identity_on_non_target_trades(self):
        series = CandleSeries.from_closes("multi", fx.multi_swing_path())
        trades = backtest_anticyclic(series, 1.0, TradeSpec(0.3, 1.0)).trades
        partial = ~trades.reached_target
        assert partial.any()
        assert trades.ret[partial] == pytest.approx(trades.x[partial] - 0.3 - trades.d[partial], abs=1e-12)

    def test_entry_filter(self):
        series = CandleSeries.from_closes("shelf", fx.shelf_path())
        result = backtest_anticyclic(series, 1.0, TradeSpec(0.45, 1.0))
        # only the x = 0.5 correction reaches the 0.45 level
        assert result.trades.x.tolist() == [0.5]

    def test_down_trends_need_flag(self):
        series = CandleSeries.from_closes("mirror", fx.mirror_swing_path())
        assert len(backtest_anticyclic(series, 1.0, TradeSpec(0.3, 1.0)).trades) == 0
        trades = backtest_anticyclic(series, 1.0, TradeSpec(0.3, 1.0), directions=(UP, DOWN)).trades
        assert trades.down.tolist() == [True, True]
        # mirrored exits: ret = x - a - d off the detection close
        assert trades.ret[0] == (170.0 - (166.0 + 0.3 * 22.0)) / 22.0
        assert trades.reached_target[1] and trades.ret[1] == pytest.approx(0.7)

    @pytest.mark.parametrize("up", [True, False], ids=["up", "mirror"])
    def test_correction_at_point_zero_is_not_tallied(self, up):
        # rise to 140, a flat shelf fixes the high 140 at point 0, and a gap
        # up breaks it: the low fixed at once is the shelf's 140, so the first
        # phase starts with a correction of size 0 that has no movement before it
        closes = np.concatenate([100.0 + np.arange(41.0), np.full(20, 140.0), 141.0 + np.arange(20.0),
                                 160.0 - np.arange(1.0, 11.0), 150.0 + np.arange(1.0, 21.0)])
        series = CandleSeries.from_closes("gap", closes if up else 300.0 - closes)
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        assert list(detect_trends(mm))[0].start_point_index == 0
        assert bool(mm.high[0]) == up and mm.price[0] == mm.price[1]
        for directions in ((UP,), (DOWN,), (UP, DOWN)):
            result = backtest_anticyclic(series, 1.0, TradeSpec(0.382, 1.0), directions=directions)
            assert result.degenerate == 0
            # only the 160 -> 150 correction after the 140 -> 160 movement trades
            expected = [(0.5, 88, 98)] if (UP if up else DOWN) in directions else []
            trades = result.trades
            assert list(zip(trades.x.tolist(), trades.entry_bar.tolist(), trades.exit_bar.tolist())) == expected

    @pytest.mark.parametrize("up", [True, False], ids=["up", "mirror"])
    def test_open_phase_ending_in_a_correction_is_not_truncated(self, up):
        # the multi-swing rise to 134, a shelf there, ten bars one ulp lower,
        # then a rise: the up phase stays open and its last leg is the
        # correction 134 -> 134 - ulp into the final point k, whose later bars
        # touch price[k] without breaking it. The leg open after k is a
        # movement, so nothing is truncated; read as one, the last leg would
        # put an entry level at price[k] itself (0.382 ulp below rounds to
        # it), which those bars reach
        top = 134.0 if up else 300.0 - 134.0
        last = np.nextafter(top, 0.0 if up else np.inf)
        path = fx.multi_swing_path()[:80]
        rise = last + (1.0 if up else -1.0) * np.arange(1.0, 21.0)
        closes = np.concatenate([path if up else 300.0 - path, np.full(10, top), np.full(10, last), rise])
        series = CandleSeries.from_closes("ulp", closes)
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        [phase] = detect_trends(mm)
        assert (phase.violation_point_index, phase.end_point_index) == (None, len(mm) - 1)
        assert (mm.price[-2], mm.price[-1]) == (top, last) and last in closes[mm.bar[-1] + 1 :]
        assert last - (1.0 if up else -1.0) * 0.382 * abs(top - last) == last
        for directions in ((UP,), (DOWN,), (UP, DOWN)):
            result = backtest_anticyclic(series, 1.0, TradeSpec(0.382, 1.0), directions=directions)
            assert (result.degenerate, result.truncated) == (0, 0)
            # the 120 -> 112 correction trades; the mirror's first correction starts at point 0
            expected = [(0.4, 57, 65)] if up and UP in directions else []
            trades = result.trades
            assert list(zip(trades.x.tolist(), trades.entry_bar.tolist(), trades.exit_bar.tolist())) == expected

    def test_backtest_tracks_lemma_on_fitted_law(self):
        # soft closure check: mean backtest return stays near the analytic
        # expectation computed from the joint law fitted to the same series
        from trendlab import (
            ScalingConfig,
            detect_trends,
            extract_samples,
            fit_bivariate_lognormal,
            macd_sar,
            run_minmax,
            synth_trend_series,
        )

        spec = TradeSpec(0.3, 1.0)
        rets, pairs = [], []
        for seed in range(8):
            series, _ = synth_trend_series(swings=80, seed=seed)
            rets.extend(backtest_anticyclic(series, 1.0, spec).trades.ret.tolist())
            mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
            batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
            pairs.extend(batch.linked_pairs("retracement", "delay_x", "up"))
        assert len(rets) > 300
        predicted = expected_return(fit_bivariate_lognormal(np.array(pairs)), spec)
        stderr = float(np.std(rets, ddof=1) / np.sqrt(len(rets)))
        assert abs(float(np.mean(rets)) - predicted) < max(5.0 * stderr, 0.02)
