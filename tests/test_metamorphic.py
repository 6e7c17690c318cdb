"""Multiplying every price by 2**k changes nothing but the prices.

Every definition of the pipeline is relative: the SAR compares two lines
built from the closes, MinMax and the trend rules compare prices, and every
trend variable and trade return is a ratio of price differences. Scaling by a
power of two is exact in floating point while no value leaves the normal
range, so the whole pipeline must be equivariant bit for bit: the SAR runs,
the MinMax bars, the phases, the sample values and the trades are equal, and
the MinMax prices are exactly 2**k times the original ones.

k is drawn so that every close stays within [2**-500, 2**500]. Below that,
line - signal differences can turn subnormal; at 2**1000 and above, the
certified SAR holds no bar to the blocked sign (indicators._tie_bound), and
the blocked EMAs may overflow where the scalar loop does not. The relation
also holds for the certification itself: its bound scales with the prices,
so a wrong bound shows here as a bar decided the other way.
"""
import math

import numpy as np
from hypothesis import given, strategies as st

from trendlab import (
    CandleSeries,
    ScalingConfig,
    TradeSpec,
    backtest_anticyclic,
    detect_trends,
    extract_samples,
    macd_sar,
    run_minmax,
    synth_gbm,
    synth_trend_series,
)
from trendlab.trend import DOWN, UP
from oracles import same_bits
import swing_fixtures as fx

seeds = st.integers(min_value=0, max_value=10_000)
markets = st.one_of(
    st.builds(lambda seed, vol: synth_gbm(100.0, 0.0, vol, 3000, seed=seed), seeds, st.sampled_from([0.005, 0.02])),
    st.builds(lambda seed: synth_trend_series(swings=60, seed=seed)[0], seeds),
    # integer-grid bars: equal extrema and exact level ties
    st.builds(lambda seed: fx.gapped_series(seed, 400), seeds),
)
# signal period 1 (every bar a tie), the workloads' range, and long periods
scalings = st.one_of(st.sampled_from([1 / 9, 0.5, 1.0, 2.7, 10.0]), st.floats(min_value=1 / 9, max_value=10.0))


def scaled(series: CandleSeries, k: int) -> CandleSeries:
    return CandleSeries(
        series.symbol,
        series.timestamps,
        *(np.ldexp(column, k) for column in (series.open, series.high, series.low, series.close)),
    )


def power_range(series: CandleSeries) -> tuple[int, int]:
    """The k for which every close * 2**k lies within [2**-500, 2**500]."""
    lowest = math.frexp(float(series.close.min()))[1]
    highest = math.frexp(float(series.close.max()))[1]
    # x = m * 2**e with 0.5 <= m < 1, so 2**(e - 1) <= x < 2**e
    return -499 - lowest, 500 - highest


@given(markets, scalings, st.data())
def test_prices_times_a_power_of_two(series, scaling, data):
    lo, hi = power_range(series)
    k = data.draw(st.one_of(st.integers(min_value=lo, max_value=hi), st.sampled_from([lo, hi, -1, 1])), label="k")
    other = scaled(series, k)
    cfg = ScalingConfig(scaling)

    sar, other_sar = macd_sar(series, cfg), macd_sar(other, cfg)
    assert (sar.n, sar.warmup, sar.first_up) == (other_sar.n, other_sar.warmup, other_sar.first_up)
    assert same_bits(sar.heads, other_sar.heads)

    mm, other_mm = run_minmax(series, sar), run_minmax(other, other_sar)
    for column in ("high", "bar", "detection_bar"):
        assert same_bits(getattr(mm, column), getattr(other_mm, column)), column
    for column in ("price", "detection_close", "d_abs"):
        assert same_bits(np.ldexp(getattr(mm, column), k), getattr(other_mm, column)), column

    phases, other_phases = detect_trends(mm), detect_trends(other_mm)
    for column in vars(phases):
        assert same_bits(getattr(phases, column), getattr(other_phases, column)), column

    samples = extract_samples(mm, phases, series, scaling=scaling)
    other_samples = extract_samples(other_mm, phases, other, scaling=scaling)
    for column in ("event", "variable", "direction", "value"):
        assert same_bits(getattr(samples, column), getattr(other_samples, column)), column
    assert (samples.degenerate, samples.zero_delay) == (other_samples.degenerate, other_samples.zero_delay)

    spec = TradeSpec(0.382, 1.0)
    result = backtest_anticyclic(series, scaling, spec, directions=(UP, DOWN))
    other_result = backtest_anticyclic(other, scaling, spec, directions=(UP, DOWN))
    for column in vars(result.trades):
        assert same_bits(getattr(result.trades, column), getattr(other_result.trades, column)), column
    assert (result.degenerate, result.truncated) == (other_result.degenerate, other_result.truncated)
