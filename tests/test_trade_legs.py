"""Every backtest trade is ``trade_return`` (tests/oracles.py) of its correction leg.

For a tradable correction leg a -> b = a + 1 of ``legs`` (a > 0, positive
size after a positive movement), the correction's extreme is point b's price
at a bar of the touch window, and no bar of the window goes beyond it. So the
entry level is touched exactly when x = size / previous reaches ``entry``, the
target exactly when it reaches ``target``, and a trade that misses the target
exits at b's detection close: ret = x - entry - d with d = d_abs[b] /
previous. The backtest's trade columns must hold those trades, in leg order,
with the same direction, ``reached_target``, ``x`` and ``d`` bit for bit and
``ret`` to rounding.
"""
import numpy as np
from hypothesis import given, strategies as st

from trendlab import (
    ScalingConfig,
    TradeSpec,
    backtest_anticyclic,
    detect_trends,
    macd_sar,
    run_minmax,
    synth_gbm,
    synth_trend_series,
)
from trendlab.trend import DOWN, UP, legs
from oracles import same_bits, trade_return
import swing_fixtures as fx

seeds = st.integers(min_value=0, max_value=10_000)
markets = st.one_of(
    st.builds(lambda seed, vol: synth_gbm(100.0, 0.0, vol, 5000, seed=seed), seeds, st.sampled_from([0.005, 0.02])),
    st.builds(lambda seed: synth_trend_series(swings=100, seed=seed)[0], seeds),
    # integer-grid bars: levels tie with bar extremes exactly
    st.builds(lambda seed: fx.gapped_series(seed, 400), seeds),
)


@given(markets, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([TradeSpec(0.382, 1.0), TradeSpec(0.5, 0.8)]))
def test_trades_are_trade_returns_of_their_legs(series, scaling, spec):
    mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
    down, a, is_correction, size, previous = legs(mm, detect_trends(mm))
    tradable = is_correction & (a > 0) & (size > 0.0) & (previous > 0.0)
    down_rows, expected = [], []
    for is_down, j, correction, movement in zip(*(column[tradable].tolist() for column in (down, a, size, previous))):
        outcome = trade_return(correction / movement, float(mm.d_abs[j + 1]) / movement, spec)
        if outcome is not None:
            down_rows.append(is_down)
            expected.append(outcome)

    trades = backtest_anticyclic(series, scaling, spec, directions=(UP, DOWN)).trades
    assert len(trades) == len(expected)
    assert same_bits(trades.down, np.array(down_rows, dtype=bool))
    for name, dtype in (("reached_target", bool), ("x", np.float64), ("d", np.float64)):
        assert same_bits(getattr(trades, name), np.array([getattr(o, name) for o in expected], dtype=dtype)), name
    assert np.all(np.abs(trades.ret - np.array([o.ret for o in expected], dtype=np.float64)) <= 1e-12)
