"""backtest_anticyclic against a naive reference written from trading.py's docstring.

The reference reads the swing points as ExtremumPoint rows and derives every
leg from them directly: a correction runs from a phase point a to the next
point b after the movement o -> a, the trade enters at a - entry * movement
(mirrored in a down-trend) and exits at a - target * movement or at the close
of the bar detecting b. It shares only detection (MACD SAR, MinMax, phases)
with the code under test.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from trendlab import (
    CandleSeries,
    ScalingConfig,
    TradeSpec,
    backtest_anticyclic,
    detect_trends,
    macd_sar,
    run_minmax,
    synth_gbm,
)
from trendlab.minmax import HIGH
from trendlab.trend import DOWN, UP
from hypothesis_counts import examples
from oracles import TradeOutcome, same_bits, trade_columns
import swing_fixtures as fx

DIRECTION_SETS = [(UP,), (DOWN,), (UP, DOWN)]


def reference_backtest(series, scaling, spec, directions):
    """(trades, degenerate, truncated), one correction at a time from mm.points."""
    mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
    phases = list(detect_trends(mm))
    pts = mm.points
    lows, highs = series.low.tolist(), series.high.tolist()

    def first_touch(start, stop, level, up):
        for i in range(start, stop + 1):
            if (lows[i] <= level) if up else (highs[i] >= level):
                return i
        return None

    trades, degenerate, truncated = [], 0, 0
    for ph in phases:
        if ph.direction not in directions:
            continue
        up = ph.direction == UP
        last = ph.violation_point_index if ph.violation_point_index is not None else ph.end_point_index
        for j in range(ph.start_point_index, last):
            a, b = pts[j], pts[j + 1]
            # a correction starts at a high in an up-trend, at a low in a down-trend
            if (a.kind == HIGH) != up:
                continue
            if j == 0:
                # no movement before the first point: no entry level, no tally
                continue
            o = pts[j - 1]
            movement = a.price - o.price if up else o.price - a.price
            correction = a.price - b.price if up else b.price - a.price
            if movement <= 0.0 or correction <= 0.0:
                degenerate += 1
                continue
            if up:
                entry, target = a.price - spec.entry * movement, a.price - spec.target * movement
            else:
                entry, target = a.price + spec.entry * movement, a.price + spec.target * movement
            entry_bar = first_touch(a.bar + 1, b.bar, entry, up)
            if entry_bar is None:
                continue
            x, d = correction / movement, b.d_abs / movement
            target_bar = first_touch(entry_bar, b.bar, target, up)
            if target_bar is not None:
                trades.append(TradeOutcome(spec.target - spec.entry, True, x, d, ph.direction, entry_bar, target_bar))
            else:
                ret = (entry - b.detection_close) / movement if up else (b.detection_close - entry) / movement
                trades.append(TradeOutcome(ret, False, x, d, ph.direction, entry_bar, b.detection_bar))

    # the final phase is still open and its last point k starts a correction
    # that has not ended: count it when the entry level was already hit
    if phases and mm.open_candidate is not None:
        ph = phases[-1]
        up = ph.direction == UP
        k = ph.end_point_index
        if ph.direction in directions and ph.violation_point_index is None and k == len(pts) - 1 and k >= 1:
            a, o = pts[k], pts[k - 1]
            if (a.kind == HIGH) == up:
                movement = a.price - o.price if up else o.price - a.price
                if movement > 0.0:
                    entry = a.price - spec.entry * movement if up else a.price + spec.entry * movement
                    if first_touch(a.bar + 1, len(series) - 1, entry, up) is not None:
                        truncated += 1
    return trades, degenerate, truncated


def assert_matches_reference(series, scaling, spec, directions):
    result = backtest_anticyclic(series, scaling, spec, directions=directions)
    trades, degenerate, truncated = reference_backtest(series, scaling, spec, directions)
    expected = trade_columns(trades)
    for name in vars(expected):
        assert same_bits(getattr(result.trades, name), getattr(expected, name)), name
    assert (result.degenerate, result.truncated) == (degenerate, truncated)
    return result


specs = st.sampled_from([TradeSpec(0.382, 1.0), TradeSpec(0.5, 1.0), TradeSpec(0.2, 0.618)])
direction_sets = st.sampled_from(DIRECTION_SETS)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1 / 9, max_value=3.0),
    st.sampled_from([0.005, 0.02, 0.05]),
    specs,
    direction_sets,
)
@settings(max_examples=examples(60), deadline=None)
def test_gbm_matches_reference(seed, scaling, vol, spec, directions):
    assert_matches_reference(synth_gbm(100.0, 0.0, vol, 800, seed=seed), scaling, spec, directions)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([1 / 9, 0.2, 0.5, 1.0]),
    specs,
    direction_sets,
)
@settings(max_examples=examples(80), deadline=None)
def test_gapped_path_matches_reference(seed, scaling, spec, directions):
    assert_matches_reference(fx.gapped_series(seed, 400), scaling, spec, directions)


def test_gapped_cases_reach_every_rule():
    """Fixed cases that hold what a random draw may miss: corrections at the
    first point, degenerate corrections and truncated open corrections."""
    spec = TradeSpec(0.382, 1.0)
    seen = {"trades": 0, "degenerate": 0, "truncated": 0, "first_point_correction": 0}
    for seed in range(40):
        series = fx.gapped_series(seed, 400)
        for scaling in (1 / 9, 0.5):
            for directions in DIRECTION_SETS:
                result = assert_matches_reference(series, scaling, spec, directions)
                seen["trades"] += len(result.trades)
                seen["degenerate"] += result.degenerate
                seen["truncated"] += result.truncated
            mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
            phases = list(detect_trends(mm))
            if phases and phases[0].start_point_index == 0:
                seen["first_point_correction"] += bool(mm.high[0]) == (phases[0].direction == UP)
    assert all(seen.values()), seen


def open_correction_after_degenerate_movement():
    """The multi-swing up-trend up to its 145 bar, then four gapped bars.

    An outside bar fixes the high 150 at once (its low breaks the 122 low);
    the next bar gaps up and fixes the low 155 (its high breaks 150); the
    next gaps down and fixes the high 152 (its low breaks 155). The up-trend
    stays open, its last movement 155 -> 152 is degenerate, and the last bar
    reaches the entry level of the correction open from 152.
    """
    closes = fx.multi_swing_path()[:115]
    # (open, high, low, close)
    bars = [(121.0, 150.0, 120.0, 121.0), (155.5, 156.0, 155.0, 155.5), (151.5, 152.0, 151.0, 151.5), (151.8, 152.0, 151.5, 151.8)]
    o, h, l, c = (np.concatenate([closes, column]) for column in zip(*bars))
    return CandleSeries("gap", tuple(range(len(c))), o, h, l, c)


def test_open_correction_after_degenerate_movement_is_not_truncated():
    up = open_correction_after_degenerate_movement()
    down = CandleSeries("mirror", up.timestamps, 300.0 - up.open, 300.0 - up.low, 300.0 - up.high, 300.0 - up.close)
    spec = TradeSpec(0.382, 1.0)
    for series, direction in ((up, UP), (down, DOWN)):
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        [phase] = detect_trends(mm)
        assert (phase.direction, phase.violation_point_index, phase.end_point_index) == (direction, None, len(mm) - 1)
        assert mm.open_candidate is not None
        for directions in DIRECTION_SETS:
            result = assert_matches_reference(series, 1.0, spec, directions)
            # the 150 -> 155 correction (150 -> 145 mirrored) is degenerate and
            # the open one has no entry level; the mirror's first point is the
            # 180 low at bar 49, a correction at point 0, skipped untallied
            assert (result.degenerate, result.truncated) == ((1, 0) if direction in directions else (0, 0))
