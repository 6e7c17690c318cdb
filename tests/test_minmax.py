import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import (
    CandleSeries,
    SarSeries,
    ScalingConfig,
    macd_sar,
    run_minmax,
    synth_gbm,
)
import swing_fixtures as fx


def pipeline(series, scaling=1.0):
    return run_minmax(series, macd_sar(series, ScalingConfig(scaling)))


def assert_points(mm, expected, open_candidate):
    assert len(mm.points) == len(expected)
    for point, (kind, price, bar, detection_bar, close) in zip(mm.points, expected):
        assert point.kind == kind
        assert point.price == price
        assert point.bar == bar
        assert point.detection_bar == detection_bar
        assert point.detection_close == close
        assert point.d_abs == abs(price - close)
    if open_candidate is None:
        assert mm.open_candidate is None
    else:
        kind, price, bar = open_candidate
        assert (mm.open_candidate.kind, mm.open_candidate.price, mm.open_candidate.bar) == (kind, price, bar)


class TestFixtures:
    def test_rise_fall_rise_points(self):
        path = fx.rise_fall_rise_path()
        mm = pipeline(CandleSeries.from_closes("fix", path))
        assert_points(mm, fx.RISE_FALL_RISE_POINTS, fx.RISE_FALL_RISE_OPEN)
        # detection bars coincide with independently evaluated SAR sign changes
        flips = fx.reference_flip_bars(path)
        assert [bar for bar, _ in flips] == [p.detection_bar for p in mm.points]

    def test_multi_swing_points(self):
        path = fx.multi_swing_path()
        mm = pipeline(CandleSeries.from_closes("multi", path))
        assert_points(mm, fx.MULTI_SWING_POINTS, fx.MULTI_SWING_OPEN)
        flips = fx.reference_flip_bars(path)
        assert [bar for bar, _ in flips] == [p.detection_bar for p in mm.points]

    def test_mirror_swing_points(self):
        mm = pipeline(CandleSeries.from_closes("mirror", fx.mirror_swing_path()))
        assert_points(mm, fx.MIRROR_SWING_POINTS, fx.MIRROR_SWING_OPEN)

    def test_detection_strictly_after_extremum_here(self):
        mm = pipeline(CandleSeries.from_closes("fix", fx.rise_fall_rise_path()))
        for point in mm.points:
            assert point.detection_bar > point.bar


class TestSarDriven:
    def test_constant_sar_never_fixes(self):
        closes = 100.0 + np.arange(80.0)
        series = CandleSeries.from_closes("ramp", closes)
        sar = macd_sar(series)  # rising ramp: +1 everywhere, no flip
        mm = run_minmax(series, sar)
        assert mm.points == ()
        assert mm.open_candidate is not None
        assert mm.open_candidate.kind == "high"
        assert mm.open_candidate.price == closes[-1]

    def test_misaligned_inputs_rejected(self):
        series = synth_gbm(100.0, 0.0, 0.02, 100, seed=0)
        sar = macd_sar(series)
        with pytest.raises(ValueError, match="does not match"):
            run_minmax(series[:50], sar)

    def test_exception_rule_fixes_on_opposite_break(self):
        # manual SAR: stays up after bar 4 while the price dives under the
        # fixed low at bar 8 -> the high must fix immediately at bar 8
        closes = np.array([100.0, 99.0, 98.0, 97.0, 101.0, 104.0, 103.0, 102.0, 96.0, 95.0, 94.0, 93.0])
        series = CandleSeries.from_closes("dive", closes)
        values = np.array([-1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1], dtype=np.int8)
        mm = run_minmax(series, SarSeries(values, warmup=0))
        assert [(p.kind, p.price, p.bar, p.detection_bar) for p in mm.points[:2]] == [
            ("low", 97.0, 3, 4),
            ("high", 104.0, 5, 8),
        ]
        # the low search continues under a still-up SAR
        assert mm.open_candidate.kind == "low"
        assert mm.open_candidate.price == 93.0

    def test_flip_after_exception_does_not_double_fix(self):
        closes = np.array([100.0, 99.0, 98.0, 97.0, 101.0, 104.0, 103.0, 102.0, 96.0, 95.0, 94.0, 93.0])
        series = CandleSeries.from_closes("dive", closes)
        values = np.array([-1, -1, -1, -1, 1, 1, 1, 1, 1, -1, -1, -1], dtype=np.int8)
        mm = run_minmax(series, SarSeries(values, warmup=0))
        # the flip at bar 9 arrives with the low search already open: no new point
        assert [(p.kind, p.bar) for p in mm.points] == [("low", 3), ("high", 5)]


class TestProperties:
    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=30)
    def test_alternation_and_ordering(self, seed):
        series = synth_gbm(100.0, 0.0, 0.02, 600, seed=seed)
        mm = pipeline(series)
        for i, point in enumerate(mm.points):
            assert point.detection_bar >= point.bar
            assert point.d_abs == abs(point.price - point.detection_close)
            assert point.d_abs >= 0.0
            if i:
                assert point.kind != mm.points[i - 1].kind
                assert point.bar > mm.points[i - 1].bar
                assert point.detection_bar >= mm.points[i - 1].detection_bar

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=40, max_value=590))
    @settings(max_examples=30)
    def test_prefix_replay_preserves_fixed_points(self, seed, cut):
        series = synth_gbm(100.0, 0.0, 0.02, 600, seed=seed)
        full = pipeline(series)
        prefix = pipeline(series[:cut])
        expected = [p for p in full.points if p.detection_bar < cut]
        assert list(prefix.points) == expected

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=20)
    def test_high_is_max_over_search_span(self, seed):
        # each fixed high equals the max candle high on (previous point's bar,
        # detection bar]; mirrored for lows
        series = synth_gbm(100.0, 0.0, 0.02, 600, seed=seed)
        mm = pipeline(series)
        for i, point in enumerate(mm.points):
            start = mm.points[i - 1].bar + 1 if i else 0
            window_high = series.high[start : point.detection_bar + 1]
            window_low = series.low[start : point.detection_bar + 1]
            if point.kind == "high":
                assert point.price == window_high.max()
            else:
                assert point.price == window_low.min()
