"""MinMaxProcess columns: a naive reference sweep, the invariant checks, read-only storage."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import (
    CandleSeries,
    MinMaxProcess,
    OpenCandidate,
    SarSeries,
    ScalingConfig,
    macd_sar,
    run_minmax,
    synth_gbm,
)
from trendlab.indicators import SAR_DOWN, SAR_UP
from trendlab.minmax import COLUMNS


def naive_minmax(series, sar):
    """The MinMax process straight from its definition, one bar at a time.

    The search for a high (low) spans the bars after the last fixed point
    through the current bar; its candidate is the first bar holding the
    highest high (lowest low) of that span. The candidate is fixed at bar i
    when the SAR flips there away from the searched phase, or when bar i
    breaks the last fixed (opposite) point. Returns the fixed points as
    (high, price, bar, detection_bar, detection_close, d_abs) tuples and the
    open candidate as (kind, price, bar) or None.
    """
    highs, lows, closes = series.high.tolist(), series.low.tolist(), series.close.tolist()
    s = sar.values.tolist()
    n, w = len(series), sar.warmup
    if w >= n:
        return [], None
    searching_high = s[w] == SAR_UP
    start = 0
    points = []
    for i in range(w + 1, n):
        flip_ends_search = s[i] != s[i - 1] and s[i] == (SAR_DOWN if searching_high else SAR_UP)
        breaks_last = bool(points) and (lows[i] < points[-1][1] if searching_high else highs[i] > points[-1][1])
        if flip_ends_search or breaks_last:
            span = highs[start : i + 1] if searching_high else lows[start : i + 1]
            price = max(span) if searching_high else min(span)
            bar = start + span.index(price)
            points.append((searching_high, price, bar, i, closes[i], abs(price - closes[i])))
            searching_high = not searching_high
            start = bar + 1
    if start >= n:
        return points, None
    span = highs[start:] if searching_high else lows[start:]
    price = max(span) if searching_high else min(span)
    return points, ("high" if searching_high else "low", price, start + span.index(price))


def columns_of(mm):
    return list(zip(*(getattr(mm, name).tolist() for name, _ in COLUMNS)))


def assert_matches_naive(series, sar):
    mm = run_minmax(series, sar)
    points, open_candidate = naive_minmax(series, sar)
    assert columns_of(mm) == points
    if open_candidate is None:
        assert mm.open_candidate is None
    else:
        assert (mm.open_candidate.kind, mm.open_candidate.price, mm.open_candidate.bar) == open_candidate
    return mm


# closes on an integer grid with flat stretches: equal highs and lows are common
tied_closes = st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0]), min_size=1, max_size=160).map(
    lambda steps: 50.0 + np.cumsum(steps)
)


@st.composite
def tied_market(draw):
    """Degenerate bars with many ties plus an arbitrary SAR after a warm-up."""
    closes = draw(tied_closes)
    n = len(closes)
    warmup = draw(st.integers(min_value=0, max_value=n))
    signs = draw(st.lists(st.sampled_from([SAR_DOWN, SAR_UP]), min_size=n - warmup, max_size=n - warmup))
    sar = SarSeries(np.array([0] * warmup + signs, dtype=np.int8), warmup=warmup)
    return CandleSeries.from_closes("tied", closes), sar


class TestNaiveOracle:
    @given(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=1 / 9, max_value=3.0),
        st.sampled_from([0.005, 0.02, 0.05]),
    )
    @settings(max_examples=40)
    def test_gbm(self, seed, scaling, vol):
        series = synth_gbm(100.0, 0.0, vol, 500, seed=seed)
        assert_matches_naive(series, macd_sar(series, ScalingConfig(scaling)))

    @given(tied_market())
    @settings(max_examples=150)
    def test_ties_and_flat_stretches(self, market):
        assert_matches_naive(*market)

    def test_first_equal_extreme_wins(self):
        # highs 7 at bars 2 and 4, lows 3 at bars 6 and 8: the earlier bar is the extremum
        closes = np.array([5.0, 6.0, 7.0, 6.0, 7.0, 4.0, 3.0, 4.0, 3.0, 5.0, 8.0])
        sar = SarSeries(np.array([1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1], dtype=np.int8), warmup=0)
        mm = assert_matches_naive(CandleSeries.from_closes("ties", closes), sar)
        assert mm.bar.tolist() == [2, 6]

    @given(tied_market(), st.data())
    @settings(max_examples=100)
    def test_prefix_replay(self, market, data):
        series, sar = market
        cut = data.draw(st.integers(min_value=0, max_value=len(series)))
        full = run_minmax(series, sar)
        prefix = run_minmax(series[:cut], SarSeries(sar.values[:cut], warmup=min(sar.warmup, cut)))
        assert columns_of(prefix) == [row for row in columns_of(full) if row[3] < cut]


# a valid process: low 100 @0, high 110 @3, low 104 @6, high 115 @9, low 108 @12
VALID = {
    "high": [False, True, False, True, False],
    "price": [100.0, 110.0, 104.0, 115.0, 108.0],
    "bar": [0, 3, 6, 9, 12],
    "detection_bar": [2, 5, 8, 11, 14],
    "detection_close": [101.0, 108.0, 106.0, 113.0, 110.0],
    "d_abs": [1.0, 2.0, 2.0, 2.0, 2.0],
}


def corrupt(**changes):
    columns = {name: list(values) for name, values in VALID.items()}
    for name, (index, value) in changes.items():
        columns[name][index] = value
    return columns


# (columns, open candidate, expected message)
BROKEN = {
    "alternation": (corrupt(high=(3, False)), None, r"points must alternate kinds \(index 3\)"),
    "bars": (corrupt(bar=(3, 6)), None, r"point bars must strictly increase \(index 3\)"),
    "detection bars": (
        corrupt(bar=(2, 4), detection_bar=(2, 4)),
        None,
        r"detection bars must be non-decreasing \(index 2\)",
    ),
    "detection before bar": (corrupt(detection_bar=(4, 11)), None, r"detection_bar must be >= bar \(index 4\)"),
    "d_abs": (corrupt(d_abs=(1, 2.5)), None, r"d_abs must equal \|price - detection_close\| \(index 1\)"),
    "first index wins": (
        corrupt(high=(4, True), bar=(2, 3)),
        None,
        r"point bars must strictly increase \(index 2\)",
    ),
    "open candidate": (VALID, OpenCandidate("low", 99.0, 13), "open candidate must alternate with the last fixed point"),
}


class TestInvariants:
    # dataclasses.replace goes through the one constructor, so a derived process is checked too
    @pytest.mark.parametrize("path", ["columns", "replace"])
    @pytest.mark.parametrize("case", list(BROKEN))
    def test_violation_names_first_index(self, case, path):
        columns, open_candidate, message = BROKEN[case]
        with pytest.raises(ValueError, match=message):
            if path == "columns":
                MinMaxProcess(open_candidate=open_candidate, **columns)
            else:
                dataclasses.replace(MinMaxProcess(**VALID), open_candidate=open_candidate, **columns)

    @pytest.mark.parametrize("path", ["columns", "replace"])
    def test_valid_process_builds_rows(self, path):
        candidate = OpenCandidate("high", 120.0, 13)
        if path == "columns":
            mm = MinMaxProcess(open_candidate=candidate, **VALID)
        else:
            mm = dataclasses.replace(MinMaxProcess(), open_candidate=candidate, **VALID)
        assert len(mm) == 5
        assert [(p.kind, p.price, p.bar, p.detection_bar, p.d_abs) for p in mm.points] == [
            ("low", 100.0, 0, 2, 1.0),
            ("high", 110.0, 3, 5, 2.0),
            ("low", 104.0, 6, 8, 2.0),
            ("high", 115.0, 9, 11, 2.0),
            ("low", 108.0, 12, 14, 2.0),
        ]

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            MinMaxProcess(**{**VALID, "d_abs": [1.0, 2.0]})

    def test_empty(self):
        mm = MinMaxProcess()
        assert len(mm) == 0 and mm.points == () and mm.open_candidate is None


class TestReadOnly:
    @pytest.mark.parametrize("source", ["columns", "run_minmax"])
    def test_columns_are_read_only(self, source):
        if source == "columns":
            mm = MinMaxProcess(**VALID)
        else:
            series = synth_gbm(100.0, 0.0, 0.02, 400, seed=1)
            mm = run_minmax(series, macd_sar(series))
            assert len(mm) > 0
        for name, dtype in COLUMNS:
            column = getattr(mm, name)
            assert column.dtype == dtype and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mm, name, column.copy())

    def test_columns_do_not_alias_the_input(self):
        price = np.array(VALID["price"])
        mm = MinMaxProcess(**{**VALID, "price": price})
        price[0] = 1.0
        assert mm.price[0] == 100.0
