"""MinMaxProcess columns: a naive reference sweep, the invariant checks, read-only storage.

Also the column layout every result record shares (``minmax._Columns``).
"""
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
from trendlab.minmax import COLUMNS
from trendlab.trading import Trades
from trendlab.trend import SampleBatch, TrendPhases
from swing_fixtures import sar_from_values, sar_values
from hypothesis_counts import examples


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
    s = sar_values(sar).tolist()  # +1 up, -1 down
    n, w = len(series), sar.warmup
    if w >= n:
        return [], None
    searching_high = s[w] == 1
    start = 0
    points = []
    for i in range(w + 1, n):
        flip_ends_search = s[i] != s[i - 1] and s[i] == (-1 if searching_high else 1)
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
    """Degenerate bars with many ties plus an arbitrary SAR after a warm-up:
    each bar after the first defined one flips the SAR or not."""
    closes = draw(tied_closes)
    n = len(closes)
    warmup = draw(st.integers(min_value=0, max_value=n))
    flips = draw(st.lists(st.booleans(), min_size=max(n - warmup - 1, 0), max_size=max(n - warmup - 1, 0)))
    heads = warmup + np.flatnonzero([True, *flips]) if warmup < n else []
    sar = SarSeries(n, warmup, heads, draw(st.booleans()))
    return CandleSeries.from_closes("tied", closes), sar


@st.composite
def wick_market(draw):
    """Bars with independent integer-grid wicks, and a SAR of 1- to 12-bar runs after a warm-up.

    A wide bar can set the candidate with its high while its low breaks the
    last fixed low (and mirrored), so a point can be fixed at its own bar.
    The bars come from a drawn numpy seed: hypothesis' own lists stay a few
    elements long, too short for runs with interiors and repeated breaks.
    """
    n = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    closes = 400.0 + np.cumsum(rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], n))
    opens = np.concatenate(([400.0], closes[:-1]))
    wicks = [0.0, 0.0, 1.0, 2.0, 3.0]
    highs = np.maximum(opens, closes) + rng.choice(wicks, n)
    lows = np.minimum(opens, closes) - rng.choice(wicks, n)
    warmup = draw(st.integers(min_value=0, max_value=n))
    runs = rng.integers(1, 13, n)
    heads = warmup + np.cumsum(runs) - runs
    sar = SarSeries(n, warmup, heads[heads < n], draw(st.booleans()))
    return CandleSeries("wicks", tuple(range(n)), opens, highs, lows, closes), sar


def mirrored(series, sar):
    """The market reflected about 400 (prices p -> 800 - p, SAR runs flipped): highs and lows swap roles."""
    o, h, l, c = (800.0 - column for column in (series.open, series.high, series.low, series.close))
    return CandleSeries(series.symbol, series.timestamps, o, l, h, c), dataclasses.replace(sar, first_up=not sar.first_up)


def wide_bar_market():
    """Ten bars; bar 7 sets the high candidate and breaks the last fixed low.

    Fixed: low 8 @1 (flip at 2), high 13 @3 (flip at 4), low 10.5 @5 (flip
    at 6), high 14 @7 detected at bar 7 itself; the low search then starts
    empty and takes bar 8, and is fixed at bar 9: that flip does not end a low
    search, but the bar's high breaks the high fixed at 7.
    """
    bars = [
        (10.0, 11.0, 9.0, 10.0),
        (10.0, 10.5, 8.0, 9.0),
        (9.0, 12.0, 9.0, 11.0),
        (11.0, 13.0, 10.0, 12.0),
        (12.0, 12.5, 11.0, 11.5),
        (11.5, 12.0, 10.5, 11.0),
        (11.0, 12.0, 11.0, 11.5),
        (11.5, 14.0, 10.0, 10.2),
        (10.2, 10.5, 10.1, 10.3),
        (10.3, 15.0, 10.2, 14.5),
    ]
    series = CandleSeries("wide", tuple(range(len(bars))), *map(np.array, zip(*bars)))
    sar = sar_from_values([-1, -1, 1, 1, -1, -1, 1, 1, 1, -1], 0)
    return series, sar


class TestNaiveOracle:
    @given(
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=1 / 9, max_value=3.0),
        st.sampled_from([0.005, 0.02, 0.05]),
    )
    @settings(max_examples=examples(40))
    def test_gbm(self, seed, scaling, vol):
        series = synth_gbm(100.0, 0.0, vol, 500, seed=seed)
        assert_matches_naive(series, macd_sar(series, ScalingConfig(scaling)))

    @given(tied_market())
    @settings(max_examples=examples(150))
    def test_ties_and_flat_stretches(self, market):
        assert_matches_naive(*market)

    @given(wick_market())
    @settings(max_examples=examples(300))
    def test_wicks_and_long_runs(self, market):
        assert_matches_naive(*market)
        assert_matches_naive(*mirrored(*market))

    @pytest.mark.parametrize("mirror", [False, True])
    def test_point_fixed_at_its_own_bar_and_at_a_head_break(self, mirror):
        market = wide_bar_market()
        mm = assert_matches_naive(*(mirrored(*market) if mirror else market))
        assert mm.high.tolist() == [mirror, not mirror] * 2 + [mirror]
        assert mm.bar.tolist() == [1, 3, 5, 7, 8]
        assert mm.detection_bar.tolist() == [2, 4, 6, 7, 9]
        assert mm.open_candidate == (OpenCandidate("low", 785.0, 9) if mirror else OpenCandidate("high", 15.0, 9))

    def test_flip_on_the_last_bar(self):
        series, sar = wide_bar_market()
        mm = assert_matches_naive(series[:5], sar_from_values(sar_values(sar)[:5], 0))
        assert mm.detection_bar.tolist() == [2, 4] and mm.bar.tolist() == [1, 3]
        assert mm.open_candidate == OpenCandidate("low", 11.0, 4)

    def test_one_bar_runs(self):
        # the SAR flips on every bar: each run is its head alone, and each flip ends the search
        series, _ = wide_bar_market()
        sar = SarSeries(len(series), 0, np.arange(len(series)), True)
        mm = assert_matches_naive(series, sar)
        assert len(mm) == len(series) - 1

    @pytest.mark.parametrize("short", [1, 0])
    def test_warmup_at_the_last_bar_or_past_it(self, short):
        series, sar = wide_bar_market()
        warmup = len(series) - short
        values = np.concatenate((np.zeros(warmup, dtype=np.int8), sar_values(sar)[warmup:]))
        mm = assert_matches_naive(series, sar_from_values(values, warmup))
        assert len(mm) == 0
        # the first search is a low search (SAR down at the last bar) over every bar, or nothing
        assert mm.open_candidate == (OpenCandidate("low", 8.0, 1) if short else None)

    def test_first_equal_extreme_wins(self):
        # highs 7 at bars 2 and 4, lows 3 at bars 6 and 8: the earlier bar is the extremum
        closes = np.array([5.0, 6.0, 7.0, 6.0, 7.0, 4.0, 3.0, 4.0, 3.0, 5.0, 8.0])
        sar = sar_from_values([1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1], 0)
        mm = assert_matches_naive(CandleSeries.from_closes("ties", closes), sar)
        assert mm.bar.tolist() == [2, 6]

    @given(tied_market(), st.data())
    @settings(max_examples=examples(100))
    def test_prefix_replay(self, market, data):
        series, sar = market
        cut = data.draw(st.integers(min_value=0, max_value=len(series)))
        full = run_minmax(series, sar)
        prefix = run_minmax(series[:cut], sar_from_values(sar_values(sar)[:cut], min(sar.warmup, cut)))
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


# every column record with two valid rows, as keyword columns
TWO_ROW_RECORDS = {
    "MinMaxProcess": (MinMaxProcess, {
        "high": [True, False], "price": [110.0, 100.0], "bar": [0, 1], "detection_bar": [1, 2],
        "detection_close": [108.0, 101.0], "d_abs": [2.0, 1.0],
    }),
    "TrendPhases": (TrendPhases, {
        "down": [False, True], "start": [0, 3], "end": [2, 5], "established": [1, 4], "violation": [3, -1],
        "start_detection_bar": [4, 9], "end_detection_bar": [7, 12],
    }),
    "SampleBatch": (SampleBatch, {
        "event": [1, 1], "variable": [2, 5], "direction": [0, 0], "value": [0.1, 0.01],
    }),
    "Trades": (Trades, {
        "ret": [0.2, -0.1], "reached_target": [True, False], "x": [0.8, 0.4], "d": [0.0, 0.05],
        "down": [False, True], "entry_bar": [3, 8], "exit_bar": [5, 9],
    }),
}


@pytest.mark.parametrize("name", list(TWO_ROW_RECORDS))
def test_column_records_refuse_unequal_columns_and_are_read_only(name):
    record, rows = TWO_ROW_RECORDS[name]
    columns = {field: np.array(values) for field, values in rows.items()}
    built = record(**columns)
    assert len(built) == 2
    for field in columns:
        column = getattr(built, field)
        assert column.tolist() == rows[field]
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[0]
    message = "^columns must be one-dimensional and of equal length$"
    for field in columns:
        for bad in (columns[field][:1], columns[field][:, None]):
            with pytest.raises(ValueError, match=message):
                record(**{**columns, field: bad})
        # MinMaxProcess copies each column into its dtype, so it takes a list
        if record is not MinMaxProcess:
            with pytest.raises(ValueError, match=message):
                record(**{**columns, field: rows[field]})
