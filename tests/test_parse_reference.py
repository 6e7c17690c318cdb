"""parse_candles against a naive two-pass reference written from its docstring.

Pass 1 walks the rows and stops at the first malformed field: a field count
other than 5 or 6, a date that is neither an int nor a YYYY-MM-DD date, a date
format other than the first row's, or a non-numeric price. Only a file with
none goes to pass 2, which stops at the first bad bar: a non-positive or
non-finite price, an OHLC order violation, or a timestamp not above the
previous row's. Random files carry 0-2 injected defects, and PARSE_BLOCK is
made small so that defects land in any block.
"""
import math
import re
from datetime import date, timedelta
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from trendlab import CandleParseError, parse_candles
from trendlab import market_data

ISO = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def reference_timestamp(field):
    """An int, a date, or None for a field that is neither."""
    try:
        return int(field)
    except ValueError:
        pass
    if not ISO.fullmatch(field):
        return None
    try:
        return date(int(field[:4]), int(field[5:7]), int(field[8:]))
    except ValueError:
        return None


def reference_bar_problem(o, h, l, c):
    if not (l > 0 and all(math.isfinite(v) for v in (o, h, l, c))):
        return "non-positive or non-finite price"
    if h < l:
        return "high < low"
    if not l <= o <= h:
        return "open outside [low, high]"
    if not l <= c <= h:
        return "close outside [low, high]"
    return None


def reference_parse(text):
    """(timestamps, [open, high, low, close]) or (row, message) of the first error."""
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln][1:]
    bars = []
    for row, line in enumerate(rows, start=1):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (5, 6):
            return row, f"malformed row: expected 5 or 6 fields, got {len(fields)} at row {row}"
        stamp = reference_timestamp(fields[0])
        if stamp is None:
            return row, f"bad date {fields[0]!r} at row {row}"
        if bars and type(stamp) is not type(bars[0][0]):
            return row, f"mixed date formats at row {row}"
        try:
            prices = [float(f) for f in fields[1:5]]
        except ValueError:
            return row, f"non-numeric price at row {row}"
        bars.append((stamp, *prices))
    for row, (stamp, o, h, l, c) in enumerate(bars, start=1):
        problem = reference_bar_problem(o, h, l, c)
        if problem is None and row > 1 and not stamp > bars[row - 2][0]:
            problem = "non-increasing timestamp"
        if problem is not None:
            return row, f"{problem} at row {row}"
    return tuple(b[0] for b in bars), [np.array([b[k] for b in bars], dtype=float) for k in range(1, 5)]


DEFECTS = ["field-count", "bad-date", "mixed-format", "non-numeric", "non-finite", "ohlc", "non-increasing"]


@st.composite
def candle_files(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    iso = draw(st.booleans())
    steps = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n))
    first = date(2019, 12, 1) if iso else draw(st.integers(min_value=-5, max_value=100))
    offsets = np.cumsum(steps).tolist()
    stamps = [(first + timedelta(days=k)).isoformat() if iso else str(first + k) for k in offsets]
    volume = draw(st.sampled_from(["none", "all", "ragged"]))
    price = st.floats(min_value=0.01, max_value=1e4)
    rows = []
    for stamp in stamps:
        low, high = sorted([draw(price), draw(price)])
        o, c = (draw(st.floats(min_value=low, max_value=high)) for _ in range(2))
        fields = [stamp, repr(o), repr(high), repr(low), repr(c)]
        if volume == "all" or (volume == "ragged" and draw(st.booleans())):
            fields.append(draw(st.sampled_from(["100", "0", "x", ""])))
        rows.append(fields)
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        fields = rows[i]
        defect = draw(st.sampled_from(DEFECTS))
        # a price column this row still has after an earlier field-count defect
        column = st.integers(min_value=1, max_value=min(4, len(fields) - 1))
        if defect == "field-count":
            rows[i] = draw(st.sampled_from([fields[:4], fields[:3], fields[:5] + ["1", "2"]]))
        elif defect == "bad-date":
            fields[0] = draw(st.sampled_from(["2020-W01-1", "2020-W01", "2020-13-01", "2020-02-30", "2020/01/02", "abc", "", "1.5"]))
        elif defect == "mixed-format":
            fields[0] = str(offsets[i]) if iso else (date(2019, 12, 1) + timedelta(days=offsets[i])).isoformat()
        elif defect == "non-numeric":
            fields[draw(column)] = draw(st.sampled_from(["x", "", "1e", "--1"]))
        elif defect == "non-finite":
            fields[draw(column)] = draw(st.sampled_from(["nan", "inf", "-inf", "Infinity"]))
        elif defect == "ohlc":
            fields[draw(column)] = draw(st.sampled_from(["0", "-1", "1e-9", "1e9"]))
        elif i > 0:
            fields[0] = rows[i - 1][0]
    sep = " , " if draw(st.booleans()) else ","
    header = "date,open,high,low,close" + (",volume" if volume != "none" and draw(st.booleans()) else "")
    lines = [header] + [sep.join(fields) for fields in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=400, deadline=None)
@given(candle_files(), st.sampled_from([1, 2, 3, 5, market_data.PARSE_BLOCK]))
def test_parse_matches_two_pass_reference(text, block):
    expected = reference_parse(text)
    with mock.patch.object(market_data, "PARSE_BLOCK", block):
        try:
            series = parse_candles(text, "ref")
        except CandleParseError as exc:
            assert (exc.row, str(exc)) == expected
            return
    assert isinstance(expected[0], tuple), f"accepted a file the reference rejects: {expected}"
    timestamps, columns = expected
    assert series.timestamps == timestamps
    assert [type(t) for t in series.timestamps] == [type(t) for t in timestamps]
    for name, column in zip(("open", "high", "low", "close"), columns):
        assert getattr(series, name).tobytes() == column.tobytes()
