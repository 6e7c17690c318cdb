"""parse_candles against a naive two-pass reference written from its docstring.

Pass 1 walks the rows and stops at the first malformed field: a field count
other than 5 or 6, a date that is neither an integer nor a YYYY-MM-DD date, a
date format other than the first row's, or a non-numeric price. Numbers follow
numpy's syntax, written here without numpy: a stripped price is an ASCII
string without underscores that float() accepts, and an integer date an
optional sign and ASCII digits inside int64. Only a file with no malformed
field goes to pass 2, which stops at the first bad bar: a non-positive or
non-finite price, an OHLC order violation, or a timestamp not above the
previous row's. Random files carry 0-2 injected defects, among them numbers
that float() and int() accept and numpy does not.

read_candle_file, which reads a file in pieces, is held to the rule it
replaced: decode the whole file, naming the data row of a non-UTF-8 byte,
then parse_candles the text. READ_BYTES is made small so that pieces end
anywhere, and files carry bad bytes, other line breaks and multi-byte
characters across piece edges.
"""
import math
import re
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import CandleParseError, format_candles, parse_candles, read_candle_file, synth_gbm
from trendlab import market_data
from hypothesis_counts import examples

ISO = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
INT = re.compile(r"[+-]?[0-9]+")


def reference_timestamp(field):
    """An int, a date, or None for a field that is neither."""
    if INT.fullmatch(field) and -(2**63) <= int(field) < 2**63:
        return int(field)
    if not ISO.fullmatch(field):
        return None
    try:
        return date(int(field[:4]), int(field[5:7]), int(field[8:]))
    except ValueError:
        return None


def reference_price(field):
    """The price of a stripped field; ValueError where numpy's syntax is narrower than float()'s."""
    if not field.isascii() or "_" in field:
        raise ValueError(field)
    return float(field)


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
            prices = [reference_price(f) for f in fields[1:5]]
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


# the last ones float() or int() accept, and numpy's syntax does not
BAD_DATES = ["2020-W01-1", "2020-W01", "2020-13-01", "2020-02-30", "2020/01/02", "abc", "", "1.5", "1.0", "1_0", "\u0661", "99999999999999999999"]
NON_NUMERIC = ["x", "", "1e", "--1", "#1", "0x10", "1_0", "\u0661", "1\u0660"]
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
            fields[0] = draw(st.sampled_from(BAD_DATES))
        elif defect == "mixed-format":
            fields[0] = str(offsets[i]) if iso else (date(2019, 12, 1) + timedelta(days=offsets[i])).isoformat()
        elif defect == "non-numeric":
            fields[draw(column)] = draw(st.sampled_from(NON_NUMERIC))
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


def assert_timestamps(column, timestamps):
    """An int64 column of ints, or a datetime64[D] column of dates."""
    assert column.dtype == ("datetime64[D]" if timestamps[:1] and isinstance(timestamps[0], date) else np.int64)
    assert column.tolist() == list(timestamps)
    assert [type(t) for t in column.tolist()] == [type(t) for t in timestamps]


@settings(max_examples=examples(400), deadline=None)
@given(candle_files())
def test_parse_matches_two_pass_reference(text):
    expected = reference_parse(text)
    try:
        series = parse_candles(text, "ref")
    except CandleParseError as exc:
        assert (exc.row, str(exc)) == expected
        return
    assert isinstance(expected[0], tuple), f"accepted a file the reference rejects: {expected}"
    timestamps, columns = expected
    assert_timestamps(series.timestamps, timestamps)
    for name, column in zip(("open", "high", "low", "close"), columns):
        assert getattr(series, name).tobytes() == column.tobytes()


def reference_read(data):
    """The series, or (row, message) of the error, from the whole file's bytes."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = (data[: exc.start].decode("utf-8") + "x").splitlines()[:-1]
        row = sum(1 for line in before if line.strip())
        where = f"at row {row}" if row else "in the header"
        return row or None, f"non-UTF-8 byte {data[exc.start]:#04x} {where}"
    try:
        return parse_candles(text, "ref")
    except CandleParseError as exc:
        return exc.row, str(exc)


def assert_reads_as_reference(path, data):
    expected = reference_read(data)
    try:
        series = read_candle_file(path)
    except CandleParseError as exc:
        assert (exc.row, str(exc)) == (expected[0], f"{path}: {expected[1]}")
        return
    assert not isinstance(expected, tuple), f"accepted a file the reference rejects: {expected}"
    assert series.symbol == path.stem
    assert series.timestamps.dtype == expected.timestamps.dtype
    assert series.timestamps.tobytes() == expected.timestamps.tobytes()
    for name in ("open", "high", "low", "close"):
        assert getattr(series, name).tobytes() == getattr(expected, name).tobytes()


# line breaks of str.splitlines other than \n, and multi-byte characters, some of them whitespace to str.strip
BREAKS = ["\x0c", "\x85", "\u2028", "\r"]
WIDE = ["\xe9", "\xa0", "\u20ac", "\u3000", "\U0001f600"]


@pytest.fixture(scope="module")
def candle_path(tmp_path_factory):
    return tmp_path_factory.mktemp("read") / "ref.csv"


@pytest.mark.parametrize("read_bytes", [1, 2, 3, 7, 64, market_data.READ_BYTES])
@settings(deadline=None)
@given(text=candle_files(), data=st.data())
def test_read_matches_whole_file_reference(candle_path, read_bytes, text, data):
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(BREAKS)) + text[at:]
    if data.draw(st.booleans()):
        # a character whose bytes straddle a multiple of read_bytes, where the text allows one
        char = data.draw(st.sampled_from(WIDE))
        width = len(char.encode("utf-8"))
        straddling = [i for i in range(len(text) + 1) if len(text[:i].encode("utf-8")) % read_bytes > read_bytes - width]
        at = data.draw(st.sampled_from(straddling)) if straddling else data.draw(st.integers(0, len(text)))
        text = text[:at] + char + text[at:]
    raw = text.encode("utf-8")
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82"])) + raw[at:]
    candle_path.write_bytes(raw)
    with mock.patch.object(market_data, "READ_BYTES", read_bytes):
        assert_reads_as_reference(candle_path, raw)


def test_non_utf8_byte_in_a_later_piece_beats_a_field_error_in_the_first(tmp_path):
    lines = format_candles(synth_gbm(100.0, 0.0, 0.02, 25_000, seed=3)).splitlines()
    lines[1] = lines[1].split(",", 1)[0] + ",x,1,1,1"
    # a 0xff byte at the end of data row 20001
    raw = "\n".join(lines[:20_002]).encode("utf-8") + b"\xff\n" + "\n".join(lines[20_002:]).encode("utf-8")
    assert raw.index(b"\xff") > market_data.READ_BYTES
    path = tmp_path / "two_defects.csv"
    path.write_bytes(raw)
    with pytest.raises(CandleParseError) as info:
        read_candle_file(path)
    assert (info.value.row, str(info.value)) == (20_001, f"{path}: non-UTF-8 byte 0xff at row 20001")
    assert_reads_as_reference(path, raw)
