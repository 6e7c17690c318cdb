import copy
import gc
import pickle
import tracemalloc
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendlab import (
    CandleParseError,
    CandleSeries,
    format_candles,
    parse_candles,
    read_candle_file,
    synth_gbm,
    synth_trend_series,
)
from trendlab import market_data
from trendlab.market_data import BarError

HEADER = "date,open,high,low,close"


class TestParse:
    def test_two_well_formed_rows(self):
        text = f"{HEADER}\n2020-01-02,10,12,9,11\n2020-01-03,11,13,10,12\n"
        series = parse_candles(text, "demo")
        assert len(series) == 2
        assert series.close.tolist() == [11.0, 12.0]
        assert series.open[0] == 10.0 and series.high[1] == 13.0

    def test_high_below_low_rejected(self):
        text = f"{HEADER}\n2020-01-02,10,9,12,11\n"
        with pytest.raises(CandleParseError, match="high < low at row 1"):
            parse_candles(text, "demo")

    def test_non_increasing_timestamp_rejected(self):
        text = f"{HEADER}\n2020-01-03,10,12,9,11\n2020-01-02,10,12,9,11\n"
        with pytest.raises(CandleParseError, match="non-increasing timestamp at row 2"):
            parse_candles(text, "demo")

    def test_wrong_field_count(self):
        with pytest.raises(CandleParseError, match="malformed row.*row 1"):
            parse_candles(f"{HEADER}\n2020-01-02,10,12,9\n", "demo")

    def test_non_numeric_price(self):
        with pytest.raises(CandleParseError, match="non-numeric price at row 2"):
            parse_candles(f"{HEADER}\n1,10,12,9,11\n2,10,x,9,11\n", "demo")

    def test_non_positive_price(self):
        with pytest.raises(CandleParseError, match="non-positive.*row 1"):
            parse_candles(f"{HEADER}\n1,10,12,-1,11\n", "demo")

    def test_open_outside_range(self):
        with pytest.raises(CandleParseError, match="open outside"):
            parse_candles(f"{HEADER}\n1,13,12,9,11\n", "demo")

    def test_volume_column_accepted_and_ignored(self):
        text = f"{HEADER},volume\n2020-01-02,10,12,9,11,55000\n"
        series = parse_candles(text, "demo")
        assert len(series) == 1

    def test_integer_bar_indices(self):
        series = parse_candles(f"{HEADER}\n0,10,12,9,11\n1,10,12,9,11\n", "demo")
        assert series.timestamps.dtype == np.int64 and series.timestamps.tolist() == [0, 1]

    def test_bad_header(self):
        with pytest.raises(CandleParseError, match="bad header"):
            parse_candles("time,o,h,l,c\n", "demo")

    @pytest.mark.parametrize(
        "text, row",
        [
            (f"{HEADER}\n2020-W01-1,10,12,9,11\n", 1),
            (f"{HEADER}\n2019-12-29,10,12,9,11\n2020-W01-1,10,12,9,11\n", 2),
            (f"{HEADER},volume\n2019-12-29,10,12,9,11\n2019-12-30,10,12,9,11,5\n2020-W01-1,10,12,9,11\n", 3),
        ],
        ids=["first-row", "iso-file", "ragged-iso-file"],
    )
    def test_week_date_rejected_on_every_python(self, text, row):
        # Python 3.11+ date.fromisoformat alone accepts 2020-W01-1 (2019-12-30)
        with pytest.raises(CandleParseError, match=rf"^bad date '2020-W01-1' at row {row}$"):
            parse_candles(text, "demo")

    def test_malformed_field_reported_before_earlier_bad_bar(self):
        text = f"{HEADER}\n1,10,9,12,11\n2,10,12,9,11\n3,10,x,9,11\n"
        with pytest.raises(CandleParseError, match="^non-numeric price at row 3$"):
            parse_candles(text, "demo")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["2,10,12,9,11", "1,10,12,9,11", "3,10,9,12,11"], "non-increasing timestamp at row 2"),
            (["1,10,12,9,11", "2,10,9,12,11", "1,10,12,9,11"], "high < low at row 2"),
            (["2,10,12,9,11", "1,10,9,12,11"], "high < low at row 2"),
        ],
        ids=["timestamp-first", "ohlc-first", "same-row"],
    )
    def test_first_bad_bar_across_both_rules(self, rows, message):
        with pytest.raises(CandleParseError, match=f"^{message}$"):
            parse_candles("\n".join([HEADER, *rows]), "demo")

    def test_error_carries_row_number(self):
        try:
            parse_candles(f"{HEADER}\n1,10,12,9,11\n2,10,9,12,11\n", "demo")
        except CandleParseError as exc:
            assert exc.row == 2
        else:
            pytest.fail("expected CandleParseError")


class TestNumpySyntax:
    """Numbers follow numpy's syntax, which is narrower than float()'s and int()'s."""

    @pytest.mark.parametrize("price", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-digit"])
    def test_price_that_float_accepts_is_non_numeric(self, price):
        with pytest.raises(CandleParseError, match="^non-numeric price at row 2$"):
            parse_candles(f"{HEADER}\n1,10,12,9,11\n2,10,{price},9,11\n", "demo")

    @pytest.mark.parametrize("stamp", ["1_0", "99999999999999999999", "9223372036854775808", "1.0"])
    def test_date_that_int_accepts_is_bad(self, stamp):
        with pytest.raises(CandleParseError, match=f"^bad date '{stamp}' at row 2$"):
            parse_candles(f"{HEADER}\n1,10,12,9,11\n{stamp},10,12,9,11\n", "demo")

    def test_int64_date_limits_accepted(self):
        series = parse_candles(f"{HEADER}\n-9223372036854775808,10,12,9,11\n9223372036854775807,10,12,9,11\n", "demo")
        assert series.timestamps.tolist() == [-(2**63), 2**63 - 1]

    @pytest.mark.parametrize(
        "stamp, message",
        [
            ("2020-01", "bad date '2020-01'"),
            ("5", "mixed date formats"),
            ("20200103", "mixed date formats"),
            ("2020-01-011", "bad date '2020-01-011'"),
        ],
    )
    def test_iso_file_rejects_what_numpy_dates_accept(self, stamp, message):
        # datetime64[D] reads the first three as dates, and a U10 field cuts the fourth to 2020-01-01
        with pytest.raises(CandleParseError, match=f"^{message} at row 2$"):
            parse_candles(f"{HEADER}\n2019-12-31,10,12,9,11\n{stamp},10,12,9,11\n", "demo")

    def test_seven_fields_rejected(self):
        with pytest.raises(CandleParseError, match="^malformed row: expected 5 or 6 fields, got 7 at row 2$"):
            parse_candles(f"{HEADER},volume\n1,10,12,9,11,5\n2,10,12,9,11,5,6\n", "demo")

    @pytest.mark.parametrize(
        "line, message",
        [("2,10,12,9,11 # note", "non-numeric price"), ("#2,10,12,9,11", "bad date '#2'"), ("# a comment", "malformed row: expected 5 or 6 fields, got 1")],
    )
    def test_hash_is_no_comment(self, line, message):
        with pytest.raises(CandleParseError, match=f"^{message} at row 2$"):
            parse_candles(f"{HEADER}\n1,10,12,9,11\n{line}\n3,10,12,9,11\n", "demo")

    @pytest.mark.parametrize("column", range(5))
    @pytest.mark.parametrize("field", ["1_0", "\u0661", "0x10", "nan(1)", "1e", "", "+", "1 2", "1\x002", "\u200b1", "--1"])
    def test_every_rejected_field_names_file_and_row(self, tmp_path, column, field):
        rows = [f"{i},10,12,9,11".split(",") for i in range(5)]
        rows[2][column] = field
        path = tmp_path / "odd.csv"
        path.write_text("\n".join([HEADER] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
        with pytest.raises(CandleParseError) as info:
            read_candle_file(path)
        assert info.value.row == 3
        assert str(info.value).startswith(f"{path}: ") and str(info.value).endswith(" at row 3")


prices = st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def candle_rows(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    rows = []
    for i in range(n):
        a, b = sorted([draw(prices), draw(prices)])
        o = draw(st.floats(min_value=a, max_value=b)) if b > a else a
        c = draw(st.floats(min_value=a, max_value=b)) if b > a else a
        rows.append((i, o, b, a, c))
    return rows


class TestRoundTrip:
    @given(candle_rows())
    def test_parse_format_parse_is_identity(self, rows):
        text = HEADER + "\n" + "\n".join(f"{t},{o!r},{h!r},{l!r},{c!r}" for t, o, h, l, c in rows)
        first = parse_candles(text, "rt")
        # text written with repr floats is what format_candles writes, byte for byte
        assert format_candles(first) == text + "\n"
        second = parse_candles(format_candles(first), "rt")
        assert first.timestamps.tolist() == second.timestamps.tolist()
        for name in ("open", "high", "low", "close"):
            assert getattr(first, name).tolist() == getattr(second, name).tolist()

    @given(candle_rows())
    def test_every_parsed_candle_satisfies_ohlc(self, rows):
        text = HEADER + "\n" + "\n".join(f"{t},{o!r},{h!r},{l!r},{c!r}" for t, o, h, l, c in rows)
        series = parse_candles(text, "rt")
        assert np.all(series.low > 0)
        assert np.all((series.low <= series.open) & (series.open <= series.high))
        assert np.all((series.low <= series.close) & (series.close <= series.high))


def test_format_candles_bytes():
    ohlc = ([1.0, 2.5], [1.5, 3.0], [0.5, 2.0], [1.25, 0.1 + 2.2])
    assert format_candles(CandleSeries("x", (7, 9), *ohlc)) == (
        "date,open,high,low,close\n7,1.0,1.5,0.5,1.25\n9,2.5,3.0,2.0,2.3000000000000003\n"
    )
    assert format_candles(CandleSeries("x", (date(2020, 1, 2), date(2020, 1, 3)), *ohlc)) == (
        "date,open,high,low,close\n2020-01-02,1.0,1.5,0.5,1.25\n2020-01-03,2.5,3.0,2.0,2.3000000000000003\n"
    )
    assert format_candles(CandleSeries("x", (), [], [], [], [])) == "date,open,high,low,close\n"


def _gbm_lines(n, dates=False):
    series = synth_gbm(100.0, 0.0, 0.02, n, seed=5)
    lines = format_candles(series).splitlines()
    if dates:
        start = date(1990, 1, 1)
        lines[1:] = [f"{(start + timedelta(days=i)).isoformat()},{ln.split(',', 1)[1]}" for i, ln in enumerate(lines[1:])]
    return lines


def _assert_same_series(a, b):
    assert a.timestamps.dtype == b.timestamps.dtype
    assert a.timestamps.tobytes() == b.timestamps.tobytes()
    for name in ("open", "high", "low", "close"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def _no_row_scan(rows):
    raise AssertionError("the row scan ran")


class TestColumnParse:
    N = 2348

    @pytest.mark.parametrize("dates", [False, True], ids=["int-dates", "iso-dates"])
    @pytest.mark.parametrize("variant", ["volume", "crlf", "padded", "blank-lines", "ragged"])
    def test_layout_variants_match_plain_text(self, monkeypatch, dates, variant):
        lines = _gbm_lines(self.N, dates)
        plain = parse_candles("\n".join(lines) + "\n", "gbm")
        if variant == "volume":
            lines = [lines[0] + ",volume"] + [f"{ln},{i * 10}" for i, ln in enumerate(lines[1:])]
        elif variant == "ragged":
            lines = [lines[0] + ",volume"] + [ln + ",7" if i % 3 else ln for i, ln in enumerate(lines[1:])]
        elif variant == "padded":
            lines = [lines[0]] + [" , ".join(ln.split(",")) + " " for ln in lines[1:]]
        elif variant == "blank-lines":
            lines = [ln + "\n  " if i % 500 == 0 else ln for i, ln in enumerate(lines)]
        eol = "\r\n" if variant == "crlf" else "\n"
        monkeypatch.setattr(market_data, "_parse_rows", _no_row_scan)
        _assert_same_series(parse_candles(eol.join(lines) + eol, "gbm"), plain)
        assert len(plain) == self.N

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ln: ",".join(ln.split(",")[:3] + ["1e9", ln.split(",")[4]]), "low"),
            (lambda ln: "5," + ln.split(",", 1)[1], "non-increasing timestamp"),
            (lambda ln: ln.rsplit(",", 1)[0] + ",nan", "non-finite price"),
        ],
        ids=["ohlc", "non-increasing", "nan"],
    )
    def test_bad_bar_never_reaches_row_scan(self, monkeypatch, edit, message):
        lines = _gbm_lines(self.N)
        lines[-1] = edit(lines[-1])
        monkeypatch.setattr(market_data, "_parse_rows", _no_row_scan)
        with pytest.raises(CandleParseError, match=f"{message} at row {self.N}$") as info:
            parse_candles("\n".join(lines), "gbm")
        assert info.value.row == self.N

    def test_compact_iso_date_is_mixed_format(self):
        text = f"{HEADER}\n2020-01-02,10,12,9,11\n20200103,11,13,10,12\n"
        with pytest.raises(CandleParseError, match="mixed date formats at row 2"):
            parse_candles(text, "demo")

    @pytest.mark.parametrize(
        "row, edit, message",
        [
            (1500, lambda ln: ln.split(",", 1)[0] + ",abc,1,1,1", "non-numeric price at row 1500"),
            (2000, lambda ln: "5," + ln.split(",", 1)[1], "non-increasing timestamp at row 2000"),
            (1100, lambda ln: "2020-01-01," + ln.split(",", 1)[1], "mixed date formats at row 1100"),
            (1700, lambda ln: ",".join(ln.split(",")[:3] + ["1e9", ln.split(",")[4]]), "low at row 1700"),
        ],
        ids=["bad-price", "non-increasing", "date-switch", "ohlc"],
    )
    def test_error_deep_in_the_file_names_row(self, row, edit, message):
        lines = _gbm_lines(self.N)
        lines[row] = edit(lines[row])
        with pytest.raises(CandleParseError, match=message) as info:
            parse_candles("\n".join(lines), "gbm")
        assert info.value.row == row

    def test_row_scan_halves_the_rejected_piece(self, monkeypatch):
        # the scan that names the first malformed row calls the reader O(log n) times, not once per row
        lines = _gbm_lines(50_000)
        lines[-1] = ",".join(lines[-1].split(",")[:4] + ["x"])
        calls = []
        loadtxt = market_data._loadtxt
        monkeypatch.setattr(market_data, "_loadtxt", lambda *args: calls.append(len(args[0])) or loadtxt(*args))
        with pytest.raises(CandleParseError, match="^non-numeric price at row 50000$"):
            parse_candles("\n".join(lines), "gbm")
        assert len(calls) <= 40


def test_read_peak_memory_under_twice_the_series(tmp_path):
    # numpy reports its buffers to tracemalloc. Reading a piece at a time
    # peaks at ~1.3x the finished series (the pieces' columns plus one joined
    # column, as each column's pieces go once it is joined); joining all five
    # before letting go would peak at ~2x, and holding the whole file's
    # bytes, text and line lists at once peaked at ~4.5x
    path = tmp_path / "gbm.csv"
    path.write_text(format_candles(synth_gbm(100.0, 0.0, 0.02, 50_000, seed=5)))
    gc.collect()
    tracemalloc.start()
    try:
        series = read_candle_file(path)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series) == 50_000
    _assert_same_series(series, parse_candles(path.read_text(), "gbm"))
    assert peak < 1.5 * size


class TestContainers:
    def test_series_slice_returns_series(self):
        s = synth_gbm(100.0, 0.0, 0.01, 50, seed=1)
        head = s[:10]
        assert isinstance(head, CandleSeries)
        assert len(head) == 10
        assert head.close.tolist() == s.close[:10].tolist()
        with pytest.raises(TypeError):
            s[0]

    def test_series_rejects_bad_bar(self):
        with pytest.raises(ValueError, match="invalid OHLC"):
            CandleSeries("x", (0,), np.array([10.0]), np.array([9.0]), np.array([12.0]), np.array([11.0]))

    @pytest.mark.parametrize(
        "timestamps, low, index, message",
        [
            ((0, 2, 1, 3), [9.0, 9.0, 9.0, 12.0], 2, "non-increasing timestamp at index 2"),
            ((0, 1, 3, 2), [9.0, 12.0, 9.0, 9.0], 1, "invalid OHLC bar at index 1: high < low"),
            ((0, 2, 1, 3), [9.0, 9.0, 12.0, 9.0], 2, "invalid OHLC bar at index 2: high < low"),
            ((1, date(2020, 1, 1), 3, 4), [9.0] * 4, 1, "mixed timestamp types at index 1"),
            ((1, 2, 2, date(2020, 1, 1)), [9.0] * 4, 2, "non-increasing timestamp at index 2"),
            # stored as given or not at all: numpy would store 0.5 as 0, "1" as 1 and a datetime as its day
            ((0.5, 1.5, 2.5, 3.5), [9.0] * 4, 0, "timestamp neither an integer nor a date at index 0"),
            (("1", "2", "3", "4"), [9.0] * 4, 0, "timestamp neither an integer nor a date at index 0"),
            ((True, 2, 3, 4), [9.0] * 4, 0, "timestamp neither an integer nor a date at index 0"),
            ((0, 1, 2.0, 3), [9.0] * 4, 2, "timestamp neither an integer nor a date at index 2"),
            ((0, 1, 2, 2**63), [9.0] * 4, 3, "timestamp neither an integer nor a date at index 3"),
            ((date(2020, 1, 1), datetime(2020, 1, 2, 12), date(2020, 1, 3), date(2020, 1, 4)), [9.0] * 4, 1,
             "timestamp neither an integer nor a date at index 1"),
            (np.arange(4, dtype=float), [9.0] * 4, 0, "timestamp neither an integer nor a date at index 0"),
            (np.arange(4).astype("datetime64[s]"), [9.0] * 4, 0, "timestamp neither an integer nor a date at index 0"),
            ((0, 1.5, 1, 2), [9.0] * 4, 1, "timestamp neither an integer nor a date at index 1"),
            ((0.5, 1, 2, 3), [9.0, 12.0, 9.0, 9.0], 0, "timestamp neither an integer nor a date at index 0"),
            ((0, 1.5, 2, 3), [12.0, 9.0, 9.0, 9.0], 0, "invalid OHLC bar at index 0: high < low"),
        ],
        ids=[
            "timestamp-first", "ohlc-first", "same-index", "mixed-types", "non-increasing-before-mixed",
            "floats", "strings", "bool", "float-among-ints", "outside-int64", "datetime",
            "float-array", "datetime64-seconds", "bad-type-before-ohlc", "bad-type-first", "ohlc-before-bad-type",
        ],
    )
    def test_series_names_first_bad_index(self, timestamps, low, index, message):
        with pytest.raises(BarError, match=f"^{message}$") as info:
            CandleSeries("x", timestamps, [10.0] * 4, [11.0] * 4, low, [10.5] * 4)
        assert info.value.index == index

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))], ids=["copy", "deepcopy", "pickle"])
    def test_bar_error_copies_and_pickles(self, clone):
        exc = BarError("invalid OHLC bar at index 2: high < low", 2, "high < low")
        got = clone(exc)
        assert type(got) is BarError
        assert (str(got), got.index, got.reason) == ("invalid OHLC bar at index 2: high < low", 2, "high < low")
        assert got.args == exc.args

    def test_mixed_timestamps_never_cast(self):
        # numpy alone would read the int 1 as the date 1970-01-02, one day after the first bar
        with pytest.raises(BarError, match="^mixed timestamp types at index 1$"):
            CandleSeries("x", (date(1970, 1, 1), 1), [10.0] * 2, [11.0] * 2, [9.0] * 2, [10.5] * 2)

    def test_timestamps_are_one_read_only_column(self):
        ohlc = ([10.0] * 2, [11.0] * 2, [9.0] * 2, [10.5] * 2)
        days = CandleSeries("x", [date(2020, 1, 2), date(2020, 1, 3)], *ohlc)
        assert days.timestamps.dtype == np.dtype("datetime64[D]")
        assert days.timestamps.tolist() == [date(2020, 1, 2), date(2020, 1, 3)]
        # compared, not differenced: the difference of the int64 limits overflows
        bars = CandleSeries("x", (-(2**63), 2**63 - 1), *ohlc)
        assert bars.timestamps.dtype == np.int64
        # an integer array becomes int64 (uint64 item by item); a datetime64[D] array is kept
        for dtype in (np.int32, np.uint8, np.uint64):
            narrow = CandleSeries("x", np.array([3, 4], dtype=dtype), *ohlc)
            assert narrow.timestamps.dtype == np.int64 and narrow.timestamps.tolist() == [3, 4]
        assert CandleSeries("x", days.timestamps, *ohlc).timestamps is days.timestamps
        for series in (days, bars, synth_gbm(100.0, 0.0, 0.01, 10, seed=1)):
            with pytest.raises(ValueError):
                series.timestamps[0] = series.timestamps[1]

    def test_series_compare_by_identity(self):
        a = synth_gbm(100.0, 0.0, 0.01, 50, seed=1)
        b = synth_gbm(100.0, 0.0, 0.01, 50, seed=1)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_arrays_frozen(self):
        s = synth_gbm(100.0, 0.0, 0.01, 10, seed=1)
        with pytest.raises(ValueError):
            s.close[0] = 1.0


class TestSynthGbm:
    def test_degenerate_flat(self):
        s = synth_gbm(100.0, 0.0, 0.0, 20, seed=3)
        assert np.allclose(s.close, 100.0)

    def test_determinism(self):
        a = synth_gbm(100.0, 0.001, 0.02, 500, seed=42)
        b = synth_gbm(100.0, 0.001, 0.02, 500, seed=42)
        assert a.close.tolist() == b.close.tolist()
        assert a.high.tolist() == b.high.tolist()

    def test_seed_changes_path(self):
        a = synth_gbm(100.0, 0.001, 0.02, 500, seed=42)
        b = synth_gbm(100.0, 0.001, 0.02, 500, seed=43)
        assert a.close.tolist() != b.close.tolist()

    def test_log_return_vol_recovered(self):
        s = synth_gbm(100.0, 0.0, 0.02, 10_000, seed=1)
        log_returns = np.diff(np.log(np.concatenate(([100.0], s.close))))
        assert abs(log_returns.std() - 0.02) < 0.001

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            synth_gbm(-1.0, 0.0, 0.01, 10, seed=0)
        with pytest.raises(ValueError):
            synth_gbm(100.0, 0.0, -0.01, 10, seed=0)
        with pytest.raises(ValueError):
            synth_gbm(100.0, 0.0, 0.01, 0, seed=0)

    @given(st.integers(min_value=0, max_value=50), st.floats(min_value=0.0, max_value=0.2))
    def test_bars_always_valid(self, seed, vol):
        s = synth_gbm(50.0, 0.0005, vol, 200, seed=seed)
        assert np.all(s.low > 0)
        assert np.all((s.low <= s.open) & (s.open <= s.high))
        assert np.all((s.low <= s.close) & (s.close <= s.high))


class TestSynthTrends:
    def test_planted_count_and_bars(self):
        series, planted = synth_trend_series(swings=10, seed=5)
        assert len(planted) == 10
        assert all(x > 0 for x in planted)
        assert np.all(series.close == series.high)
        assert np.all(series.close == series.low)
        assert np.all(series.low > 0)

    def test_deterministic(self):
        a, pa = synth_trend_series(swings=8, seed=9)
        b, pb = synth_trend_series(swings=8, seed=9)
        assert pa == pb
        assert a.close.tolist() == b.close.tolist()
