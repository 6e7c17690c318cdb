from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendlab import (
    CandleParseError,
    CandleSeries,
    format_candles,
    parse_candles,
    synth_gbm,
    synth_trend_series,
)
from trendlab.market_data import PARSE_BLOCK, _parse_columns, _parse_rows

HEADER = "date,open,high,low,close"


class TestParse:
    def test_two_well_formed_rows(self):
        text = f"{HEADER}\n2020-01-02,10,12,9,11\n2020-01-03,11,13,10,12\n"
        series = parse_candles(text, "demo")
        assert len(series) == 2
        assert series.close.tolist() == [11.0, 12.0]
        assert series[0].open == 10.0 and series[1].high == 13.0

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
        assert series.timestamps == (0, 1)

    def test_bad_header(self):
        with pytest.raises(CandleParseError, match="bad header"):
            parse_candles("time,o,h,l,c\n", "demo")

    def test_error_carries_row_number(self):
        try:
            parse_candles(f"{HEADER}\n1,10,12,9,11\n2,10,9,12,11\n", "demo")
        except CandleParseError as exc:
            assert exc.row == 2
        else:
            pytest.fail("expected CandleParseError")


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
        second = parse_candles(format_candles(first), "rt")
        assert first.timestamps == second.timestamps
        for name in ("open", "high", "low", "close"):
            assert getattr(first, name).tolist() == getattr(second, name).tolist()

    @given(candle_rows())
    def test_every_parsed_candle_satisfies_ohlc(self, rows):
        text = HEADER + "\n" + "\n".join(f"{t},{o!r},{h!r},{l!r},{c!r}" for t, o, h, l, c in rows)
        series = parse_candles(text, "rt")
        assert np.all(series.low > 0)
        assert np.all((series.low <= series.open) & (series.open <= series.high))
        assert np.all((series.low <= series.close) & (series.close <= series.high))


def _gbm_lines(n, dates=False):
    series = synth_gbm(100.0, 0.0, 0.02, n, seed=5)
    lines = format_candles(series).splitlines()
    if dates:
        start = date(1990, 1, 1)
        lines[1:] = [f"{(start + timedelta(days=i)).isoformat()},{ln.split(',', 1)[1]}" for i, ln in enumerate(lines[1:])]
    return lines


def _assert_same_series(a, b):
    assert a.timestamps == b.timestamps
    assert [type(t) for t in a.timestamps] == [type(t) for t in b.timestamps]
    for name in ("open", "high", "low", "close"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestColumnParse:
    N = 2 * PARSE_BLOCK + 300

    @pytest.mark.parametrize("dates", [False, True], ids=["int-dates", "iso-dates"])
    @pytest.mark.parametrize("variant", ["plain", "volume", "crlf", "padded"])
    def test_matches_row_parse(self, dates, variant):
        lines = _gbm_lines(self.N, dates)
        if variant == "volume":
            lines = [lines[0] + ",volume"] + [f"{ln},{i * 10}" for i, ln in enumerate(lines[1:])]
        elif variant == "padded":
            lines = [lines[0]] + [" , ".join(ln.split(",")) + " " for ln in lines[1:]]
        eol = "\r\n" if variant == "crlf" else "\n"
        text = eol.join(lines) + eol
        rows = [ln.strip() for ln in text.splitlines()][1:]
        width = len(lines[0].split(","))
        fast = _parse_columns(rows, width, "gbm")
        assert fast is not None
        _assert_same_series(fast, _parse_rows(rows, "gbm"))
        _assert_same_series(parse_candles(text, "gbm"), fast)
        assert len(fast) == self.N

    def test_ragged_rows_fall_back(self):
        lines = _gbm_lines(50)
        lines = [lines[0] + ",volume"] + [ln + ",7" if i % 2 else ln for i, ln in enumerate(lines[1:])]
        rows = lines[1:]
        assert _parse_columns(rows, 6, "gbm") is None
        assert len(parse_candles("\n".join(lines), "gbm")) == 50

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
    def test_error_after_first_block_names_row(self, row, edit, message):
        assert row > PARSE_BLOCK
        lines = _gbm_lines(self.N)
        lines[row] = edit(lines[row])
        with pytest.raises(CandleParseError, match=message) as info:
            parse_candles("\n".join(lines), "gbm")
        assert info.value.row == row


class TestContainers:
    def test_series_slice_returns_series(self):
        s = synth_gbm(100.0, 0.0, 0.01, 50, seed=1)
        head = s[:10]
        assert isinstance(head, CandleSeries)
        assert len(head) == 10
        assert head.close.tolist() == s.close[:10].tolist()

    def test_series_rejects_bad_bar(self):
        with pytest.raises(ValueError, match="invalid OHLC"):
            CandleSeries("x", (0,), np.array([10.0]), np.array([9.0]), np.array([12.0]), np.array([11.0]))

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
