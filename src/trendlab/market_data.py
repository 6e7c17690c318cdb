"""OHLC candle containers, CSV parsing/serialization, and synthetic generators.

Candle files are plain UTF-8 CSV with a header ``date,open,high,low,close[,volume]``;
rows with and without the (ignored) volume field may mix. A timestamp is an
``int`` bar index or a 10-character ``YYYY-MM-DD`` date on every Python
version, and the first row fixes which. Bar distance is always measured as
index difference within a series; calendar gaps are ignored.

``read_candle_file`` reads a file in 64 KiB pieces (``READ_BYTES``), each cut
after its last newline byte, and parses them one at a time with the column
core of ``parse_candles``: a piece's rows are parsed column-wise, the columns
of all pieces are joined once, and ``CandleSeries`` is the one place that
checks bars. So the whole text is never held at once. Errors come in one
order, whatever the pieces: a non-UTF-8 byte anywhere in the file, then a
bad header, then the first row with a malformed field, then the first bad
bar, even one on an earlier row.

All containers are immutable after construction and safe to share across
threads or processes.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Iterator, Union

import numpy as np

Timestamp = Union[date, int]

HEADER_FIELDS = ("date", "open", "high", "low", "close")
# rows per block of the column-wise parse: bounds its temporary field lists
PARSE_BLOCK = 1024
# bytes per read of read_candle_file, which parses the file one piece at a time
READ_BYTES = 1 << 16
# synth_trend_series' path: the swing size relative to the last low, the bars
# of a movement, the bars of a full correction, the flat bars before the first swing
TREND_MOVEMENT_REL = 0.25
TREND_MOVEMENT_BARS = 15
TREND_CORRECTION_BARS = 12
TREND_WARMUP_BARS = 32


class CandleParseError(ValueError):
    """Malformed candle text. ``row`` is the 1-based data row (header excluded)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class BarError(ValueError):
    """A CandleSeries bar that breaks a rule: ``index`` is its 0-based position, ``reason`` the rule."""

    def __init__(self, message: str, index: int, reason: str):
        super().__init__(message)
        self.index = index
        self.reason = reason

    def __reduce__(self):
        # ``args`` holds only the message, so copy and pickle rebuild from all three
        return type(self), (self.args[0], self.index, self.reason), self.__dict__


def _ohlc_problem(o: float, h: float, l: float, c: float) -> str:
    if not (l > 0.0 and math.isfinite(o) and math.isfinite(h) and math.isfinite(l) and math.isfinite(c)):
        return "non-positive or non-finite price"
    if h < l:
        return "high < low"
    if not (l <= o <= h):
        return "open outside [low, high]"
    return "close outside [low, high]"


@dataclass(frozen=True)
class CandleSeries:
    """A symbol plus parallel OHLC arrays with strictly increasing timestamps.

    A bad bar raises BarError naming the first bad index under either rule;
    where one bar breaks both, the OHLC rule is named.
    """

    symbol: str
    timestamps: tuple[Timestamp, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        for name in ("open", "high", "low", "close"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.timestamps)
        if not (self.open.shape == self.high.shape == self.low.shape == self.close.shape == (n,)):
            raise ValueError("OHLC arrays and timestamps must have equal length")
        o, h, l, c = self.open, self.high, self.low, self.close
        # NaN fails every comparison, and a finite high bounds the other prices
        good = (l > 0.0) & (l <= o) & (o <= h) & (l <= c) & (c <= h) & np.isfinite(h)
        bad_bar = n if good.all() else int(good.argmin())
        ts = self.timestamps
        try:
            ordered = all(map(operator.gt, ts[1:bad_bar], ts))
        except TypeError:  # an int and a date
            ordered = False
        if not ordered:
            for i in range(1, bad_bar):
                try:
                    if ts[i] > ts[i - 1]:
                        continue
                except TypeError:
                    raise BarError(f"mixed timestamp types at index {i}", i, "mixed timestamp types") from None
                raise BarError(f"non-increasing timestamp at index {i}", i, "non-increasing timestamp")
        if bad_bar < n:
            problem = _ohlc_problem(o[bad_bar], h[bad_bar], l[bad_bar], c[bad_bar])
            raise BarError(f"invalid OHLC bar at index {bad_bar}: {problem}", bad_bar, problem)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, item: slice) -> "CandleSeries":
        return CandleSeries(
            self.symbol,
            self.timestamps[item],
            self.open[item],
            self.high[item],
            self.low[item],
            self.close[item],
        )

    @classmethod
    def from_closes(cls, symbol: str, closes, timestamps=None) -> "CandleSeries":
        """Series of degenerate bars with open = high = low = close.

        Handy for fixtures where the exact swing prices must survive untouched.
        """
        c = np.asarray(closes, dtype=float)
        ts = tuple(range(len(c))) if timestamps is None else tuple(timestamps)
        return cls(symbol, ts, c.copy(), c.copy(), c.copy(), c.copy())


def _dates(raw: list[str], ints: bool) -> list[Timestamp]:
    """The one date rule: ``int`` fields, or 10-character ``YYYY-MM-DD`` dates.

    Checking the form before ``date.fromisoformat`` keeps out what it accepts
    only on Python 3.11+, such as the week date 2020-W01-1. Raises ValueError.
    """
    if ints:
        return list(map(int, raw))
    if not all(len(t) == 10 and t[4] == t[7] == "-" for t in raw):
        raise ValueError("date not in YYYY-MM-DD form")
    return list(map(date.fromisoformat, raw))


def parse_candles(text: str, symbol: str) -> CandleSeries:
    """Parse candle CSV text into a validated series.

    Blank lines and whitespace around fields are ignored. Raises
    CandleParseError with a 1-based data row: the first row with a malformed
    field if there is one (wrong field count, bad date, a date format other
    than the first row's, non-numeric price), otherwise the first bad bar
    (non-positive or non-finite price, OHLC order, non-increasing timestamp).
    """
    return _parse_pieces(iter([_lines(text)]), symbol)


def _lines(text: str) -> list[str]:
    """The text's non-blank lines, stripped."""
    return list(filter(None, map(str.strip, text.splitlines())))


def _parse_pieces(pieces: Iterator[list[str]], symbol: str) -> CandleSeries:
    """The series of a text given as the ``_lines`` of its pieces, in order.

    Each piece's rows go through the column parse on their own; the columns
    are joined once, and CandleSeries checks the bars once, at the end. On a
    header or field error the remaining pieces are still drawn, so that an
    error raised while drawing them (read_candle_file's non-UTF-8 byte) is
    the one reported.
    """
    header = None
    int_dates = False
    row = 0  # data rows of the earlier pieces
    timestamps: list[Timestamp] = []
    blocks: list[list[np.ndarray]] = []
    try:
        for rows in pieces:
            if header is None and rows:
                header, rows = rows[0], rows[1:]
                fields = [f.strip().lower() for f in header.split(",")]
                if tuple(fields[:5]) != HEADER_FIELDS or len(fields) > 6 or (len(fields) == 6 and fields[5] != "volume"):
                    raise CandleParseError(f"bad header {header!r}: expected 'date,open,high,low,close[,volume]'")
            if not rows:
                continue
            if not row:  # the first row fixes the date format
                try:
                    int(rows[0].split(",", 1)[0])
                    int_dates = True
                except ValueError:
                    pass
            try:
                stamps, ohlc = _parse_columns(rows, int_dates)
            except ValueError:
                _parse_rows(rows, row, int_dates)  # raises the CandleParseError naming the first malformed row
                raise
            timestamps += stamps
            blocks.append(ohlc)
            row += len(rows)
        if header is None:
            raise CandleParseError("empty input: missing header line")
    except CandleParseError:
        for _ in pieces:  # a later piece's own error comes first
            pass
        raise
    columns = [np.concatenate(column) for column in zip(*blocks)] if blocks else [np.empty(0)] * 4
    try:
        return CandleSeries(symbol, tuple(timestamps), *columns)
    except BarError as exc:
        row = exc.index + 1
        raise CandleParseError(f"{exc.reason} at row {row}", row) from None


def _parse_rows(rows: list[str], before: int, int_dates: bool) -> None:
    """Row scan that raises CandleParseError naming the first row with a malformed field.

    ``before`` data rows precede ``rows`` in the file; its first row fixed ``int_dates``.
    """
    for row, line in enumerate(rows, start=before + 1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (5, 6):
            raise CandleParseError(f"malformed row: expected 5 or 6 fields, got {len(parts)} at row {row}", row)
        for is_int in (True, False):
            try:
                _dates(parts[:1], is_int)
                break
            except ValueError:
                pass
        else:
            raise CandleParseError(f"bad date {parts[0]!r} at row {row}", row)
        if is_int != int_dates:
            raise CandleParseError(f"mixed date formats at row {row}", row)
        try:
            for price in parts[1:5]:
                float(price)
        except ValueError:
            raise CandleParseError(f"non-numeric price at row {row}", row) from None


def _parse_columns(rows: list[str], int_dates: bool) -> tuple[list[Timestamp], list[np.ndarray]]:
    """Timestamps and open/high/low/close columns of the rows, PARSE_BLOCK rows at a time.

    Raises ValueError on any malformed field; the bars are left to CandleSeries.
    ``int_dates`` is the date format the file's first row fixed. In rows that
    mix five and six fields, six-field rows first drop their (ignored) volume
    field.
    """
    commas = set(map(str.count, rows, repeat(",")))
    if not commas <= {4, 5}:
        raise ValueError("rows need 5 or 6 fields")
    if len(commas) == 2:
        rows = [row.rsplit(",", 1)[0] if row.count(",") == 5 else row for row in rows]
    width = 6 if commas == {5} else 5
    n = len(rows)
    timestamps: list[Timestamp] = []
    ohlc = [np.empty(n) for _ in range(4)]
    for start in range(0, n, PARSE_BLOCK):
        block = rows[start:start + PARSE_BLOCK]
        stop = start + len(block)
        fields = ",".join(block).split(",")
        timestamps.extend(_dates(list(map(str.strip, fields[0::width])), int_dates))
        for j, column in enumerate(ohlc, start=1):
            column[start:stop] = list(map(float, fields[j::width]))
    return timestamps, ohlc


def format_candles(series: CandleSeries) -> str:
    """Serialize to candle CSV. Floats use repr, so parse -> format -> parse is exact."""
    stamps = [ts.isoformat() if isinstance(ts, date) else ts for ts in series.timestamps]
    columns = (series.open.tolist(), series.high.tolist(), series.low.tolist(), series.close.tolist())
    return "date,open,high,low,close\n" + "".join(
        [f"{ts},{o!r},{h!r},{l!r},{c!r}\n" for ts, o, h, l, c in zip(stamps, *columns)]
    )


def _pieces(f: BinaryIO) -> Iterator[bytes]:
    """The file's bytes, read READ_BYTES at a time, in pieces that end after a newline byte.

    A piece runs to the last newline byte of a read, the last piece to the
    file's end. A newline byte lies inside no UTF-8 character and no CRLF pair
    and ends a line under ``splitlines``, so the pieces' lines are the whole
    text's lines.
    """
    rest: list[bytes] = []  # the reads since the last newline byte
    while data := f.read(READ_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join([*rest, data[:cut]])
            rest.clear()
        rest.append(data[cut:])
    if tail := b"".join(rest):
        yield tail


def _decoded_lines(f: BinaryIO) -> Iterator[list[str]]:
    """The ``_lines`` of each piece; a byte that is not UTF-8 raises CandleParseError naming its data row."""
    before = 0  # non-blank lines of the earlier pieces, the header included
    for piece in _pieces(f):
        try:
            lines = _lines(piece.decode("utf-8"))
        except UnicodeDecodeError as exc:
            # the lines wholly before the one holding the byte, counted as parse_candles counts them
            head = (piece[: exc.start].decode("utf-8") + "x").splitlines()[:-1]
            row = before + sum(1 for line in head if line.strip())
            where = f"at row {row}" if row else "in the header"
            raise CandleParseError(f"non-UTF-8 byte {piece[exc.start]:#04x} {where}", row or None) from None
        before += len(lines)
        yield lines


def read_candle_file(path) -> CandleSeries:
    """parse_candles of the file's text, read a piece at a time; errors are prefixed with the path."""
    p = Path(path)
    try:
        with p.open("rb") as f:
            return _parse_pieces(_decoded_lines(f), symbol=p.stem)
    except CandleParseError as exc:
        raise CandleParseError(f"{p}: {exc}", exc.row) from None


def write_candle_file(series: CandleSeries, path) -> None:
    Path(path).write_text(format_candles(series), encoding="utf-8")


def synth_gbm(s0: float, drift: float, vol: float, n: int, seed: int, symbol: str = "synthetic-gbm") -> CandleSeries:
    """Geometric-Brownian-motion bars: per-bar log-return ~ Normal(drift, vol^2).

    open[k] = close[k-1] (open[0] = s0); highs/lows get small seeded wick noise
    proportional to vol, clipped so lows stay strictly positive. Deterministic
    for a fixed seed.
    """
    if not (s0 > 0.0):
        raise ValueError("s0 must be positive")
    if vol < 0.0:
        raise ValueError("vol must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    log_returns = drift + vol * rng.standard_normal(n)
    closes = s0 * np.exp(np.cumsum(log_returns))
    opens = np.concatenate(([s0], closes[:-1]))
    wick_scale = 0.25 * vol
    wick_h = np.minimum(np.abs(rng.standard_normal(n)) * wick_scale, 0.5)
    wick_l = np.minimum(np.abs(rng.standard_normal(n)) * wick_scale, 0.5)
    body_hi = np.maximum(opens, closes)
    body_lo = np.minimum(opens, closes)
    highs = body_hi * (1.0 + wick_h)
    lows = body_lo * (1.0 - wick_l)
    return CandleSeries(symbol, tuple(range(n)), opens, highs, lows, closes)


def synth_trend_series(
    s0: float = 100.0,
    swings: int = 60,
    retracement_mu: float = math.log(0.55),
    retracement_sigma: float = 0.30,
    seed: int = 0,
    symbol: str = "synthetic-trends",
) -> tuple[CandleSeries, list[float]]:
    """Plant i.i.d. log-normal retracements into an alternating swing path.

    After ``TREND_WARMUP_BARS`` flat bars at ``s0``, every swing is one
    movement (up by ``TREND_MOVEMENT_REL`` of the current low over
    ``TREND_MOVEMENT_BARS`` bars) followed by one correction that retraces a
    fraction X ~ LogNormal(retracement_mu, retracement_sigma) of that
    movement. Bars are degenerate (open = high = low = close) so detected
    extrema equal the planted swing prices exactly. Returns the series and the
    planted X values in order.
    """
    if not (s0 > 0.0 and swings >= 1):
        raise ValueError("invalid synthetic trend parameters")
    rng = np.random.default_rng(seed)
    closes: list[float] = [s0] * TREND_WARMUP_BARS
    planted: list[float] = []
    # retracements beyond this would drive the path to or below zero
    x_cap = 0.9 * (1.0 + TREND_MOVEMENT_REL) / TREND_MOVEMENT_REL
    low = s0
    for _ in range(swings):
        high = low * (1.0 + TREND_MOVEMENT_REL)
        closes.extend(np.linspace(closes[-1], high, TREND_MOVEMENT_BARS + 1)[1:].tolist())
        x = float(np.exp(retracement_mu + retracement_sigma * rng.standard_normal()))
        x = min(x, x_cap)
        planted.append(x)
        new_low = high - x * (high - low)
        n_corr = max(4, int(round(TREND_CORRECTION_BARS * max(x, 0.3))))
        closes.extend(np.linspace(high, new_low, n_corr + 1)[1:].tolist())
        low = new_low
    return CandleSeries.from_closes(symbol, closes), planted
