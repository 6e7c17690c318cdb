"""OHLC candle containers, CSV parsing/serialization, and synthetic generators.

Candle files are plain UTF-8 CSV with a header ``date,open,high,low,close[,volume]``;
rows with and without the (ignored) volume field may mix. A timestamp is an
integer bar index or a 10-character ``YYYY-MM-DD`` date on every Python
version, and the first row fixes which. ``CandleSeries.timestamps`` is one
numpy column, ``int64`` or ``datetime64[D]`` (``.tolist()`` gives ints or
``date`` objects). Bar distance is always measured as index difference within
a series; calendar gaps are ignored. Numbers follow numpy's syntax: a price,
stripped, is an ASCII decimal float, ``inf`` or ``nan``, and an integer date
an optional sign and ASCII digits inside int64, so ``1_0``, non-ASCII digits
and larger integers, which ``float()`` and ``int()`` accept, are malformed.

``read_candle_file`` reads a file in 64 KiB pieces (``READ_BYTES``), each cut
after its last newline byte, and parses each piece with one ``np.loadtxt``
call; the pieces' columns are joined once, and ``CandleSeries`` is the one
place that checks bars. Errors come in one order, whatever the pieces: a
non-UTF-8 byte anywhere in the file, then a bad header, then the first row
with a malformed field, then the first bad bar, even one on an earlier row.

All containers are immutable after construction and safe to share across
threads or processes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

HEADER_FIELDS = ("date", "open", "high", "low", "close")
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


@dataclass(frozen=True, eq=False)
class CandleSeries:
    """A symbol plus parallel OHLC arrays with strictly increasing timestamps; compared by identity.

    ``timestamps`` is an int64 or datetime64[D] array, or a sequence of ints or
    of ``date`` objects. A bad bar, or an item of the other type, raises BarError
    naming the first bad index; where one bar breaks two rules, the OHLC rule is named.
    """

    symbol: str
    timestamps: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        for name in ("open", "high", "low", "close"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        ts = self.timestamps
        n = len(ts)
        mixed = n  # the first index whose type differs from the first timestamp's
        if not isinstance(ts, np.ndarray):
            # never cast mixed items: numpy reads the int 1 as the date 1970-01-02
            dates = [isinstance(t, date) for t in ts]
            mixed = dates.index(not dates[0]) if len(set(dates)) == 2 else n
            ts = np.array(ts[:mixed], dtype="datetime64[D]" if dates and dates[0] else np.int64)
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        if not (self.open.shape == self.high.shape == self.low.shape == self.close.shape == (n,)):
            raise ValueError("OHLC arrays and timestamps must have equal length")
        o, h, l, c = self.open, self.high, self.low, self.close
        # NaN fails every comparison, and a finite high bounds the other prices
        good = (l > 0.0) & (l <= o) & (o <= h) & (l <= c) & (c <= h) & np.isfinite(h)
        bad_bar = n if good.all() else int(good.argmin())
        # compared, not differenced: np.diff can overflow int64
        head = ts[: min(bad_bar, mixed)]
        rising = head[1:] > head[:-1]
        if not rising.all():
            i = int(rising.argmin()) + 1
            raise BarError(f"non-increasing timestamp at index {i}", i, "non-increasing timestamp")
        if mixed < bad_bar:
            raise BarError(f"mixed timestamp types at index {mixed}", mixed, "mixed timestamp types")
        if bad_bar < n:
            problem = _ohlc_problem(o[bad_bar], h[bad_bar], l[bad_bar], c[bad_bar])
            raise BarError(f"invalid OHLC bar at index {bad_bar}: {problem}", bad_bar, problem)

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, item: slice) -> "CandleSeries":
        columns = (self.timestamps, self.open, self.high, self.low, self.close)
        return CandleSeries(self.symbol, *(column[item] for column in columns))

    @classmethod
    def from_closes(cls, symbol: str, closes) -> "CandleSeries":
        """Series of degenerate bars with open = high = low = close, at bars 0, 1, ...

        Handy for fixtures where the exact swing prices must survive untouched.
        """
        c = np.asarray(closes, dtype=float)
        return cls(symbol, np.arange(len(c)), c.copy(), c.copy(), c.copy(), c.copy())


def _loadtxt(lines: list[str], dtype, usecols) -> np.ndarray:
    """numpy's C reader over comma-separated lines, the number rule of candle files; raises ValueError."""
    with warnings.catch_warnings():
        # numpy releases that parse an integer through float (1.0) warn first: refuse instead
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)


def _int_date(line: str) -> bool:
    """Whether the line's first field is an integer date."""
    try:
        return len(_loadtxt([line], np.int64, [0])) == 1
    except ValueError:
        return False


def _dates(raw) -> np.ndarray:
    """The one ISO date rule: 10-character ``YYYY-MM-DD`` fields, as a datetime64[D] column.

    The form check keeps out what ``date.fromisoformat`` accepts only on Python
    3.11+, such as the week date 2020-W01-1; numpy's date parse, which reads
    ``2020-01``, ``5`` and ``20200103`` as dates, is never used. Raises ValueError.
    """
    fields = list(map(str.strip, raw))
    if not all(len(t) == 10 and t[4] == t[7] == "-" for t in fields):
        raise ValueError("date not in YYYY-MM-DD form")
    days = np.array([date.fromisoformat(t).toordinal() for t in fields], dtype=np.int64)
    return (days - date(1970, 1, 1).toordinal()).astype("datetime64[D]")


def _columns(rows: list[str], int_dates: bool) -> list[np.ndarray]:
    """The rows' timestamp and open/high/low/close columns, from one loadtxt call.

    Raises ValueError on a malformed field or a row without 5 or 6 fields
    (``usecols`` ignores a seventh). Copies, so that no loaded table outlives the call.
    """
    if not {row.count(",") for row in rows} <= {4, 5}:
        raise ValueError("rows need 5 or 6 fields")
    dtype = [("date", np.int64 if int_dates else object)] + [(name, np.float64) for name in HEADER_FIELDS[1:]]
    table = _loadtxt(rows, dtype, range(5))
    stamps = table["date"].copy() if int_dates else _dates(table["date"])
    return [stamps] + [table[name].copy() for name in HEADER_FIELDS[1:]]


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
    row = 0  # data rows of the earlier pieces
    columns: list = [[] for _ in HEADER_FIELDS]  # each column's pieces, then the column
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
                int_dates = _int_date(rows[0])
            try:
                for column, piece in zip(columns, _columns(rows, int_dates)):
                    column.append(piece)
            except ValueError:
                _parse_rows(rows, row, int_dates)  # raises the CandleParseError naming the first malformed row
                raise
            row += len(rows)
        if header is None:
            raise CandleParseError("empty input: missing header line")
    except CandleParseError:
        for _ in pieces:  # a later piece's own error comes first
            pass
        raise
    for k, column in enumerate(columns):  # each column's pieces go once it is joined, not all at the end
        columns[k] = np.concatenate(column) if column else np.empty(0, np.int64)
    try:
        return CandleSeries(symbol, *columns)
    except BarError as exc:
        row = exc.index + 1
        raise CandleParseError(f"{exc.reason} at row {row}", row) from None


def _parse_rows(rows: list[str], before: int, int_dates: bool) -> None:
    """Row scan that raises CandleParseError naming the first row with a malformed field.

    ``before`` data rows precede ``rows``; the file's first row fixed ``int_dates``.
    Each row is judged by the column parse of that row alone: one rule, named here.
    """
    for row, line in enumerate(rows, start=before + 1):
        parts = line.split(",")
        if len(parts) not in (5, 6):
            raise CandleParseError(f"malformed row: expected 5 or 6 fields, got {len(parts)} at row {row}", row)
        try:
            _columns([line], int_dates)
            continue
        except ValueError:  # the column parse rejects the row: name its first malformed field
            is_int = _int_date(line)
        if not is_int:
            try:
                _dates(parts[:1])
            except ValueError:
                raise CandleParseError(f"bad date {parts[0].strip()!r} at row {row}", row) from None
        if is_int != int_dates:
            raise CandleParseError(f"mixed date formats at row {row}", row)
        raise CandleParseError(f"non-numeric price at row {row}", row)


def format_candles(series: CandleSeries) -> str:
    """Serialize to candle CSV. Floats use repr, so parse -> format -> parse is exact; dates print as YYYY-MM-DD."""
    columns = (series.open.tolist(), series.high.tolist(), series.low.tolist(), series.close.tolist())
    return "date,open,high,low,close\n" + "".join(
        [f"{ts},{o!r},{h!r},{l!r},{c!r}\n" for ts, o, h, l, c in zip(series.timestamps.tolist(), *columns)]
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
    return CandleSeries(symbol, np.arange(n), opens, highs, lows, closes)


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
