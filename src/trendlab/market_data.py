"""OHLC candle containers, CSV parsing/serialization, and synthetic generators.

Candle files are plain CSV with a header ``date,open,high,low,close[,volume]``.
The date column holds either ISO-8601 dates or plain integer bar indices.
Bar distance is always measured as index difference within a series; calendar
gaps are ignored.

All containers are immutable after construction and safe to share across
threads or processes.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from typing import Iterable, Iterator, Union

import numpy as np

Timestamp = Union[date, int]

HEADER_FIELDS = ("date", "open", "high", "low", "close")
# rows per block of the column-wise parse: bounds its temporary field lists
PARSE_BLOCK = 1024


class CandleParseError(ValueError):
    """Malformed candle text. ``row`` is the 1-based data row (header excluded)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def _ohlc_problem(o: float, h: float, l: float, c: float) -> str | None:
    if not (l > 0.0 and math.isfinite(o) and math.isfinite(h) and math.isfinite(l) and math.isfinite(c)):
        return "non-positive or non-finite price"
    if h < l:
        return "high < low"
    if not (l <= o <= h):
        return "open outside [low, high]"
    if not (l <= c <= h):
        return "close outside [low, high]"
    return None


@dataclass(frozen=True)
class Candle:
    """One OHLC bar of a CandleSeries, which has already checked it."""

    timestamp: Timestamp
    open: float
    high: float
    low: float
    close: float


@dataclass(frozen=True)
class CandleSeries:
    """A symbol plus parallel OHLC arrays with strictly increasing timestamps."""

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
        if n:
            bad = ~(
                (self.low > 0.0)
                & (self.low <= self.open) & (self.open <= self.high)
                & (self.low <= self.close) & (self.close <= self.high)
                & np.isfinite(self.open) & np.isfinite(self.high)
                & np.isfinite(self.low) & np.isfinite(self.close)
            )
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"invalid OHLC bar at index {i}: "
                    f"{_ohlc_problem(self.open[i], self.high[i], self.low[i], self.close[i])}"
                )
        ts = self.timestamps
        if not all(map(operator.gt, ts[1:], ts)):
            i = next(i for i in range(1, n) if not ts[i] > ts[i - 1])  # type: ignore[operator]
            raise ValueError(f"non-increasing timestamp at index {i}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return CandleSeries(
                self.symbol,
                self.timestamps[item],
                self.open[item],
                self.high[item],
                self.low[item],
                self.close[item],
            )
        return Candle(
            self.timestamps[item],
            float(self.open[item]),
            float(self.high[item]),
            float(self.low[item]),
            float(self.close[item]),
        )

    def __iter__(self) -> Iterator[Candle]:
        for i in range(len(self)):
            yield self[i]

    @classmethod
    def from_closes(cls, symbol: str, closes, timestamps=None) -> "CandleSeries":
        """Series of degenerate bars with open = high = low = close.

        Handy for fixtures where the exact swing prices must survive untouched.
        """
        c = np.asarray(closes, dtype=float)
        ts = tuple(range(len(c))) if timestamps is None else tuple(timestamps)
        return cls(symbol, ts, c.copy(), c.copy(), c.copy(), c.copy())


def parse_candles(text: str | Iterable[str], symbol: str) -> CandleSeries:
    """Parse candle CSV text into a validated series.

    Raises CandleParseError with the offending 1-based data row on any
    malformed field, OHLC violation, or non-increasing timestamp.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]
    lines = list(filter(None, map(str.strip, lines)))
    if not lines:
        raise CandleParseError("empty input: missing header line")
    header = [f.strip().lower() for f in lines[0].split(",")]
    if tuple(header[:5]) != HEADER_FIELDS or len(header) > 6 or (len(header) == 6 and header[5] != "volume"):
        raise CandleParseError(f"bad header {lines[0]!r}: expected 'date,open,high,low,close[,volume]'")
    series = _parse_columns(lines[1:], len(header), symbol)
    return series if series is not None else _parse_rows(lines[1:], symbol)


def _parse_rows(rows: list[str], symbol: str) -> CandleSeries:
    """Row-by-row parse that raises CandleParseError naming the first bad row."""
    timestamps: list[Timestamp] = []
    opens: list[float] = []
    highs: list[float] = []
    lows: list[float] = []
    closes: list[float] = []
    int_dates: bool | None = None
    for row, line in enumerate(rows, start=1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (5, 6):
            raise CandleParseError(f"malformed row: expected 5 or 6 fields, got {len(parts)} at row {row}", row)
        raw_ts = parts[0]
        try:
            ts: Timestamp = int(raw_ts)
            is_int = True
        except ValueError:
            try:
                ts = date.fromisoformat(raw_ts)
                is_int = False
            except ValueError:
                raise CandleParseError(f"bad date {raw_ts!r} at row {row}", row) from None
        if int_dates is None:
            int_dates = is_int
        elif int_dates != is_int:
            raise CandleParseError(f"mixed date formats at row {row}", row)
        try:
            o, h, l, c = (float(parts[i]) for i in range(1, 5))
        except ValueError:
            raise CandleParseError(f"non-numeric price at row {row}", row) from None
        problem = _ohlc_problem(o, h, l, c)
        if problem is not None:
            raise CandleParseError(f"{problem} at row {row}", row)
        if timestamps and not ts > timestamps[-1]:  # type: ignore[operator]
            raise CandleParseError(f"non-increasing timestamp at row {row}", row)
        timestamps.append(ts)
        opens.append(o)
        highs.append(h)
        lows.append(l)
        closes.append(c)
    return CandleSeries(symbol, tuple(timestamps), np.array(opens), np.array(highs), np.array(lows), np.array(closes))


def _parse_columns(rows: list[str], width: int, symbol: str) -> CandleSeries | None:
    """Column-wise parse of well-formed rows, PARSE_BLOCK rows at a time.

    Returns None when a row has a different field count than the header or
    any field or bar is invalid; the row-by-row parser then names the row.
    The date format is fixed by the first row, as in the row parser, and an
    ISO date is taken only in the 10-character YYYY-MM-DD form, which int()
    never accepts.
    """
    n = len(rows)
    if n == 0 or set(map(str.count, rows, repeat(","))) != {width - 1}:
        return None
    try:
        int(rows[0].split(",", 1)[0])
        int_dates = True
    except ValueError:
        int_dates = False
    timestamps: list[Timestamp] = []
    ohlc = [np.empty(n) for _ in range(4)]
    try:
        for start in range(0, n, PARSE_BLOCK):
            block = rows[start:start + PARSE_BLOCK]
            stop = start + len(block)
            fields = ",".join(block).split(",")
            raw_ts = list(map(str.strip, fields[0::width]))
            if int_dates:
                timestamps.extend(map(int, raw_ts))
            elif all(len(t) == 10 and t[4] == t[7] == "-" for t in raw_ts):
                timestamps.extend(map(date.fromisoformat, raw_ts))
            else:
                return None
            for j, column in enumerate(ohlc, start=1):
                column[start:stop] = list(map(float, fields[j::width]))
        return CandleSeries(symbol, tuple(timestamps), *ohlc)
    except ValueError:
        return None


def format_candles(series: CandleSeries) -> str:
    """Serialize to candle CSV. Floats use repr, so parse -> format -> parse is exact."""
    out = ["date,open,high,low,close"]
    for i in range(len(series)):
        ts = series.timestamps[i]
        ts_txt = ts.isoformat() if isinstance(ts, date) else str(ts)
        o, h, l, c = (float(a[i]) for a in (series.open, series.high, series.low, series.close))
        out.append(f"{ts_txt},{o!r},{h!r},{l!r},{c!r}")
    return "\n".join(out) + "\n"


def read_candle_file(path) -> CandleSeries:
    from pathlib import Path

    p = Path(path)
    try:
        return parse_candles(p.read_text(encoding="utf-8"), symbol=p.stem)
    except CandleParseError as exc:
        raise CandleParseError(f"{p}: {exc}", exc.row) from None


def write_candle_file(series: CandleSeries, path) -> None:
    from pathlib import Path

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
    movement_rel: float = 0.25,
    movement_bars: int = 15,
    retracement_mu: float = math.log(0.55),
    retracement_sigma: float = 0.30,
    correction_bars_base: int = 12,
    warmup_bars: int = 32,
    seed: int = 0,
    symbol: str = "synthetic-trends",
) -> tuple[CandleSeries, list[float]]:
    """Plant i.i.d. log-normal retracements into an alternating swing path.

    Every swing is one movement (up by ``movement_rel`` of the current low over
    ``movement_bars`` bars) followed by one correction that retraces a fraction
    X ~ LogNormal(retracement_mu, retracement_sigma) of that movement. Bars are
    degenerate (open = high = low = close) so detected extrema equal the planted
    swing prices exactly. Returns the series and the planted X values in order.
    """
    if not (s0 > 0.0 and 0.0 < movement_rel and movement_bars >= 2 and swings >= 1):
        raise ValueError("invalid synthetic trend parameters")
    rng = np.random.default_rng(seed)
    closes: list[float] = [s0] * warmup_bars
    planted: list[float] = []
    # retracements beyond this would drive the path to or below zero
    x_cap = 0.9 * (1.0 + movement_rel) / movement_rel
    low = s0
    for _ in range(swings):
        high = low * (1.0 + movement_rel)
        closes.extend(np.linspace(closes[-1], high, movement_bars + 1)[1:].tolist())
        x = float(np.exp(retracement_mu + retracement_sigma * rng.standard_normal()))
        x = min(x, x_cap)
        planted.append(x)
        new_low = high - x * (high - low)
        n_corr = max(4, int(round(correction_bars_base * max(x, 0.3))))
        closes.extend(np.linspace(high, new_low, n_corr + 1)[1:].tolist())
        low = new_low
    return CandleSeries.from_closes(symbol, closes), planted
