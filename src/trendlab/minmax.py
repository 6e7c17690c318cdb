"""Alternating swing extrema (MinMax process) driven by a SAR indicator.

The sweep tracks one candidate extremum at a time: a running maximum of candle
highs while searching a high (SAR up), a running minimum of candle lows while
searching a low (SAR down). A candidate becomes a fixed point when the SAR
changes sign, or immediately when a bar violates the last fixed opposite
extremum (a low breaking under the last fixed low during a high search, and
mirrored). Each fixed point records both the bar of the extreme price and the
bar at which it was detected; the absolute delay d_abs is the distance between
the extreme price and the close of the detection bar.

Everything is causal: a point fixed at detection bar t depends only on candles
with index <= t, so replaying any prefix reproduces all points already fixed
within it, byte for byte.

``run_minmax`` returns the fixed points as a ``MinMaxProcess``: read-only
numpy columns built through keywords and validated once, on construction,
which is the one place the point invariants are checked. The pipeline reads
the columns; ``MinMaxProcess.points`` builds ``ExtremumPoint`` rows only when
a reader asks for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .indicators import SAR_DOWN, SAR_UP, SarSeries
from .market_data import CandleSeries

HIGH = "high"
LOW = "low"


@dataclass(frozen=True)
class ExtremumPoint:
    """One fixed point as a row, built by ``MinMaxProcess.points`` from checked columns."""

    kind: str
    price: float
    bar: int
    detection_bar: int
    detection_close: float
    d_abs: float


@dataclass(frozen=True)
class OpenCandidate:
    """Provisional extremum still being tracked when the series ends."""

    kind: str
    price: float
    bar: int


# (column, dtype) in MinMaxProcess's field order
COLUMNS = (
    ("high", bool),
    ("price", np.float64),
    ("bar", np.int64),
    ("detection_bar", np.int64),
    ("detection_close", np.float64),
    ("d_abs", np.float64),
)

# the invariant messages, in the order they are checked at one index
_INVARIANTS = (
    "points must alternate kinds (index {})",
    "point bars must strictly increase (index {})",
    "detection bars must be non-decreasing (index {})",
    "detection_bar must be >= bar (index {})",
    "d_abs must equal |price - detection_close| (index {})",
)


@dataclass(frozen=True, eq=False, kw_only=True)
class MinMaxProcess:
    """Fixed swing points as read-only columns, one row per point.

    ``high`` is True for a fixed high and False for a fixed low. The columns
    are copied, made read-only and validated once, here and nowhere else; a
    violation names the first offending index. ``points`` builds the rows on
    first use.
    """

    high: np.ndarray = ()
    price: np.ndarray = ()
    bar: np.ndarray = ()
    detection_bar: np.ndarray = ()
    detection_close: np.ndarray = ()
    d_abs: np.ndarray = ()
    open_candidate: Optional[OpenCandidate] = None

    def __post_init__(self):
        for name, dtype in COLUMNS:
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        self._validate()

    def _validate(self) -> None:
        shapes = {getattr(self, name).shape for name, _ in COLUMNS}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise ValueError("columns must be one-dimensional and of equal length")
        n = len(self)
        if n == 0:
            return
        bad = np.zeros((len(_INVARIANTS), n), dtype=bool)
        bad[0, 1:] = self.high[1:] == self.high[:-1]
        bad[1, 1:] = self.bar[1:] <= self.bar[:-1]
        bad[2, 1:] = self.detection_bar[1:] < self.detection_bar[:-1]
        bad[3] = self.detection_bar < self.bar
        bad[4] = self.d_abs != np.abs(self.price - self.detection_close)
        at = np.flatnonzero(bad.any(axis=0))
        if at.size:
            i = int(at[0])
            raise ValueError(_INVARIANTS[int(np.argmax(bad[:, i]))].format(i))
        last_kind = HIGH if self.high[-1] else LOW
        if self.open_candidate is not None and self.open_candidate.kind == last_kind:
            raise ValueError("open candidate must alternate with the last fixed point")

    @cached_property
    def points(self) -> tuple[ExtremumPoint, ...]:
        kinds = [HIGH if h else LOW for h in self.high.tolist()]
        columns = [getattr(self, name).tolist() for name, _ in COLUMNS[1:]]
        return tuple(map(ExtremumPoint, kinds, *columns))

    def __len__(self) -> int:
        return len(self.price)


def run_minmax(series: CandleSeries, sar: SarSeries) -> MinMaxProcess:
    """Sweep a candle series against its SAR values into a MinMax process.

    The first search covers every bar up to and including the first defined
    SAR bar (warm-up bars feed the initial candidate but never fix points).
    After a point is fixed, the opposite search scans the bars strictly after
    the fixed extremum through the detection bar, then continues bar by bar.
    """
    n = len(series)
    if len(sar) != n:
        raise ValueError(f"SAR length {len(sar)} does not match series length {n}")
    w = sar.warmup
    if w >= n:
        return MinMaxProcess()

    highs = series.high.tolist()
    lows = series.low.tolist()
    sar_values = sar.values.tolist()

    # per fixed point: extreme price, extreme bar, detection bar
    prices: list[float] = []
    bars: list[int] = []
    detection_bars: list[int] = []
    searching_high = sar_values[w] == SAR_UP
    first_high = searching_high

    # seed the first candidate over [0 .. w]
    cand_bar = 0
    cand_price = highs[0] if searching_high else lows[0]
    for j in range(1, w + 1):
        if searching_high:
            if highs[j] > cand_price:
                cand_price, cand_bar = highs[j], j
        elif lows[j] < cand_price:
            cand_price, cand_bar = lows[j], j

    last_fixed_price: float | None = None  # price of the last fixed point (opposite kind)
    prev_sar = sar_values[w]

    for i in range(w + 1, n):
        s = sar_values[i]
        hi = highs[i]
        lo = lows[i]
        if searching_high:
            if cand_bar < 0 or hi > cand_price:
                cand_price, cand_bar = hi, i
        else:
            if cand_bar < 0 or lo < cand_price:
                cand_price, cand_bar = lo, i

        fix = False
        if s != prev_sar:
            # a flip only fixes when the vanishing phase matches the search
            if searching_high and s == SAR_DOWN:
                fix = True
            elif not searching_high and s == SAR_UP:
                fix = True
        if not fix and last_fixed_price is not None:
            if searching_high:
                fix = lo < last_fixed_price
            else:
                fix = hi > last_fixed_price
        if fix:
            prices.append(cand_price)
            bars.append(cand_bar)
            detection_bars.append(i)
            last_fixed_price = cand_price
            searching_high = not searching_high
            # rescan (fixed bar, i] for the opposite candidate
            start = cand_bar + 1
            cand_bar = -1
            cand_price = 0.0
            for j in range(start, i + 1):
                if searching_high:
                    if cand_bar < 0 or highs[j] > cand_price:
                        cand_price, cand_bar = highs[j], j
                elif cand_bar < 0 or lows[j] < cand_price:
                    cand_price, cand_bar = lows[j], j
        prev_sar = s

    open_candidate = None
    if cand_bar >= 0:
        open_candidate = OpenCandidate(HIGH if searching_high else LOW, cand_price, cand_bar)
    price = np.array(prices, dtype=np.float64)
    detection_bar = np.array(detection_bars, dtype=np.int64)
    detection_close = series.close[detection_bar]
    return MinMaxProcess(
        open_candidate=open_candidate,
        # kinds alternate from the first search direction
        high=(np.arange(len(prices)) % 2 == 0) == first_high,
        price=price,
        bar=bars,
        detection_bar=detection_bar,
        detection_close=detection_close,
        d_abs=np.abs(price - detection_close),
    )

