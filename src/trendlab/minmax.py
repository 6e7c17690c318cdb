"""Alternating swing extrema (MinMax process) driven by a SAR indicator.

The process has one candidate extremum at a time: a running maximum of candle
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

``run_minmax`` sweeps run by run, not bar by bar. The runs come from the
``SarSeries``: stretches of bars with one SAR value, alternating up and down
and given by their heads, so a flip can end a search only at a head. One numpy
pass finds every run's highest high and lowest low; a run whose extremes do
not break the last fixed point holds no fix past its head, and only a run whose
extremes do is stepped bar by bar. The candidate is not followed bar by bar
either: when a point is fixed, it is the first extreme of the search span (the
bars after the last fixed extremum through the detection bar), one numpy
argmax or argmin. Python work grows with the number of runs and fixed points,
not of bars; the points are those of the bar-by-bar definition above.

``run_minmax`` returns the fixed points as a ``MinMaxProcess``: read-only
numpy columns built through keywords and validated once, on construction,
which is the one place the point invariants are checked. The pipeline reads
the columns; ``MinMaxProcess.points`` builds ``ExtremumPoint`` rows only when
a reader asks for them.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .indicators import SarSeries
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


class _Columns:
    """The layout of every result record: a frozen dataclass whose fields typed as arrays are its columns.

    Construction refuses a column that is not a one-dimensional array of the
    first field's length (a list too) and makes every column read-only;
    ``len`` counts the rows.
    """

    def __post_init__(self):
        # every record's module postpones its annotations, so a field's type is its source text
        columns = [getattr(self, f.name) for f in fields(self) if f.type == "np.ndarray"]
        if not all(isinstance(c, np.ndarray) and c.ndim == 1 and len(c) == len(columns[0]) for c in columns):
            raise ValueError("columns must be one-dimensional and of equal length")
        for column in columns:
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))


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
class MinMaxProcess(_Columns):
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
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
        super().__post_init__()
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


def _first_extreme(column: np.ndarray, start: int, stop: int, highest: bool) -> tuple[float, int]:
    """The extreme of column[start:stop] (non-empty) and the first bar holding it."""
    span = column[start:stop]
    bar = start + int(span.argmax() if highest else span.argmin())
    return float(column[bar]), bar


def run_minmax(series: CandleSeries, sar: SarSeries) -> MinMaxProcess:
    """Sweep a candle series against its SAR runs into a MinMax process.

    The first search covers every bar up to and including the first defined
    SAR bar (warm-up bars feed the initial candidate but never fix points).
    After a point is fixed, the opposite search scans the bars strictly after
    the fixed extremum through the detection bar, then continues bar by bar.

    Runs start at the warm-up bar and at every flip bar (``sar.heads``); see
    the module docstring for the run-wise sweep.
    """
    n = len(series)
    if len(sar) != n:
        raise ValueError(f"SAR length {len(sar)} does not match series length {n}")
    heads = sar.heads
    if not heads.size:
        return MinMaxProcess()

    high = series.high
    low = series.low
    stops = np.append(heads[1:], n)
    run_high = np.maximum.reduceat(high, heads).tolist()
    run_low = np.minimum.reduceat(low, heads).tolist()
    head_high = high[heads].tolist()
    head_low = low[heads].tolist()

    fixed: list[tuple[float, int, int]] = []  # (extreme price, extreme bar, detection bar)
    first_high = searching_high = sar.first_up
    start = 0  # the search spans [start .. current bar]
    # price of the last fixed point (opposite kind); NaN breaks nothing
    last_fixed = float("nan")

    for k, (h, stop) in enumerate(zip(heads.tolist(), stops.tolist())):
        if k:
            # a flip fixes when the vanishing phase matches the search, i.e.
            # when run k, up when (k % 2 == 0) == first_high, goes against it
            up = (k % 2 == 0) == first_high
            if up != searching_high or (head_low[k] < last_fixed if searching_high else head_high[k] > last_fixed):
                price, bar = _first_extreme(high if searching_high else low, start, h + 1, searching_high)
                fixed.append((price, bar, h))
                last_fixed, searching_high, start = price, not searching_high, bar + 1
        # the run's extremes include its head, which cannot break here: it passed
        # the test above, or it lies in the span of the point just fixed
        if not (run_low[k] < last_fixed if searching_high else run_high[k] > last_fixed):
            continue
        for i, hi, lo in zip(range(h + 1, stop), high[h + 1 : stop].tolist(), low[h + 1 : stop].tolist()):
            if lo < last_fixed if searching_high else hi > last_fixed:
                price, bar = _first_extreme(high if searching_high else low, start, i + 1, searching_high)
                fixed.append((price, bar, i))
                last_fixed, searching_high, start = price, not searching_high, bar + 1

    open_candidate = None
    if start < n:
        price, bar = _first_extreme(high if searching_high else low, start, n, searching_high)
        open_candidate = OpenCandidate(HIGH if searching_high else LOW, price, bar)
    points = np.array(fixed, dtype=[("price", np.float64), ("bar", np.int64), ("detection_bar", np.int64)])
    detection_close = series.close[points["detection_bar"]]
    return MinMaxProcess(
        open_candidate=open_candidate,
        # kinds alternate from the first search direction
        high=(np.arange(len(points)) % 2 == 0) == first_high,
        price=points["price"],
        bar=points["bar"],
        detection_bar=points["detection_bar"],
        detection_close=detection_close,
        d_abs=np.abs(points["price"] - detection_close),
    )
