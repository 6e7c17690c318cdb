"""Dow-trend phases over a MinMax process and the trend-variable samples.

Points alternate in kind, so point k - 2 is the previous point of k's kind.
The step at k >= 2 is the sign of price[k] - price[k - 2]: +1 for a strictly
higher high or low, -1 for a strictly lower one, 0 for an equal one. A market
is in an up-trend at k when the last two lows and the last two highs both
rise, i.e. when the steps at k - 1 and k are both +1; down-trends mirror it
with -1. A phase is a maximal run k0..k1 of two or more equal nonzero steps:

  established at k0 + 1, where both same-kind pairs first agree, and
  observable from that point's detection bar;
  ended at k1; its violation is k1 + 1, the first point not strictly beyond
  the previous point of its kind (equal values break the run too), or None
  when k1 is the last point; the trend ends at the violation's detection bar
  (at k1's while still open);
  started at its establishing quadruple's first point k0 - 2, trimmed to the
  point after the previous phase's end when it reaches back into that phase,
  so phases never overlap.

The violator rule follows from the runs: a violator starts a new run, and a
run establishes a phase only at its second step, so a violator never
establishes a trend itself.

``detect_trends`` returns ``TrendPhases`` columns; ``legs`` is the one place
leg geometry is derived: one numpy expansion of the phases' point ranges gives
the completed legs as columns (direction, start point, movement/correction
test, signed size, previous leg's size). ``period_gaps`` reads the expansion
too, for the bar gaps between same-kind points inside phases; a trend period
is their mean over the caller's pool (``sweep`` pools every file of a scaling).

``extract_samples`` is a table of seven (variable, value column, emitted
mask) rows over the leg columns. Per completed leg it emits, in this order,
the observable variables, all strictly positive ratios except the integer
bar-count duration:

  movement leg    rel_movement = size / start price, delay_m = d_abs / start price
  correction leg  rel_correction = size / start price,
                  duration = end bar - start bar,
                  delay_c = d_abs / start price,
                  retracement = size / previous movement size,
                  delay_x = d_abs / previous movement size

A leg whose completing point also terminates the phase still counts: the leg
itself completed, the trend merely ended because of its size. Degenerate legs
(non-positive sizes, missing previous movement) and zero delays are masked out
and tallied instead of emitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

import numpy as np

from .market_data import CandleSeries
from .minmax import MinMaxProcess, _Columns

UP = "up"
DOWN = "down"

RETRACEMENT = "retracement"
DURATION = "duration"
REL_MOVEMENT = "rel_movement"
REL_CORRECTION = "rel_correction"
DELAY_X = "delay_x"
DELAY_M = "delay_m"
DELAY_C = "delay_c"

VARIABLES = (RETRACEMENT, DURATION, REL_MOVEMENT, REL_CORRECTION, DELAY_X, DELAY_M, DELAY_C)
DIRECTIONS = (UP, DOWN)

_VARIABLE_CODE = {v: code for code, v in enumerate(VARIABLES)}
_DIRECTION_CODE = {d: code for code, d in enumerate(DIRECTIONS)}
# the codes extract_samples emits, in VARIABLES order
_RETRACEMENT, _DURATION, _REL_MOVEMENT, _REL_CORRECTION, _DELAY_X, _DELAY_M, _DELAY_C = range(len(VARIABLES))


@dataclass(frozen=True)
class TrendPhase:
    direction: str
    start_point_index: int
    end_point_index: int
    established_point_index: int
    violation_point_index: Optional[int]
    start_detection_bar: int
    end_detection_bar: int


@dataclass(frozen=True, eq=False)
class TrendPhases(_Columns):
    """Trend phases as read-only columns, one row per phase; iteration builds TrendPhase rows.

    ``down`` (True for a down-trend) is the code into DIRECTIONS; ``violation`` is -1 while open.
    """

    down: np.ndarray
    start: np.ndarray
    end: np.ndarray
    established: np.ndarray
    violation: np.ndarray
    start_detection_bar: np.ndarray
    end_detection_bar: np.ndarray

    def __iter__(self):
        for down, start, end, established, violation, *bars in zip(*(c.tolist() for c in vars(self).values())):
            yield TrendPhase(DIRECTIONS[down], start, end, established, violation if violation >= 0 else None, *bars)

    def select(self, directions: Collection[str]) -> TrendPhases:
        """The phases whose direction is in ``directions``; an unknown name selects nothing."""
        keep = np.isin(self.down, [_DIRECTION_CODE.get(d, -1) for d in directions])
        return TrendPhases(*(column[keep] for column in vars(self).values()))


@dataclass(frozen=True)
class TrendSample:
    variable: str
    value: float
    direction: str
    scaling: float
    symbol: str
    event: int


@dataclass(frozen=True, eq=False)
class SampleBatch(_Columns):
    """Extracted samples as columns, one row per sample in emission order.

    ``variable`` and ``direction`` hold int8 codes into VARIABLES and
    DIRECTIONS; ``event``, int32, numbers the leg a sample came from and,
    within one variable, is unique and increasing. Iteration builds
    TrendSample rows on demand. ``degenerate`` and ``zero_delay`` tally the
    skipped degenerate legs and zero delays.
    """

    event: np.ndarray
    variable: np.ndarray
    direction: np.ndarray
    value: np.ndarray
    symbol: str = ""
    scaling: float = float("nan")
    degenerate: int = 0
    zero_delay: int = 0

    def __iter__(self):
        symbol, scaling = self.symbol, self.scaling
        columns = (self.variable.tolist(), self.value.tolist(), self.direction.tolist(), self.event.tolist())
        for variable, value, direction, event in zip(*columns):
            yield TrendSample(VARIABLES[variable], value, DIRECTIONS[direction], scaling, symbol, event)

    def _select(self, variable: str, direction: str | None) -> np.ndarray:
        mask = self.variable == _VARIABLE_CODE.get(variable, -1)
        if direction is not None:
            mask &= self.direction == _DIRECTION_CODE.get(direction, -1)
        return mask

    def values(self, variable: str, direction: str | None = None) -> np.ndarray:
        return self.value[self._select(variable, direction)]

    def linked_pairs(self, var_a: str, var_b: str, direction: str | None = None) -> np.ndarray:
        """(n, 2) value pairs of two variables sharing a leg event, for joint fits, in var_b order."""
        mask_a = self._select(var_a, direction)
        mask_b = self._select(var_b, direction)
        event_a, event_b = self.event[mask_a], self.event[mask_b]
        at = np.searchsorted(event_a, event_b)
        found = at < len(event_a)
        found[found] = event_a[at[found]] == event_b[found]
        return np.column_stack((self.value[mask_a][at[found]], self.value[mask_b][found]))


def detect_trends(mm: MinMaxProcess) -> TrendPhases:
    """Non-overlapping trend phases, one per run of two or more equal nonzero steps.

    Depends only on the point sequence, never on prices between points. A
    still-open trend at the end of the process yields a phase without a
    violation point.
    """
    price = mm.price
    n = len(price)
    # the step at k >= 2 compares point k with k - 2, the previous point of its kind
    step = np.zeros(n, dtype=np.int8)
    step[2:] = (price[2:] > price[:-2]).view(np.int8) - (price[2:] < price[:-2]).view(np.int8)
    # runs of equal steps start where the step changes (the leading zeros are
    # no run); the runs k0..k1 of two or more nonzero steps are the phases
    head = np.flatnonzero(np.diff(step, prepend=0))
    tail = np.append(head, n)[1:] - 1
    run = (step[head] != 0) & (tail > head)
    k0, k1 = head[run], tail[run]
    # the establishing quadruple's first point, or the one after the previous phase's end
    start = np.maximum(k0 - 2, np.append(-1, k1)[:-1] + 1)
    # the point after the run, or -1 while the phase is open
    violation = np.where(k1 + 1 < n, k1 + 1, -1)
    bars = mm.detection_bar
    return TrendPhases(step[k0] < 0, start, k1, k0 + 1, violation, bars[k0 + 1], bars[np.maximum(violation, k1)])


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, i)`` for every i in range(starts[k], stops[k]), k in order, as two int64 columns."""
    counts = np.maximum(stops - starts, 0)
    k = np.repeat(np.arange(counts.size), counts)
    # position in the expansion minus the position of the range's first row
    return k, np.arange(k.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def legs(mm: MinMaxProcess, phases: TrendPhases) -> tuple[np.ndarray, ...]:
    """Leg columns ``(down, a, is_correction, size, previous)``, one row per completed leg a -> a + 1.

    ``down`` is True where the leg's phase is a down-trend. A phase's legs
    run from its start point to its violation point, or to its end point
    while it is open. A correction starts at a high in an up-trend (a low in
    a down-trend). ``size`` is ``b - a`` into a high and ``a - b`` into a low
    (IEEE negation is exact, so bit for bit); ``previous`` is the size of the
    leg ending at ``a``, NaN when ``a == 0``.
    """
    # an open phase's violation, -1, is below its end
    phase, a = _ranges(phases.start, np.maximum(phases.violation, phases.end))
    down = phases.down[phase]
    diff = np.diff(mm.price)
    # the size of leg j -> j + 1 at j + 1, NaN at 0
    sizes = np.concatenate(([math.nan], np.where(mm.high[1:], diff, -diff)))
    return down, a, mm.high[a] != down, sizes[a + 1], sizes[a]


def extract_samples(
    mm: MinMaxProcess,
    phases: TrendPhases,
    series: CandleSeries,
    scaling: float = float("nan"),
) -> SampleBatch:
    """Emit per-leg trend variables for every completed leg inside a phase."""
    down, a, is_correction, size, previous = legs(mm, phases)
    a_price, delay = mm.price[a], mm.d_abs[a + 1]
    completed = size > 0.0
    movement = completed & ~is_correction
    correction = completed & is_correction
    # a NaN previous (the phase starts at point 0) fails the test too
    linked = correction & (previous > 0.0)
    delayed = delay > 0.0
    # one row per variable, in emission order within a leg; the ratios to the
    # previous size divide only where linked, so never by a zero previous
    table = (
        (_REL_MOVEMENT, size / a_price, movement),
        (_DELAY_M, delay / a_price, movement & delayed),
        (_REL_CORRECTION, size / a_price, correction),
        (_DURATION, (mm.bar[a + 1] - mm.bar[a]).astype(float), correction),
        (_DELAY_C, delay / a_price, correction & delayed),
        (_RETRACEMENT, np.divide(size, previous, out=np.zeros_like(size), where=linked), linked),
        (_DELAY_X, np.divide(delay, previous, out=np.zeros_like(delay), where=linked), linked & delayed),
    )
    emitted = np.column_stack([mask for _, _, mask in table])
    leg, column = np.nonzero(emitted)
    return SampleBatch(
        # int32 holds it: a leg number stays below the bar count
        event=(leg + 1).astype(np.int32),
        variable=np.array([code for code, _, _ in table], dtype=np.int8)[column],
        direction=down[leg].astype(np.int8),
        value=np.column_stack([value for _, value, _ in table])[emitted],
        symbol=series.symbol,
        scaling=scaling,
        degenerate=int(np.count_nonzero(~completed | (correction & ~linked))),
        zero_delay=int(np.count_nonzero(completed & ~delayed)),
    )


def period_gaps(mm: MinMaxProcess, phases: TrendPhases) -> list[int]:
    """Bar gaps between consecutive same-kind points lying inside a phase."""
    _, i = _ranges(phases.start, phases.end - 1)
    return (mm.bar[i + 2] - mm.bar[i]).tolist()


@dataclass(frozen=True)
class LineFit:
    intercept: float
    slope: float
    residual_rms: float
    n: int


def period_scaling_fit(points: Sequence[tuple[float, float]]) -> LineFit:
    """Ordinary least squares of period against scaling: T ~ intercept + slope*s."""
    pts = [(float(s), float(t)) for s, t in points]
    if len({s for s, _ in pts}) < 2:
        raise ValueError("need at least two distinct scalings for a line fit")
    s = np.array([p[0] for p in pts])
    t = np.array([p[1] for p in pts])
    s_mean = s.mean()
    t_mean = t.mean()
    slope = float(np.sum((s - s_mean) * (t - t_mean)) / np.sum((s - s_mean) ** 2))
    intercept = float(t_mean - slope * s_mean)
    resid = t - (intercept + slope * s)
    return LineFit(intercept, slope, float(np.sqrt(np.mean(resid**2))), len(pts))
