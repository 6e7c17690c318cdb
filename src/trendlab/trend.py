"""Dow-trend phases over a MinMax process and the trend-variable samples.

A market is in an up-trend once the last two fixed lows and the last two fixed
highs are both strictly increasing. The point completing the first such
quadruple establishes the phase, which starts at the quadruple's first point
and is observable from the establishing point's detection bar. Every later
point must lie strictly beyond the previous point of its kind; the first that
does not (equal values break it too) is the phase's violation point, and the
trend ends at its detection bar (at the last point's, while still open). A
violator cannot itself establish a trend: its own pair has just failed the old
direction and the pair before it held it, so neither direction holds at it.
Down-trends mirror everything. Phases never overlap: when a new trend's
establishing quadruple reaches back into the previous phase, its start is
trimmed to the point after that phase's end point.

``legs`` is the one place leg geometry is derived: one numpy expansion of
each phase's point range gives the completed legs as columns (phase, start
point, movement/correction test, signed size, previous leg's size).
``period_gaps`` reads the same expansion to list the bar gaps between
same-kind points inside phases; a trend period is their mean over whatever
pool the caller chooses (``sweep`` pools every file of one scaling).

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
from typing import Optional, Sequence

import numpy as np

from .market_data import CandleSeries
from .minmax import MinMaxProcess

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


@dataclass(frozen=True)
class TrendSample:
    variable: str
    value: float
    direction: str
    scaling: float
    symbol: str
    event: int


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Extracted samples as columns, one row per sample in emission order.

    ``variable`` and ``direction`` hold int8 codes into VARIABLES and
    DIRECTIONS; ``event`` numbers the leg a sample came from and, within one
    variable, is unique and increasing. The columns are made read-only.
    Iteration builds TrendSample rows on demand. ``degenerate`` and
    ``zero_delay`` tally the skipped degenerate legs and zero delays.
    """

    event: np.ndarray
    variable: np.ndarray
    direction: np.ndarray
    value: np.ndarray
    symbol: str = ""
    scaling: float = float("nan")
    degenerate: int = 0
    zero_delay: int = 0

    def __post_init__(self):
        for column in (self.event, self.variable, self.direction, self.value):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.value)

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


def detect_trends(mm: MinMaxProcess) -> list[TrendPhase]:
    """Scan fixed points into non-overlapping trend phases.

    Depends only on the point sequence, never on prices between points. A
    still-open trend at the end of the process yields a phase without a
    violation point.
    """
    price = mm.price.tolist()
    detection_bar = mm.detection_bar.tolist()
    phases: list[TrendPhase] = []
    direction: str | None = None
    start = established = end = -1

    def close(violation: int | None):
        nonlocal direction
        phases.append(
            TrendPhase(
                direction=direction,  # type: ignore[arg-type]
                start_point_index=start,
                end_point_index=end,
                established_point_index=established,
                violation_point_index=violation,
                start_detection_bar=detection_bar[established],
                end_detection_bar=detection_bar[end if violation is None else violation],
            )
        )
        direction = None

    for k in range(len(price)):
        if direction is not None:
            # strict comparison: an equal extremum gives no fresh trend indication
            if (price[k] > price[k - 2]) if direction == UP else (price[k] < price[k - 2]):
                end = k
                continue
            close(violation=k)
            # the violator cannot itself establish a trend: one of its
            # monotonicity legs just failed strictly in both readings
            continue
        if k < 3:
            continue
        # by alternation (k-3, k-1) and (k-2, k) are the same-kind pairs
        if price[k - 1] > price[k - 3] and price[k] > price[k - 2]:
            direction = UP
        elif price[k - 1] < price[k - 3] and price[k] < price[k - 2]:
            direction = DOWN
        else:
            continue
        start = k - 3
        if phases and phases[-1].end_point_index >= start:
            start = phases[-1].end_point_index + 1
        established = end = k
    if direction is not None:
        close(violation=None)
    return phases


def _ranges(starts: Sequence[int], stops: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``(k, i)`` for every i in range(starts[k], stops[k]), k in order, as two int64 columns."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.maximum(np.asarray(stops, dtype=np.int64) - starts, 0)
    k = np.repeat(np.arange(counts.size), counts)
    # position in the expansion minus the position of the range's first row
    return k, np.arange(k.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def legs(mm: MinMaxProcess, phases: Sequence[TrendPhase]) -> tuple[np.ndarray, ...]:
    """Leg columns ``(phase, a, is_correction, size, previous)``, one row per completed leg a -> a + 1.

    ``phase`` indexes ``phases``. A phase's legs run from its start point to
    its violation point, or to its end point while it is open. A correction
    starts at a high in an up-trend (a low in a down-trend). ``size`` is
    ``b - a`` into a high and ``a - b`` into a low (IEEE negation is exact,
    so bit for bit); ``previous`` is the size of the leg ending at ``a``,
    NaN when ``a == 0``.
    """
    phase, a = _ranges(
        [ph.start_point_index for ph in phases],
        [ph.end_point_index if ph.violation_point_index is None else ph.violation_point_index for ph in phases],
    )
    up = np.array([ph.direction == UP for ph in phases], dtype=bool)
    diff = np.diff(mm.price)
    # the size of leg j -> j + 1 at j + 1, NaN at 0
    sizes = np.concatenate(([math.nan], np.where(mm.high[1:], diff, -diff)))
    return phase, a, mm.high[a] == up[phase], sizes[a + 1], sizes[a]


def extract_samples(
    mm: MinMaxProcess,
    phases: Sequence[TrendPhase],
    series: CandleSeries,
    scaling: float = float("nan"),
) -> SampleBatch:
    """Emit per-leg trend variables for every completed leg inside a phase."""
    phase, a, is_correction, size, previous = legs(mm, phases)
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
    direction = np.array([_DIRECTION_CODE[ph.direction] for ph in phases], dtype=np.int8)
    return SampleBatch(
        event=leg + 1,
        variable=np.array([code for code, _, _ in table], dtype=np.int8)[column],
        direction=direction[phase[leg]],
        value=np.column_stack([value for _, value, _ in table])[emitted],
        symbol=series.symbol,
        scaling=scaling,
        degenerate=int(np.count_nonzero(~completed | (correction & ~linked))),
        zero_delay=int(np.count_nonzero(completed & ~delayed)),
    )


def period_gaps(mm: MinMaxProcess, phases: Sequence[TrendPhase]) -> list[int]:
    """Bar gaps between consecutive same-kind points lying inside a phase."""
    _, i = _ranges([ph.start_point_index for ph in phases], [ph.end_point_index - 1 for ph in phases])
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
