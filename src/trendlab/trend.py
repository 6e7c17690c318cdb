"""Dow-trend phases over a MinMax process and the trend-variable samples.

A market is in an up-trend once the last two fixed lows and the last two fixed
highs are both strictly increasing; the trend ends at the detection of the
first point breaking that strict monotonicity (equal values break it too).
Down-trends mirror everything. Phases never overlap: when a new trend's
establishing quadruple reaches back into the previous phase, its start is
trimmed to the first point after that phase.

``legs`` walks the completed legs of the phases and is the one place leg
geometry is derived: each phase's leg range, the movement/correction test and
the signed leg sizes. Per completed leg the observable variables are emitted,
all strictly positive ratios except the integer bar-count duration:

  movement leg    rel_movement = size / start price, delay_m = d_abs / start price
  correction leg  rel_correction = size / start price, delay_c = d_abs / start price,
                  retracement = size / previous movement size,
                  delay_x = d_abs / previous movement size,
                  duration = end bar - start bar

A leg whose completing point also terminates the phase still counts: the leg
itself completed, the trend merely ended because of its size. Degenerate legs
(non-positive sizes, missing previous movement) and zero delays are skipped
and tallied instead of emitted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
PERIOD_GAP = "period_gap"

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
class SampleBatch(Sequence):
    """Extracted samples as columns, one row per sample in emission order.

    ``variable`` and ``direction`` hold int8 codes into VARIABLES and
    DIRECTIONS; ``event`` numbers the leg a sample came from and, within one
    variable, is unique and increasing. The columns are made read-only. Indexing and iteration build
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

    def __post_init__(self):
        for column in (self.event, self.variable, self.direction, self.value):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.value)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(self)[item]
        i = range(len(self))[item]
        return TrendSample(
            VARIABLES[self.variable[i]],
            float(self.value[i]),
            DIRECTIONS[self.direction[i]],
            self.scaling,
            self.symbol,
            int(self.event[i]),
        )

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

    def linked_pairs(self, var_a: str, var_b: str, direction: str | None = None) -> list[tuple[float, float]]:
        """Value pairs of two variables sharing a leg event, for joint fits, in var_b order."""
        mask_a = self._select(var_a, direction)
        mask_b = self._select(var_b, direction)
        event_a, event_b = self.event[mask_a], self.event[mask_b]
        at = np.searchsorted(event_a, event_b)
        found = at < len(event_a)
        found[found] = event_a[at[found]] == event_b[found]
        return list(zip(self.value[mask_a][at[found]].tolist(), self.value[mask_b][found].tolist()))


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


def legs(mm: MinMaxProcess, phases: Sequence[TrendPhase]) -> Iterator[tuple[TrendPhase, int, bool, float, float]]:
    """Yield ``(phase, a, is_correction, size, previous)`` per completed leg a -> a + 1.

    A phase's legs run from its start point to its violation point, or to its
    end point while it is open. A correction starts at a high in an up-trend
    (a low in a down-trend). ``size`` is ``b - a`` into a high and ``a - b``
    into a low (IEEE negation is exact, so bit for bit); ``previous`` is the
    size of the leg ending at ``a``, NaN when ``a == 0``.
    """
    high = mm.high.tolist()
    diff = np.diff(mm.price)
    size = np.where(mm.high[1:], diff, -diff).tolist()
    for ph in phases:
        up = ph.direction == UP
        last = ph.violation_point_index if ph.violation_point_index is not None else ph.end_point_index
        for a in range(ph.start_point_index, last):
            yield ph, a, high[a] == up, size[a], size[a - 1] if a else math.nan


def extract_samples(
    mm: MinMaxProcess,
    phases: Sequence[TrendPhase],
    series: CandleSeries,
    scaling: float = float("nan"),
) -> SampleBatch:
    """Emit per-leg trend variables for every completed leg inside a phase."""
    price = mm.price.tolist()
    bar = mm.bar.tolist()
    d_abs = mm.d_abs.tolist()
    events: list[int] = []
    variables: list[int] = []
    directions: list[int] = []
    values: list[float] = []
    degenerate = 0
    zero_delay = 0

    def emit(variable: int, value: float):
        events.append(event)
        variables.append(variable)
        directions.append(direction)
        values.append(value)

    for event, (ph, a, is_correction, size, previous) in enumerate(legs(mm, phases), 1):
        if size <= 0.0:
            degenerate += 1
            continue
        direction = _DIRECTION_CODE[ph.direction]
        a_price, b_delay = price[a], d_abs[a + 1]
        if not is_correction:
            emit(_REL_MOVEMENT, size / a_price)
            if b_delay > 0.0:
                emit(_DELAY_M, b_delay / a_price)
            else:
                zero_delay += 1
            continue
        emit(_REL_CORRECTION, size / a_price)
        emit(_DURATION, float(bar[a + 1] - bar[a]))
        if b_delay > 0.0:
            emit(_DELAY_C, b_delay / a_price)
        else:
            zero_delay += 1
        # a NaN previous (the phase starts at point 0) fails the test too
        if previous > 0.0:
            emit(_RETRACEMENT, size / previous)
            if b_delay > 0.0:
                emit(_DELAY_X, b_delay / previous)
        else:
            degenerate += 1
    return SampleBatch(
        event=np.array(events, dtype=np.int64),
        variable=np.array(variables, dtype=np.int8),
        direction=np.array(directions, dtype=np.int8),
        value=np.array(values, dtype=float),
        symbol=series.symbol,
        scaling=scaling,
        degenerate=degenerate,
        zero_delay=zero_delay,
    )


def period_gaps(mm: MinMaxProcess, phases: Sequence[TrendPhase]) -> list[int]:
    """Bar gaps between consecutive same-kind points lying inside a phase."""
    bar = mm.bar.tolist()
    gaps = []
    for ph in phases:
        for i in range(ph.start_point_index, ph.end_point_index - 1):
            gaps.append(bar[i + 2] - bar[i])
    return gaps


def mean_period(mm: MinMaxProcess, phases: Sequence[TrendPhase]) -> float | None:
    """Mean same-kind bar gap inside trends, or None when no pair qualifies."""
    gaps = period_gaps(mm, phases)
    if not gaps:
        return None
    return float(np.mean(gaps))


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
