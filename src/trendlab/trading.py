"""Anti-cyclic correction trades: closed-form expectation, Monte Carlo, backtest.

The trade enters against the trend once a correction retraces an ``entry``
fraction of the preceding movement and exits either at a deeper ``target``
retracement or, if the correction ends first, at the close of the bar where
its end is detected, so the detection delay acts as unavoidable slippage.
Returns are expressed in units of the preceding movement:

    R(x, d) = x - entry - d   if entry <= x < target
    R(x, d) = target - entry  if x >= target

Target fills are delay-free (a resting order at a known price); only the
detected correction end realizes the delay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection

import numpy as np

from . import trend as trend_mod
from .indicators import ScalingConfig, macd_sar
from .market_data import CandleSeries
from .minmax import _Columns, run_minmax
from .stats import (
    BivariateLogNormalParams,
    _MIN_SURVIVAL,
    conditional_cross_mean,
    lognormal_sf,
    truncated_lognormal_mean,
)


@dataclass(frozen=True)
class TradeSpec:
    """Entry and target retracement levels, in units of the last movement."""

    entry: float
    target: float

    def __post_init__(self):
        if not (0.0 < self.entry < self.target):
            raise ValueError("need 0 < entry < target")


def expected_return(params: BivariateLogNormalParams, spec: TradeSpec) -> float:
    """E(R | X >= entry) under the joint log-normal model:

        E(X|X>=a) - (a + E(D|X>=a))
          + [P(X>=t)/P(X>=a)] * [t + E(D|X>=t) - E(X|X>=t)]

    with a = entry, t = target. The bracket drops out when P(X >= t)
    underflows, which also covers the t -> infinity reduction.
    """
    a, t = spec.entry, spec.target
    sf_a = lognormal_sf(a, params.x)
    if sf_a < _MIN_SURVIVAL:
        raise ValueError(f"tail too deep: P(X >= {a}) underflows")
    value = truncated_lognormal_mean(params.x, a) - (a + conditional_cross_mean(params, a))
    sf_t = lognormal_sf(t, params.x)
    if sf_t >= _MIN_SURVIVAL:
        weight = sf_t / sf_a
        value += weight * (t + conditional_cross_mean(params, t) - truncated_lognormal_mean(params.x, t))
    return value


MC_MIN_DRAWS = 10_000
# draws per block of simulate_expected_return; its per-block temporaries are a
# few arrays of this length, next to the one n-long buffer
MC_BLOCK = 1 << 14


def simulate_expected_return(
    params: BivariateLogNormalParams,
    spec: TradeSpec,
    n: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo (mean, stderr) of R over draws with X >= entry.

    Draws correlated normals, exponentiates, filters on the entry condition,
    and applies the return rule R(x, d) of the module docstring. Deterministic
    per seed.

    All n first normals are drawn at once into one buffer, then the second
    normals block by block (MC_BLOCK draws), which continues the generator's
    stream exactly as one n-long draw would. Each block's opened returns are
    written back into the buffer's head, which never passes the block's own
    end, so no normal is overwritten before it is used. The standard
    deviation then takes ``std(ddof=1)``'s own steps, in place. The result is
    bit-identical to the one-shot formula over full-length arrays, at about
    8 bytes per draw instead of about 48.
    """
    if n < MC_MIN_DRAWS:
        raise ValueError("need at least 10^4 draws")
    rng = np.random.default_rng(seed)
    buf = rng.standard_normal(n)
    cross = math.sqrt(1.0 - params.rho**2)
    m = 0
    for start in range(0, n, MC_BLOCK):
        z = buf[start : start + MC_BLOCK]
        z2 = rng.standard_normal(z.size)
        x = np.exp(params.mu_x + params.sigma_x * z)
        d = np.exp(params.mu_d + params.sigma_d * (params.rho * z + cross * z2))
        block = np.where(x >= spec.target, spec.target - spec.entry, x - spec.entry - d)[x >= spec.entry]
        buf[m : m + block.size] = block
        m += block.size
    if m < 100:
        raise ValueError(f"only {m} of {n} draws reach the entry level {spec.entry}")
    ret = buf[:m]
    mean = ret.mean()
    ret -= mean
    ret *= ret
    return float(mean), math.sqrt(np.add.reduce(ret) / (m - 1)) / math.sqrt(m)


@dataclass(frozen=True, eq=False)
class Trades(_Columns):
    """Backtest trades as read-only columns, one row per trade in leg order.

    ``ret``, ``x`` and ``d`` are in units of the preceding movement; ``down`` codes DIRECTIONS.
    """

    ret: np.ndarray
    reached_target: np.ndarray
    x: np.ndarray
    d: np.ndarray
    down: np.ndarray
    entry_bar: np.ndarray
    exit_bar: np.ndarray


@dataclass(frozen=True)
class BacktestResult:
    """Trade columns plus tallies for skipped legs and series-end truncation."""

    trades: Trades
    degenerate: int = 0
    truncated: int = 0


def backtest_anticyclic(
    series: CandleSeries,
    scaling: float,
    spec: TradeSpec,
    directions: Collection[str] = (trend_mod.UP,),
) -> BacktestResult:
    """Replay the anti-cyclic rule over every detected trend correction.

    Entry fills at the exact level price (limit order, no slippage) on the
    first bar whose range reaches it; on that same bar the target may fill too
    (entry first, then target). Only corrections of phases whose direction is
    in ``directions`` are evaluated, and only those count towards the
    tallies; down-trend corrections are mirrored. A correction with a
    non-positive size, or after a non-positive movement, is tallied as
    degenerate. A correction starting at the first fixed point has no
    preceding movement, hence no entry level, and is skipped without a tally.
    A correction still open at the end of the series is tallied as truncated
    when its entry level was already hit.
    """
    mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
    phases = trend_mod.detect_trends(mm).select(directions)
    down, a, is_correction, size, previous = trend_mod.legs(mm, phases)
    # down-trend legs are read mirrored, prices negated (IEEE negation is
    # exact, so bit for bit): every correction then falls from its start point
    sign = np.where(down, -1.0, 1.0)

    # correction legs from point a to b = a + 1, after the movement ending at a
    corrections = is_correction & (a > 0)
    degenerate = corrections & ((previous <= 0.0) | (size <= 0.0))
    t = np.flatnonzero(corrections & ~degenerate)
    mirrored, b, movement = down[t], a[t] + 1, previous[t]
    top = sign[t] * mm.price[b - 1]
    entry = top - spec.entry * movement
    entry_bar, target_bar = _first_touches(
        series, mirrored, mm.bar[b - 1] + 1, mm.bar[b], entry, top - spec.target * movement
    )
    reached = target_bar >= 0
    columns = (
        np.where(reached, spec.target - spec.entry, (entry - sign[t] * mm.detection_close[b]) / movement),
        reached,
        size[t] / movement,
        mm.d_abs[b] / movement,
        mirrored,
        entry_bar,
        np.where(reached, target_bar, mm.detection_bar[b]),
    )
    trades = Trades(*(column[entry_bar >= 0] for column in columns))

    # an entry hit inside the still-open final correction has no resolvable
    # exit: the open phase ends at the final point k, its last leg moved into
    # k, and the correction from k runs on to the series' end
    truncated = 0
    if a.size and phases.violation[-1] < 0 and not is_correction[-1] and size[-1] > 0.0:
        k = a[-1:] + 1
        entry = sign[-1:] * mm.price[k] - spec.entry * size[-1:]
        [touch] = _first_touches(series, down[-1:], mm.bar[k] + 1, len(series) - 1, entry)
        truncated = int(touch[0] >= 0)
    return BacktestResult(trades, degenerate=int(np.count_nonzero(degenerate)), truncated=truncated)


def _first_touches(series: CandleSeries, down: np.ndarray, first, last, *levels: np.ndarray) -> list[np.ndarray]:
    """Per window of bars first..last, the first bar reaching each level, else -1.

    A bar reaches a level when its low is at or below it, or, where ``down``
    (mirrored), when its negated high is. One expansion of the windows serves
    every level.
    """
    window, i = trend_mod._ranges(first, last + 1)
    low = np.where(down[window], -series.high[i], series.low[i])
    touches = []
    for level in levels:
        hits = np.flatnonzero(low <= level[window])
        head = hits[np.diff(window[hits], prepend=-1) != 0]
        bar = np.full(len(first), -1)
        bar[window[head]] = i[head]
        touches.append(bar)
    return touches
