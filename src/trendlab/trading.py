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
from typing import Collection, Optional

import numpy as np

from . import trend as trend_mod
from .indicators import ScalingConfig, macd_sar
from .market_data import CandleSeries
from .minmax import run_minmax
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


@dataclass(frozen=True)
class TradeOutcome:
    ret: float
    reached_target: bool
    x: float
    d: float
    direction: str = trend_mod.UP
    entry_bar: Optional[int] = None
    exit_bar: Optional[int] = None


def trade_return(x: float, d: float, spec: TradeSpec) -> Optional[TradeOutcome]:
    """Outcome of one trade, or None when the retracement never reaches entry."""
    if d < 0.0:
        raise ValueError("delay must be non-negative")
    if x < spec.entry:
        return None
    if x >= spec.target:
        return TradeOutcome(ret=spec.target - spec.entry, reached_target=True, x=x, d=d)
    return TradeOutcome(ret=x - spec.entry - d, reached_target=False, x=x, d=d)


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
# few arrays of this length, next to the two n-long ones
MC_BLOCK = 1 << 14


def simulate_expected_return(
    params: BivariateLogNormalParams,
    spec: TradeSpec,
    n: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo (mean, stderr) of R over draws with X >= entry.

    Draws correlated normals, exponentiates, filters on the entry condition,
    and applies the same return rule as trade_return. Deterministic per seed.

    All n first normals are drawn at once, then the second normals block by
    block (MC_BLOCK draws), which continues the generator's stream exactly as
    one n-long draw would. Each block's opened returns are written into one
    preallocated n-long buffer, and the first normals are released before
    its mean and standard deviation are taken. The result is bit-identical to
    the one-shot formula over full-length arrays, at about 17 bytes per draw
    instead of about 48.
    """
    if n < MC_MIN_DRAWS:
        raise ValueError("need at least 10^4 draws")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    ret = np.empty(n)
    cross = math.sqrt(1.0 - params.rho**2)
    m = 0
    for start in range(0, n, MC_BLOCK):
        z = z1[start : start + MC_BLOCK]
        z2 = rng.standard_normal(z.size)
        x = np.exp(params.mu_x + params.sigma_x * z)
        d = np.exp(params.mu_d + params.sigma_d * (params.rho * z + cross * z2))
        block = np.where(x >= spec.target, spec.target - spec.entry, x - spec.entry - d)[x >= spec.entry]
        ret[m : m + block.size] = block
        m += block.size
    # no view of z1 may outlive it: the mean and std below need only ret
    del z1, z
    if m < 100:
        raise ValueError(f"only {m} of {n} draws reach the entry level {spec.entry}")
    ret = ret[:m]
    return float(ret.mean()), float(ret.std(ddof=1) / math.sqrt(m))


@dataclass(frozen=True)
class BacktestResult:
    """Trade outcomes plus tallies for skipped legs and series-end truncation."""

    trades: tuple[TradeOutcome, ...]
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
    sar = macd_sar(series, ScalingConfig(scaling))
    mm = run_minmax(series, sar)
    phases = [ph for ph in trend_mod.detect_trends(mm) if ph.direction in directions]
    phase, start, is_correction, size, previous = trend_mod.legs(mm, phases)
    price = mm.price.tolist()
    bar = mm.bar.tolist()
    detection_bar = mm.detection_bar.tolist()
    detection_close = mm.detection_close.tolist()
    d_abs = mm.d_abs.tolist()
    lows = series.low
    highs = series.high

    # correction legs from point a to b = a + 1, after the movement ending at a
    corrections = is_correction & (start > 0)
    degenerate = corrections & ((previous <= 0.0) | (size <= 0.0))
    tradable = np.flatnonzero(corrections & ~degenerate)
    trades: list[TradeOutcome] = []
    for p, a, movement, corr in zip(*(column[tradable].tolist() for column in (phase, start, previous, size))):
        ph = phases[p]
        up = ph.direction == trend_mod.UP
        a_price = price[a]
        x = corr / movement
        if up:
            entry_price = a_price - spec.entry * movement
            target_price = a_price - spec.target * movement
        else:
            entry_price = a_price + spec.entry * movement
            target_price = a_price + spec.target * movement
        entry_bar = _first_touch(lows if up else highs, bar[a] + 1, bar[a + 1], entry_price, up)
        if entry_bar is None:
            continue
        target_bar = _first_touch(lows if up else highs, entry_bar, bar[a + 1], target_price, up)
        d = d_abs[a + 1] / movement
        if target_bar is not None:
            trades.append(TradeOutcome(spec.target - spec.entry, True, x, d, ph.direction, entry_bar, target_bar))
        else:
            exit_close = detection_close[a + 1]
            ret = (entry_price - exit_close) / movement if up else (exit_close - entry_price) / movement
            trades.append(TradeOutcome(ret, False, x, d, ph.direction, entry_bar, detection_bar[a + 1]))

    # an entry hit inside the still-open final correction has no resolvable
    # exit: the open phase's last leg was a movement into the final point k
    truncated = 0
    if start.size and mm.open_candidate is not None:
        ph, k, movement = phases[phase[-1]], int(start[-1]) + 1, float(size[-1])
        if ph.violation_point_index is None and k == len(price) - 1 and not is_correction[-1] and movement > 0.0:
            up = ph.direction == trend_mod.UP
            entry_price = price[k] - spec.entry * movement if up else price[k] + spec.entry * movement
            if _first_touch(lows if up else highs, bar[k] + 1, len(series) - 1, entry_price, up) is not None:
                truncated = 1
    return BacktestResult(tuple(trades), degenerate=int(np.count_nonzero(degenerate)), truncated=truncated)


def _first_touch(prices, start: int, stop: int, level: float, downward: bool) -> Optional[int]:
    """First bar in [start, stop] whose extreme reaches the level, else None."""
    for i, p in enumerate(prices[start : stop + 1].tolist(), start):
        if (p <= level) if downward else (p >= level):
            return i
    return None
