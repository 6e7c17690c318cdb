"""Reference definitions that only the tests read.

``trade_return`` is the anti-cyclic return rule of one trade, written from
trading.py's docstring, and ``TradeOutcome`` its row: the oracle of every
backtest trade (tests/test_trade_legs.py). ``trade_columns`` turns such rows
into the backtest's ``Trades`` columns, for bit-for-bit comparisons.

``norm_cdf``, ``lognormal_cdf`` and ``bivariate_lognormal_density`` are the
textbook standard normal CDF, log-normal CDF and joint log-normal density of
the law ``expected_return`` reads; ``lognormal_cdf`` is the oracle of
``lognormal_sf``. tests/test_oracles.py checks each of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from trendlab import BivariateLogNormalParams, LogNormalParams, Trades, TradeSpec
from trendlab.trend import DOWN, UP


@dataclass(frozen=True)
class TradeOutcome:
    ret: float
    reached_target: bool
    x: float
    d: float
    direction: str = UP
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


def trade_columns(outcomes: list[TradeOutcome]) -> Trades:
    """The ``Trades`` columns of complete rows (bars set), in the dtypes the backtest gives them."""

    def column(name, dtype):
        return np.array([getattr(t, name) for t in outcomes], dtype=dtype)

    return Trades(
        ret=column("ret", np.float64),
        reached_target=column("reached_target", bool),
        x=column("x", np.float64),
        d=column("d", np.float64),
        down=np.array([t.direction == DOWN for t in outcomes], dtype=bool),
        entry_bar=column("entry_bar", np.int64),
        exit_bar=column("exit_bar", np.int64),
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate deep into both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def lognormal_cdf(x: float, params: LogNormalParams) -> float:
    """P(X <= x); 0 for x <= 0. With sigma = 0 this is a step at e^mu."""
    if x <= 0.0:
        return 0.0
    if params.sigma == 0.0:
        return 1.0 if x >= math.exp(params.mu) else 0.0
    return norm_cdf((math.log(x) - params.mu) / params.sigma)


def bivariate_lognormal_density(x: float, d: float, params: BivariateLogNormalParams) -> float:
    """Joint density

        f(x,d) = exp(-q/2) / (2 pi x d sigma_x sigma_d sqrt(1-rho^2)),
        q = [u^2 + v^2 - 2 rho u v] / (1 - rho^2),
        u = (ln x - mu_x)/sigma_x, v = (ln d - mu_d)/sigma_d,

    and 0 outside the positive quadrant.
    """
    if x <= 0.0 or d <= 0.0:
        return 0.0
    u = (math.log(x) - params.mu_x) / params.sigma_x
    v = (math.log(d) - params.mu_d) / params.sigma_d
    one_m = 1.0 - params.rho**2
    q = (u * u + v * v - 2.0 * params.rho * u * v) / one_m
    norm = 2.0 * math.pi * x * d * params.sigma_x * params.sigma_d * math.sqrt(one_m)
    return math.exp(-0.5 * q) / norm
