"""The two-valued MACD SAR process.

The MACD line is the fast EMA minus the slow EMA of the closes, and the signal
line is the EMA of the MACD line; each EMA is seeded with its first input,
e[0] = v[0], e[t] = alpha*v[t] + (1-alpha)*e[t-1]. A single positive scaling
parameter s stretches the classic (12/26/9) MACD periods to (12s/26s/9s);
non-integer periods are handled directly through the EMA smoothing factor
alpha = 2/(period+1), no resampling. The SAR value is +1 while the MACD line
is above its signal line, -1 while below, and carries the previous value on
exact ties (first defined value defaults to -1 on a tie).
All functions are pure; identical inputs give bit-identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market_data import CandleSeries

FAST_RATIO = 12.0
SLOW_RATIO = 26.0
SIGNAL_RATIO = 9.0

SAR_UP = 1
SAR_DOWN = -1
SAR_UNDEFINED = 0


@dataclass(frozen=True)
class ScalingConfig:
    """MACD period scaling; fast/slow/signal = (12, 26, 9) * scaling."""

    scaling: float = 1.0

    def __post_init__(self):
        if not (self.scaling > 0.0 and math.isfinite(self.scaling)):
            raise ValueError("scaling must be a positive finite number")

    @property
    def fast(self) -> float:
        return FAST_RATIO * self.scaling

    @property
    def slow(self) -> float:
        return SLOW_RATIO * self.scaling

    @property
    def signal(self) -> float:
        return SIGNAL_RATIO * self.scaling

    @property
    def warmup(self) -> int:
        """Bars to mask while the slow EMA transient decays: ceil(26 * s)."""
        return int(math.ceil(self.slow))


@dataclass(frozen=True)
class SarSeries:
    """Stop-and-reverse values aligned with a candle series.

    values[i] is +1 (up move), -1 (down move), or 0 during the initial
    warm-up prefix where the indicator is undefined.
    """

    values: np.ndarray
    warmup: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int8)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if np.any(v[: self.warmup] != SAR_UNDEFINED):
            raise ValueError("warm-up prefix must be undefined")
        defined = v[self.warmup:]
        if defined.size and np.any((defined != SAR_UP) & (defined != SAR_DOWN)):
            raise ValueError("SAR values past warm-up must be +1 or -1")

    def __len__(self) -> int:
        return len(self.values)


def macd_sar(series: CandleSeries, cfg: ScalingConfig = ScalingConfig()) -> SarSeries:
    """Two-valued MACD SAR: sign of (macd_line - signal_line) with tie carry.

    One fused pass over the closes. Every EMA step is alpha*x, multiplied by
    numpy up front, plus beta*acc, the same IEEE operations as three separate
    EMA passes (fast, slow, then signal over fast - slow), so the lines are
    bit-identical to theirs. The lines are compared directly: with gradual
    underflow, line - signal is zero only when line == signal. The pass
    records only the bars where the sign flips and expands the runs
    afterwards. An empty series gives an empty SarSeries.
    """
    if cfg.signal < 1.0:  # the smallest of the three periods
        raise ValueError("period must be >= 1")
    n = len(series)
    if n == 0:
        return SarSeries(np.zeros(0, dtype=np.int8), 0)
    # cfg.warmup >= 1, so bar 0 (where both lines are 0.0) is always masked
    warmup = min(cfg.warmup, n)
    fast_alpha = 2.0 / (cfg.fast + 1.0)
    slow_alpha = 2.0 / (cfg.slow + 1.0)
    signal_alpha = 2.0 / (cfg.signal + 1.0)
    fast_beta = 1.0 - fast_alpha
    slow_beta = 1.0 - slow_alpha
    signal_beta = 1.0 - signal_alpha
    fast_x = (fast_alpha * series.close).tolist()
    slow_x = (slow_alpha * series.close).tolist()
    fast = slow = float(series.close[0])
    signal = fast - slow
    for i in range(1, warmup):
        fast = fast_x[i] + fast_beta * fast
        slow = slow_x[i] + slow_beta * slow
        signal = signal_alpha * (fast - slow) + signal_beta * signal
    # runs alternate down, up, down, ... starting at warmup; a tie extends the run
    flips = [warmup]
    rising = False
    for i in range(warmup, n):
        fast = fast_x[i] + fast_beta * fast
        slow = slow_x[i] + slow_beta * slow
        line = fast - slow
        signal = signal_alpha * line + signal_beta * signal
        if rising:
            if line < signal:
                rising = False
                flips.append(i)
        elif line > signal:
            rising = True
            flips.append(i)
    flips.append(n)
    runs = np.diff(flips)
    signs = np.resize(np.array([SAR_DOWN, SAR_UP], dtype=np.int8), runs.size)
    values = np.concatenate((np.zeros(warmup, dtype=np.int8), np.repeat(signs, runs)))
    return SarSeries(values, warmup)
