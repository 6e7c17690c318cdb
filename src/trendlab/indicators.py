"""The two-valued MACD SAR process.

The MACD line is the fast EMA minus the slow EMA of the closes, and the signal
line is the EMA of the MACD line; each EMA is seeded with its first input,
e[0] = v[0], e[t] = alpha*v[t] + (1-alpha)*e[t-1]. A single scaling
parameter s >= 1/9 stretches the classic (12/26/9) MACD periods to
(12s/26s/9s); non-integer periods are handled directly through the EMA
smoothing factor alpha = 2/(period+1), no resampling. The SAR is up while the MACD line is
above its signal line, down while below, and carries the previous value on
exact ties (the first defined bar defaults to down on a tie). ``macd_sar``
returns it as a ``SarSeries``: the warm-up, then alternating up and down runs
given by their first bars (heads), which is what the MinMax sweep reads.

The SAR is bit-identical to a scalar loop over the bars that runs the three
EMAs with the IEEE operations above. The three EMAs are computed in blocks of
BLOCK bars with numpy; a bar takes the sign of the blocked line - signal when
its size is above a per-bar bound (_tie_bound) that covers the rounding of
both the blocked method and the loop. The bound only grows with the running
maximum of the closes, so certification takes two stages: every bar is first
held to the bound at the series' largest close, and only the bars that this
leaves uncertain are held to their own bound. The exact scalar loop runs from
bar 0 to the last bar that is not so certified, and that is where the
bit-identity comes from: ties and near-ties, such as flat or piecewise-linear
stretches of closes, cost scalar steps; random-walk closes need almost none.
A call holds about three series-length float arrays at its peak: each EMA
fills one zero-padded buffer, and the line and line - signal are formed in
place. All functions are pure; identical inputs give bit-identical outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market_data import CandleSeries

FAST_RATIO = 12.0
SLOW_RATIO = 26.0
SIGNAL_RATIO = 9.0

# bars per block of the blocked EMA
BLOCK = 8
# _LAG[k, j] = j - k on and above the diagonal and BLOCK + 1 below it, an
# index into [1, beta, ..., beta**BLOCK, 0.0]
_LAG = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK)).T
_LAG[_LAG < 0] = BLOCK + 1


@dataclass(frozen=True)
class ScalingConfig:
    """MACD period scaling; fast/slow/signal = (12, 26, 9) * scaling."""

    scaling: float = 1.0

    def __post_init__(self):
        # the signal period 9 s is the shortest of the three MACD periods
        if not (math.isfinite(self.scaling) and self.signal >= 1.0):
            raise ValueError("need a finite scaling >= 1/9 (signal period >= 1)")
        # and the slow period 26 s the longest
        if not math.isfinite(self.slow):
            raise ValueError(f"the slow period 26 * {self.scaling!r} overflows")

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


@dataclass(frozen=True, eq=False)
class SarSeries:
    """The SAR of an n-bar candle series as alternating runs.

    Bars [0, warmup) are undefined. Run k covers bars heads[k] up to
    heads[k + 1], the last one up to n; runs alternate up and down, the first
    one up when first_up. ``heads`` is copied to a read-only int64 array and
    the run invariants are checked here and nowhere else.
    """

    n: int
    warmup: int
    heads: np.ndarray
    first_up: bool

    def __post_init__(self):
        heads = np.array(self.heads, dtype=np.int64)
        heads.flags.writeable = False
        object.__setattr__(self, "heads", heads)
        if not 0 <= self.warmup <= self.n:
            raise ValueError(f"warm-up {self.warmup} must lie in [0, {self.n}]")
        if heads.ndim != 1:
            raise ValueError("run heads must be one-dimensional")
        if self.warmup == self.n:
            if heads.size:
                raise ValueError("a series without defined bars has no runs")
        elif not heads.size or heads[0] != self.warmup:
            raise ValueError(f"the first run must start at the warm-up bar {self.warmup}")
        elif np.any(heads[1:] <= heads[:-1]):
            raise ValueError("run heads must strictly increase")
        elif heads[-1] >= self.n:
            raise ValueError(f"the last run must start before bar {self.n}")

    def __len__(self) -> int:
        return self.n


def _ema_blocks(alpha: float, v: np.ndarray, beta: float, y0: float) -> np.ndarray:
    """y[0] = y0, y[t] = alpha*v[t] + beta*y[t-1] (v[0] unused), BLOCK bars at a time.

    One matrix product of the (blocks x BLOCK) inputs with the upper-triangular
    matrix of beta powers gives every block as if it started from 0; the
    carries into the blocks are the same recurrence over the block ends with
    beta**BLOCK, one level up, added as carry * beta**(1..BLOCK). The inputs
    alpha*v[t] are multiplied straight into one zero-padded buffer, which
    takes the carry products once the matrix product has read it.
    """
    n = v.size
    blocks = -(-n // BLOCK)
    x = np.zeros((blocks, BLOCK))
    np.multiply(alpha, v, out=x.reshape(-1)[:n])
    x[0, 0] = y0
    # beta**k, each power one product from the one before, as _tie_bound assumes
    powers = [1.0]
    for _ in range(BLOCK):
        powers.append(powers[-1] * beta)
    powers = np.array(powers + [0.0])
    y = x @ powers[_LAG]
    if blocks > 1:
        ends = y[:, -1]
        # 1.0 * end is the end itself, bit for bit
        carry = _ema_blocks(1.0, ends, float(powers[BLOCK]), float(ends[0]))
        y[1:] += np.multiply(carry[:-1, None], powers[1 : BLOCK + 1], out=x[1:])
    return y.reshape(-1)[:n]


def _tie_bound(close: np.ndarray, alphas: tuple[float, float, float], bars: np.ndarray) -> np.ndarray:
    """B_t at each of the increasing ``bars``: where |diff_t| > B_t, the scalar
    loop's line - signal at bar t is nonzero and has the sign of diff_t, the
    blocked line - signal.

        B_t = 16 (u R_t + eta) (1/a_f + 1/a_s + 1/a_g + 12 D)

    u = 2^-53, eta = 2^-1074, a_* the float EMA alphas, D the levels (matrix
    products) of _ema_blocks over the n bars, and
    R_t = max(close[0..t]): every value that bar t's lines depend on comes from
    closes up to t only.

    Model: fl(x op y) = (x op y)(1 + d) + e, |d| <= u; |e| <= eta/2 for a
    product and e = 0 for a sum (gradual underflow). Both methods are compared
    with the same real recurrences, built from the loop's float inputs and
    float betas: fast and slow on inputs a_k = fl(alpha close_k) seeded with
    close_0, the line fast - slow, and the signal on inputs a_g line seeded
    with 0. Closes are positive, so fast and slow lie in [0, R_t], the line
    and signal in [-R_t, R_t], up to a factor 1 + 2^-20 (n < 2^30; a defined
    bar needs 26 s < n, so 1/alpha < n). So no value overflows while
    R_t < 2^1000; from the first bar where R_t reaches it, B_t is infinite. In y_t = sum_k w_k a_k the exact
    weight is beta^d, d = t - k, and a computed one is beta^d (1 + theta)
    with |theta| <= (1 + u)^m - 1 when m roundings lie on its path. As
    |a_k| <= alpha R_t and the seed is <= R_t, sum_k beta^d |a_k| <= R_t and
    sum_k beta^d |a_k| d <= R_t/alpha, so m = c d + c' costs u R_t (c/alpha + c').
    A product error eta/2 at distance d costs eta/2 beta^d; nodes spaced N
    bars apart sum to at most 1 + 1/(N alpha).

    Scalar loop, y = fl(a + fl(beta y)): m = 2d + 1, one eta/2 per bar.
      EMA        u R (2/a + 1) + eta/(2a)
      line       fast + slow + one subtraction: u R (2/a_f + 2/a_s + 3) + eta (1/a_f + 1/a_s)/2
      signal     its own EMA u R (2/a_g + 1) + eta/(2a_g), its inputs
                 fl(a_g line) u R + eta/(2a_g), plus the line's error (the
                 weights a_g beta_g^d sum to <= 1)
      line - signal, compared exactly: twice the line's error plus the signal's own,
                 u R (4/a_f + 4/a_s + 2/a_g + 8) + eta (1/a_f + 1/a_s + 1/a_g)
    Blocked, L = BLOCK = 8: the powers on a path multiply to beta^d, each
    one product from the last, so d roundings; each of the D levels adds L
    for its matrix product (one product and L - 1 sums in any order, FMA or
    not) and 2 for the carry (product, sum): m <= d + D (L + 2). Level l has
    L product errors per node and one carry product, nodes 8^l bars apart:
    eta/2 (L + 1)(D + 8/(7a)). A power below the normal range is off by at
    most 16 8^D eta absolute, on at most 2 L n terms of size <= R: under
    2^-900 u R in all.
      EMA        u R (1/a + 10 D) + eta (5.15/a + 4.5 D)
      line       u R (1/a_f + 1/a_s + 20 D + 1) + eta (5.15/a_f + 5.15/a_s + 9 D)
      signal     its own EMA, its inputs u R + eta/(2a_g), the line's error
      line - signal: u R (2/a_f + 2/a_s + 1/a_g + 50 D + 3)
                 + eta (10.3/a_f + 10.3/a_s + 5.65/a_g + 22.5 D),
                 and diff = fl(line - signal) keeps the sign and is at most
                 (1 + u) times the difference.
    Both together: u R (6/a_f + 6/a_s + 3/a_g + 50 D + 11)
    + eta (11.3/a_f + 11.3/a_s + 6.65/a_g + 22.5 D), under 12 (u R + eta)
    (1/a_f + 1/a_s + 1/a_g + 12 D) as D >= 1. K = 16 covers that, the 1 + 2^-20
    factors, the (1 + u) of diff and the rounding of B_t itself.
    """
    levels, m = 1, close.size
    while m > BLOCK:
        m = -(-m // BLOCK)
        levels += 1
    per_bar = 16.0 * (sum(1.0 / alpha for alpha in alphas) + 12.0 * levels)
    # R_t: the running maximum over the stretches of closes that end at the bars
    starts = np.concatenate(([0], bars[:-1] + 1))
    running_max = np.maximum.accumulate(np.maximum.reduceat(close[: bars[-1] + 1], starts))
    bound = (2.0 ** -53 * running_max + 2.0 ** -1074) * per_bar
    bound[np.searchsorted(running_max, 2.0 ** 1000) :] = np.inf
    return bound


def _scalar_sar(
    fast_x: np.ndarray, slow_x: np.ndarray, c0: float, signal_alpha: float, betas: tuple[float, float, float], warmup: int
) -> np.ndarray:
    """The exact per-bar loop over bars [0, stop), stop = fast_x.size: for
    each bar of [warmup, stop), whether the SAR is up.

    Every EMA step is alpha*x, multiplied by numpy up front, plus beta*acc,
    the same IEEE operations as three separate EMA passes (fast, slow, then
    signal over fast - slow). The lines are compared directly: with gradual
    underflow, line - signal is zero only when line == signal, and a tie
    carries the previous value.
    """
    fast_beta, slow_beta, signal_beta = betas
    stop = fast_x.size
    fast_x = fast_x.tolist()
    slow_x = slow_x.tolist()
    fast = slow = c0
    signal = fast - slow
    for i in range(1, warmup):
        fast = fast_x[i] + fast_beta * fast
        slow = slow_x[i] + slow_beta * slow
        signal = signal_alpha * (fast - slow) + signal_beta * signal
    # runs alternate down, up, down, ... starting at warmup; a tie extends the run
    flips = [warmup]
    rising = False
    for i in range(warmup, stop):
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
    flips.append(stop)
    runs = np.diff(flips)
    return np.repeat(np.arange(runs.size) % 2 == 1, runs)


def macd_sar(series: CandleSeries, cfg: ScalingConfig = ScalingConfig()) -> SarSeries:
    """Two-valued MACD SAR: sign of (macd_line - signal_line) with tie carry.

    The three EMAs run in blocks (_ema_blocks). A bar whose blocked
    line - signal is larger than _tie_bound takes its sign: first against
    the bound at the largest close, which no bar's bound exceeds, then, for
    the bars that check leaves, against the bar's own. The scalar loop runs,
    exactly, over the bars up to the last one that is not certified, so the
    runs are bit-identical to the loop's over the whole series. An empty
    series gives an empty SarSeries.
    """
    n = len(series)
    # cfg.warmup >= 1, so bar 0 (where both lines are 0.0) is always masked
    warmup = min(cfg.warmup, n)
    if warmup == n:
        return SarSeries(n, warmup, (), False)
    close = series.close
    alphas = (2.0 / (cfg.fast + 1.0), 2.0 / (cfg.slow + 1.0), 2.0 / (cfg.signal + 1.0))
    fast_alpha, slow_alpha, signal_alpha = alphas
    betas = (1.0 - fast_alpha, 1.0 - slow_alpha, 1.0 - signal_alpha)
    c0 = float(close[0])
    # closes near the top of the float range can overflow the blocked EMAs;
    # _tie_bound certifies no bar there
    with np.errstate(over="ignore", invalid="ignore"):
        # the line, then line - signal, formed in the fast EMA's buffer
        line = _ema_blocks(fast_alpha, close, betas[0], c0)
        line -= _ema_blocks(slow_alpha, close, betas[1], c0)
        line -= _ema_blocks(signal_alpha, line, betas[2], 0.0)
    # up[i] and size[i] for bar warmup + i
    up = line[warmup:] > 0.0
    size = np.abs(line[warmup:], out=line[warmup:])
    del line
    # a NaN size compares false, so it is never certified
    uncertain = np.flatnonzero(~(size > _tie_bound(close, alphas, np.array([n - 1]))))
    if uncertain.size:
        uncertain = uncertain[~(size[uncertain] > _tie_bound(close, alphas, uncertain + warmup))]
    # the line's buffer goes before the scalar loop's inputs are made
    del size
    if uncertain.size:
        stop = warmup + int(uncertain[-1]) + 1
        fast_x, slow_x = fast_alpha * close[:stop], slow_alpha * close[:stop]
        up[: stop - warmup] = _scalar_sar(fast_x, slow_x, c0, signal_alpha, betas, warmup)
    heads = np.flatnonzero(up[1:] != up[:-1]) + warmup + 1
    return SarSeries(n, warmup, np.concatenate(([warmup], heads)), bool(up[0]))
