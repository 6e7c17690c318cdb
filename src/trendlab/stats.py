"""Log-normal models for trend variables: fitting, testing, and moments.

Conventions, fixed across the module:

* MLE uses the 1/n estimators: mu_hat = mean(ln x), sigma_hat^2 = mean((ln x
  - mu_hat)^2). Reported fit parameters always use these.
* The Anderson-Darling test runs on the log-transformed data against a normal
  with estimated mean and *unbiased* (n-1) variance, per the usual EDF-test
  convention; the reported statistic is the small-sample modification
  A2* = A2 * (1 + 0.75/n + 2.25/n^2) and the p-value comes from the
  D'Agostino-Stephens four-branch exponential-polynomial approximation for
  the case with both parameters estimated.
* The standard normal CDF is Phi(x) = erfc(-x/sqrt(2))/2 via the C library's
  erfc, accurate to double precision in both tails, far inside the 1e-7
  absolute-error budget needed here.

All functions are pure; fitting many cells in parallel is safe.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

_SQRT2 = math.sqrt(2.0)
_Z_CLAMP = 1e-12
_MIN_SURVIVAL = 1e-300


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; accurate deep into both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_sf(x: float) -> float:
    """Standard normal survival function 1 - Phi(x), without cancellation."""
    return 0.5 * math.erfc(x / _SQRT2)


def _norm_cdf_array(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in x.tolist()])


@dataclass(frozen=True)
class LogNormalParams:
    """Log-scale location and spread (mu, sigma) of a log-normal variable."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise ValueError("need finite mu and sigma >= 0")


@dataclass(frozen=True)
class BivariateLogNormalParams:
    """Joint log-normal parameters for a pair (x, d) with log-correlation rho."""

    mu_x: float
    mu_d: float
    sigma_x: float
    sigma_d: float
    rho: float

    def __post_init__(self):
        if not (self.sigma_x > 0.0 and self.sigma_d > 0.0):
            raise ValueError("sigmas must be positive")
        if not abs(self.rho) < 1.0:
            raise ValueError("rho must lie in (-1, 1)")

    @property
    def x(self) -> LogNormalParams:
        return LogNormalParams(self.mu_x, self.sigma_x)

    @property
    def d(self) -> LogNormalParams:
        return LogNormalParams(self.mu_d, self.sigma_d)


def _positive_logs(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("samples must be positive finite numbers")
    return np.log(x)


def lognormal_mle(samples) -> LogNormalParams:
    """1/n maximum-likelihood estimators (mu_hat, sigma_hat) on the logs."""
    y = _positive_logs(samples)
    mu = float(y.mean())
    sigma = float(np.sqrt(np.mean((y - mu) ** 2)))
    return LogNormalParams(mu, sigma)


def lognormal_moments(params: LogNormalParams) -> tuple[float, float]:
    """(median, mean) = (e^mu, e^(mu + sigma^2/2))."""
    return math.exp(params.mu), math.exp(params.mu + 0.5 * params.sigma**2)


def lognormal_cdf(x: float, params: LogNormalParams) -> float:
    """P(X <= x); 0 for x <= 0. With sigma = 0 this is a step at e^mu."""
    if x <= 0.0:
        return 0.0
    if params.sigma == 0.0:
        return 1.0 if x >= math.exp(params.mu) else 0.0
    return norm_cdf((math.log(x) - params.mu) / params.sigma)


def lognormal_sf(x: float, params: LogNormalParams) -> float:
    """P(X >= x), computed tail-stably (no 1 - cdf cancellation)."""
    if x <= 0.0:
        return 1.0
    if params.sigma == 0.0:
        return 0.0 if x > math.exp(params.mu) else 1.0
    return norm_sf((math.log(x) - params.mu) / params.sigma)


def _ad_p_value(a2_star: float) -> float:
    # D'Agostino & Stephens table for normality, both parameters estimated
    a = a2_star
    if a < 0.200:
        p = 1.0 - math.exp(-13.436 + 101.14 * a - 223.73 * a * a)
    elif a < 0.340:
        p = 1.0 - math.exp(-8.318 + 42.796 * a - 59.938 * a * a)
    elif a < 0.600:
        p = math.exp(0.9177 - 4.279 * a - 1.38 * a * a)
    elif a <= 13.0:
        p = math.exp(1.2937 - 5.709 * a + 0.0186 * a * a)
    else:
        p = 0.0
    return min(max(p, 0.0), 1.0)


def anderson_darling_lognormal(samples) -> tuple[float, float]:
    """Anderson-Darling log-normality test: (A2*, p-value).

    Needs n >= 8 positive samples. Extreme order statistics are clamped into
    [1e-12, 1 - 1e-12] before the log terms; a UserWarning flags when that
    actually happened.
    """
    y = np.sort(_positive_logs(samples))
    n = y.size
    if n < 8:
        raise ValueError("Anderson-Darling needs at least 8 samples")
    s = float(y.std(ddof=1))
    if s == 0.0:
        raise ValueError("zero variance in log samples")
    z = _norm_cdf_array((y - y.mean()) / s)
    clipped = np.clip(z, _Z_CLAMP, 1.0 - _Z_CLAMP)
    if np.any(clipped != z):
        warnings.warn("extreme order statistics clamped in Anderson-Darling sum", UserWarning)
    z = clipped
    i = np.arange(1, n + 1)
    a2 = -n - float(np.mean((2 * i - 1) * (np.log(z) + np.log(1.0 - z[::-1]))))
    a2_star = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    return a2_star, _ad_p_value(a2_star)


def log_correlation(pairs) -> float:
    """Correlation of the logs of positive pairs, with 1/n moments throughout."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (x, d) tuples")
    if arr.shape[0] < 2:
        raise ValueError("need at least two pairs")
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise ValueError("pairs must be positive finite numbers")
    lx = np.log(arr[:, 0])
    ld = np.log(arr[:, 1])
    sx = float(np.sqrt(np.mean((lx - lx.mean()) ** 2)))
    sd = float(np.sqrt(np.mean((ld - ld.mean()) ** 2)))
    if sx == 0.0 or sd == 0.0:
        raise ValueError("zero variance in log pairs")
    cov = float(np.mean((lx - lx.mean()) * (ld - ld.mean())))
    return cov / (sx * sd)


def fit_bivariate_lognormal(pairs) -> BivariateLogNormalParams:
    """Marginal MLEs plus the log-correlation, bundled for joint-density use."""
    arr = np.asarray(pairs, dtype=float)
    rho = log_correlation(arr)
    px = lognormal_mle(arr[:, 0])
    pd = lognormal_mle(arr[:, 1])
    return BivariateLogNormalParams(px.mu, pd.mu, px.sigma, pd.sigma, rho)


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


def truncated_lognormal_mean(params: LogNormalParams, a: float) -> float:
    """E(X | X >= a) for log-normal X:

        e^(mu + sigma^2/2) * SF(z - sigma) / SF(z),  z = (ln a - mu)/sigma.
    """
    if not a > 0.0:
        raise ValueError("truncation point must be positive")
    if params.sigma <= 0.0:
        raise ValueError("sigma must be positive")
    z = (math.log(a) - params.mu) / params.sigma
    survival = norm_sf(z)
    if survival < _MIN_SURVIVAL:
        raise ValueError(f"tail too deep: P(X >= {a}) underflows")
    return math.exp(params.mu + 0.5 * params.sigma**2) * norm_sf(z - params.sigma) / survival


def conditional_cross_mean(params: BivariateLogNormalParams, a: float) -> float:
    """E(D | X >= a) for jointly log-normal (X, D):

        e^(mu_d + sigma_d^2/2) * SF(z - rho sigma_d) / SF(z),
        z = (ln a - mu_x)/sigma_x.

    Independence (rho = 0) collapses this to the unconditional mean of D.
    """
    if not a > 0.0:
        raise ValueError("truncation point must be positive")
    z = (math.log(a) - params.mu_x) / params.sigma_x
    survival = norm_sf(z)
    if survival < _MIN_SURVIVAL:
        raise ValueError(f"tail too deep: P(X >= {a}) underflows")
    return math.exp(params.mu_d + 0.5 * params.sigma_d**2) * norm_sf(z - params.rho * params.sigma_d) / survival


@dataclass(frozen=True)
class HistogramSpec:
    """Half-open equal-width bins [lo + k*w, lo + (k+1)*w) covering [lo, hi).

    When the width does not divide the range, the bin count rounds up, so the
    covered range may extend slightly past hi.
    """

    lo: float
    hi: float
    bin_width: float

    def __post_init__(self):
        if not (self.bin_width > 0.0 and self.lo < self.hi):
            raise ValueError("need lo < hi and bin_width > 0")
        # a finite range and width can still overflow the bin count
        quotient = (self.hi - self.lo) / self.bin_width
        if not all(map(math.isfinite, (self.lo, self.hi, self.bin_width, quotient))):
            raise ValueError(
                f"histogram lo={self.lo!r}, hi={self.hi!r}, bin_width={self.bin_width!r}: "
                "need finite values and a finite bin count"
            )

    @property
    def n_bins(self) -> int:
        return int(math.ceil((self.hi - self.lo) / self.bin_width - 1e-9))

    @property
    def edges(self) -> np.ndarray:
        return self.lo + self.bin_width * np.arange(self.n_bins + 1)


@dataclass(frozen=True)
class Histogram:
    spec: HistogramSpec
    counts: np.ndarray
    densities: np.ndarray
    n_total: int
    out_of_range: int

    def __post_init__(self):
        self.counts.flags.writeable = False
        self.densities.flags.writeable = False


def histogram(samples, spec: HistogramSpec) -> Histogram:
    """Density histogram: counts / (n_total * bin_width).

    n_total includes out-of-range samples, so density * width sums to the
    in-range fraction. A value exactly on an edge lands in the upper bin.
    """
    x = np.asarray(samples, dtype=float)
    n_total = int(x.size)
    nb = spec.n_bins
    if n_total == 0:
        zero = np.zeros(nb)
        return Histogram(spec, zero.astype(int), zero, 0, 0)
    k = np.floor((x - spec.lo) / spec.bin_width).astype(int)
    in_range = (x >= spec.lo) & (k >= 0) & (k < nb)
    counts = np.bincount(k[in_range], minlength=nb)
    densities = counts / (n_total * spec.bin_width)
    return Histogram(spec, counts, densities, n_total, n_total - int(in_range.sum()))


@dataclass(frozen=True)
class FitReport:
    """One fitted cell: MLE parameters plus the goodness-of-fit verdict.

    p_value (and ad_stat) are None when the cell has fewer than 8 samples or
    degenerate logs; ``flags`` says why.
    """

    params: LogNormalParams
    n: int
    ad_stat: Optional[float]
    p_value: Optional[float]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.p_value is not None:
            if self.n < 8:
                raise ValueError("p_value requires n >= 8")
            if not 0.0 <= self.p_value <= 1.0:
                raise ValueError("p_value must lie in [0, 1]")

    @property
    def median(self) -> float:
        return lognormal_moments(self.params)[0]

    @property
    def mean(self) -> float:
        return lognormal_moments(self.params)[1]


def fit_lognormal_report(samples) -> FitReport:
    """Fit one sample cell and attach the AD verdict when n allows it."""
    x = np.asarray(samples, dtype=float)
    params = lognormal_mle(x)
    ad_stat = p_value = None
    flags: list[str] = []
    if x.size < 8:
        flags.append("n<8: p-value omitted")
    elif params.sigma == 0.0:
        flags.append("zero log-variance: p-value omitted")
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ad_stat, p_value = anderson_darling_lognormal(x)
        if caught:
            flags.append("z-clamped")
    return FitReport(params, int(x.size), ad_stat, p_value, tuple(flags))
