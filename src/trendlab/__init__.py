"""trendlab: Dow-trend detection on OHLC candles and log-normal trend statistics.

Pipeline: candle series -> MACD SAR -> alternating swing extrema (MinMax
process) -> trend phases -> per-leg trend variables -> log-normal fits and
anti-cyclic trade evaluation.
"""
from .indicators import SarSeries, ScalingConfig, ema, macd, macd_sar
from .market_data import (
    Candle,
    CandleParseError,
    CandleSeries,
    format_candles,
    parse_candles,
    read_candle_file,
    synth_gbm,
    synth_trend_series,
    write_candle_file,
)
from .minmax import ExtremumPoint, MinMaxProcess, OpenCandidate, run_minmax
from .stats import (
    BivariateLogNormalParams,
    FitReport,
    Histogram,
    HistogramSpec,
    LogNormalParams,
    anderson_darling_lognormal,
    bivariate_lognormal_density,
    conditional_cross_mean,
    fit_bivariate_lognormal,
    fit_lognormal_report,
    histogram,
    log_correlation,
    lognormal_cdf,
    lognormal_mle,
    lognormal_moments,
    lognormal_sf,
    norm_cdf,
    norm_sf,
    truncated_lognormal_mean,
)
from .trading import (
    BacktestResult,
    TradeOutcome,
    TradeSpec,
    backtest_anticyclic,
    expected_return,
    simulate_expected_return,
    trade_return,
)
from .trend import (
    LineFit,
    SampleBatch,
    TrendPhase,
    TrendSample,
    detect_trends,
    extract_samples,
    period_gaps,
    period_scaling_fit,
)

__version__ = "0.1.0"
