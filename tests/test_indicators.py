import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendlab import CandleSeries, SarSeries, ScalingConfig, macd_sar, synth_gbm
from trendlab import indicators
from trendlab.market_data import synth_trend_series
from swing_fixtures import reference_flip_bars, sar_values


# The separate EMA and MACD passes: macd_sar's bitwise oracle.
def ema(values, period: float) -> np.ndarray:
    """Exponential moving average, seeded with the first value.

    e[0] = v[0]; e[t] = alpha*v[t] + (1-alpha)*e[t-1], alpha = 2/(period+1).
    """
    if period < 1.0:
        raise ValueError("period must be >= 1")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("ema of empty input")
    alpha = 2.0 / (period + 1.0)
    beta = 1.0 - alpha
    vals = v.tolist()
    out = [0.0] * len(vals)
    acc = vals[0]
    out[0] = acc
    for i in range(1, len(vals)):
        acc = alpha * vals[i] + beta * acc
        out[i] = acc
    return np.array(out)


def macd(series: CandleSeries, cfg: ScalingConfig = ScalingConfig()) -> tuple[np.ndarray, np.ndarray]:
    """MACD line (fast EMA - slow EMA of closes) and its signal-line EMA."""
    if len(series) == 0:
        raise ValueError("macd of empty series")
    macd_line = ema(series.close, cfg.fast) - ema(series.close, cfg.slow)
    signal_line = ema(macd_line, cfg.signal)
    return macd_line, signal_line


class TestEma:
    def test_constant_is_fixed_point(self):
        assert ema([5.0, 5.0, 5.0], 7.0).tolist() == [5.0, 5.0, 5.0]

    def test_period_one_is_identity(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert ema(values, 1.0).tolist() == values

    def test_single_step(self):
        assert ema([0.0, 1.0], 3.0).tolist() == [0.0, 0.5]

    def test_errors(self):
        with pytest.raises(ValueError):
            ema([], 3.0)
        with pytest.raises(ValueError):
            ema([1.0], 0.5)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=-1e5, max_value=1e5),
    )
    def test_shift_equivariance(self, values, period, shift):
        shifted = ema(np.array(values) + shift, period)
        assert shifted == pytest.approx(ema(values, period) + shift, rel=1e-9, abs=1e-6)


class TestScalingConfig:
    def test_standard_periods(self):
        cfg = ScalingConfig(1.0)
        assert (cfg.fast, cfg.slow, cfg.signal) == (12.0, 26.0, 9.0)

    def test_scaling_two_doubles_periods(self):
        cfg = ScalingConfig(2.0)
        assert (cfg.fast, cfg.slow, cfg.signal) == (24.0, 52.0, 18.0)

    def test_warmup_ceils_slow_period(self):
        assert ScalingConfig(1.0).warmup == 26
        assert ScalingConfig(1.2).warmup == 32
        assert ScalingConfig(0.5).warmup == 13

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ScalingConfig(0.0)

    @pytest.mark.parametrize("scaling", [-1.0, 0.111, float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_or_sub_unit_signal_period(self, scaling):
        with pytest.raises(ValueError, match=r"^need a finite scaling >= 1/9 \(signal period >= 1\)$"):
            ScalingConfig(scaling)

    def test_rejects_overflowing_slow_period(self):
        with pytest.raises(ValueError, match=r"the slow period 26 \* 1e\+307 overflows"):
            ScalingConfig(1e307)
        assert ScalingConfig(6e306).warmup == math.ceil(26.0 * 6e306)


# (n, warmup, heads, the rule that refuses them)
BAD_SAR_RUNS = {
    "negative warm-up": (5, -1, [], r"warm-up -1 must lie in \[0, 5\]"),
    "warm-up past the end": (5, 6, [], r"warm-up 6 must lie in \[0, 5\]"),
    "two-dimensional heads": (5, 0, [[0, 2]], "run heads must be one-dimensional"),
    "runs without defined bars": (5, 5, [4], "a series without defined bars has no runs"),
    "no runs after the warm-up": (5, 2, [], "the first run must start at the warm-up bar 2"),
    "first run after the warm-up": (5, 2, [3, 4], "the first run must start at the warm-up bar 2"),
    "first run inside the warm-up": (5, 2, [1, 3], "the first run must start at the warm-up bar 2"),
    "repeated head": (5, 0, [0, 2, 2], "run heads must strictly increase"),
    "heads out of order": (5, 0, [0, 3, 2], "run heads must strictly increase"),
    "last run past the end": (5, 0, [0, 5], "the last run must start before bar 5"),
}


class TestSarSeries:
    @pytest.mark.parametrize("case", list(BAD_SAR_RUNS))
    def test_each_rule_refuses_its_case(self, case):
        n, warmup, heads, message = BAD_SAR_RUNS[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            SarSeries(n, warmup, heads, True)

    def test_heads_are_a_read_only_copy(self):
        heads = np.array([1, 3])
        sar = SarSeries(5, 1, heads, False)
        heads[1] = 2
        assert len(sar) == 5 and sar.heads.tolist() == [1, 3]
        assert sar.heads.dtype == np.int64 and not sar.heads.flags.writeable
        assert sar_values(sar).tolist() == [0, -1, -1, 1, 1]

    def test_equality_answers_without_comparing_arrays(self):
        # an ndarray field under the dataclass __eq__ would raise "truth value ... is ambiguous"
        a, b = SarSeries(5, 0, [0, 2], True), SarSeries(5, 0, [0, 2], True)
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True


class TestMacd:
    def test_constant_closes_zero_lines(self):
        s = CandleSeries.from_closes("flat", np.full(60, 42.0))
        line, signal = macd(s)
        assert np.allclose(line, 0.0) and np.allclose(signal, 0.0)

    def test_price_scaling_linearity(self):
        closes = 100.0 + np.cumsum(np.random.default_rng(1).standard_normal(120))
        closes = np.abs(closes) + 1.0
        line1, sig1 = macd(CandleSeries.from_closes("a", closes))
        line3, sig3 = macd(CandleSeries.from_closes("b", 3.0 * closes))
        assert line3 == pytest.approx(3.0 * line1, rel=1e-12, abs=1e-12)
        assert sig3 == pytest.approx(3.0 * sig1, rel=1e-12, abs=1e-12)

    def test_determinism_bitwise(self):
        s = synth_gbm(100.0, 0.0, 0.02, 300, seed=7)
        a = macd(s, ScalingConfig(1.5))
        b = macd(s, ScalingConfig(1.5))
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


class TestMacdSar:
    def test_constant_closes_default_down(self):
        s = CandleSeries.from_closes("flat", np.full(60, 42.0))
        sar = macd_sar(s)
        assert sar.warmup == 26
        assert np.all(sar_values(sar)[:26] == 0)
        assert np.all(sar_values(sar)[26:] == -1)

    def test_rising_ramp_is_up_everywhere(self):
        closes = 100.0 + np.arange(300.0)
        sar = macd_sar(CandleSeries.from_closes("ramp", closes))
        assert np.all(sar_values(sar)[sar.warmup:] == 1)
        # independent recurrence evaluation agrees: no sign changes at all
        assert reference_flip_bars(closes, 1.0) == []

    def test_ramp_up_then_down_single_flip(self):
        closes = np.concatenate([100.0 + np.arange(200.0), 300.0 - np.arange(1.0, 101.0)])
        sar = macd_sar(CandleSeries.from_closes("turn", closes))
        flips = reference_flip_bars(closes, 1.0)
        assert len(flips) == 1
        # an up run from the warm-up bar, then one down run from the flip
        assert sar.first_up and sar.heads.tolist() == [sar.warmup, flips[0][0]]
        assert flips[0][1] == -1

    def test_short_series_fully_undefined(self):
        s = CandleSeries.from_closes("short", np.full(10, 5.0))
        sar = macd_sar(s)
        assert sar.warmup == len(sar) == 10 and sar.heads.size == 0

    @given(st.integers(min_value=0, max_value=30), st.sampled_from([1.0, 1.2, 1.5, 2.0]))
    def test_only_plus_minus_one_after_warmup(self, seed, scaling):
        s = synth_gbm(100.0, 0.0, 0.02, 400, seed=seed)
        sar = macd_sar(s, ScalingConfig(scaling))
        assert sar.warmup == math.ceil(26.0 * scaling)
        values = sar_values(sar)
        defined = values[sar.warmup:]
        assert np.all((defined == 1) | (defined == -1))
        assert np.all(values[: sar.warmup] == 0)


def reference_sar_values(series, cfg):
    """The three-pass form: macd(), np.sign of the difference, tie carry."""
    line, signal = macd(series, cfg)
    n = len(series)
    warmup = min(cfg.warmup, n)
    signs = np.sign(line[warmup:] - signal[warmup:]).astype(np.int8)
    prev = -1
    for i in range(signs.size):
        if signs[i] == 0:
            signs[i] = prev
        else:
            prev = signs[i]
    values = np.zeros(n, dtype=np.int8)
    values[warmup:] = signs
    return values


@st.composite
def closes_and_scaling(draw):
    scaling = draw(st.one_of(st.sampled_from([1.0, 1.2, 0.37, 1.15, 2.3]), st.floats(min_value=0.12, max_value=3.0)))
    warmup = ScalingConfig(scaling).warmup
    n = draw(st.one_of(
        st.integers(min_value=1, max_value=warmup - 1) if warmup > 1 else st.just(1),
        st.sampled_from([warmup, warmup + 1, warmup + 2]),
        st.integers(min_value=warmup + 3, max_value=warmup + 200),
    ))
    # few distinct prices give flat stretches, where both lines tie exactly
    price = st.one_of(st.sampled_from([1.0, 2.0, 2.5, 100.0]), st.floats(min_value=1e-3, max_value=1e6))
    closes = draw(st.lists(price, min_size=n, max_size=n))
    return closes, scaling


class TestFusedMacdSar:
    @given(closes_and_scaling())
    def test_bit_identical_to_three_pass_form(self, case):
        closes, scaling = case
        series = CandleSeries.from_closes("c", closes)
        cfg = ScalingConfig(scaling)
        sar = macd_sar(series, cfg)
        assert sar.warmup == min(cfg.warmup, len(closes))
        assert sar.heads.dtype == np.int64 and not sar.heads.flags.writeable
        assert sar_values(sar).tobytes() == reference_sar_values(series, cfg).tobytes()

    @pytest.mark.parametrize("scaling", [0.5, 1.0, 1.7, 4.3])
    def test_bit_identical_on_gbm(self, scaling):
        series = synth_gbm(100.0, 0.0, 0.02, 3000, seed=11)
        cfg = ScalingConfig(scaling)
        assert sar_values(macd_sar(series, cfg)).tobytes() == reference_sar_values(series, cfg).tobytes()

    def test_flat_then_step_carries_ties(self):
        closes = [5.0] * 40 + [6.0] * 40 + [6.0] * 40
        series = CandleSeries.from_closes("step", closes)
        values = sar_values(macd_sar(series))
        assert values.tobytes() == reference_sar_values(series, ScalingConfig()).tobytes()
        assert set(values[26:40].tolist()) == {-1} and values[40] == 1

    def test_empty_series_is_fully_masked(self):
        sar = macd_sar(CandleSeries.from_closes("empty", []))
        assert len(sar) == 0 and sar.warmup == 0

    def test_sub_unit_signal_period_rejected(self):
        # the scaling itself is refused, before any series is read
        with pytest.raises(ValueError, match=r"signal period >= 1"):
            ScalingConfig(0.1)
        # 9 * (1/9) == 1.0: the signal period is exactly 1
        assert ScalingConfig(1 / 9).signal == 1.0

    def test_first_defined_bar_up_inside_the_scalar_prefix(self, monkeypatch):
        # bar 26 is up and the flat tail ties to the last bar, so the scalar
        # loop covers every bar and its first (down) run is empty
        closes = np.concatenate([1.0 + np.arange(40.0), np.full(3000, 40.0)])
        series = CandleSeries.from_closes("rise_then_flat", closes)
        stops = []
        scalar_sar = indicators._scalar_sar

        def recording_scalar_sar(fast_x, *rest):
            stops.append(fast_x.size)
            return scalar_sar(fast_x, *rest)

        monkeypatch.setattr(indicators, "_scalar_sar", recording_scalar_sar)
        sar = macd_sar(series, ScalingConfig(1.0))
        assert stops == [len(series)]
        assert sar.first_up and sar.heads[0] == sar.warmup == 26
        assert sar_values(sar).tobytes() == reference_sar_values(series, ScalingConfig(1.0)).tobytes()


def assert_matches_three_pass_form(closes, scalings):
    series = CandleSeries.from_closes("c", closes)
    for scaling in scalings:
        cfg = ScalingConfig(scaling)
        assert sar_values(macd_sar(series, cfg)).tobytes() == reference_sar_values(series, cfg).tobytes(), scaling


# signal period 1 (every defined bar an exact tie), the workloads' range, and
# long periods up to 60 (warm-up 1560 bars)
NEAR_TIE_SCALINGS = [1 / 9, 0.5, 1.0, 1.2, 3.0, 7.5, 60.0]


class TestNearTies:
    """Inputs where line - signal sits at or near zero for many bars, so the
    blocked method's sign is uncertain there and the exact scalar steps decide.
    The swing, grid, growth and crash series are longer than 8**4 bars, so the
    blocked EMAs carry across at least four levels."""

    @pytest.mark.parametrize("s0", [1e-200, 1e-60, 1.0, 100.0, 1e60, 1e200])
    def test_piecewise_linear_swings(self, s0):
        # flat warm-up, then straight up- and down-legs on a linspace grid
        series, _ = synth_trend_series(s0=s0, swings=190, seed=4)
        assert len(series) > 8**4
        assert_matches_three_pass_form(series.close, NEAR_TIE_SCALINGS)

    def test_integer_grid_with_flat_stretches(self):
        rng = np.random.default_rng(8)
        levels = 100.0 + np.cumsum(rng.integers(-2, 3, size=400))
        closes = np.repeat(levels, rng.integers(1, 40, size=levels.size))[: 8**4 + 500]
        assert closes.size > 8**4
        assert_matches_three_pass_form(closes, NEAR_TIE_SCALINGS)

    def test_exponential_growth_and_crash(self):
        t = np.arange(8**4 + 300.0)
        # growth by 1% a bar to ~1e19; apart, a crash from 1e6 to 1 between flat stretches
        assert_matches_three_pass_form(np.exp(0.01 * t), NEAR_TIE_SCALINGS)
        crash = np.concatenate([np.full(2000, 1e6), np.geomspace(1e6, 1.0, 200), np.full(2300, 1.0)])
        assert_matches_three_pass_form(crash, NEAR_TIE_SCALINGS)

    def test_top_of_the_float_range(self):
        # the blocked EMAs of closes at the largest float overflow; the loop's do not
        top = np.finfo(float).max
        rng = np.random.default_rng(5)
        closes = np.concatenate([np.geomspace(1e300, 1e308, 300), np.full(300, top), top * (1.0 - 0.5 * rng.random(300))])
        assert_matches_three_pass_form(closes, NEAR_TIE_SCALINGS)

    def test_signal_period_one_ties_everywhere(self):
        series = synth_gbm(100.0, 0.0, 0.02, 5000, seed=2)
        sar = macd_sar(series, ScalingConfig(1 / 9))
        # signal = 1.0 * line + 0.0 * signal: every defined bar ties and carries the first -1
        assert sar.warmup == 3 and sar.heads.tolist() == [3] and not sar.first_up
