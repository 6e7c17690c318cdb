"""The reference definitions of tests/oracles.py against hand-derived values."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trendlab import BivariateLogNormalParams, LogNormalParams, TradeSpec
from oracles import bivariate_lognormal_density, lognormal_cdf, norm_cdf, trade_return

PHI_1 = 0.8413447460685429  # reference value of the standard normal CDF at 1


class TestTradeReturn:
    def test_partial_retracement(self):
        out = trade_return(0.5, 0.1, TradeSpec(0.3, 1.0))
        assert out.ret == pytest.approx(0.1)
        assert not out.reached_target

    def test_target_reached_ignores_delay(self):
        out = trade_return(1.2, 0.4, TradeSpec(0.3, 1.0))
        assert out.reached_target
        assert out.ret == 1.0 - 0.3  # exactly t - a, delay ignored

    def test_no_trade_below_entry(self):
        assert trade_return(0.2, 0.0, TradeSpec(0.3, 1.0)) is None

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TradeSpec(0.5, 0.5)
        with pytest.raises(ValueError):
            TradeSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            trade_return(0.5, -0.1, TradeSpec(0.3, 1.0))

    @given(
        st.floats(min_value=0.3, max_value=5.0),
        st.floats(min_value=0.3, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_x_and_capped(self, x1, x2, d):
        spec = TradeSpec(0.3, 1.0)
        lo, hi = sorted([x1, x2])
        out_lo, out_hi = trade_return(lo, d, spec), trade_return(hi, d, spec)
        assert out_lo.ret <= out_hi.ret + 1e-12
        assert out_hi.ret <= spec.target - spec.entry + 1e-12


class TestCdf:
    def test_median_is_half(self):
        assert lognormal_cdf(math.exp(0.7), LogNormalParams(0.7, 1.3)) == pytest.approx(0.5)

    def test_zero_below_support(self):
        assert lognormal_cdf(0.0, LogNormalParams(0.0, 1.0)) == 0.0
        assert lognormal_cdf(-5.0, LogNormalParams(0.0, 1.0)) == 0.0

    def test_reference_value(self):
        assert lognormal_cdf(math.e, LogNormalParams(0.0, 1.0)) == pytest.approx(PHI_1, abs=1e-9)
        assert norm_cdf(1.0) == pytest.approx(PHI_1, abs=1e-12)

    def test_sigma_zero_step(self):
        p = LogNormalParams(0.0, 0.0)
        assert lognormal_cdf(0.999, p) == 0.0
        assert lognormal_cdf(1.0, p) == 1.0

    def test_monotone_grid_with_limits(self):
        p = LogNormalParams(-0.3, 0.8)
        xs = np.linspace(1e-6, 50.0, 400)
        vals = [lognormal_cdf(float(x), p) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-12
        assert lognormal_cdf(1e9, p) == pytest.approx(1.0)


class TestBivariateDensity:
    def test_plugin_value(self):
        p = BivariateLogNormalParams(0.0, 0.0, 1.0, 1.0, 0.0)
        assert bivariate_lognormal_density(1.0, 1.0, p) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_independence_factorizes(self):
        p = BivariateLogNormalParams(0.1, -0.4, 0.7, 0.5, 0.0)
        for x in (0.2, 0.7, 1.3, 3.1):
            for d in (0.05, 0.4, 1.1):
                joint = bivariate_lognormal_density(x, d, p)
                fx = math.exp(-((math.log(x) - 0.1) ** 2) / (2 * 0.7**2)) / (x * 0.7 * math.sqrt(2 * math.pi))
                fd = math.exp(-((math.log(d) + 0.4) ** 2) / (2 * 0.5**2)) / (d * 0.5 * math.sqrt(2 * math.pi))
                assert joint == pytest.approx(fx * fd, rel=1e-12)

    def test_swap_symmetry(self):
        p = BivariateLogNormalParams(0.3, -0.2, 0.9, 0.4, 0.55)
        q = BivariateLogNormalParams(-0.2, 0.3, 0.4, 0.9, 0.55)
        assert bivariate_lognormal_density(1.7, 0.6, p) == pytest.approx(
            bivariate_lognormal_density(0.6, 1.7, q), rel=1e-14
        )

    def test_outside_support(self):
        p = BivariateLogNormalParams(0.0, 0.0, 1.0, 1.0, 0.2)
        assert bivariate_lognormal_density(-1.0, 1.0, p) == 0.0
        assert bivariate_lognormal_density(1.0, 0.0, p) == 0.0
