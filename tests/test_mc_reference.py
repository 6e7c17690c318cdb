"""simulate_expected_return against the one-shot formula it replaced.

The reference draws all n pairs of normals as full-length arrays and filters
them in one go; the code under test evaluates the same stream block by block.
Both must give the same (mean, stderr) bit for bit, or the same error.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import BivariateLogNormalParams, TradeSpec, simulate_expected_return
from trendlab.trading import MC_BLOCK
from hypothesis_counts import examples


def one_shot_simulate(params, spec, n=1_000_000, seed=0):
    if n < 10_000:
        raise ValueError("need at least 10^4 draws")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    x = np.exp(params.mu_x + params.sigma_x * z1)
    d = np.exp(params.mu_d + params.sigma_d * (params.rho * z1 + math.sqrt(1.0 - params.rho**2) * z2))
    opened = x >= spec.entry
    m = int(opened.sum())
    if m < 100:
        raise ValueError(f"only {m} of {n} draws reach the entry level {spec.entry}")
    ret = np.where(x >= spec.target, spec.target - spec.entry, x - spec.entry - d)[opened]
    return float(ret.mean()), float(ret.std(ddof=1) / math.sqrt(m))


def outcome(simulate, params, spec, n, seed):
    """(mean, stderr) as float.hex strings, so that -0.0 and 0.0 differ, or the error text."""
    try:
        return tuple(v.hex() for v in simulate(params, spec, n=n, seed=seed))
    except ValueError as exc:
        return str(exc)


SIGMAS = st.floats(0.05, 1.5) | st.sampled_from([1e-12, 1e-9])
LAWS = st.builds(
    BivariateLogNormalParams,
    mu_x=st.floats(-3.0, 0.5),
    mu_d=st.floats(-3.0, 0.5),
    sigma_x=SIGMAS,
    sigma_d=SIGMAS,
    rho=st.sampled_from([0.0, 0.6, -0.6, 0.999, -0.999]),
)
SPECS = st.sampled_from(
    [TradeSpec(0.382, 1.0), TradeSpec(0.5, 0.8), TradeSpec(0.618, 1.0), TradeSpec(0.382, math.inf), TradeSpec(0.9, 1.0)]
)
# a law under which only a few dozen of 10^4 draws reach entry 0.9
FEW_OPENED = BivariateLogNormalParams(-1.0, -1.0, 0.36, 0.2, 0.6)


@pytest.mark.parametrize("n", [10_000, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 17, 10**6])
@settings(max_examples=examples(20))
@given(params=LAWS, spec=SPECS, seed=st.integers(0, 2**32))
def test_blocked_matches_one_shot(n, params, spec, seed):
    assert outcome(simulate_expected_return, params, spec, n, seed) == outcome(one_shot_simulate, params, spec, n, seed)


def test_few_opened_draws_raise_at_the_same_count():
    message = outcome(one_shot_simulate, FEW_OPENED, TradeSpec(0.9, 1.0), 10_000, 0)
    assert message.startswith("only ") and 0 < int(message.split()[1]) < 100
    assert outcome(simulate_expected_return, FEW_OPENED, TradeSpec(0.9, 1.0), 10_000, 0) == message
