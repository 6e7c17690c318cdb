"""Leg columns, period gaps and the columnar SampleBatch against naive references.

The leg reference is the per-leg generator the columns replaced, the gap
reference the nested loop over each phase's points. The sample reference
keeps one TrendSample per observation, selects by scanning the rows and joins
linked pairs through a dict keyed by leg event, as the row-per-sample form of
the batch did. Markets are GBM paths and gapped integer-grid paths; the
gapped ones give non-positive legs, phases starting at point 0 and zero
delays, so every skip rule of extract_samples' table is reached.
"""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import (
    SampleBatch,
    ScalingConfig,
    TrendSample,
    detect_trends,
    extract_samples,
    macd_sar,
    period_gaps,
    run_minmax,
    synth_gbm,
)
from trendlab.cli import LINKED_PAIRS
from trendlab.minmax import HIGH, LOW
from trendlab.trend import (
    DELAY_C,
    DELAY_M,
    DELAY_X,
    DURATION,
    REL_CORRECTION,
    REL_MOVEMENT,
    RETRACEMENT,
    UP,
    VARIABLES,
    legs,
)
import swing_fixtures as fx


def reference_legs(mm, phases):
    """``(phase, a, is_correction, size, previous)`` per completed leg, one Python tuple at a time."""
    high = mm.high.tolist()
    diff = np.diff(mm.price)
    size = np.where(mm.high[1:], diff, -diff).tolist()
    for p, ph in enumerate(phases):
        up = ph.direction == UP
        last = ph.violation_point_index if ph.violation_point_index is not None else ph.end_point_index
        for a in range(ph.start_point_index, last):
            yield p, a, high[a] == up, size[a], size[a - 1] if a else math.nan


def reference_gaps(mm, phases):
    bar = mm.bar.tolist()
    return [bar[i + 2] - bar[i] for ph in phases for i in range(ph.start_point_index, ph.end_point_index - 1)]


def reference_rows(mm, phases, symbol, scaling):
    """(samples, degenerate, zero_delay), one TrendSample per emitted value."""
    pts = mm.points
    rows, degenerate, zero_delay, event = [], 0, 0, 0
    for ph in phases:
        last = ph.violation_point_index if ph.violation_point_index is not None else ph.end_point_index
        for j in range(ph.start_point_index, last):
            a, b = pts[j], pts[j + 1]
            event += 1

            def emit(variable, value):
                rows.append(TrendSample(variable, value, ph.direction, scaling, symbol, event))

            size = b.price - a.price if b.kind == HIGH else a.price - b.price
            if size <= 0.0:
                degenerate += 1
                continue
            if (a.kind == LOW) == (ph.direction == UP):
                emit(REL_MOVEMENT, size / a.price)
                if b.d_abs > 0.0:
                    emit(DELAY_M, b.d_abs / a.price)
                else:
                    zero_delay += 1
                continue
            emit(REL_CORRECTION, size / a.price)
            emit(DURATION, float(b.bar - a.bar))
            if b.d_abs > 0.0:
                emit(DELAY_C, b.d_abs / a.price)
            else:
                zero_delay += 1
            if j == 0:
                degenerate += 1
                continue
            o = pts[j - 1]
            movement = a.price - o.price if a.kind == HIGH else o.price - a.price
            if movement <= 0.0:
                degenerate += 1
                continue
            emit(RETRACEMENT, size / movement)
            if b.d_abs > 0.0:
                emit(DELAY_X, b.d_abs / movement)
    return rows, degenerate, zero_delay


def reference_values(rows, variable, direction):
    return np.array(
        [s.value for s in rows if s.variable == variable and direction in (None, s.direction)], dtype=float
    )


def reference_pairs(rows, var_a, var_b, direction):
    a = {s.event: s.value for s in rows if s.variable == var_a and direction in (None, s.direction)}
    return np.array(
        [(a[s.event], s.value) for s in rows if s.variable == var_b and s.event in a and direction in (None, s.direction)],
        dtype=np.float64,
    ).reshape(-1, 2)


def bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def assert_same_pairs(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert bits(got) == bits(want)


@st.composite
def markets(draw):
    """(series, scaling): a GBM path or a gapped integer-grid path."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        series = synth_gbm(100.0, 0.0, draw(st.sampled_from([0.005, 0.02, 0.05])), 1500, seed=seed, symbol="gbm")
        return series, draw(st.sampled_from([0.5, 0.75, 1.0, 1.2, 1.5, 2.0, 2.7]))
    # at 1/9 the signal line equals the MACD line and a gapped path fixes no point
    return fx.gapped_series(seed, 400), draw(st.sampled_from([0.2, 0.5, 1.0]))


def detected(series, scaling):
    mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
    return mm, detect_trends(mm)


@given(markets())
@settings(max_examples=60)
def test_leg_columns_match_generator(market):
    mm, phases = detected(*market)
    for chosen in (phases, [ph for ph in phases if ph.direction == UP]):
        phase, a, is_correction, size, previous = legs(mm, chosen)
        want = list(reference_legs(mm, chosen))
        assert (phase.dtype, a.dtype, is_correction.dtype) == (np.int64, np.int64, np.bool_)
        assert list(zip(phase.tolist(), a.tolist(), is_correction.tolist())) == [row[:3] for row in want]
        assert bits(size) == bits([row[3] for row in want])
        assert bits(previous) == bits([row[4] for row in want])


@given(markets())
@settings(max_examples=60)
def test_period_gaps_match_nested_loop(market):
    mm, phases = detected(*market)
    for chosen in (phases, [ph for ph in phases if ph.direction == UP]):
        assert period_gaps(mm, chosen) == reference_gaps(mm, chosen)


@given(markets())
@settings(max_examples=60)
def test_columns_match_row_reference(market):
    series, scaling = market
    mm, phases = detected(series, scaling)
    batch = extract_samples(mm, phases, series, scaling=scaling)
    rows, degenerate, zero_delay = reference_rows(mm, phases, series.symbol, scaling)

    assert len(batch) == len(rows)
    assert (batch.degenerate, batch.zero_delay) == (degenerate, zero_delay)
    assert list(batch) == rows
    for direction in (None, "up", "down"):
        for variable in VARIABLES:
            got = batch.values(variable, direction)
            assert got.dtype == np.float64
            assert bits(got) == bits(reference_values(rows, variable, direction)), (variable, direction)
        for var_a, var_b in LINKED_PAIRS:
            assert_same_pairs(batch.linked_pairs(var_a, var_b, direction), reference_pairs(rows, var_a, var_b, direction))


def test_gapped_markets_reach_every_skip_rule():
    """Fixed gapped cases that hold what a random draw may miss: every skip
    rule of the table drops some value, and the columns still match."""
    seen = Counter()
    for seed in range(20):
        series = fx.gapped_series(seed, 400)
        for scaling in (0.2, 0.5):
            mm, phases = detected(series, scaling)
            batch = extract_samples(mm, phases, series, scaling=scaling)
            rows, degenerate, zero_delay = reference_rows(mm, phases, series.symbol, scaling)
            assert list(batch) == rows and (batch.degenerate, batch.zero_delay) == (degenerate, zero_delay)
            d_abs = mm.d_abs.tolist()
            for _, a, is_correction, size, previous in reference_legs(mm, phases):
                delayed = d_abs[a + 1] > 0.0
                if size <= 0.0:
                    seen["non-positive leg"] += 1
                elif not is_correction:
                    seen["movement without delay_m"] += not delayed
                elif a == 0:
                    seen["correction at point 0"] += 1
                elif not previous > 0.0:
                    seen["correction after a non-positive movement"] += 1
                else:
                    seen["retracement without delay_x"] += not delayed
    rules = {
        "non-positive leg",
        "movement without delay_m",
        "correction at point 0",
        "correction after a non-positive movement",
        "retracement without delay_x",
    }
    assert {rule for rule, count in seen.items() if count} == rules, seen


def test_batch_without_phases_is_empty():
    series = synth_gbm(100.0, 0.0, 0.02, 10, seed=1)
    batch = extract_samples(fx.process([]), [], series, scaling=1.0)
    assert len(batch) == 0 and list(batch) == []
    assert batch.values(RETRACEMENT).dtype == np.float64 and batch.values(RETRACEMENT).size == 0
    assert_same_pairs(batch.linked_pairs(RETRACEMENT, DELAY_X), np.empty((0, 2)))


def test_unknown_names_select_nothing():
    series = synth_gbm(100.0, 0.0, 0.02, 2000, seed=3)
    mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
    batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
    assert len(batch) > 0
    assert batch.values("no_such_variable").size == 0
    assert batch.values(RETRACEMENT, "sideways").size == 0
    assert_same_pairs(batch.linked_pairs(RETRACEMENT, "no_such_variable"), np.empty((0, 2)))


def test_linked_pairs_skip_unmatched_events():
    # events 1..3 carry a; only 2 and 3 carry b, and b's event 4 has no a
    batch = SampleBatch(
        event=np.array([1, 2, 2, 3, 3, 4], dtype=np.int64),
        variable=np.array([0, 0, 4, 0, 4, 4], dtype=np.int8),
        direction=np.zeros(6, dtype=np.int8),
        value=np.array([0.1, 0.2, 2.0, 0.3, 3.0, 4.0]),
        symbol="s",
        scaling=1.0,
    )
    assert VARIABLES[0] == RETRACEMENT and VARIABLES[4] == DELAY_X
    assert_same_pairs(batch.linked_pairs(RETRACEMENT, DELAY_X), np.array([[0.2, 2.0], [0.3, 3.0]]))
    assert_same_pairs(batch.linked_pairs(DELAY_X, RETRACEMENT), np.array([[2.0, 0.2], [3.0, 0.3]]))
    assert_same_pairs(batch.linked_pairs(RETRACEMENT, DELAY_X, "down"), np.empty((0, 2)))


def test_columns_are_read_only():
    series = synth_gbm(100.0, 0.0, 0.02, 800, seed=4)
    mm = run_minmax(series, macd_sar(series))
    batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
    assert len(batch) > 0
    for column in (batch.event, batch.variable, batch.direction, batch.value):
        with pytest.raises(ValueError):
            column[0] = column[0]
