"""Columnar SampleBatch against a naive row-wise reference.

The reference keeps one TrendSample per observation, selects by scanning the
rows and joins linked pairs through a dict keyed by leg event, as the
row-per-sample form of the batch did.
"""
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
)
import swing_fixtures as fx


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
    return [
        (a[s.event], s.value)
        for s in rows
        if s.variable == var_b and s.event in a and direction in (None, s.direction)
    ]


def bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def pair_bits(pairs) -> bytes:
    return np.array(pairs, dtype=np.float64).reshape(-1, 2).tobytes()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scaling=st.sampled_from([0.5, 0.75, 1.0, 1.2, 1.5, 2.0, 2.7]),
    vol=st.sampled_from([0.005, 0.02, 0.05]),
)
@settings(max_examples=30)
def test_columns_match_row_reference(seed, scaling, vol):
    series = synth_gbm(100.0, 0.0, vol, 1500, seed=seed, symbol="gbm")
    mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
    phases = detect_trends(mm)
    batch = extract_samples(mm, phases, series, scaling=scaling)
    rows, degenerate, zero_delay = reference_rows(mm, phases, "gbm", scaling)

    assert len(batch) == len(rows)
    assert (batch.degenerate, batch.zero_delay) == (degenerate, zero_delay)
    assert list(batch) == rows
    for direction in (None, "up", "down"):
        for variable in VARIABLES:
            got = batch.values(variable, direction)
            assert got.dtype == np.float64
            assert bits(got) == bits(reference_values(rows, variable, direction)), (variable, direction)
        for var_a, var_b in LINKED_PAIRS:
            got = batch.linked_pairs(var_a, var_b, direction)
            want = reference_pairs(rows, var_a, var_b, direction)
            assert len(got) == len(want) and pair_bits(got) == pair_bits(want), (var_a, var_b, direction)
    if rows:
        for i in (0, len(rows) // 2, -1):
            assert batch[i] == rows[i]
        assert batch[1:3] == tuple(rows[1:3])


def test_batch_without_phases_is_empty():
    series = synth_gbm(100.0, 0.0, 0.02, 10, seed=1)
    batch = extract_samples(fx.process([]), [], series, scaling=1.0)
    assert len(batch) == 0 and list(batch) == []
    assert batch.values(RETRACEMENT).dtype == np.float64 and batch.values(RETRACEMENT).size == 0
    assert batch.linked_pairs(RETRACEMENT, DELAY_X) == []
    with pytest.raises(IndexError):
        batch[0]


def test_unknown_names_select_nothing():
    series = synth_gbm(100.0, 0.0, 0.02, 2000, seed=3)
    mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
    batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
    assert len(batch) > 0
    assert batch.values("no_such_variable").size == 0
    assert batch.values(RETRACEMENT, "sideways").size == 0
    assert batch.linked_pairs(RETRACEMENT, "no_such_variable") == []


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
    assert batch.linked_pairs(RETRACEMENT, DELAY_X) == [(0.2, 2.0), (0.3, 3.0)]
    assert batch.linked_pairs(DELAY_X, RETRACEMENT) == [(2.0, 0.2), (3.0, 0.3)]
    assert batch.linked_pairs(RETRACEMENT, DELAY_X, "down") == []


def test_columns_are_read_only():
    series = synth_gbm(100.0, 0.0, 0.02, 800, seed=4)
    mm = run_minmax(series, macd_sar(series))
    batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
    assert len(batch) > 0
    for column in (batch.event, batch.variable, batch.direction, batch.value):
        with pytest.raises(ValueError):
            column[0] = column[0]
