"""Dow-trend phases against a naive reference written from trend.py's docstring.

The reference reads the trend state off the last two lows and the last two
highs by kind at every point, without the index arithmetic of alternation
(``k - 2``, ``k - 3``) that ``detect_trends`` relies on, and re-checks both
same-kind pairs at every point of a phase.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from trendlab import MinMaxProcess, TrendPhase, detect_trends
import swing_fixtures as fx

UP, DOWN = "up", "down"


def trend_states(high, price):
    """Per point: its state (UP, DOWN or None) and the indices of the last two highs and lows."""
    seen = {True: [], False: []}  # point indices by kind, in order
    states = []
    for k, kind in enumerate(high):
        seen[kind].append(k)
        pairs = [seen[True][-2:], seen[False][-2:]]
        state = None
        if all(len(pair) == 2 for pair in pairs):
            if all(price[b] > price[a] for a, b in pairs):
                state = UP
            elif all(price[b] < price[a] for a, b in pairs):
                state = DOWN
        states.append((state, pairs[0] + pairs[1]))
    return states


def reference_phases(high, price, detection_bar):
    """Non-overlapping phases, one point at a time, straight from the definition."""
    phases = []
    direction = None
    for k, (state, quadruple) in enumerate(trend_states(high, price)):
        if direction is not None:
            if state == direction:
                end = k
                continue
            phases.append(TrendPhase(direction, start, end, established, k, detection_bar[established], detection_bar[k]))
            direction = None
            continue  # the violator does not establish
        if state is None:
            continue
        direction, established, end = state, k, k
        start = min(quadruple)
        if phases and phases[-1].end_point_index >= start:
            start = phases[-1].end_point_index + 1
    if direction is not None:
        phases.append(TrendPhase(direction, start, end, established, None, detection_bar[established], detection_bar[end]))
    return phases


@st.composite
def alternating_points(draw):
    """(high, price, detection_bar) of an alternating point sequence.

    Prices come from a small integer grid (equal extrema are common), as
    free floats, or as a zigzag whose integer swings (0 included) make long
    trends and exact ties.
    """
    n = draw(st.integers(min_value=0, max_value=40))
    first_high = draw(st.booleans())
    high = [(k % 2 == 0) == first_high for k in range(n)]
    shape = draw(st.sampled_from(["grid", "floats", "zigzag"]))
    if shape == "grid":
        price = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    elif shape == "floats":
        price = draw(st.lists(st.floats(1.0, 100.0), min_size=n, max_size=n))
    else:
        swings = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        price, level = [], 50
        for is_high, swing in zip(high, swings):
            level += swing if is_high else -swing
            price.append(level)
    delays = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    detection_bar = np.maximum.accumulate([3 * k + d for k, d in enumerate(delays)]).tolist() if n else []
    return high, [float(p) for p in price], detection_bar


def to_process(high, price, detection_bar):
    return MinMaxProcess(
        high=high,
        price=price,
        bar=[3 * k for k in range(len(price))],
        detection_bar=detection_bar,
        detection_close=price,
        d_abs=[0.0] * len(price),
    )


@given(alternating_points())
@settings(max_examples=400)
def test_phases_match_reference(points):
    assert detect_trends(to_process(*points)) == reference_phases(*points)


@given(alternating_points())
@settings(max_examples=200)
def test_violator_holds_no_trend(points):
    # why the violator cannot establish: neither direction holds at it
    high, price, _ = points
    states = trend_states(high, price)
    for ph in detect_trends(to_process(*points)):
        if ph.violation_point_index is not None:
            assert states[ph.violation_point_index][0] is None


def test_start_trimmed_after_previous_phase():
    # the up phase 0..5 is violated by the low at 6 (103 < 108); the down
    # quadruple 4..7 reaches back into it, so the down phase starts at the violator
    spec = [("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 115, 15),
            ("low", 108, 20), ("high", 120, 25), ("low", 103, 30), ("high", 111, 35)]
    mm = fx.process(spec)
    phases = detect_trends(mm)
    assert [(ph.direction, ph.start_point_index, ph.end_point_index, ph.violation_point_index) for ph in phases] == [
        (UP, 0, 5, 6),
        (DOWN, 6, 7, None),
    ]
    assert phases == reference_phases(mm.high.tolist(), mm.price.tolist(), mm.detection_bar.tolist())


def test_equal_extrema_neither_establish_nor_continue():
    # equal highs (110, 110) block the first quadruple; the equal low at 6 ends the trend
    spec = [("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 110, 15),
            ("low", 106, 20), ("high", 112, 25), ("low", 106, 30)]
    mm = fx.process(spec)
    phases = detect_trends(mm)
    assert [(ph.established_point_index, ph.violation_point_index) for ph in phases] == [(5, 6)]
    assert phases == reference_phases(mm.high.tolist(), mm.price.tolist(), mm.detection_bar.tolist())
