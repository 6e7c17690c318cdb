"""Hand-derived chart fixtures shared across the test suite.

Every path is built from degenerate bars (open = high = low = close) on an
integer-ish grid so the expected extrema, trend phases, and sample values can
be written down as exact arithmetic. Detection bars follow from the EMA
recurrences; ``reference_flip_bars`` re-evaluates those recurrences with a
deliberately separate implementation so the frozen detection bars are checked
against an independent oracle, not against the code under test.
"""
from __future__ import annotations

import numpy as np

from trendlab import CandleSeries, MinMaxProcess, SarSeries


def sar_values(sar: SarSeries) -> np.ndarray:
    """The per-bar int8 form of a SAR: 0 over the warm-up, then +1 on up runs and -1 on down runs."""
    values = np.zeros(len(sar), dtype=np.int8)
    runs = np.diff(np.append(sar.heads, len(sar)))
    up = (np.arange(runs.size) % 2 == 0) == sar.first_up
    values[sar.warmup :] = np.repeat(np.where(up, 1, -1), runs)
    return values


def sar_from_values(values, warmup: int) -> SarSeries:
    """The SarSeries of per-bar values (0 over the warm-up, then +1 or -1), checked to round-trip."""
    values = np.asarray(values, dtype=np.int8)
    defined = values[warmup:]
    heads = warmup + np.flatnonzero(np.diff(defined, prepend=0))
    sar = SarSeries(values.size, warmup, heads, bool(defined.size and defined[0] == 1))
    assert sar_values(sar).tobytes() == values.tobytes(), "values are not 0 over the warm-up and +1 or -1 after it"
    return sar


def process(spec) -> MinMaxProcess:
    """A MinMaxProcess from (kind, price, bar[, detection_close]) rows, each detected at bar + 1."""
    price = [float(row[1]) for row in spec]
    close = [float(row[3]) if len(row) > 3 else p for row, p in zip(spec, price)]
    return MinMaxProcess(
        high=[row[0] == "high" for row in spec],
        price=price,
        bar=[row[2] for row in spec],
        detection_bar=[row[2] + 1 for row in spec],
        detection_close=close,
        d_abs=[abs(p - c) for p, c in zip(price, close)],
    )


def gapped_series(seed, n) -> CandleSeries:
    """Narrow bars on an integer grid that jump by 1-3 between bars.

    Consecutive bars rarely overlap, so a bar breaking the last fixed point
    often fixes the candidate at once: a fixed high can sit below the
    previous low (and a low above the previous high), giving legs of
    non-positive size, also at the end of an open phase.
    """
    rng = np.random.default_rng(seed)
    close = 500.0 + np.cumsum(rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], n))
    half = rng.choice([0.0, 0.25, 0.5], n)
    return CandleSeries("gapped", tuple(range(n)), close.copy(), close + half, close - half, close.copy())


def rise_fall_rise_path() -> np.ndarray:
    """85 bars: 100 -> 130 (bars 0-30), -> 106 (31-54), -> 136 (55-84)."""
    return np.concatenate(
        [
            100.0 + np.arange(31.0),
            130.0 - np.arange(1.0, 25.0),
            106.0 + np.arange(1.0, 31.0),
        ]
    )


# (kind, price, bar, detection_bar, detection_close); d_abs = |price - close|
RISE_FALL_RISE_POINTS = (
    ("high", 130.0, 30, 33, 127.0),
    ("low", 106.0, 54, 59, 111.0),
)
RISE_FALL_RISE_OPEN = ("high", 136.0, 84)


def multi_swing_path() -> np.ndarray:
    """171 bars of an up-trend with three movements and a trend-breaking dive.

    flat 100 (0-29), +1/bar to 120 (30-49), -1/bar to 112 (50-57), +1/bar to
    134 (58-79), -1/bar to 122 (80-91), +1/bar to 146 (92-115), -1/bar to 116
    (116-145, breaks the 122 low), +1/bar to 141 (146-170).
    """
    return np.concatenate(
        [
            np.full(30, 100.0),
            100.0 + np.arange(1.0, 21.0),
            120.0 - np.arange(1.0, 9.0),
            112.0 + np.arange(1.0, 23.0),
            134.0 - np.arange(1.0, 13.0),
            122.0 + np.arange(1.0, 25.0),
            146.0 - np.arange(1.0, 31.0),
            116.0 + np.arange(1.0, 26.0),
        ]
    )


MULTI_SWING_POINTS = (
    ("low", 100.0, 0, 30, 101.0),
    ("high", 120.0, 49, 53, 116.0),
    ("low", 112.0, 57, 65, 120.0),
    ("high", 134.0, 79, 83, 130.0),
    ("low", 122.0, 91, 99, 130.0),
    ("high", 146.0, 115, 119, 142.0),
    ("low", 116.0, 145, 149, 120.0),
)
MULTI_SWING_OPEN = ("high", 141.0, 170)

# single up-phase: points 0..5 in trend, point 6 violates (116 < 122)
MULTI_SWING_PHASE = dict(
    direction="up",
    start_point_index=0,
    end_point_index=5,
    established_point_index=3,
    violation_point_index=6,
    start_detection_bar=83,
    end_detection_bar=149,
)

# per-leg samples of the up phase, exact arithmetic on the frozen points
MULTI_SWING_SAMPLES = {
    "rel_movement": [(120.0 - 100.0) / 100.0, (134.0 - 112.0) / 112.0, (146.0 - 122.0) / 122.0],
    "delay_m": [4.0 / 100.0, 4.0 / 112.0, 4.0 / 122.0],
    "rel_correction": [(120.0 - 112.0) / 120.0, (134.0 - 122.0) / 134.0, (146.0 - 116.0) / 146.0],
    "duration": [57.0 - 49.0, 91.0 - 79.0, 145.0 - 115.0],
    "delay_c": [8.0 / 120.0, 8.0 / 134.0, 4.0 / 146.0],
    "retracement": [
        (120.0 - 112.0) / (120.0 - 100.0),
        (134.0 - 122.0) / (134.0 - 112.0),
        (146.0 - 116.0) / (146.0 - 122.0),
    ],
    "delay_x": [8.0 / (120.0 - 100.0), 8.0 / (134.0 - 112.0), 4.0 / (146.0 - 122.0)],
}

# same-kind bar gaps inside the phase: lows (0, 57, 91), highs (49, 79, 115)
MULTI_SWING_MEAN_PERIOD = (57.0 + 34.0 + 30.0 + 36.0) / 4.0


def mirror_swing_path() -> np.ndarray:
    """Down-trend mirror of the multi-swing path around 300."""
    return 300.0 - multi_swing_path()


MIRROR_SWING_POINTS = (
    ("low", 180.0, 49, 53, 184.0),
    ("high", 188.0, 57, 65, 180.0),
    ("low", 166.0, 79, 83, 170.0),
    ("high", 178.0, 91, 99, 170.0),
    ("low", 154.0, 115, 119, 158.0),
    ("high", 184.0, 145, 149, 180.0),
)
MIRROR_SWING_OPEN = ("low", 159.0, 170)

MIRROR_SWING_PHASE = dict(
    direction="down",
    start_point_index=0,
    end_point_index=4,
    established_point_index=3,
    violation_point_index=5,
    start_detection_bar=99,
    end_detection_bar=149,
)

MIRROR_SWING_SAMPLES = {
    "rel_correction": [(188.0 - 180.0) / 180.0, (178.0 - 166.0) / 166.0, (184.0 - 154.0) / 154.0],
    "duration": [57.0 - 49.0, 91.0 - 79.0, 145.0 - 115.0],
    "delay_c": [8.0 / 180.0, 8.0 / 166.0, 4.0 / 154.0],
    "rel_movement": [(188.0 - 166.0) / 188.0, (178.0 - 154.0) / 178.0],
    "delay_m": [4.0 / 188.0, 4.0 / 178.0],
    "retracement": [(178.0 - 166.0) / (188.0 - 166.0), (184.0 - 154.0) / (178.0 - 154.0)],
    "delay_x": [8.0 / (188.0 - 166.0), 4.0 / (178.0 - 154.0)],
}


def shelf_path() -> np.ndarray:
    """Backtest fixture: a correction bottoming at exactly half its movement.

    The movement 112 -> 134 (size 22) corrects to 123 (x = 0.5); a flat shelf
    at 124.2 holds until the first rising bar (close 125.2) flips the SAR, so
    the correction end is detected 0.1 movements above the low.
    """
    return np.concatenate(
        [
            np.full(30, 100.0),
            100.0 + np.arange(1.0, 21.0),
            120.0 - np.arange(1.0, 9.0),
            112.0 + np.arange(1.0, 23.0),
            134.0 - np.arange(1.0, 12.0),
            np.full(20, 124.2),
            124.2 + np.arange(1.0, 21.0),
        ]
    )


SHELF_POINTS = (
    ("low", 100.0, 0, 30, 101.0),
    ("high", 120.0, 49, 53, 116.0),
    ("low", 112.0, 57, 65, 120.0),
    ("high", 134.0, 79, 83, 130.0),
    ("low", 123.0, 90, 111, 125.2),
)


def reference_flip_bars(closes, scaling: float = 1.0) -> list[tuple[int, int]]:
    """Independent recurrence evaluation: (bar, sign) at every SAR sign change.

    Plain-Python EMAs, written out long-hand on purpose; ties carry the
    previous sign with an initial default of -1.
    """
    def plain_ema(xs, period):
        alpha = 2.0 / (period + 1.0)
        acc = xs[0]
        out = [acc]
        for value in xs[1:]:
            acc = alpha * value + (1.0 - alpha) * acc
            out.append(acc)
        return out

    closes = list(map(float, closes))
    fast = plain_ema(closes, 12.0 * scaling)
    slow = plain_ema(closes, 26.0 * scaling)
    line = [f - s for f, s in zip(fast, slow)]
    signal = plain_ema(line, 9.0 * scaling)
    warmup = int(np.ceil(26.0 * scaling))
    flips = []
    prev = None
    for i in range(warmup, len(closes)):
        diff = line[i] - signal[i]
        sign = 1 if diff > 0 else (-1 if diff < 0 else (prev if prev is not None else -1))
        if prev is not None and sign != prev:
            flips.append((i, sign))
        prev = sign
    return flips
