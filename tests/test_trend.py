import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import (
    CandleSeries,
    ScalingConfig,
    detect_trends,
    extract_samples,
    macd_sar,
    period_gaps,
    period_scaling_fit,
    run_minmax,
    synth_gbm,
)
import swing_fixtures as fx


def series_for(mm, n=None):
    n = n or (mm.points[-1].detection_bar + 1)
    return CandleSeries.from_closes("unit", np.full(n, 100.0))


class TestDetectTrends:
    def test_up_established_at_fourth_point(self):
        mm = fx.process([("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 115, 15)])
        phases = detect_trends(mm)
        assert len(phases) == 1
        ph = phases[0]
        assert ph.direction == "up"
        assert ph.start_point_index == 0
        assert ph.established_point_index == 3
        assert ph.violation_point_index is None
        assert ph.start_detection_bar == 16  # detection of the completing high

    def test_lower_low_ends_trend(self):
        mm = fx.process(
            [("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 115, 15), ("low", 103, 20)]
        )
        ph = detect_trends(mm)[0]
        assert ph.violation_point_index == 4
        assert ph.end_point_index == 3
        assert ph.end_detection_bar == 21

    def test_equal_low_ends_trend(self):
        mm = fx.process(
            [("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 115, 15), ("low", 105, 20)]
        )
        ph = detect_trends(mm)[0]
        assert ph.violation_point_index == 4

    def test_down_trend_mirrored(self):
        mm = fx.process([("high", 115, 0), ("low", 105, 5), ("high", 110, 10), ("low", 100, 15)])
        ph = detect_trends(mm)[0]
        assert ph.direction == "down"
        assert ph.established_point_index == 3

    def test_no_trend_on_mixed_points(self):
        mm = fx.process([("low", 100, 0), ("high", 110, 5), ("low", 95, 10), ("high", 115, 15)])
        assert detect_trends(mm) == []

    def test_phases_never_overlap(self):
        # up-trend breaks, then the break low seeds an immediate down-trend
        mm = fx.process(
            [
                ("low", 100, 0),
                ("high", 110, 5),
                ("low", 105, 10),
                ("high", 115, 15),
                ("low", 95, 20),
                ("high", 108, 25),
                ("low", 90, 30),
            ]
        )
        phases = detect_trends(mm)
        assert [p.direction for p in phases] == ["up", "down"]
        up, down = phases
        assert up.end_point_index < down.start_point_index
        assert down.start_point_index == up.violation_point_index == 4
        assert down.established_point_index == 5
        assert down.end_point_index == 6

    def test_depends_only_on_point_sequence(self):
        a = fx.process([("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 115, 15)])
        b = fx.process(
            [("low", 100, 0, 101), ("high", 110, 5, 108), ("low", 105, 10, 107), ("high", 115, 15, 112)]
        )
        pa, pb = detect_trends(a)[0], detect_trends(b)[0]
        assert (pa.direction, pa.start_point_index, pa.established_point_index) == (
            pb.direction,
            pb.start_point_index,
            pb.established_point_index,
        )


class TestExtractSamples:
    def hand_mm(self):
        # movement 100 -> 110, correction to 105 detected 2 above the low
        return fx.process(
            [
                ("low", 100, 0),
                ("high", 110, 20, 108),
                ("low", 105, 28, 107),
                ("high", 115, 35),
                ("low", 106, 45),
            ]
        )

    def test_spec_arithmetic(self):
        mm = self.hand_mm()
        phases = detect_trends(mm)
        batch = extract_samples(mm, phases, series_for(mm), scaling=1.0)
        x = batch.values("retracement")
        assert x.tolist() == [
            (110.0 - 105.0) / (110.0 - 100.0),  # 0.5
            (115.0 - 106.0) / (115.0 - 105.0),
        ]
        assert batch.values("delay_x").tolist() == [2.0 / (110.0 - 100.0)]  # 0.2
        assert batch.values("rel_movement").tolist() == [
            (110.0 - 100.0) / 100.0,
            (115.0 - 105.0) / 105.0,
        ]
        assert batch.values("rel_correction").tolist() == [
            (110.0 - 105.0) / 110.0,  # 0.04545...
            (115.0 - 106.0) / 115.0,
        ]
        assert batch.values("duration").tolist() == [28.0 - 20.0, 45.0 - 35.0]
        assert batch.values("delay_m").tolist() == [2.0 / 100.0]
        assert batch.values("delay_c").tolist() == [2.0 / 110.0]

    def test_zero_delay_tallied_not_emitted(self):
        mm = self.hand_mm()
        batch = extract_samples(mm, detect_trends(mm), series_for(mm), scaling=1.0)
        # the last movement and last correction end on points with zero delay
        assert batch.zero_delay == 2
        assert len(batch.values("delay_m")) == 1
        assert len(batch.values("delay_c")) == 1

    def test_multi_swing_fixture_sample_table(self):
        series = CandleSeries.from_closes("multi", fx.multi_swing_path())
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        phases = detect_trends(mm)
        assert len(phases) == 1
        for key, value in fx.MULTI_SWING_PHASE.items():
            assert getattr(phases[0], key) == value, key
        batch = extract_samples(mm, phases, series, scaling=1.0)
        for variable, expected in fx.MULTI_SWING_SAMPLES.items():
            assert batch.values(variable, "up").tolist() == expected, variable
        assert batch.degenerate == 0 and batch.zero_delay == 0

    def test_mirror_fixture_sample_table(self):
        series = CandleSeries.from_closes("mirror", fx.mirror_swing_path())
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        phases = detect_trends(mm)
        assert len(phases) == 1
        for key, value in fx.MIRROR_SWING_PHASE.items():
            assert getattr(phases[0], key) == value, key
        batch = extract_samples(mm, phases, series, scaling=1.0)
        for variable, expected in fx.MIRROR_SWING_SAMPLES.items():
            assert batch.values(variable, "down").tolist() == expected, variable
        # the first correction has no preceding movement: one tallied skip
        assert batch.degenerate == 1

    def test_retracement_count_matches_corrections(self):
        series = CandleSeries.from_closes("multi", fx.multi_swing_path())
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        phases = detect_trends(mm)
        batch = extract_samples(mm, phases, series, scaling=1.0)
        # completed corrections in the phase: one per (high, following low) leg
        assert len(batch.values("retracement")) == 3
        assert len(batch.values("rel_correction")) == 3

    def test_linked_pairs_join_on_event(self):
        series = CandleSeries.from_closes("multi", fx.multi_swing_path())
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
        pairs = batch.linked_pairs("retracement", "delay_x", "up")
        want = np.column_stack([fx.MULTI_SWING_SAMPLES["retracement"], fx.MULTI_SWING_SAMPLES["delay_x"]])
        assert pairs.shape == want.shape == (3, 2) and pairs.tobytes() == want.tobytes()
        xy = batch.linked_pairs("retracement", "duration", "up")
        assert xy.shape == (3, 2) and xy[:, 0].tobytes() == want[:, 0].tobytes()

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=25)
    def test_all_ratio_samples_positive(self, seed):
        series = synth_gbm(100.0, 0.0002, 0.02, 800, seed=seed)
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        batch = extract_samples(mm, detect_trends(mm), series, scaling=1.0)
        for sample in batch:
            assert sample.value > 0.0
            if sample.variable == "duration":
                assert sample.value == int(sample.value) and sample.value >= 1


class TestMeanPeriod:
    def test_equal_gaps(self):
        mm = fx.process([("low", 100, 0), ("high", 110, 5), ("low", 105, 10), ("high", 115, 15)])
        assert np.mean(period_gaps(mm, detect_trends(mm))) == 10.0

    def test_single_movement_insufficient(self):
        mm = fx.process([("low", 100, 0), ("high", 110, 5)])
        assert period_gaps(mm, detect_trends(mm)) == []

    def test_mixed_gaps(self):
        mm = fx.process([("low", 100, 0), ("high", 110, 5), ("low", 105, 8), ("high", 115, 17)])
        # gaps: lows 8, highs 12
        assert np.mean(period_gaps(mm, detect_trends(mm))) == 10.0

    def test_multi_swing_value(self):
        series = CandleSeries.from_closes("multi", fx.multi_swing_path())
        mm = run_minmax(series, macd_sar(series, ScalingConfig(1.0)))
        assert np.mean(period_gaps(mm, detect_trends(mm))) == fx.MULTI_SWING_MEAN_PERIOD


class TestPeriodScalingFit:
    def test_exact_two_points(self):
        fit = period_scaling_fit([(1.0, 10.0), (2.0, 20.0)])
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope == pytest.approx(10.0)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_exact_line(self):
        pts = [(s, 3.0 + 4.0 * s) for s in (0.5, 1.0, 1.5, 2.0, 3.0)]
        fit = period_scaling_fit(pts)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.slope == pytest.approx(4.0)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(8)
        s = np.linspace(0.5, 4.5, 40)
        t = 3.0 + 4.0 * s + 0.5 * rng.standard_normal(40)
        fit = period_scaling_fit(list(zip(s, t)))
        assert abs(fit.slope - 4.0) < 0.2

    def test_identical_scalings_rejected(self):
        with pytest.raises(ValueError):
            period_scaling_fit([(1.0, 10.0), (1.0, 12.0)])
