"""Pinned report bytes and the up-front option checks of RunConfig.validate."""
import hashlib

import pytest

from trendlab import ExtremumPoint, synth_gbm, synth_trend_series, write_candle_file
from trendlab.cli import MAX_HIST_BINS, RunConfig, main
from trendlab.trend import RETRACEMENT

# sha256 of the stats reports for the market built in test_stats_reports_pinned,
# computed with the row-per-sample SampleBatch that preceded the columnar one
STATS_DIGESTS = {
    "fits.json": "fffaa76ffcdf03df906029eebf0fc5d09c949d0b16ac3ddb4940c9127a54743d",
    "histograms.csv": "3fddeef4ee215268dc31698b757c33d434f7eabfbbc9f9966cacee0cf042f13e",
    "samples.csv": "b41f2b1ad0d8e7d06ced8fe32ed21aa1ffa659ef18c273920505cfdf54f81706",
}


def test_stats_reports_pinned(tmp_path, monkeypatch):
    # relative paths: the reports embed the run configuration, inputs included
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market").mkdir()
    for seed in (3, 4):
        series = synth_gbm(100.0, 0.0002, 0.02, 1500, seed=seed, symbol=f"g{seed}")
        write_candle_file(series, tmp_path / "market" / f"g{seed}.csv")
    assert main(["stats", "--input", "market", "--scaling", "1", "--scaling", "1.5", "--output", "out"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in STATS_DIGESTS}
    assert digests == STATS_DIGESTS


# sha256 of detect.json and backtest.json for the market built in
# test_detect_and_backtest_reports_pinned, computed with the row-per-point
# MinMaxProcess that preceded the columnar one
DETECT_BACKTEST_DIGESTS = {
    "detect/detect.json": "cb7144cb9dbb1157f0c0b86ee79a065da4c2399fd35fe5e52a2999ddabb91580",
    "backtest/backtest.json": "508c35f6472f58d6c3ec30cec1e0d73da791e6370b33f2d5b109a75d5b1a510a",
}


def test_detect_and_backtest_reports_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market").mkdir()
    write_candle_file(synth_gbm(100.0, 0.0002, 0.02, 2000, seed=5, symbol="g5"), tmp_path / "market" / "g5.csv")
    planted, _ = synth_trend_series(swings=60, seed=7, symbol="planted")
    write_candle_file(planted, tmp_path / "market" / "planted.csv")
    scalings = ["--scaling", "1", "--scaling", "1.5"]
    assert main(["detect", "--input", "market", *scalings, "--output", "detect"]) == 0
    trade = ["--direction", "both", "--entry", "0.382", "--target", "1.0"]
    assert main(["backtest", "--input", "market", *scalings, *trade, "--output", "backtest"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DETECT_BACKTEST_DIGESTS}
    assert digests == DETECT_BACKTEST_DIGESTS


def test_pipeline_commands_build_no_point_rows(tmp_path, monkeypatch):
    # every command reads the MinMaxProcess columns; a row is built only on request
    def refuse(self, *args):
        raise RuntimeError("an ExtremumPoint row was built")

    monkeypatch.setattr(ExtremumPoint, "__init__", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market").mkdir()
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 1500, seed=2, symbol="g2"), tmp_path / "market" / "g2.csv")
    planted, _ = synth_trend_series(swings=40, seed=3, symbol="planted")
    write_candle_file(planted, tmp_path / "market" / "planted.csv")
    commands = [
        ["detect", "--scaling", "1"],
        ["stats", "--scaling", "1"],
        ["sweep", "--scalings", "0.5:2:0.5"],
        ["backtest", "--scaling", "1", "--direction", "both", "--entry", "0.382", "--target", "1.0"],
    ]
    for argv in commands:
        assert main([*argv, "--input", "market", "--output", argv[0]]) == 0
    with pytest.raises(RuntimeError):
        ExtremumPoint("low", 1.0, 0, 0, 1.0, 0.0)


# (arguments, texts the error line must contain)
REJECTED = [
    (["detect", "--scaling", "0.1"], ["--scaling", "0.1"]),
    (["detect", "--scaling", "nan"], ["--scaling", "nan"]),
    (["stats", "--scaling", "1", "--scaling", "0.05"], ["--scaling", "0.05"]),
    (["backtest", "--scaling", "-1", "--entry", "0.5", "--target", "1"], ["--scaling", "-1.0"]),
    (["sweep", "--scalings", "0.05:0.2:0.05"], ["--scalings", "0.05"]),
    (["sweep", "--scalings", "nan:1:0.1"], ["--scalings", "nan:1:0.1"]),
    (["sweep", "--scalings", "1:inf:1"], ["--scalings", "1:inf:1"]),
    (["stats", "--range", "0:1e9", "--bin-width", "1e-9"], ["--range", "--bin-width", "1e-09"]),
    (["stats", "--range", "0:1e9"], ["--range", "1000000000.0"]),
    (["stats", "--bin-width", "5e-324"], ["--bin-width", "5e-324"]),
    (["stats", "--range=-1e308:1e308", "--bin-width", "1"], ["--range", "1e+308"]),
    (["stats", "--scaling", "1", "--scaling", "1"], ["repeated", "--scaling", "1.0"]),
    (["detect", "--scaling", "1.5", "--scaling", "2", "--scaling", "1.5"], ["repeated", "--scaling", "1.5"]),
    (["backtest", "--scaling", "2", "--scaling", "2.0", "--entry", "0.5", "--target", "1"], ["repeated", "--scaling", "2.0"]),
    # cells 1 + k * 1e-11 all round to 1.0 at ten decimals
    (["sweep", "--scalings", "1:1.000000001:1e-11"], ["repeated", "--scalings", "1.0"]),
]


@pytest.mark.parametrize("argv, named", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED])
def test_rejected_before_any_input_is_read(tmp_path, capsys, argv, named):
    out = tmp_path / "o"
    rc = main([*argv, "--input", str(tmp_path / "missing.csv"), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for text in named:
        assert text in err
    assert not out.exists()


def test_smallest_scaling_accepted():
    # 9 * (1/9) == 1.0: the signal period is exactly 1
    RunConfig("detect", inputs=["x"], scalings=[1 / 9]).validate()
    with pytest.raises(ValueError, match="--scaling"):
        RunConfig("detect", inputs=["x"], scalings=[0.111]).validate()


def test_bin_count_limit_is_inclusive():
    at_limit = RunConfig("stats", inputs=["x"], variables=[RETRACEMENT], hist_range=(0.0, float(MAX_HIST_BINS)), bin_width=1.0)
    at_limit.validate()
    above = RunConfig("stats", inputs=["x"], variables=[RETRACEMENT], hist_range=(0.0, MAX_HIST_BINS + 1.0), bin_width=1.0)
    with pytest.raises(ValueError, match="--range/--bin-width"):
        above.validate()
