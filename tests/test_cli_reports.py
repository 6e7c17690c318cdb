"""Pinned report bytes and the up-front option checks RunConfig makes on construction."""
import hashlib

import pytest

from trendlab import ExtremumPoint, synth_gbm, synth_trend_series, write_candle_file
from trendlab import cli
from trendlab.cli import MAX_HIST_BINS, MAX_MC_SAMPLES, MAX_SCALINGS, RunConfig, main, parse_scaling_range
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


LAW = ["--mu-x", "-0.6", "--sigma-x", "0.3", "--mu-d", "-0.7", "--sigma-d", "0.15", "--rho", "0.6"]
TRADE = ["--entry", "0.382", "--target", "1.0"]

# sha256 of trade_eval.json for the two runs of test_trade_eval_reports_pinned,
# computed with the one-shot Monte Carlo over full-length arrays that preceded
# the blocked one
TRADE_EVAL_DIGESTS = {
    "eval_a/trade_eval.json": "5eaa213e2bfc74430b521e48cf50ec6ecf3c29e70320067bb98965e7ba8982fa",
    "eval_b/trade_eval.json": "ab027d49ac2e384be79273457715b142038fb69b08b91ccfdcd2609fcb54728e",
}


def test_trade_eval_reports_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trade-eval", *LAW, *TRADE, "--output", "eval_a"]) == 0
    law_b = ["--mu-x", "-0.4", "--sigma-x", "0.5", "--mu-d", "-1.2", "--sigma-d", "0.4", "--rho", "-0.3"]
    trade_b = ["--entry", "0.5", "--target", "inf", "--mc-samples", "50001", "--seed", "3"]
    assert main(["trade-eval", *law_b, *trade_b, "--output", "eval_b"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in TRADE_EVAL_DIGESTS}
    assert digests == TRADE_EVAL_DIGESTS


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
    # cells 1 + k * 1e-11 all round to 1.0 at ten decimals: the step is at fault, not a repeated value
    (["sweep", "--scalings", "1:1.000000001:1e-11"], ["--scalings", "step 1e-11", "rounding"]),
    (["sweep", "--scalings", "1:1.0000000001:1e-12"], ["--scalings", "step 1e-12", "rounding"]),
    (["sweep", "--scalings", f"1:{MAX_SCALINGS + 1}:1"], ["--scalings", f"more than {MAX_SCALINGS} cells"]),
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
    RunConfig("detect", inputs=["x"], scalings=[1 / 9])
    with pytest.raises(ValueError, match="--scaling"):
        RunConfig("detect", inputs=["x"], scalings=[0.111])


def test_scaling_count_limit_is_inclusive():
    assert len(parse_scaling_range(f"1:{MAX_SCALINGS}:1")) == MAX_SCALINGS
    with pytest.raises(ValueError, match=f"more than {MAX_SCALINGS} cells"):
        parse_scaling_range(f"1:{MAX_SCALINGS + 1}:1")


@pytest.mark.parametrize("text", ["0.5:5:1e-300", "1:1e12:1", "1:1e300:1e-300"])
def test_huge_scaling_grid_rejected_unbuilt(monkeypatch, text):
    # every cell of a built grid is rounded: a grid of 10^12 cells would exhaust memory
    def refuse(*args):
        raise AssertionError("a grid cell was built")

    monkeypatch.setattr(cli, "round", refuse, raising=False)
    with pytest.raises(ValueError, match=f"more than {MAX_SCALINGS} cells"):
        parse_scaling_range(text)


def test_bin_count_limit_is_inclusive():
    RunConfig("stats", inputs=["x"], variables=[RETRACEMENT], hist_range=(0.0, float(MAX_HIST_BINS)), bin_width=1.0)
    with pytest.raises(ValueError, match="--range/--bin-width"):
        RunConfig("stats", inputs=["x"], variables=[RETRACEMENT], hist_range=(0.0, MAX_HIST_BINS + 1.0), bin_width=1.0)

MISSING = ["--input", "missing.csv"]
# (arguments, texts the error line must contain); a repeated option overrides
# its earlier value in LAW or TRADE
REJECTED_RUN_OPTIONS = [
    (["trade-eval", *LAW, *TRADE, "--seed", "-1"], ["--seed", "-1"]),
    (["synth", "--seed", "-1"], ["--seed", "-1"]),
    (["stats", *MISSING, "--variable", "retracement", "--variable", "retracement"], ["repeated", "--variable", "retracement"]),
    (["trade-eval", *LAW, *TRADE, "--mc-samples", "5000"], ["--mc-samples", "5000"]),
    (["trade-eval", *LAW, *TRADE, "--mc-samples", "9999"], ["--mc-samples", "9999"]),
    (["trade-eval", *LAW, *TRADE, "--mc-samples", str(MAX_MC_SAMPLES + 1)], ["--mc-samples", str(MAX_MC_SAMPLES + 1)]),
    (["trade-eval", *LAW, *TRADE, "--mc-samples", "1000000000000"], ["--mc-samples", "1000000000000"]),
    (["trade-eval", *LAW, *TRADE, "--sigma-x", "0"], ["--sigma-x", "0.0"]),
    (["trade-eval", *LAW, *TRADE, "--sigma-d", "-0.1"], ["--sigma-d", "-0.1"]),
    (["trade-eval", *LAW, *TRADE, "--sigma-d", "inf"], ["--sigma-d", "inf"]),
    (["trade-eval", *LAW, *TRADE, "--mu-x", "nan"], ["--mu-x", "nan"]),
    (["trade-eval", *LAW, *TRADE, "--rho", "1.0"], ["--rho", "1.0"]),
    (["trade-eval", *LAW, *TRADE, "--rho", "-1"], ["--rho", "-1.0"]),
    (["trade-eval", *LAW, "--entry", "0.9", "--target", "0.5"], ["--target", "0.5", "--entry", "0.9"]),
    (["trade-eval", *LAW, "--entry", "0", "--target", "0.5"], ["--entry", "0.0"]),
    (["trade-eval", *LAW, "--entry", "0.5", "--target", "nan"], ["--target", "nan"]),
    (["backtest", *MISSING, "--entry", "-0.5", "--target", "1"], ["--entry", "-0.5"]),
    (["backtest", *MISSING, "--entry", "0.5", "--target", "0.5"], ["--target", "0.5", "--entry", "0.5"]),
    (["synth", "--bars", "0"], ["--bars", "0"]),
    (["synth", "--kind", "trends", "--swings", "-3"], ["--swings", "-3"]),
    (["synth", "--s0", "-5"], ["--s0", "-5.0"]),
    (["synth", "--s0", "inf"], ["--s0", "inf"]),
    (["synth", "--vol", "-1"], ["--vol", "-1.0"]),
    (["synth", "--vol", "nan"], ["--vol", "nan"]),
    (["synth", "--drift", "inf"], ["--drift", "inf"]),
    (["synth", "--drift=-inf"], ["--drift", "-inf"]),
    # finite options whose path can leave the float range, refused before any draw
    (["synth", "--drift", "800", "--bars", "3"], ["--s0 100.0", "--drift 800.0", "--bars 3", "float range"]),
    (["synth", "--kind", "trends", "--s0", "1e308"], ["--s0 1e+308", "--swings 60", "float range"]),
    # the slow period 26 s overflows: the first such value of the grid is named
    (["detect", *MISSING, "--scaling", "1e307"], ["--scaling value 1e+307", "overflows"]),
    (["sweep", *MISSING, "--scalings", "1e306:1e307:1e306"], ["--scalings value 7e+306", "overflows"]),
]


@pytest.mark.parametrize("argv, named", REJECTED_RUN_OPTIONS, ids=[" ".join(argv) for argv, _ in REJECTED_RUN_OPTIONS])
def test_run_options_rejected_before_any_draw(tmp_path, capsys, monkeypatch, argv, named):
    # no draw is made and no input read
    def refuse(*args, **kwargs):
        raise RuntimeError("a draw was made")

    for name in ("simulate_expected_return", "synth_gbm", "synth_trend_series", "read_candle_file"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    rc = main([*argv, "--output", "o"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for text in named:
        assert text in err
    assert not (tmp_path / "o").exists()


def test_mc_sample_limits_are_inclusive(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "simulate_expected_return", lambda params, spec, n, seed: seen.append(n) or (0.0, 0.0))
    monkeypatch.chdir(tmp_path)
    for n in (10_000, MAX_MC_SAMPLES):
        assert main(["trade-eval", *LAW, *TRADE, "--mc-samples", str(n)]) == 0
    assert seen == [10_000, MAX_MC_SAMPLES]
