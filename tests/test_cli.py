import json
import warnings

import numpy as np
import pytest

from trendlab import CandleSeries, synth_gbm, synth_trend_series, write_candle_file
from trendlab.cli import DEFAULT_HISTOGRAMS, DEFAULT_SCALINGS, DEFAULT_SWEEP, main, parse_scaling_range
import swing_fixtures as fx


@pytest.fixture
def market_dir(tmp_path):
    data = tmp_path / "market"
    data.mkdir()
    up = CandleSeries.from_closes("alpha", fx.multi_swing_path())
    down = CandleSeries.from_closes("beta", fx.mirror_swing_path())
    write_candle_file(up, data / "alpha.csv")
    write_candle_file(down, data / "beta.csv")
    return data


def read_json(path):
    return json.loads(path.read_text())


class TestDefaults:
    def test_default_scaling_list(self):
        assert DEFAULT_SCALINGS == (1.0, 1.2, 1.5, 2.0, 3.0)

    def test_default_sweep_grid_has_46_cells(self):
        cells = parse_scaling_range(DEFAULT_SWEEP)
        assert len(cells) == 46
        assert cells[0] == 0.5 and cells[-1] == 5.0

    def test_default_retracement_histogram(self):
        spec = DEFAULT_HISTOGRAMS["retracement"]
        assert (spec.lo, spec.hi, spec.bin_width) == (0.0, 5.0, 0.11)


class TestDetect:
    def test_fixture_extrema_roundtrip(self, market_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["detect", "--input", str(market_dir / "alpha.csv"), "--scaling", "1", "--output", str(out)])
        assert rc == 0
        payload = read_json(out / "detect.json")
        assert payload["config"]["command"] == "detect"
        [section] = payload["sections"]
        got = [(e["kind"], e["price"], e["bar"], e["detection_bar"]) for e in section["extrema"]]
        assert got == [(k, p, b, d) for k, p, b, d, _ in fx.MULTI_SWING_POINTS]
        assert len(section["phases"]) == 1

    def test_two_scalings_two_sections(self, market_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["detect", "--input", str(market_dir / "alpha.csv"), "--scaling", "1", "--scaling", "2", "--output", str(out)]
        )
        assert rc == 0
        payload = read_json(out / "detect.json")
        assert [s["scaling"] for s in payload["sections"]] == [1.0, 2.0]

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["detect", "--input", str(empty), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "no input files" in capsys.readouterr().err

    def test_parse_error_is_row_addressed(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,open,high,low,close\n1,10,9,12,11\n")
        rc = main(["detect", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert "high < low at row 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, where",
        [
            # data rows are counted as the parser counts them: blank lines skipped
            (b"date,open,high,low,close\n\n0,10,12,9,11\n1,10,12,9,\xff11\n2,10,12,9,11\n", "at row 2"),
            (b"date,open,high,low,close\r\n0,10,12,9,11\r\n\xff", "at row 2"),
            (b"date,open,high,low,close\n0,10,12,9,11\xff\n", "at row 1"),
            (b"date,op\xffen,high,low,close\n0,10,12,9,11\n", "in the header"),
        ],
    )
    def test_non_utf8_byte_names_file_and_row(self, tmp_path, capsys, raw, where):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(raw)
        rc = main(["detect", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: non-UTF-8 byte 0xff {where}\n"
        assert not (tmp_path / "o").exists()

    def test_deterministic_reruns_byte_identical(self, market_dir, tmp_path):
        out = tmp_path / "out"
        args = ["detect", "--input", str(market_dir), "--scaling", "1", "--output", str(out)]
        assert main(args) == 0
        first = (out / "detect.json").read_bytes()
        assert main(args) == 0
        assert (out / "detect.json").read_bytes() == first


class TestStats:
    def test_direction_filter_excludes_other_samples(self, market_dir, tmp_path):
        out = tmp_path / "up"
        rc = main(
            ["stats", "--input", str(market_dir), "--scaling", "1", "--direction", "up", "--output", str(out)]
        )
        assert rc == 0
        payload = read_json(out / "fits.json")
        assert payload["cells"], "expected up-trend cells"
        assert all(c["direction"] == "up" for c in payload["cells"])
        retr = [c for c in payload["cells"] if c["variable"] == "retracement"]
        assert retr and retr[0]["n"] == 3  # only the up fixture contributes

    def test_pooled_market_and_both_directions(self, market_dir, tmp_path):
        out = tmp_path / "both"
        rc = main(["stats", "--input", str(market_dir), "--scaling", "1", "--output", str(out)])
        assert rc == 0
        payload = read_json(out / "fits.json")
        assert payload["market"] == "market"
        directions = {c["direction"] for c in payload["cells"]}
        assert directions == {"up", "down"}

    def test_histogram_bins_cover_default_range(self, market_dir, tmp_path):
        out = tmp_path / "h"
        rc = main(
            [
                "stats",
                "--input",
                str(market_dir),
                "--scaling",
                "1",
                "--direction",
                "up",
                "--variable",
                "retracement",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "histograms.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 46  # ceil(5 / 0.11)
        assert float(rows[0][4]) == 0.0

    def test_sample_records_written(self, market_dir, tmp_path):
        out = tmp_path / "samples"
        main(["stats", "--input", str(market_dir), "--scaling", "1", "--direction", "up", "--output", str(out)])
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[1] == "symbol,scaling,direction,variable,value,pair_id"
        rows = [ln.split(",") for ln in lines[2:]]
        retr = [r for r in rows if r[3] == "retracement"]
        assert [float(r[4]) for r in retr] == fx.MULTI_SWING_SAMPLES["retracement"]
        # retracement and its delay share the leg's pair id
        delays = {r[5]: r[4] for r in rows if r[3] == "delay_x"}
        assert all(r[5] in delays for r in retr)

    def test_small_cells_flagged_without_p_value(self, market_dir, tmp_path):
        out = tmp_path / "s"
        main(["stats", "--input", str(market_dir), "--scaling", "1", "--output", str(out)])
        payload = read_json(out / "fits.json")
        for cell in payload["cells"]:
            if cell["n"] < 8:
                assert cell["p_value"] is None
                assert any("n<8" in f for f in cell["flags"])

    def test_joint_cells_have_rho(self, tmp_path):
        data = tmp_path / "synth"
        data.mkdir()
        series, _ = synth_trend_series(swings=60, seed=4)
        write_candle_file(series, data / "synth.csv")
        out = tmp_path / "o"
        rc = main(["stats", "--input", str(data), "--scaling", "1", "--direction", "up", "--output", str(out)])
        assert rc == 0
        payload = read_json(out / "fits.json")
        pairs = {j["pair"] for j in payload["joints"]}
        assert "retracement~delay_x" in pairs
        assert "retracement~duration" in pairs
        for joint in payload["joints"]:
            assert -1.0 <= joint["rho"] <= 1.0


class TestHistogramOptions:
    @pytest.mark.parametrize(
        "option, value",
        [
            ("--range", "5:1"),
            ("--range", "0:inf"),
            ("--range", "nan:1"),
            ("--range", "1"),
            ("--bin-width", "-1"),
            ("--bin-width", "0"),
            ("--bin-width", "inf"),
        ],
    )
    def test_rejected_before_any_input_is_read(self, tmp_path, capsys, option, value):
        missing = tmp_path / "missing.csv"
        rc = main(["stats", "--input", str(missing), option, value, "--output", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err
        assert not (tmp_path / "o").exists()

    def test_explicit_options_recorded_in_config(self, market_dir, tmp_path):
        out = tmp_path / "o"
        rc = main(["stats", "--input", str(market_dir), "--range", "0:2", "--bin-width", "0.5", "--output", str(out)])
        assert rc == 0
        config = read_json(out / "fits.json")["config"]
        assert config["hist_range"] == [0.0, 2.0] and config["bin_width"] == 0.5


class TestEmptyAndShortFiles:
    """A header-only file behaves like a file shorter than the warm-up."""

    @pytest.mark.parametrize(
        "command",
        [
            ["detect"],
            ["stats"],
            ["sweep", "--scalings", "1:2:1"],
            ["backtest", "--entry", "0.5", "--target", "1.0"],
        ],
        ids=lambda c: c[0],
    )
    def test_same_outcome(self, tmp_path, command):
        header = "date,open,high,low,close\n"
        reports = {}
        for name, body in (("empty", ""), ("short", "0,1,1,1,1\n1,2,2,2,2\n")):
            root = tmp_path / name
            root.mkdir()
            (root / "market.csv").write_text(header + body)
            out = root / "out"
            assert main([*command, "--input", str(root / "market.csv"), "--output", str(out)]) == 0
            reports[name] = {p.name: p.read_text().replace(str(root), "ROOT") for p in sorted(out.iterdir())}
        assert reports["empty"] == reports["short"]
        if command[0] == "detect":
            sections = json.loads(reports["empty"]["detect.json"])["sections"]
            assert sections and all(s["extrema"] == [] for s in sections)


class TestInputs:
    def test_subdirectory_named_csv_is_skipped(self, market_dir, tmp_path):
        (market_dir / "sub.csv").mkdir()
        out = tmp_path / "out"
        assert main(["detect", "--input", str(market_dir), "--scaling", "1", "--output", str(out)]) == 0
        assert [s["symbol"] for s in read_json(out / "detect.json")["sections"]] == ["alpha", "beta"]

    def test_directory_holding_only_subdirectories_has_no_input_files(self, tmp_path, capsys):
        (tmp_path / "market" / "sub.csv").mkdir(parents=True)
        assert main(["detect", "--input", str(tmp_path / "market"), "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: no input files in directory {tmp_path / 'market'}\n"

    def test_io_failure_is_an_error_line(self, market_dir, tmp_path, capsys):
        # the output directory cannot be made under a regular file
        (tmp_path / "file").write_text("")
        assert main(["detect", "--input", str(market_dir), "--output", str(tmp_path / "file" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("raw, cwd", [(".", "."), ("./", "."), ("..", "sub")], ids=["dot", "dot-slash", "dot-dot"])
    def test_relative_directory_names_the_market_after_itself(self, market_dir, tmp_path, monkeypatch, raw, cwd):
        # ".", "./" and ".." have no name of their own as written
        (market_dir / "sub").mkdir()
        monkeypatch.chdir(market_dir / cwd)
        out = tmp_path / "out"
        assert main(["stats", "--input", raw, "--scaling", "1", "--output", str(out)]) == 0
        payload = read_json(out / "fits.json")
        assert payload["market"] == "market"
        assert payload["cells"] and all(c["market"] == "market" for c in payload["cells"])

    @pytest.mark.parametrize(
        "inputs, named",
        [
            (["market", "market"], "alpha.csv"),
            (["market", "market/beta.csv"], "beta.csv"),
            (["market/alpha.csv", "market"], "alpha.csv"),
        ],
        ids=["directory-twice", "file-in-directory", "file-then-directory"],
    )
    def test_file_given_twice_is_an_error(self, market_dir, tmp_path, capsys, monkeypatch, inputs, named):
        # its samples would be pooled twice
        monkeypatch.chdir(tmp_path)
        argv = ["stats", *(arg for path in inputs for arg in ("--input", path)), "--output", "out"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: input file market/{named} is given twice\n"
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_fixture_sweep_two_cells(self, market_dir, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            ["sweep", "--input", str(market_dir / "alpha.csv"), "--scalings", "1:2:1", "--output", str(out)]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 2
        fit = read_json(out / "sweep_fit.json")["fit"]
        if fit is not None:
            assert fit["n"] >= 2

    def test_insufficient_cells_marked(self, tmp_path):
        data = tmp_path / "flat"
        data.mkdir()
        flat = CandleSeries.from_closes("flat", np.full(120, 100.0))
        write_candle_file(flat, data / "flat.csv")
        out = tmp_path / "o"
        rc = main(["sweep", "--input", str(data), "--scalings", "1:1.5:0.5", "--output", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert all(ln.endswith("insufficient") for ln in lines[2:])


class TestTradeEval:
    ARGS = [
        "trade-eval",
        "--mu-x", "-0.35", "--sigma-x", "0.5",
        "--mu-d", "-1.7", "--sigma-d", "0.55",
        "--rho", "0.35",
        "--entry", "0.382", "--target", "1.0",
        "--mc-samples", "200000",
    ]

    def test_analytic_agrees_with_mc(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--output", str(tmp_path / "o")])
        assert rc == 0
        payload = read_json(tmp_path / "o" / "trade_eval.json")
        assert abs(payload["analytic"] - payload["mc_mean"]) < 3.0 * payload["mc_stderr"]
        assert 0.0 < payload["open_probability"] < 1.0
        assert 0.0 < payload["target_probability"] < 1.0
        out = capsys.readouterr().out
        assert "expected return analytic" in out

    def test_entry_at_or_above_target_is_usage_error(self, capsys):
        args = [a if a != "1.0" else "0.382" for a in self.ARGS]
        rc = main(args)
        assert rc == 1
        assert "entry < target" in capsys.readouterr().err


class TestBacktestCommand:
    def test_fixture_trades(self, market_dir, tmp_path):
        out = tmp_path / "bt"
        rc = main(
            [
                "backtest",
                "--input", str(market_dir / "alpha.csv"),
                "--scaling", "1",
                "--direction", "up",
                "--entry", "0.3",
                "--target", "1.0",
                "--output", str(out),
            ]
        )
        assert rc == 0
        payload = read_json(out / "backtest.json")
        [section] = payload["sections"]
        assert section["summary"]["n"] == 3
        assert section["trades"][2]["reached_target"] is True

    def test_direction_tallies_count_only_chosen_legs(self, tmp_path):
        # at scaling 1 and 1.5 this market's final open phase is an up-trend
        # whose open correction has reached its entry level: truncated 1 for up
        data = tmp_path / "market"
        data.mkdir()
        write_candle_file(synth_gbm(100.0, 0.0, 0.02, 1500, seed=11, symbol="g11"), data / "g11.csv")
        sections = {}
        for direction in ("up", "down", "both"):
            out = tmp_path / direction
            argv = ["backtest", "--input", str(data), "--scaling", "1", "--scaling", "1.5", "--direction", direction]
            assert main([*argv, "--entry", "0.382", "--target", "1.0", "--output", str(out)]) == 0
            sections[direction] = read_json(out / "backtest.json")["sections"]
        assert sum(s["summary"]["truncated"] for s in sections["up"]) > 0
        for up, down, both in zip(sections["up"], sections["down"], sections["both"]):
            assert {t["direction"] for t in up["trades"]} <= {"up"}
            assert {t["direction"] for t in down["trades"]} <= {"down"}
            assert sorted(both["trades"], key=lambda t: t["entry_bar"]) == sorted(
                up["trades"] + down["trades"], key=lambda t: t["entry_bar"]
            )
            for tally in ("n", "degenerate", "truncated"):
                assert both["summary"][tally] == up["summary"][tally] + down["summary"][tally]


class TestSubcommandOptions:
    # options a subcommand never reads are not accepted
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--input", "m", "--direction", "up"],
            # only trade-eval and synth draw random numbers
            ["detect", "--input", "m", "--seed", "1"],
            ["stats", "--input", "m", "--seed", "1"],
            ["sweep", "--input", "m", "--seed", "1"],
            ["backtest", "--input", "m", "--entry", "0.5", "--target", "1", "--seed", "1"],
            [*TestTradeEval.ARGS, "--scaling", "1"],
            [*TestTradeEval.ARGS, "--direction", "up"],
            ["synth", "--output", "o.csv", "--scaling", "1"],
            ["synth", "--output", "o.csv", "--direction", "up"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_unread_option_rejected(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_scaling_is_a_prefix_of_scalings(self, market_dir, tmp_path, capsys):
        # options are read only under their full names, so the prefix --scaling is not --scalings
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--input", str(market_dir), "--scaling", "1", "--output", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scaling" in capsys.readouterr().err
        assert not out.exists()


class TestSynth:
    def test_gbm_file_roundtrip(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["synth", "--kind", "gbm", "--bars", "300", "--seed", "7", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("date,open,high,low,close")
        assert len(text.splitlines()) == 301

    def test_trends_kind(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["synth", "--kind", "trends", "--swings", "10", "--seed", "2", "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) > 100

    def test_wild_draw_names_the_options(self, tmp_path, capsys):
        # the options pass the checks made before any draw; the drawn path overflows
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["synth", "--vol", "1e300", "--bars", "3", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --s0 100.0, --drift 0.0, --vol 1e+300 with --seed 0: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--kind", "gbm", "--bars", "100", "--seed", "5", "--output", str(a)])
        main(["synth", "--kind", "gbm", "--bars", "100", "--seed", "5", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEndToEndSynthetic:
    def test_planted_mu_recovered_through_cli(self, tmp_path):
        import math

        data = tmp_path / "market"
        data.mkdir()
        planted_all = []
        for seed in range(6):
            series, planted = synth_trend_series(swings=80, seed=seed, symbol=f"s{seed}")
            planted_all.extend(planted)
            write_candle_file(series, data / f"s{seed}.csv")
        out = tmp_path / "stats"
        rc = main(
            [
                "stats",
                "--input", str(data),
                "--scaling", "1",
                "--direction", "up",
                "--variable", "retracement",
                "--output", str(out),
            ]
        )
        assert rc == 0
        payload = read_json(out / "fits.json")
        [cell] = [c for c in payload["cells"] if c["variable"] == "retracement"]
        se = 0.30 / math.sqrt(cell["n"])
        assert abs(cell["mu"] - math.log(0.55)) < 4.0 * se
