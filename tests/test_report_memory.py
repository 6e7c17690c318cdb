"""What the report commands hold in memory, traced with tracemalloc.

``detect`` and ``backtest`` render their reports one (file, scaling) section
at a time, so their peak grows by about one byte per byte of report: the text
itself. ``stats`` hands its CSV rows to the writer at most CSV_PIECE_ROWS to
a string. Every command reads its candle files one at a time, and no series
outlives the read of the next file.
"""
import contextlib
import io
import shutil
import tracemalloc
import weakref

import pytest

from trendlab import cli, synth_gbm, synth_trend_series, write_candle_file
from trendlab.cli import main

REPORTS = {
    "detect": (["detect"], "detect.json"),
    "backtest": (["backtest", "--direction", "both", "--entry", "0.382", "--target", "1.0"], "backtest.json"),
}


def traced_peak(argv) -> int:
    """The tracemalloc peak of one in-process CLI run, in bytes."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", list(REPORTS))
def test_peak_grows_by_about_the_report(tmp_path, command):
    # one and four copies of one file: each copy adds the same sections, and
    # one byte of extra peak per byte of report is the text's own
    args, report = REPORTS[command]
    source = tmp_path / "source.csv"
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 5000, seed=1, symbol="gbm"), source)
    peaks, sizes = [], []
    for copies in (1, 4):
        market = tmp_path / f"market{copies}"
        market.mkdir()
        for k in range(copies):
            shutil.copy(source, market / f"gbm_{k}.csv")
        out = tmp_path / f"out{copies}"
        peaks.append(traced_peak([*args, "--input", str(market), "--output", str(out)]))
        sizes.append((out / report).stat().st_size)
    assert sizes[1] > 3 * sizes[0] > 0
    growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert growth <= 1.5, f"peaks {peaks} B for reports of {sizes} B: {growth:.2f} B per report byte"


def test_stats_hands_csv_rows_over_in_bounded_pieces(tmp_path, monkeypatch):
    # one file and one scaling: a single batch of more sample rows than one piece holds
    source = tmp_path / "gbm.csv"
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 20000, seed=1, symbol="gbm"), source)
    write = cli._write_pieces
    pieces = {}

    def recording_write(path, parts):
        pieces[path.name] = list(parts)
        write(path, pieces[path.name])

    monkeypatch.setattr(cli, "_write_pieces", recording_write)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stats", "--input", str(source), "--scaling", "1", "--output", str(tmp_path / "out")]) == 0
    # no field is quoted, so every "\n" ends a row
    rows = {name: [piece.count("\n") for piece in parts] for name, parts in pieces.items()}
    # the config comment, the header and more sample rows than one piece holds
    assert sum(rows["samples.csv"]) > cli.CSV_PIECE_ROWS + 2
    for name in ("samples.csv", "histograms.csv"):
        assert "".join(pieces[name]) == (tmp_path / "out" / name).read_text(encoding="utf-8")
        assert max(rows[name]) <= cli.CSV_PIECE_ROWS, (name, rows[name])


@pytest.mark.parametrize(
    "argv",
    [
        ["detect"],
        ["stats", "--scaling", "1", "--scaling", "2"],
        ["sweep", "--scalings", "1:2:0.5"],
        ["backtest", "--entry", "0.382", "--target", "1.0"],
    ],
    ids=["detect", "stats", "sweep", "backtest"],
)
def test_one_series_alive_at_a_time(tmp_path, monkeypatch, argv):
    market = tmp_path / "market"
    market.mkdir()
    for k in range(3):
        write_candle_file(synth_gbm(100.0, 0.0, 0.02, 800, seed=k, symbol=f"g{k}"), market / f"g{k}.csv")
    planted, _ = synth_trend_series(swings=30, seed=3, symbol="planted")
    write_candle_file(planted, market / "planted.csv")
    read = cli.read_candle_file
    series_read = []

    def read_one_alive(path):
        alive = [ref().symbol for ref in series_read if ref() is not None]
        assert not alive, f"{alive} still alive while {path.name} is read"
        series = read(path)
        series_read.append(weakref.ref(series))
        return series

    monkeypatch.setattr(cli, "read_candle_file", read_one_alive)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([argv[0], "--input", str(market), *argv[1:], "--output", str(tmp_path / "out")]) == 0
    assert len(series_read) == 4
