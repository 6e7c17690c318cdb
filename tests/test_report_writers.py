"""The report writers against the standard-library writers whose bytes they promise."""
import csv
import io
import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlab import synth_gbm, synth_trend_series, write_candle_file
from trendlab.cli import CSV_PIECE_ROWS, _csv_join, _json_pieces, _write_json, main
from hypothesis_counts import examples

# the characters that decide CSV quoting and JSON escaping, plus non-ASCII ones
SPECIAL = ',"\r\n\t\\{}[]: \x00\x1f\x7féλ \U0001f600'
texts = st.text(alphabet=st.sampled_from(SPECIAL) | st.characters(), max_size=8)
keys = st.text(alphabet=st.sampled_from(SPECIAL) | st.characters(), max_size=4)
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    floats,
    floats.map(np.float64),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-310, 1e300]),
    texts,
    texts.map(np.str_),
)
# lists of non-empty flat dicts are the records the writer lays out in bulk
records = st.lists(st.dictionaries(keys, scalars, min_size=1, max_size=4), min_size=1, max_size=4)
payloads = st.recursive(
    scalars | records,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=examples(200))
@given(payload=payloads)
def test_json_text_is_json_dumps(tmp_path_factory, payload):
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = tmp_path_factory.getbasetemp() / "report.json"
    _write_json(path, payload)
    assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=examples(100))
@given(
    filled=st.dictionaries(keys, payloads, max_size=2),
    # empty, one item and many: each list is handed to the writer as an iterator
    lazy=st.dictionaries(keys, st.lists(payloads, max_size=4), min_size=1, max_size=2),
)
def test_iterator_values_are_written_as_lists(tmp_path_factory, filled, lazy):
    payload = {**filled, **lazy}
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = tmp_path_factory.getbasetemp() / "report.json"
    _write_json(path, {key: iter(value) if key in lazy else value for key, value in payload.items()})
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("top", [dict, list], ids=["in a dict", "as the payload"])
def test_iterators_anywhere_are_written_as_lists(tmp_path, top):
    # nested in lists, dicts and each other, empty or not, and as the payload itself
    def payload(lazy):
        a = [lazy([1.5, {"b": lazy([])}]), lazy([[], {}]), lazy([{"e": 1}])]
        c = lazy([lazy(["x", None]), lazy([lazy([])])])
        return lazy([{"a": a, "c": c}]) if top is list else {"a": a, "c": c}

    _write_json(tmp_path / "report.json", payload(iter))
    expected = json.dumps(payload(list), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")


def test_an_iterator_that_raises_leaves_no_report(tmp_path):
    def sections():
        yield {"symbol": "a"}
        raise ValueError("bad input")

    with pytest.raises(ValueError, match="^bad input$"):
        _write_json(tmp_path / "out" / "report.json", {"config": {}, "sections": sections()})
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["detect"], ["backtest", "--entry", "0.5", "--target", "1"]],
    ids=["detect", "backtest"],
)
def test_malformed_second_file_writes_no_report(tmp_path, capsys, argv):
    # the first file's sections are rendered before the second one is read
    market = tmp_path / "market"
    market.mkdir()
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 500, seed=1, symbol="a"), market / "a.csv")
    (market / "b.csv").write_text("date,open,high,low,close\n0,10,12,9,11\n1,10,9,12,11\n")
    message = f"error: {market / 'b.csv'}: high < low at row 2\n"
    command = [argv[0], "--input", str(market), "--scaling", "1", *argv[1:]]
    assert main([*command, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()
    # an input error comes before a missing --output
    assert main(command) == 1
    assert capsys.readouterr().err == message


# np.float32 and np.bool_ are no subclasses of json's scalar types, so the walk takes them to json
@pytest.mark.parametrize(
    "bad", [np.int64(3), {1, 2}, np.float32(1.5), np.bool_(True)], ids=["int64", "set", "float32", "bool_"]
)
@pytest.mark.parametrize(
    "place",
    [
        lambda bad: bad,
        lambda bad: {"a": bad},
        lambda bad: [1.0, bad],
        lambda bad: {"a": [{"x": 1}, {"x": bad}]},
        lambda bad: {"a": {"b": [1]}, "c": bad},
        lambda bad: {"config": {}, "sections": iter([{"x": 1}, {"x": [bad]}])},
    ],
    ids=["top", "flat dict", "flat list", "record", "nested dict", "iterator section"],
)
def test_json_rejects_what_json_rejects(tmp_path, bad, place):
    def iterators_as_lists(value):
        if isinstance(value, Iterator):
            return list(value)
        raise TypeError(f"{type(value).__name__} is not JSON serializable")

    with pytest.raises(TypeError):
        json.dumps(place(bad), indent=2, sort_keys=True, default=iterators_as_lists)
    with pytest.raises(TypeError):
        _json_pieces(place(bad), [])
    with pytest.raises(TypeError):
        _write_json(tmp_path / "out" / "report.json", place(bad))
    assert not (tmp_path / "out").exists()


@settings(max_examples=examples(300))
@given(row=st.lists(texts, min_size=2, max_size=6))
def test_csv_join_is_csv_writer(row):
    # the "\r\n" writer quotes a field holding "\r" on every Python version
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    assert _csv_join(row) + "\r\n" == buf.getvalue()


@settings(max_examples=examples(300))
@given(rows=st.lists(st.lists(st.text(alphabet=',"\r\n xé', max_size=6), min_size=2, max_size=4), max_size=4))
def test_csv_rows_read_back(rows):
    text = "".join(_csv_join(row) + "\n" for row in rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows


def _csv_rewritten(text: str) -> str:
    """The config comment, then the rows read back and written again by the csv module."""
    comment, rest = text.split("\n", 1)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(rest, newline="")))
    return comment + "\n" + buf.getvalue()


def test_reports_of_a_symbol_that_needs_quoting(tmp_path, monkeypatch):
    # a comma and a quote make csv quote the symbol, the market and the pair ids
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market").mkdir()
    stem = 'a,b"é'
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 1500, seed=1, symbol=stem), tmp_path / "market" / f"{stem}.csv")
    planted, _ = synth_trend_series(swings=40, seed=2, symbol="planted")
    write_candle_file(planted, tmp_path / "market" / "planted.csv")
    single = f"market/{stem}.csv"
    # a batch of several pieces of rows (CSV_PIECE_ROWS each), its pair ids quoted too
    long_stem = 'c,d"'
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 40000, seed=3, symbol=long_stem), tmp_path / f"{long_stem}.csv")
    commands = [
        ["stats", "--input", single, "--scaling", "1", "--scaling", "1.5", "--output", "stats"],
        ["stats", "--input", f"{long_stem}.csv", "--scaling", "1", "--output", "stats_long"],
        ["detect", "--input", "market", "--scaling", "1", "--output", "detect"],
        ["backtest", "--input", "market", "--scaling", "1", "--entry", "0.5", "--target", "1", "--output", "backtest"],
        ["sweep", "--input", single, "--scalings", "0.5:2:0.5", "--output", "sweep"],
    ]
    for argv in commands:
        assert main(argv) == 0
    samples = (tmp_path / "stats" / "samples.csv").read_text(encoding="utf-8")
    assert '\n"a,b""é",1.0,up,' in samples and ',"a,b""é:1.0:' in samples
    long_samples = (tmp_path / "stats_long" / "samples.csv").read_text(encoding="utf-8")
    assert long_samples.count(',"c,d"":1.0:') > 2 * CSV_PIECE_ROWS
    for name, symbol in (
        ("stats/samples.csv", 'a,b""é'),
        ("stats/histograms.csv", 'a,b""é'),
        ("sweep/sweep.csv", 'a,b""é'),
        ("stats_long/samples.csv", 'c,d""'),
        ("stats_long/histograms.csv", 'c,d""'),
    ):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.count('"' + symbol) > 1, name
        assert _csv_rewritten(text) == text, name
    reports = sorted(tmp_path.glob("*/*.json"))
    assert [p.name for p in reports] == ["backtest.json", "detect.json", "fits.json", "fits.json", "sweep_fit.json"]
    for path in reports:
        text = path.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text, path.name


def test_symbol_holding_a_carriage_return_reads_back(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stem = "a\rb"
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 1500, seed=1, symbol=stem), tmp_path / f"{stem}.csv")
    assert main(["stats", "--input", f"{stem}.csv", "--scaling", "1", "--output", "stats"]) == 0
    for name in ("samples.csv", "histograms.csv"):
        text = (tmp_path / "stats" / name).read_bytes().decode("utf-8")
        header, *rows = csv.reader(io.StringIO(text.split("\n", 1)[1], newline=""))
        assert rows and all(len(row) == len(header) for row in rows), name
        assert {row[0] for row in rows} == {stem}, name


def test_every_report_is_written_without_newline_translation(tmp_path, monkeypatch):
    # with the platform's translation every JSON line would end in os.linesep, "\r\n" on Windows
    monkeypatch.chdir(tmp_path)
    (tmp_path / "market").mkdir()
    write_candle_file(synth_gbm(100.0, 0.0, 0.02, 800, seed=1, symbol="g1"), tmp_path / "market" / "g1.csv")
    opened = []
    path_open = Path.open

    def spy(self, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append((self.name, kwargs.get("newline")))
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    assert main(["stats", "--input", "market", "--scaling", "1", "--output", "stats"]) == 0
    assert main(["detect", "--input", "market", "--scaling", "1", "--output", "detect"]) == 0
    assert sorted(opened) == [(name, "") for name in ("detect.json", "fits.json", "histograms.csv", "samples.csv")]
