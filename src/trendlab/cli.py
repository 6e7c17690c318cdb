"""Command-line surface: detect, stats, sweep, trade-eval, backtest, synth.

Reports are deterministic for given inputs and options: JSON for fits, trade
evaluations, detection, and backtests; CSV for histograms, samples and sweeps.
Every report embeds the run configuration, ``vars(RunConfig)``, for
provenance. Samples from all files of an input directory are pooled into one
market, named after the directory (or the single file's stem).

A subcommand takes only the options it reads (``--seed`` only where it seeds).
``main`` builds one ``RunConfig`` of the resolved values, which checks itself,
and runs the subcommand's entry of ``COMMANDS``, which checks its own options
before it reads any input or makes any draw.

The bytes of a report are a contract. A JSON report is exactly
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``. A CSV report is what
``csv.writer(fh, lineterminator="\\r\\n")`` writes, with ``\\n`` line ends
instead: fields quoted only when they need it, a field holding ``\\r`` included
(a ``lineterminator="\\n"`` writer leaves a bare ``\\r`` unquoted on Python
3.11). They are written without json's pure-Python indent encoder and without
a csv.writer call per row (see ``_json_pieces`` and ``_csv_field``).

One recursive renderer, ``_json_pieces``, appends every JSON report to one
list of pieces, and writes an iterator, wherever it is, as a list, one item at
a time: detect and backtest hand their (file, scaling) sections over as an
iterator, so the records of one section are alive at a time and a report
holds about its own text in memory. A value of a JSON scalar type (``str``,
``int``, ``float``, ``None`` and their subclasses, such as ``bool`` and
``np.float64``) is a leaf; any other value is walked, so json itself rejects
what it cannot write (``np.int64``, a set). Every piece is rendered before
the file is opened. ``_out_dir`` is the one check of ``--output`` and names
the command; it runs only after every input was read, and the report writer
makes the directory. So an input error leaves no report and no output
directory. The runs read one candle file at a time (``_runs``).

CSV rows are rendered in bounded pieces while the file is written: the writer
gets at most ``CSV_PIECE_ROWS`` rows to a string. ``stats`` keeps each cell's
``Histogram`` with its row prefix and formats the histogram rows at write
time (``_sample_lines``, ``_hist_lines``).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, fields
from itertools import chain, repeat, starmap
from pathlib import Path

import numpy as np

from . import stats as stats_mod
from . import trend as trend_mod
from .indicators import ScalingConfig, macd_sar
from .market_data import (
    TREND_MOVEMENT_REL,
    BarError,
    CandleSeries,
    read_candle_file,
    synth_gbm,
    synth_trend_series,
    write_candle_file,
)
from .minmax import HIGH, LOW, run_minmax
from .stats import BivariateLogNormalParams, HistogramSpec
from .trading import MC_MIN_DRAWS, TradeSpec, backtest_anticyclic, expected_return, simulate_expected_return

DEFAULT_SCALINGS = (1.0, 1.2, 1.5, 2.0, 3.0)
DEFAULT_SWEEP = "0.5:5:0.1"
DEFAULT_MC_SAMPLES = 1_000_000
# trade-eval --mc-samples; the Monte Carlo holds ~8 bytes per draw, ~0.8 GB here
MAX_MC_SAMPLES = 100_000_000
MAX_SYNTH_BARS = 2_000_000  # synth --bars; writing the file holds ~190 bytes a bar, ~0.4 GB here
# histogram bins per (variable, direction, scaling) cell; every bin is a histograms.csv row
MAX_HIST_BINS = 1_000_000
# cells of a sweep --scalings grid; every cell is one detection per input file
MAX_SCALINGS = 10_000
# CSV rows per string handed to the report writer: the rows a report renders ahead of the write
CSV_PIECE_ROWS = 4096

DEFAULT_HISTOGRAMS = {
    trend_mod.RETRACEMENT: HistogramSpec(0.0, 5.0, 0.11),
    trend_mod.DELAY_X: HistogramSpec(0.0, 5.0, 0.11),
    trend_mod.DURATION: HistogramSpec(0.0, 100.0, 1.0),
    trend_mod.REL_MOVEMENT: HistogramSpec(0.0, 1.0, 0.01),
    trend_mod.REL_CORRECTION: HistogramSpec(0.0, 1.0, 0.01),
    trend_mod.DELAY_M: HistogramSpec(0.0, 1.0, 0.01),
    trend_mod.DELAY_C: HistogramSpec(0.0, 1.0, 0.01),
}

LINKED_PAIRS = (
    (trend_mod.RETRACEMENT, trend_mod.DELAY_X),
    (trend_mod.RETRACEMENT, trend_mod.DURATION),
    (trend_mod.REL_MOVEMENT, trend_mod.DELAY_M),
    (trend_mod.REL_CORRECTION, trend_mod.DELAY_C),
)


@dataclass(frozen=True)
class RunConfig:
    """A command's run options, checked on construction; an error names the option at fault and its value."""

    command: str
    inputs: Sequence[str] = ()
    scalings: Sequence[float] = DEFAULT_SCALINGS
    direction: str = "both"
    variables: Sequence[str] = trend_mod.VARIABLES
    hist_range: tuple[float, float] | None = None
    bin_width: float | None = None
    output: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.command in ("detect", "stats", "sweep", "backtest") and not self.inputs:
            raise ValueError("at least one input file is required")
        if self.seed < 0:
            raise ValueError(f"bad --seed {self.seed}: need a non-negative integer")
        option = "--scalings" if self.command == "sweep" else "--scaling"
        seen = set()
        for s in self.scalings:
            try:
                ScalingConfig(s)
            except ValueError as exc:
                raise ValueError(f"bad {option} value {s!r}: {exc}") from None
            # a repeated scaling would pool its samples twice
            if s in seen:
                raise ValueError(f"repeated {option} value {s!r}: each scaling may appear once")
            seen.add(s)
        if self.hist_range is not None:
            lo, hi = self.hist_range
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad --range {lo!r}:{hi!r}: need finite lo < hi")
        if self.bin_width is not None and not (math.isfinite(self.bin_width) and self.bin_width > 0.0):
            raise ValueError(f"bad --bin-width {self.bin_width!r}: need a finite width > 0")
        for k, variable in enumerate(self.variables):
            # a repeated variable would write its fits and histogram rows twice
            if variable in self.variables[:k]:
                raise ValueError(f"repeated --variable value {variable.replace('_', '-')!r}: each variable may appear once")
            lo, hi, width = _hist_bounds(self, variable)
            # HistogramSpec.n_bins <= MAX_HIST_BINS, checked on the bounds so that the error names the options
            if not (hi - lo) / width - 1e-9 <= MAX_HIST_BINS:
                raise ValueError(
                    f"bad --range/--bin-width: {lo!r}:{hi!r} in bins of {width!r} "
                    f"gives {variable} more than {MAX_HIST_BINS} histogram bins"
                )


def parse_scaling_range(text: str) -> list[float]:
    """Expand lo:hi:step into the inclusive grid lo, lo+step, ..., hi, counted before it is built."""
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"bad --scalings range {text!r}: expected lo:hi:step") from None
    if not (step > 0 and lo <= hi and math.isfinite(hi - lo)):
        raise ValueError(f"bad --scalings range {text!r}: need finite lo <= hi and step > 0")
    steps = (hi - lo) / step  # inf where the quotient overflows
    if not steps + 1e-9 < MAX_SCALINGS:
        raise ValueError(f"bad --scalings range {text!r}: more than {MAX_SCALINGS} cells (MAX_SCALINGS)")
    grid = [round(lo + k * step, 10) for k in range(int(math.floor(steps + 1e-9)) + 1)]
    if len(set(grid)) < len(grid):  # rounding merged neighbouring cells
        raise ValueError(f"bad --scalings range {text!r}: step {step!r} is below the grid's rounding to ten decimals")
    return grid


def _input_files(paths: list[str]) -> tuple[str, list[Path]]:
    """Resolve inputs to (market label, candle files)."""
    files: list[Path] = []
    labels: list[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix.lower() == ".csv" and q.is_file())
            if not found:
                raise FileNotFoundError(f"no input files in directory {p}")
            files.extend(found)
            # the normalized absolute path names ".", "./" and ".." after the directory itself
            labels.append(Path(os.path.abspath(p)).name)
        elif p.is_file():
            files.append(p)
            labels.append(p.stem)
        else:
            raise FileNotFoundError(f"no input files at {p}")
    # a file given twice, as itself or through its directory, would pool its
    # samples twice, and two files of one stem would pool theirs under one symbol
    seen: set[Path] = set()
    symbols: dict[str, Path] = {}
    for path in files:
        if path.resolve() in seen:
            raise ValueError(f"input file {path} is given twice")
        seen.add(path.resolve())
        if path.stem in symbols:
            raise ValueError(f"input files {symbols[path.stem]} and {path} share the symbol {path.stem!r}")
        symbols[path.stem] = path
    return "+".join(labels), files


def _runs(cfg: RunConfig) -> tuple[str, Iterator[tuple[CandleSeries, float]]]:
    """Resolve cfg's inputs: the market label and the (series, scaling) runs.

    Every scaling of one file runs before the next file is read, and the
    file's series is released first. Commands read the runs through
    ``starmap`` over a per-run function, so that no loop variable of theirs
    keeps a series alive either: one series at a time is alive.
    """
    market, files = _input_files(cfg.inputs)

    def runs():
        for path in files:
            series = read_candle_file(path)
            for scaling in cfg.scalings:
                yield series, scaling
            del series

    return market, runs()


def _detect_one(series, scaling: float):
    mm = run_minmax(series, macd_sar(series, ScalingConfig(scaling)))
    return mm, trend_mod.detect_trends(mm)


# json's leaves; bool, np.float64 and np.str_ are subclasses. Any other value is walked
_SCALARS = (str, int, float, type(None))


def _holds_container(values: Iterable) -> bool:
    return not all(map(isinstance, values, repeat(_SCALARS)))


@functools.cache
def _c_encode(depth: int):
    """json's C encoder, with an item separator that starts a new line ``depth`` levels in."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _json_key(key) -> str:
    """json's own rendering of a key and its ": ": a one-item dict's text ahead of "null}"."""
    return _c_encode(0)({key: None})[1:-5]


def _json_pieces(value, pieces: list[str], depth: int = 0) -> list[str]:
    """Append ``json.dumps(value, indent=2, sort_keys=True)``, nested ``depth`` levels deep, to ``pieces``.

    json encodes with its pure-Python encoder whenever ``indent`` is set. Here
    json's C encoder writes, in one call each, every container that holds no
    container and every list of such non-empty dicts (trades, extrema,
    phases); only containers of anything but JSON scalars are walked in
    Python. Scalars, keys and rejected types (TypeError) are all left to json.

    An iterator is written as a list, one item at a time: ``map`` lets go of
    each item once its text is made, so the pieces and the one item being
    rendered are all that is alive.
    """
    if isinstance(value, dict):
        brackets, children = "{}", value.values()
    elif isinstance(value, (list, tuple, Iterator)):
        brackets, children = "[]", value
    else:
        pieces.append(_c_encode(0)(value))
        return pieces
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + brackets[1]
    # an iterator can be read only once, so it is always walked
    if not isinstance(value, Iterator):
        if not children:
            pieces.append(brackets)
            return pieces
        if not _holds_container(children):
            pieces.append(brackets[0] + inner + _c_encode(depth + 1)(value)[1:-1] + close)
            return pieces
        if (
            brackets == "[]"
            and all(map(isinstance, children, repeat(dict)))
            and all(children)
            and not _holds_container(chain.from_iterable(map(dict.values, children)))
        ):
            # "}", a separator and "{" meet only between two records:
            # no scalar ends in "}" and every key starts with '"'
            item = "\n" + "  " * (depth + 2)
            records = _c_encode(depth + 2)(value)[2:-2].replace("}," + item + "{", inner + "}," + inner + "{" + item)
            pieces.append("[" + inner + "{" + item + records + inner + "}" + close)
            return pieces
    # a separator after every child; the last one becomes the closing bracket
    pieces.append(brackets[0] + inner)
    start = len(pieces)
    if brackets == "{}":
        for key, child in sorted(value.items()):
            pieces.append(_json_key(key))
            _json_pieces(child, pieces, depth + 1).append("," + inner)
    else:
        for _ in map(_json_pieces, value, repeat(pieces), repeat(depth + 1)):
            pieces.append("," + inner)
    # only an empty iterator adds no child
    pieces[-1] = close if len(pieces) > start else brackets
    return pieces


def _write_pieces(path: Path, pieces: Iterable[str]) -> None:
    """The one report writer: ``newline=""``, so every line ends in ``\\n`` on every platform."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(pieces)


def _write_json(path: Path, payload) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    Every piece is rendered (``_json_pieces``) before the file is opened, so
    an error while rendering leaves no file and no directory.
    """
    _write_pieces(path, _json_pieces(payload, []) + ["\n"])


def _csv_field(text: str) -> str:
    """``text`` as csv.writer(lineterminator="\\r\\n") writes it as one field of a row.

    That writer quotes a field holding ``\\r`` on every Python version; with
    ``"\\n"``, Python 3.11's leaves a bare ``\\r`` unquoted, and csv.reader
    then splits the row there.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        # rare, so csv itself quotes it and its rule stays the only one
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([text])
        return buf.getvalue()[:-2]
    return text


def _csv_join(fields: Iterable) -> str:
    """Two or more fields joined into a row as csv.writer joins them, without the line end."""
    return ",".join(map(_csv_field, map(str, fields)))


def _write_csv(path: Path, cfg: RunConfig, header: list[str], lines: Iterable[str]) -> None:
    """Write the config comment, the header row and the already formatted lines."""
    config = "# config: " + json.dumps(vars(cfg), sort_keys=True) + "\n"
    _write_pieces(path, chain([config, _csv_join(header) + "\n"], lines))


def _out_dir(cfg: RunConfig) -> Path:
    """The --output path; the report writer makes its directory."""
    if not cfg.output:
        raise ValueError(f"--output is required for {cfg.command}")
    return Path(cfg.output)


def _records(**columns: np.ndarray) -> list[dict]:
    """One dict per row of equal-length columns, keyed by the column names: a report's records."""
    names = list(columns)
    return [dict(zip(names, row)) for row in zip(*(column.tolist() for column in columns.values()))]


def cmd_detect(cfg: RunConfig, args: argparse.Namespace) -> int:
    market, runs = _runs(cfg)
    n_sections = n_points = 0

    def section(series, scaling):
        nonlocal n_sections, n_points
        mm, phases = _detect_one(series, scaling)
        n_sections += 1
        n_points += len(mm)
        return {
            "symbol": series.symbol,
            "scaling": scaling,
            "extrema": _records(
                kind=np.take((LOW, HIGH), mm.high), price=mm.price, bar=mm.bar,
                detection_bar=mm.detection_bar, d_abs=mm.d_abs,
            ),
            "phases": _records(
                direction=np.take(trend_mod.DIRECTIONS, phases.down), start_point_index=phases.start,
                end_point_index=phases.end, established_point_index=phases.established,
                violation_point_index=np.where(phases.violation < 0, None, phases.violation),
                start_detection_bar=phases.start_detection_bar, end_detection_bar=phases.end_detection_bar,
            ),
            "open_candidate": dict(vars(mm.open_candidate)) if mm.open_candidate else None,
        }

    # sections are rendered one at a time, and every input is read before --output is checked
    pieces = _json_pieces({"config": vars(cfg), "market": market, "sections": starmap(section, runs)}, []) + ["\n"]
    out = _out_dir(cfg) / "detect.json"
    _write_pieces(out, pieces)
    print(f"detect: {n_sections} sections, {n_points} extrema -> {out}")
    return 0


def _pieces(n_rows: int) -> Iterator[slice]:
    """The rows of each string a CSV report hands to the writer, CSV_PIECE_ROWS at a time."""
    return (slice(at, at + CSV_PIECE_ROWS) for at in range(0, n_rows, CSV_PIECE_ROWS))


def _sample_lines(cfg: RunConfig, batches) -> Iterator[str]:
    """samples.csv lines of the selected directions and variables, at most CSV_PIECE_ROWS to a string."""
    direction_codes = [trend_mod.DIRECTIONS.index(d) for d in _directions(cfg)]
    variable_codes = [code for code, v in enumerate(trend_mod.VARIABLES) if v in cfg.variables]
    n_variables = len(trend_mod.VARIABLES)
    for batch in batches:
        keep = np.isin(batch.direction, direction_codes) & np.isin(batch.variable, variable_codes)
        scaling = str(batch.scaling)
        # pair id is unique per leg event within (symbol, scaling); it needs
        # quoting exactly when the symbol does, and the event goes inside the quotes
        pair = _csv_field(f"{batch.symbol}:{scaling}:")
        pair_open, pair_close = (pair[:-1], '"') if pair.endswith('"') else (pair, "")
        # one "symbol,scaling,direction,variable," prefix per direction * n_variables + variable code
        prefixes = [
            _csv_join([batch.symbol, scaling, direction, variable]) + ","
            for direction in trend_mod.DIRECTIONS
            for variable in trend_mod.VARIABLES
        ]
        codes = batch.direction[keep].astype(np.int64) * n_variables + batch.variable[keep]
        values, events = batch.value[keep], batch.event[keep]
        for rows in _pieces(codes.size):
            yield "".join(
                [
                    f"{prefixes[code]}{value!r},{pair_open}{event}{pair_close}\n"
                    for code, value, event in zip(codes[rows].tolist(), values[rows].tolist(), events[rows].tolist())
                ]
            )


def _hist_lines(hists: Iterable[tuple[str, stats_mod.Histogram]]) -> Iterator[str]:
    """histograms.csv lines of (row prefix, histogram) cells, at most CSV_PIECE_ROWS to a string."""
    for prefix, hist in hists:
        edges = hist.spec.edges
        for rows in _pieces(hist.spec.n_bins):
            yield "".join(
                [
                    f"{prefix},{lo!r},{hi!r},{count},{density!r}\n"
                    for lo, hi, count, density in zip(
                        edges[rows].tolist(), edges[1:][rows].tolist(),
                        hist.counts[rows].tolist(), hist.densities[rows].tolist(),
                    )
                ]
            )


def _hist_bounds(cfg: RunConfig, variable: str) -> tuple[float, float, float]:
    """The variable's default histogram lo, hi and bin width with --range and --bin-width applied."""
    spec = DEFAULT_HISTOGRAMS[variable]
    lo, hi = cfg.hist_range if cfg.hist_range is not None else (spec.lo, spec.hi)
    width = cfg.bin_width if cfg.bin_width is not None else spec.bin_width
    return lo, hi, width


def _directions(cfg: RunConfig) -> list[str]:
    return [trend_mod.UP, trend_mod.DOWN] if cfg.direction == "both" else [cfg.direction]


def cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    market, runs = _runs(cfg)

    def samples(series, scaling):
        return trend_mod.extract_samples(*_detect_one(series, scaling), series, scaling=scaling)

    batches = list(starmap(samples, runs))
    cells = []
    joints = []
    # each cell's histogram with its row prefix; the rows are formatted while histograms.csv is written
    hists = []
    for scaling in cfg.scalings:
        scale_batches = [b for b in batches if b.scaling == scaling]
        for direction in _directions(cfg):
            key = {"direction": direction, "scaling": scaling, "market": market}
            for variable in cfg.variables:
                values = np.concatenate([b.values(variable, direction) for b in scale_batches])
                if values.size == 0:
                    continue
                report = stats_mod.fit_lognormal_report(values)
                cells.append(
                    {
                        "variable": variable,
                        **key,
                        "n": report.n,
                        "mu": report.params.mu,
                        "sigma": report.params.sigma,
                        "median": report.median,
                        "mean": report.mean,
                        "ad_stat": report.ad_stat,
                        "p_value": report.p_value,
                        "flags": list(report.flags),
                    }
                )
                hist = stats_mod.histogram(values, HistogramSpec(*_hist_bounds(cfg, variable)))
                hists.append((_csv_join([market, variable, direction, scaling]), hist))
            for var_a, var_b in LINKED_PAIRS:
                if var_a not in cfg.variables or var_b not in cfg.variables:
                    continue
                pairs = np.concatenate([b.linked_pairs(var_a, var_b, direction) for b in scale_batches])
                try:
                    rho = stats_mod.log_correlation(pairs)
                except ValueError:  # fewer than two pairs, or no spread in their logs
                    continue
                joints.append({"pair": f"{var_a}~{var_b}", **key, "n": len(pairs), "rho": rho})
    out = _out_dir(cfg)
    _write_json(out / "fits.json", {"config": vars(cfg), "market": market, "cells": cells, "joints": joints})
    _write_csv(
        out / "histograms.csv",
        cfg,
        ["market", "variable", "direction", "scaling", "bin_lo", "bin_hi", "count", "density"],
        _hist_lines(hists),
    )
    _write_csv(
        out / "samples.csv",
        cfg,
        ["symbol", "scaling", "direction", "variable", "value", "pair_id"],
        _sample_lines(cfg, batches),
    )
    print(f"stats: {len(cells)} cells, {len(joints)} joint cells -> {out}")
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    market, runs = _runs(cfg)
    # per scaling, the gaps of every file in input order
    cell_gaps: dict[float, list[int]] = {scaling: [] for scaling in cfg.scalings}

    def gaps(series, scaling):
        mm, phases = _detect_one(series, scaling)
        return scaling, trend_mod.period_gaps(mm, phases.select(_directions(cfg)))

    for scaling, run_gaps in starmap(gaps, runs):
        cell_gaps[scaling].extend(run_gaps)
    rows = []
    fit_points = []
    for scaling, gaps in cell_gaps.items():
        if gaps:
            period = float(np.mean(gaps))
            rows.append([market, scaling, repr(period), len(gaps), "ok"])
            fit_points.append((scaling, period))
        else:
            rows.append([market, scaling, "", 0, "insufficient"])
    # RunConfig refuses a repeated scaling, so the points' scalings are distinct
    fit_payload = asdict(trend_mod.period_scaling_fit(fit_points)) if len(fit_points) >= 2 else None
    out = _out_dir(cfg)
    lines = [_csv_join(row) + "\n" for row in rows]
    _write_csv(out / "sweep.csv", cfg, ["market", "scaling", "period", "n_gaps", "status"], lines)
    _write_json(out / "sweep_fit.json", {"config": vars(cfg), "market": market, "fit": fit_payload})
    print(f"sweep: {len(rows)} scaling cells -> {out}")
    return 0


def _trade_spec(args: argparse.Namespace) -> TradeSpec:
    """TradeSpec of --entry/--target; an error names the option at fault and its value."""
    if not args.entry > 0.0:
        raise ValueError(f"bad --entry {args.entry!r}: need 0 < entry < target")
    if not args.target > args.entry:
        raise ValueError(f"bad --target {args.target!r} for --entry {args.entry!r}: need 0 < entry < target")
    return TradeSpec(args.entry, args.target)


def cmd_trade_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    for option, value in (("--mu-x", args.mu_x), ("--mu-d", args.mu_d)):
        if not math.isfinite(value):
            raise ValueError(f"bad {option} {value!r}: need a finite mu")
    for option, value in (("--sigma-x", args.sigma_x), ("--sigma-d", args.sigma_d)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"bad {option} {value!r}: need a finite sigma > 0")
    if not abs(args.rho) < 1.0:
        raise ValueError(f"bad --rho {args.rho!r}: need -1 < rho < 1")
    if not MC_MIN_DRAWS <= args.mc_samples <= MAX_MC_SAMPLES:
        raise ValueError(
            f"bad --mc-samples {args.mc_samples}: need {MC_MIN_DRAWS} to {MAX_MC_SAMPLES} draws (MAX_MC_SAMPLES)"
        )
    params = BivariateLogNormalParams(args.mu_x, args.mu_d, args.sigma_x, args.sigma_d, args.rho)
    spec = _trade_spec(args)
    try:
        analytic = expected_return(params, spec)
    except ValueError as exc:
        law = f"--mu-x {args.mu_x!r}, --sigma-x {args.sigma_x!r}, --mu-d {args.mu_d!r}, --sigma-d {args.sigma_d!r}"
        raise ValueError(f"bad {law}, --rho {args.rho!r} for --entry {args.entry!r}, --target {args.target!r}: {exc}") from None
    mc_mean, mc_stderr = simulate_expected_return(params, spec, n=args.mc_samples, seed=cfg.seed)
    open_probability = stats_mod.lognormal_sf(spec.entry, params.x)
    target_probability = stats_mod.lognormal_sf(spec.target, params.x) / open_probability
    print(f"expected return analytic: {analytic:.6f}")
    print(f"expected return MC:       {mc_mean:.6f} +/- {mc_stderr:.6f} (n={args.mc_samples})")
    print(f"open probability:         {open_probability:.6f}")
    print(f"target probability:       {target_probability:.6f}")
    if cfg.output:
        payload = {
            "config": vars(cfg),
            "params": dict(vars(params)),
            "spec": dict(vars(spec)),
            "mc_samples": args.mc_samples,
            "analytic": analytic,
            "mc_mean": mc_mean,
            "mc_stderr": mc_stderr,
            "open_probability": open_probability,
            "target_probability": target_probability,
        }
        _write_json(_out_dir(cfg) / "trade_eval.json", payload)
    return 0


def cmd_backtest(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = _trade_spec(args)
    market, runs = _runs(cfg)
    n_sections = n_trades = 0

    def section(series, scaling):
        nonlocal n_sections, n_trades
        result = backtest_anticyclic(series, scaling, spec, directions=_directions(cfg))
        trades = result.trades
        n_sections += 1
        n_trades += len(trades)
        return {
            "symbol": series.symbol,
            "scaling": scaling,
            "trades": _records(
                ret=trades.ret, reached_target=trades.reached_target, x=trades.x, d=trades.d,
                direction=np.take(trend_mod.DIRECTIONS, trades.down),
                entry_bar=trades.entry_bar, exit_bar=trades.exit_bar,
            ),
            "summary": {
                "n": len(trades),
                "mean_return": float(np.mean(trades.ret)) if trades else None,
                "target_rate": float(np.mean(trades.reached_target)) if trades else None,
                "degenerate": result.degenerate,
                "truncated": result.truncated,
            },
        }

    # sections are rendered one at a time, and every input is read before --output is checked
    pieces = _json_pieces(
        {"config": vars(cfg), "market": market, "spec": dict(vars(spec)), "sections": starmap(section, runs)}, []
    ) + ["\n"]
    out = _out_dir(cfg) / "backtest.json"
    _write_pieces(out, pieces)
    print(f"backtest: {n_trades} trades over {n_sections} sections -> {out}")
    return 0


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    for option, value in (("--bars", args.bars), ("--swings", args.swings)):
        if value < 1:
            raise ValueError(f"bad {option} {value}: need at least 1")
    if args.bars > MAX_SYNTH_BARS:
        raise ValueError(f"bad --bars {args.bars}: need at most {MAX_SYNTH_BARS} bars (MAX_SYNTH_BARS)")
    if not (math.isfinite(args.s0) and args.s0 > 0.0):
        raise ValueError(f"bad --s0 {args.s0!r}: need a finite price > 0")
    if not (math.isfinite(args.vol) and args.vol >= 0.0):
        raise ValueError(f"bad --vol {args.vol!r}: need a finite vol >= 0")
    if not math.isfinite(args.drift):
        raise ValueError(f"bad --drift {args.drift!r}: need a finite drift")
    # log prices the options alone take out of the float range, before any draw:
    # gbm's drift path, with room for its widest wicks (x1.5 above, x0.5 below)
    if args.kind == "gbm":
        options = f"--s0 {args.s0!r}, --drift {args.drift!r}, --bars {args.bars}"
        log_top = math.log(args.s0) + max(args.drift * args.bars, 0.0) + math.log(1.5)
        log_bottom = math.log(args.s0) + min(args.drift * args.bars, 0.0) + math.log(0.5)
    else:
        # each swing high is at most 1 + TREND_MOVEMENT_REL times the last
        options = f"--s0 {args.s0!r}, --swings {args.swings}"
        log_top = math.log(args.s0) + args.swings * math.log1p(TREND_MOVEMENT_REL)
        log_bottom = math.log(args.s0)
    if not (math.log(sys.float_info.min) < log_bottom and log_top < math.log(sys.float_info.max)):
        raise ValueError(f"bad {options}: the path can leave the float range")
    out = _out_dir(cfg)
    # options that pass these checks can still leave the float range on a wild draw
    try:
        with np.errstate(all="ignore"):
            if args.kind == "gbm":
                series = synth_gbm(args.s0, args.drift, args.vol, args.bars, seed=cfg.seed, symbol=args.symbol)
            else:
                series, _ = synth_trend_series(s0=args.s0, swings=args.swings, seed=cfg.seed, symbol=args.symbol)
    except BarError as exc:
        if args.kind == "gbm":
            options = f"--s0 {args.s0!r}, --drift {args.drift!r}, --vol {args.vol!r}"
        else:
            options = f"--s0 {args.s0!r}, --swings {args.swings}"
        raise ValueError(f"bad {options} with --seed {cfg.seed}: the path leaves the float range at bar {exc.index}") from None
    out.parent.mkdir(parents=True, exist_ok=True)
    write_candle_file(series, out)
    print(f"synth: {len(series)} bars ({args.kind}) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: an option is read only under its full name, so a
    # prefix such as sweep's --scaling is an error, not a silent --scalings
    parser = argparse.ArgumentParser(
        prog="trendlab", description="Dow-trend detection and trend statistics toolkit", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options only some subcommands read; every subcommand takes --output. Each
    # option that sets a RunConfig field has that field's name as its dest
    market_options = {
        "--input": dict(action="append", dest="inputs", metavar="INPUT", help="candle CSV file or directory (repeatable)"),
        "--scaling": dict(action="append", dest="scalings", metavar="SCALING", type=float, help="MACD scaling (repeatable)"),
        "--direction": dict(choices=["up", "down", "both"]),
    }

    def command(name, help, *options):
        # an option not given is left out of the parsed arguments, so RunConfig's default is its one default
        p = sub.add_parser(name, help=help, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        for option in options:
            p.add_argument(option, **market_options[option])
        p.add_argument("--output", help="output directory (file path for synth)")
        return p

    command("detect", "extrema and trend phases per input and scaling", "--input", "--scaling")

    p = command("stats", "log-normal fits, AD tests, and histograms of trend variables", "--input", "--scaling", "--direction")
    variables = [v.replace("_", "-") for v in trend_mod.VARIABLES]
    p.add_argument("--variable", action="append", dest="variables", choices=variables, help="restrict to these variables (repeatable)")
    p.add_argument("--range", dest="hist_range", help="histogram range lo:hi")
    p.add_argument("--bin-width", type=float, help="histogram bin width")

    p = command("sweep", "mean trend period per scaling plus a linear fit", "--input", "--direction")
    p.add_argument("--scalings", default=DEFAULT_SWEEP, help="scaling grid lo:hi:step")

    p = command("trade-eval", "analytic and Monte Carlo expected return of the anti-cyclic trade")
    for option in ("--mu-x", "--sigma-x", "--mu-d", "--sigma-d", "--rho"):
        p.add_argument(option, type=float, required=True)
    p.add_argument("--entry", type=float, required=True, help="entry retracement level a")
    p.add_argument("--target", type=float, required=True, help="target retracement level t")
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, help="seed of the Monte Carlo draws")

    p = command("backtest", "replay the anti-cyclic rule over detected corrections", "--input", "--scaling", "--direction")
    p.add_argument("--entry", type=float, required=True)
    p.add_argument("--target", type=float, required=True)

    p = command("synth", "write a synthetic candle CSV")
    p.add_argument("--kind", choices=["gbm", "trends"], default="gbm")
    p.add_argument("--s0", type=float, default=100.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--vol", type=float, default=0.02)
    p.add_argument("--bars", type=int, default=2000)
    p.add_argument("--swings", type=int, default=60)
    p.add_argument("--symbol", default="synthetic")
    p.add_argument("--seed", type=int, help="seed of the path's draws")
    return parser


COMMANDS = {
    "detect": cmd_detect,
    "stats": cmd_stats,
    "sweep": cmd_sweep,
    "trade-eval": cmd_trade_eval,
    "backtest": cmd_backtest,
    "synth": cmd_synth,
}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the parsed arguments, built once from the resolved values of the options given."""
    options = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    if "hist_range" in options:
        try:
            lo, hi = (float(p) for p in args.hist_range.split(":"))
        except ValueError:
            raise ValueError(f"bad --range {args.hist_range!r}: expected lo:hi") from None
        options["hist_range"] = (lo, hi)
    if "variables" in options:
        options["variables"] = [v.replace("-", "_") for v in args.variables]
    if args.command == "sweep":
        options["scalings"] = parse_scaling_range(args.scalings)
    return RunConfig(**options)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_run_config(args), args)
    except (ValueError, OSError) as exc:  # CandleParseError is a ValueError, FileNotFoundError an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
