"""Command-line surface: detect, stats, sweep, trade-eval, backtest, synth.

Reports are deterministic for a given (inputs, seed): JSON for fits, trade
evaluations, detection, and backtests; CSV for histograms and sweeps. Every
report embeds the resolved run configuration for provenance. Samples from all
files of an input directory are pooled into one market, named after the
directory (or the single file's stem).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import stats as stats_mod
from . import trend as trend_mod
from .indicators import ScalingConfig, macd_sar
from .market_data import CandleSeries, read_candle_file, synth_gbm, synth_trend_series, write_candle_file
from .minmax import HIGH, LOW, run_minmax
from .stats import BivariateLogNormalParams, HistogramSpec
from .trading import TradeSpec, backtest_anticyclic, expected_return, simulate_expected_return

DEFAULT_SCALINGS = (1.0, 1.2, 1.5, 2.0, 3.0)
DEFAULT_SWEEP = "0.5:5:0.1"
DEFAULT_MC_SAMPLES = 1_000_000
# histogram bins per (variable, direction, scaling) cell; every bin is a histograms.csv row
MAX_HIST_BINS = 1_000_000

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

_CLI_VARIABLES = {
    "retracement": trend_mod.RETRACEMENT,
    "duration": trend_mod.DURATION,
    "rel-movement": trend_mod.REL_MOVEMENT,
    "rel-correction": trend_mod.REL_CORRECTION,
    "delay-x": trend_mod.DELAY_X,
    "delay-m": trend_mod.DELAY_M,
    "delay-c": trend_mod.DELAY_C,
}


@dataclass
class RunConfig:
    command: str
    inputs: list[str] = field(default_factory=list)
    scalings: list[float] = field(default_factory=lambda: list(DEFAULT_SCALINGS))
    direction: str = "both"
    variables: list[str] = field(default_factory=lambda: list(trend_mod.VARIABLES))
    hist_range: tuple[float, float] | None = None
    bin_width: float | None = None
    output: str | None = None
    seed: int = 0

    def validate(self):
        if self.command in ("detect", "stats", "sweep", "backtest") and not self.inputs:
            raise ValueError("at least one input file is required")
        option = "--scalings" if self.command == "sweep" else "--scaling"
        seen = set()
        for s in self.scalings:
            # the signal period 9 s is the shortest of the three MACD periods
            if not (math.isfinite(s) and s > 0.0 and ScalingConfig(s).signal >= 1.0):
                raise ValueError(f"bad {option} value {s!r}: need a finite scaling >= 1/9 (signal period >= 1)")
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
        for variable in self.variables:
            lo, hi, width = _hist_bounds(self, variable)
            # HistogramSpec.n_bins <= MAX_HIST_BINS, checked on the bounds so that the error names the options
            if not (hi - lo) / width - 1e-9 <= MAX_HIST_BINS:
                raise ValueError(
                    f"bad --range/--bin-width: {lo!r}:{hi!r} in bins of {width!r} "
                    f"gives {variable} more than {MAX_HIST_BINS} histogram bins"
                )


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"bad --range {text!r}: expected lo:hi") from None
    return lo, hi


def parse_scaling_range(text: str) -> list[float]:
    """Expand lo:hi:step into the inclusive grid lo, lo+step, ..., hi."""
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"bad --scalings range {text!r}: expected lo:hi:step") from None
    if not (step > 0 and lo <= hi and math.isfinite(hi - lo)):
        raise ValueError(f"bad --scalings range {text!r}: need finite lo <= hi and step > 0")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [round(lo + k * step, 10) for k in range(count)]


def _input_files(paths: list[str]) -> tuple[str, list[Path]]:
    """Resolve inputs to (market label, candle files)."""
    files: list[Path] = []
    labels: list[str] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix.lower() == ".csv")
            if not found:
                raise FileNotFoundError(f"no input files in directory {p}")
            files.extend(found)
            labels.append(p.name)
        elif p.is_file():
            files.append(p)
            labels.append(p.stem)
        else:
            raise FileNotFoundError(f"no input files at {p}")
    return "+".join(labels), files


def _runs(cfg: RunConfig) -> tuple[str, Iterator[tuple[CandleSeries, float]]]:
    """Validate cfg and resolve its inputs: the market label and the (series, scaling) runs.

    Every scaling of one file runs before the next file is read.
    """
    cfg.validate()
    market, files = _input_files(cfg.inputs)

    def runs():
        for path in files:
            series = read_candle_file(path)
            for scaling in cfg.scalings:
                yield series, scaling

    return market, runs()


def _detect_one(series, scaling: float):
    sar = macd_sar(series, ScalingConfig(scaling))
    mm = run_minmax(series, sar)
    phases = trend_mod.detect_trends(mm)
    return mm, phases


def _config_json(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["hist_range"] = list(cfg.hist_range) if cfg.hist_range else None
    return d


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, cfg: RunConfig, header: list[str], rows: Iterable[Iterable]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("# config: " + json.dumps(_config_json(cfg), sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(cfg: RunConfig) -> Path:
    if not cfg.output:
        raise ValueError("--output is required for this command")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_detect(cfg: RunConfig) -> int:
    market, runs = _runs(cfg)
    sections = []
    for series, scaling in runs:
        mm, phases = _detect_one(series, scaling)
        extrema = [
            {"kind": HIGH if high else LOW, "price": price, "bar": bar, "detection_bar": detected, "d_abs": d_abs}
            for high, price, bar, detected, d_abs in zip(
                mm.high.tolist(), mm.price.tolist(), mm.bar.tolist(), mm.detection_bar.tolist(), mm.d_abs.tolist()
            )
        ]
        sections.append(
            {
                "symbol": series.symbol,
                "scaling": scaling,
                "extrema": extrema,
                "phases": [asdict(ph) for ph in phases],
                "open_candidate": asdict(mm.open_candidate) if mm.open_candidate else None,
            }
        )
    payload = {"config": _config_json(cfg), "market": market, "sections": sections}
    out = _out_dir(cfg) / "detect.json"
    _write_json(out, payload)
    n_points = sum(len(s["extrema"]) for s in sections)
    print(f"detect: {len(sections)} sections, {n_points} extrema -> {out}")
    return 0


def _sample_rows(cfg: RunConfig, batches):
    """samples.csv rows of the selected directions and variables, batch by batch."""
    direction_codes = [trend_mod.DIRECTIONS.index(d) for d in _directions(cfg)]
    variable_codes = [code for code, v in enumerate(trend_mod.VARIABLES) if v in cfg.variables]

    def rows(batch):
        keep = np.isin(batch.direction, direction_codes) & np.isin(batch.variable, variable_codes)
        # pair id is unique per leg event within (symbol, scaling)
        pair_prefix = f"{batch.symbol}:{batch.scaling}:"
        return zip(
            repeat(batch.symbol),
            repeat(str(batch.scaling)),
            map(trend_mod.DIRECTIONS.__getitem__, batch.direction[keep].tolist()),
            map(trend_mod.VARIABLES.__getitem__, batch.variable[keep].tolist()),
            batch.value[keep].tolist(),  # csv.writer writes a float as its repr
            map(pair_prefix.__add__, map(str, batch.event[keep].tolist())),
        )

    return chain.from_iterable(map(rows, batches))


def _hist_bounds(cfg: RunConfig, variable: str) -> tuple[float, float, float]:
    """The variable's default histogram lo, hi and bin width with --range and --bin-width applied."""
    spec = DEFAULT_HISTOGRAMS[variable]
    lo, hi = cfg.hist_range if cfg.hist_range is not None else (spec.lo, spec.hi)
    width = cfg.bin_width if cfg.bin_width is not None else spec.bin_width
    return lo, hi, width


def _directions(cfg: RunConfig) -> list[str]:
    return [trend_mod.UP, trend_mod.DOWN] if cfg.direction == "both" else [cfg.direction]


def cmd_stats(cfg: RunConfig) -> int:
    market, runs = _runs(cfg)
    batches = [
        trend_mod.extract_samples(*_detect_one(series, scaling), series, scaling=scaling) for series, scaling in runs
    ]
    cells = []
    joints = []
    hist_rows = []
    for scaling in cfg.scalings:
        scale_batches = [b for b in batches if b.scaling == scaling]
        for direction in _directions(cfg):
            for variable in cfg.variables:
                values = np.concatenate([b.values(variable, direction) for b in scale_batches])
                if values.size == 0:
                    continue
                report = stats_mod.fit_lognormal_report(values)
                cells.append(
                    {
                        "variable": variable,
                        "direction": direction,
                        "scaling": scaling,
                        "market": market,
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
                edges = hist.spec.edges.tolist()
                hist_rows.extend(
                    [market, variable, direction, scaling, repr(lo), repr(hi), count, repr(density)]
                    for lo, hi, count, density in zip(edges, edges[1:], hist.counts.tolist(), hist.densities.tolist())
                )
            for var_a, var_b in LINKED_PAIRS:
                if var_a not in cfg.variables or var_b not in cfg.variables:
                    continue
                pairs = []
                for b in scale_batches:
                    pairs.extend(b.linked_pairs(var_a, var_b, direction))
                if len(pairs) < 2:
                    continue
                try:
                    rho = stats_mod.log_correlation(pairs)
                except ValueError:
                    continue
                joints.append(
                    {
                        "pair": f"{var_a}~{var_b}",
                        "direction": direction,
                        "scaling": scaling,
                        "market": market,
                        "n": len(pairs),
                        "rho": rho,
                    }
                )
    out = _out_dir(cfg)
    _write_json(out / "fits.json", {"config": _config_json(cfg), "market": market, "cells": cells, "joints": joints})
    _write_csv(
        out / "histograms.csv",
        cfg,
        ["market", "variable", "direction", "scaling", "bin_lo", "bin_hi", "count", "density"],
        hist_rows,
    )
    _write_csv(
        out / "samples.csv",
        cfg,
        ["symbol", "scaling", "direction", "variable", "value", "pair_id"],
        _sample_rows(cfg, batches),
    )
    print(f"stats: {len(cells)} cells, {len(joints)} joint cells -> {out}")
    return 0


def cmd_sweep(cfg: RunConfig, scaling_range: str) -> int:
    cfg.scalings = parse_scaling_range(scaling_range)
    market, runs = _runs(cfg)
    # per scaling, the gaps of every file in input order
    cell_gaps: dict[float, list[int]] = {scaling: [] for scaling in cfg.scalings}
    for series, scaling in runs:
        mm, phases = _detect_one(series, scaling)
        phases = [p for p in phases if cfg.direction in ("both", p.direction)]
        cell_gaps[scaling].extend(trend_mod.period_gaps(mm, phases))
    rows = []
    fit_points = []
    for scaling, gaps in cell_gaps.items():
        if gaps:
            period = float(np.mean(gaps))
            rows.append([market, scaling, repr(period), len(gaps), "ok"])
            fit_points.append((scaling, period))
        else:
            rows.append([market, scaling, "", 0, "insufficient"])
    fit_payload = None
    if len({s for s, _ in fit_points}) >= 2:
        fit = trend_mod.period_scaling_fit(fit_points)
        fit_payload = {
            "intercept": fit.intercept,
            "slope": fit.slope,
            "residual_rms": fit.residual_rms,
            "n": fit.n,
        }
    out = _out_dir(cfg)
    _write_csv(out / "sweep.csv", cfg, ["market", "scaling", "period", "n_gaps", "status"], rows)
    _write_json(out / "sweep_fit.json", {"config": _config_json(cfg), "market": market, "fit": fit_payload})
    print(f"sweep: {len(rows)} scaling cells -> {out}")
    return 0


def cmd_trade_eval(cfg: RunConfig, params: BivariateLogNormalParams, spec: TradeSpec, mc_samples: int) -> int:
    analytic = expected_return(params, spec)
    mc_mean, mc_stderr = simulate_expected_return(params, spec, n=mc_samples, seed=cfg.seed)
    open_probability = stats_mod.lognormal_sf(spec.entry, params.x)
    target_probability = stats_mod.lognormal_sf(spec.target, params.x) / open_probability
    print(f"expected return analytic: {analytic:.6f}")
    print(f"expected return MC:       {mc_mean:.6f} +/- {mc_stderr:.6f} (n={mc_samples})")
    print(f"open probability:         {open_probability:.6f}")
    print(f"target probability:       {target_probability:.6f}")
    if cfg.output:
        payload = {
            "config": _config_json(cfg),
            "params": asdict(params),
            "spec": asdict(spec),
            "mc_samples": mc_samples,
            "analytic": analytic,
            "mc_mean": mc_mean,
            "mc_stderr": mc_stderr,
            "open_probability": open_probability,
            "target_probability": target_probability,
        }
        _write_json(_out_dir(cfg) / "trade_eval.json", payload)
    return 0


def cmd_backtest(cfg: RunConfig, spec: TradeSpec) -> int:
    market, runs = _runs(cfg)
    sections = []
    for series, scaling in runs:
        result = backtest_anticyclic(series, scaling, spec, directions=_directions(cfg))
        trades = result.trades
        sections.append(
            {
                "symbol": series.symbol,
                "scaling": scaling,
                "trades": [asdict(t) for t in trades],
                "summary": {
                    "n": len(trades),
                    "mean_return": float(np.mean([t.ret for t in trades])) if trades else None,
                    "target_rate": float(np.mean([t.reached_target for t in trades])) if trades else None,
                    "degenerate": result.degenerate,
                    "truncated": result.truncated,
                },
            }
        )
    payload = {"config": _config_json(cfg), "market": market, "spec": asdict(spec), "sections": sections}
    out = _out_dir(cfg) / "backtest.json"
    _write_json(out, payload)
    n_trades = sum(s["summary"]["n"] for s in sections)
    print(f"backtest: {n_trades} trades over {len(sections)} sections -> {out}")
    return 0


def cmd_synth(cfg: RunConfig, kind: str, s0: float, drift: float, vol: float, bars: int, swings: int, symbol: str) -> int:
    if not cfg.output:
        raise ValueError("--output is required for synth")
    if kind == "gbm":
        series = synth_gbm(s0, drift, vol, bars, seed=cfg.seed, symbol=symbol)
    else:
        series, _ = synth_trend_series(s0=s0, swings=swings, seed=cfg.seed, symbol=symbol)
    out = Path(cfg.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_candle_file(series, out)
    print(f"synth: {len(series)} bars ({kind}) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: an option is read only under its full name, so a
    # prefix such as sweep's --scaling is an error, not a silent --scalings
    parser = argparse.ArgumentParser(
        prog="trendlab", description="Dow-trend detection and trend statistics toolkit", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options only some subcommands read; every subcommand takes --output and --seed
    market_options = {
        "--input": dict(action="append", default=[], help="candle CSV file or directory (repeatable)"),
        "--scaling": dict(action="append", type=float, default=None, help="MACD scaling (repeatable)"),
        "--direction": dict(choices=["up", "down", "both"], default="both"),
    }

    def command(name, help, *options):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for option in options:
            p.add_argument(option, **market_options[option])
        p.add_argument("--output", default=None, help="output directory (file path for synth)")
        p.add_argument("--seed", type=int, default=0)
        return p

    command("detect", "extrema and trend phases per input and scaling", "--input", "--scaling")

    p = command("stats", "log-normal fits, AD tests, and histograms of trend variables", "--input", "--scaling", "--direction")
    p.add_argument("--variable", action="append", choices=sorted(_CLI_VARIABLES), default=None, help="restrict to these variables (repeatable)")
    p.add_argument("--range", dest="hist_range", default=None, help="histogram range lo:hi")
    p.add_argument("--bin-width", type=float, default=None, help="histogram bin width")

    p = command("sweep", "mean trend period per scaling plus a linear fit", "--input", "--direction")
    p.add_argument("--scalings", default=DEFAULT_SWEEP, help="scaling grid lo:hi:step")

    p = command("trade-eval", "analytic and Monte Carlo expected return of the anti-cyclic trade")
    p.add_argument("--mu-x", type=float, required=True)
    p.add_argument("--sigma-x", type=float, required=True)
    p.add_argument("--mu-d", type=float, required=True)
    p.add_argument("--sigma-d", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--entry", type=float, required=True, help="entry retracement level a")
    p.add_argument("--target", type=float, required=True, help="target retracement level t")
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)

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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        inputs=list(getattr(args, "input", [])),
        scalings=list(getattr(args, "scaling", None) or DEFAULT_SCALINGS),
        direction=getattr(args, "direction", "both"),
        output=args.output,
        seed=args.seed,
    )
    try:
        if args.command == "detect":
            return cmd_detect(cfg)
        if args.command == "stats":
            if args.variable:
                cfg.variables = [_CLI_VARIABLES[v] for v in args.variable]
            if args.hist_range is not None:
                cfg.hist_range = _parse_range(args.hist_range)
            cfg.bin_width = args.bin_width
            return cmd_stats(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.scalings)
        if args.command == "trade-eval":
            params = BivariateLogNormalParams(args.mu_x, args.mu_d, args.sigma_x, args.sigma_d, args.rho)
            spec = TradeSpec(args.entry, args.target)
            return cmd_trade_eval(cfg, params, spec, args.mc_samples)
        if args.command == "backtest":
            return cmd_backtest(cfg, TradeSpec(args.entry, args.target))
        if args.command == "synth":
            return cmd_synth(cfg, args.kind, args.s0, args.drift, args.vol, args.bars, args.swings, args.symbol)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as exc:  # CandleParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
