"""trendlab's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stats_pool --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. The run builds the seeded synthetic market
described in workloads.json (timed as ``setup_s``), then starts worker.py in
a fresh process that drives ``trendlab.cli.main`` for ``--seconds`` and
checks every report. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer ones, from iterations
traced by tracing.py and interleaved with untraced ones. A human-readable
summary goes to stderr; the last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is imported here or in the worker, which inherits them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the same string hashes, and so the same dict and set layouts, in every worker
os.environ["PYTHONHASHSEED"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# setup_s is the median of at least this many builds, spanning at least this long
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
TIME_LIMIT_S = 170.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_market(spec: list[dict], seed: int, directory: Path) -> None:
    from trendlab.market_data import synth_gbm, synth_trend_series, write_candle_file

    for index, f in enumerate(spec):
        file_seed = seed * 16 + index
        symbol = Path(f["file"]).stem
        if f["kind"] == "gbm":
            series = synth_gbm(f["s0"], f["drift"], f["vol"], f["bars"], seed=file_seed, symbol=symbol)
        else:
            series, _ = synth_trend_series(s0=f["s0"], swings=f["swings"], seed=file_seed, symbol=symbol)
        write_candle_file(series, directory / f["file"])


def input_sizes(directory: Path) -> dict:
    files = sorted(directory.glob("*.csv"))
    # one header line per file, one line per bar
    bars = sum(p.read_bytes().count(b"\n") - 1 for p in files)
    return {"files": len(files), "bars": bars, "bytes": sum(p.stat().st_size for p in files)}


def setup(spec: list[dict], seed: int, market: Path, tracer) -> list[float]:
    """Build the market repeatedly; the seconds each build took.

    With a tracer, format_candles is traced, as the write side of market_data.
    """
    times = []
    with tracer.installed(["market_data.format_candles"]) if tracer else contextlib.nullcontext():
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            if tracer:
                tracer.iteration = len(times)
            shutil.rmtree(market, ignore_errors=True)
            market.mkdir(parents=True)
            start = time.perf_counter()
            build_market(spec, seed, market)
            times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "trendlab" / "cli.py").is_file():
        _fail(f"no trendlab sources under {SRC}; run from the root of a trendlab checkout")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    definition = json.loads((HERE / "workloads.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in definition["workloads"]:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(definition['workloads'])}")
    w = definition["workloads"][args.workload]
    default_seed = args.seed == definition["default_seed"]

    sys.path.insert(0, str(SRC))
    from tracing import Tracer, median_by_metric

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_tracer = Tracer() if args.trace else None
    setup_times = setup(w["market"], args.seed, work / "market", setup_tracer)
    sizes = input_sizes(work / "market")
    if default_seed and sizes != w["inputs_at_default_seed"]:
        _fail(f"market at the default seed is {sizes}, workloads.json records {w['inputs_at_default_seed']}")

    references = json.loads((HERE / "reference_digests.json").read_text())
    cfg = {
        "src": str(SRC),
        "commands": [[a.replace("{seed}", str(args.seed)) for a in argv_] for argv_ in w["commands"]],
        "seconds": args.seconds,
        "trace": args.trace,
        "must_call": w["must_call"],
        "reference": references[args.workload] if default_seed else None,
        "spans": str(work / "spans.jsonl"),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=work,
            stdout=subprocess.PIPE,
            text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        _fail("worker did not finish in time")
    if proc.returncode != 0:
        _fail(f"worker exited with {proc.returncode}")
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    shutil.rmtree(work / "market")
    shutil.rmtree(work / "out")

    p50 = statistics.median(r["untraced_s"])
    bar_scalings = sizes["bars"] * w["scalings"] * w["detection_invocations"]
    if args.trace:
        layers = dict(r["layers"])
        setup_layers = median_by_metric(setup_tracer.per_iteration())
        layers.update({k: v for k, v in setup_layers.items() if k.startswith("market_data.")})
        setup_tracer.dump(work / "spans_setup.jsonl")
        walked = layers.get("trend.legs_walked", 0)
        layers["trend.leg_yield"] = layers.get("trend.legs_emitting", 0) / walked if walked else 0.0
        layers["trace.overhead"] = statistics.median(r["traced_s"]) / p50 - 1.0
        for name, want in (("indicators.bar_scalings", bar_scalings), ("trading.mc_draws", w["mc_draws"])):
            if layers.get(name, 0) != want:
                _fail(f"traced {name} = {layers.get(name, 0)} per iteration, workloads.json implies {want}")
        values = {m["name"]: (layers.get(m["name"], 0), m["unit"]) for m in benchmark["per_layer"]}
    else:
        ends = {
            "run_s.p50": p50,
            "bar_scalings_per_s": bar_scalings / p50,
            "peak_rss_mb": r["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
        values = {m["name"]: (ends[m["name"]], m["unit"]) for m in benchmark["end_to_end"]}

    print(
        f"{args.workload} seed {args.seed}: {sizes['files']} files, {sizes['bars']} bars, {sizes['bytes']} bytes; "
        f"{len(r['untraced_s'])} untraced and {len(r['traced_s'])} traced iterations, {r['failed']} failed",
        file=sys.stderr,
    )
    for name, (value, unit) in values.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
