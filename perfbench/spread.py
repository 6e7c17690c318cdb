"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 [--trace 1]
                                [--save runs.json] [--against earlier.json]

Every workload of BENCHMARK.json runs for its ``run_seconds``. Runs are
interleaved (seed by seed, every workload in turn) so slow drift of the
machine reaches all workloads alike. Each run's metrics are printed
by name with their unit, then per workload and metric the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json. ``--against`` compares the medians with a
file written earlier by ``--save``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    runs = {w["name"]: [] for w in benchmark["workloads"]}
    for seed in args.seeds:
        for workload in runs:
            cmd = benchmark["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            metrics = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({wall:.1f} s wall): failed_frac={result['failed'] / result['attempted']:.3g}"
                  f" of {result['attempted']}  {metrics}", flush=True)

    earlier = json.loads(args.against.read_text()) if args.against else {}
    bounds = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(f"\n{'workload':12s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"
          + ("  vs earlier" if earlier else ""))
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = median
            bound = bounds[name].get("bound")
            line = (f"{workload:12s} {name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                    + (f"{bound:6.0%}" if bound is not None else f"{'-':>6s}"))
            before = earlier.get(workload, {}).get(name)
            if before:
                line += f"  {median / before - 1.0:+.2%}"
            print(line)
    if args.save:
        args.save.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
