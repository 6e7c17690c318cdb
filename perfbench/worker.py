"""Timed iterations of one workload, run in a process that did not build the market.

Started by run.py with the work directory as its working directory and one
JSON argument (see run.py). Drives ``trendlab.cli.main`` in-process, checks
every iteration's reports, and prints one JSON object as its last line.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracing import BINDINGS, MAIN_SPAN, Tracer, median_by_metric


def _digests(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _report_problems(out: Path) -> list[str]:
    """Checks on report content that hold for any seed."""
    problems = []
    for p in sorted(out.rglob("sweep_fit.json")):
        if json.loads(p.read_text())["fit"] is None:
            problems.append(f"{p}: no period fit")
    for p in sorted(out.rglob("trade_eval.json")):
        r = json.loads(p.read_text())
        gap = abs(r["analytic"] - r["mc_mean"])
        if not gap <= 4.0 * r["mc_stderr"]:
            problems.append(f"{p}: |analytic - MC| = {gap:.3g} exceeds 4 MC stderr ({r['mc_stderr']:.3g})")
    return problems


def _iteration(main, commands, out: Path, tracer: Tracer | None) -> tuple[float, list[str], int]:
    """Run every command once into a fresh report directory: (seconds, problems, report bytes)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    gc.collect()
    problems = []
    stdout = io.StringIO()
    start = time.perf_counter()
    for argv in commands:
        try:
            with contextlib.redirect_stdout(stdout):
                if tracer is None:
                    code = main(argv)
                else:
                    with tracer.span(MAIN_SPAN):
                        code = main(argv)
                    tracer.add("cli.invocations", 1)
        except Exception:
            problems.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
            continue
        if code != 0:
            problems.append(f"{argv[0]} exited with {code}")
    seconds = time.perf_counter() - start
    problems += _report_problems(out)
    report_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return seconds, problems, report_bytes


def _peak_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MiB.

    Not getrusage's ru_maxrss: on Linux that keeps the high-water mark of the
    address space execve replaced, here that of run.py, which built the market.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("no VmHWM in /proc/self/status")


def _mismatches(got: dict, want: dict, label: str) -> list[str]:
    return [
        f"{name}: sha256 {got.get(name)} differs from the {label} {want.get(name)}"
        for name in sorted(set(got) | set(want))
        if got.get(name) != want.get(name)
    ]


def run(cfg: dict) -> dict:
    sys.path.insert(0, cfg["src"])
    from trendlab.cli import main

    out = Path("out")
    commands = cfg["commands"]
    trace = cfg["trace"]
    tracer = Tracer() if trace else None

    # warm-up: not timed, but its reports are the run's reference
    _, problems, _ = _iteration(main, commands, out, None)
    reference = _digests(out)
    if cfg["reference"] is not None:
        problems += _mismatches(reference, cfg["reference"], "stored reference digest")
    warmup_ok = not problems
    for p in problems:
        print(f"warm-up: {p}", file=sys.stderr)

    untraced: list[float] = []
    traced: list[float] = []
    failed = 0
    deadline = time.perf_counter() + cfg["seconds"]
    # a traced run alternates untraced and traced iterations, so both medians
    # see the same conditions and their ratio is the tracing overhead
    while time.perf_counter() < deadline or not untraced or (trace and not traced):
        use_trace = trace and len(traced) < len(untraced)
        if use_trace:
            tracer.iteration = len(traced)
            with tracer.installed(BINDINGS):
                seconds, problems, report_bytes = _iteration(main, commands, out, tracer)
            tracer.add("cli.report_bytes", report_bytes)
            traced.append(seconds)
        else:
            seconds, problems, _ = _iteration(main, commands, out, None)
            untraced.append(seconds)
        problems += _mismatches(_digests(out), reference, "warm-up's")
        if problems or not warmup_ok:
            failed += 1
        for p in problems:
            print(f"iteration {len(untraced) + len(traced)}: {p}", file=sys.stderr)

    result = {
        "untraced_s": untraced,
        "traced_s": traced,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        uncalled = [name for name in cfg["must_call"] if tracer.calls[name] == 0]
        if uncalled:
            raise SystemExit(f"traced run never called {', '.join(uncalled)}")
        tracer.dump(cfg["spans"])
        result["layers"] = median_by_metric(tracer.per_iteration())
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
