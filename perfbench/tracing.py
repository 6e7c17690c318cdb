"""Outside-in spans and counts around trendlab's layers.

trendlab imports functions by name (``from .indicators import macd_sar``), so
one function can be bound in several modules, and a caller looks it up in its
own module at call time. Each entry of BINDINGS is one such binding: the
module (or class) the caller looks the name up in, the name, and the
per-layer timer its self time is charged to. Wrapping the definition site
instead would miss every caller that holds its own binding.

A span is [name, start, end, parent span index, iteration id]. Spans and
counts stay in memory; ``dump`` writes them out once the run is over.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import statistics
import time
from collections import Counter


def _count_parse(add, bound, result):
    add("market_data.bars_parsed", len(result))
    add("market_data.bytes_parsed", os.path.getsize(bound.arguments["path"]))


def _count_format(add, bound, result):
    add("market_data.bars_written", len(bound.arguments["series"]))


def _count_sar(add, bound, result):
    add("indicators.calls", 1)
    add("indicators.bar_scalings", len(bound.arguments["series"]))


def _count_minmax(add, bound, result):
    add("minmax.points", len(result.points))


def _count_phases(add, bound, result):
    add("trend.phases", len(result))


def _count_samples(add, bound, result):
    add("trend.samples", len(result))
    add("trend.degenerate", result.degenerate)
    add("trend.zero_delay", result.zero_delay)
    # the legs extract_samples walks: every leg of a phase up to its violation
    add("trend.legs_walked", sum(
        (ph.violation_point_index if ph.violation_point_index is not None else ph.end_point_index)
        - ph.start_point_index
        for ph in bound.arguments["phases"]
    ))
    add("trend.legs_emitting", len({s.event for s in result}))


def _count_fit(add, bound, result):
    add("stats.cells", 1)
    add("stats.values_fitted", result.n)


def _count_backtest(add, bound, result):
    add("trading.trades", len(result.trades))
    add("trading.truncated", result.truncated)


def _count_mc(add, bound, result):
    add("trading.mc_draws", bound.arguments["n"])


# binding name -> (owner, attribute, self-time metric, counter)
BINDINGS = {
    "cli.read_candle_file": ("trendlab.cli", "read_candle_file", "market_data.parse_s", _count_parse),
    "market_data.format_candles": ("trendlab.market_data", "format_candles", "market_data.format_s", _count_format),
    "cli.macd_sar": ("trendlab.cli", "macd_sar", "indicators.macd_sar_s", _count_sar),
    "trading.macd_sar": ("trendlab.trading", "macd_sar", "indicators.macd_sar_s", _count_sar),
    "cli.run_minmax": ("trendlab.cli", "run_minmax", "minmax.run_minmax_s", _count_minmax),
    "trading.run_minmax": ("trendlab.trading", "run_minmax", "minmax.run_minmax_s", _count_minmax),
    # cli and trading both reach detect_trends through the trendlab.trend module
    "trend.detect_trends": ("trendlab.trend", "detect_trends", "trend.detect_s", _count_phases),
    "trend.extract_samples": ("trendlab.trend", "extract_samples", "trend.extract_s", _count_samples),
    "trend.period_gaps": ("trendlab.trend", "period_gaps", "trend.period_gaps_s", None),
    "SampleBatch.values": ("trendlab.trend:SampleBatch", "values", "trend.select_s", None),
    "SampleBatch.linked_pairs": ("trendlab.trend:SampleBatch", "linked_pairs", "trend.select_s", None),
    "stats.fit_lognormal_report": ("trendlab.stats", "fit_lognormal_report", "stats.fit_s", _count_fit),
    "stats.histogram": ("trendlab.stats", "histogram", "stats.histogram_s", None),
    "stats.log_correlation": ("trendlab.stats", "log_correlation", "stats.log_correlation_s", None),
    "cli.backtest_anticyclic": ("trendlab.cli", "backtest_anticyclic", "trading.backtest_s", _count_backtest),
    "cli.simulate_expected_return": ("trendlab.cli", "simulate_expected_return", "trading.mc_s", _count_mc),
    "cli.expected_return": ("trendlab.cli", "expected_return", "trading.closed_form_s", None),
}

# spans the benchmark opens itself rather than through a binding
MAIN_SPAN = "cli.main"
# the counters' own time, so it is charged to no layer; it shows only in
# the tracing overhead
COUNTER_SPAN = "trace.counters"
SELF_TIME = {name: entry[2] for name, entry in BINDINGS.items()}
SELF_TIME[MAIN_SPAN] = "cli.self_s"
SELF_TIME[COUNTER_SPAN] = "trace.counters_s"


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _layer(metric: str) -> str:
    return metric.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = Counter()
        self.calls: Counter = Counter()
        self.iteration = None
        self._stack: list[int] = []

    def add(self, metric: str, value) -> None:
        self.counts[(self.iteration, metric)] += value

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except Exception:
            self.add(_layer(SELF_TIME[name]) + ".errors", 1)
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.calls[name] += 1

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(COUNTER_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.add, bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, names):
        """Wrap the named bindings for the duration of the block.

        A binding that no longer exists raises AttributeError, so a rename in
        trendlab fails the traced run instead of silently dropping a layer.
        """
        originals = []
        try:
            for name in names:
                owner_path, attr, _, counter = BINDINGS[name]
                owner = _owner(owner_path)
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def per_iteration(self) -> dict:
        """{iteration: {metric: value}}: self times by metric plus the counts."""
        child_time = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _, iteration) in enumerate(self.spans):
            metrics = out.setdefault(iteration, Counter())
            metrics[SELF_TIME[name]] += end - start - child_time[index]
        for (iteration, metric), value in self.counts.items():
            out.setdefault(iteration, Counter())[metric] += value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, iteration in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "iteration": iteration}) + "\n")


def median_by_metric(per_iteration: dict) -> dict:
    """Median over iterations of each metric; an iteration lacking one reads 0."""
    names = {m for metrics in per_iteration.values() for m in metrics}
    return {m: statistics.median(metrics.get(m, 0) for metrics in per_iteration.values()) for m in names}
