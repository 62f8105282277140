"""Span bookkeeping shared by the traced child and the benchmark parent.

Stdlib only: the parent process imports this module and must stay small,
because a child's peak RSS as reported by ``os.wait4`` starts from the
parent's own high-water mark.

A span is ``[name, start, end, parent, pass_id, attrs]``: ``parent`` is
the index of the enclosing span in the same list (``None`` for a root)
and ``attrs`` holds the counts recorded at that boundary.
"""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import median

#: Layer functions wrapped in a traced pass: span name -> (module, attribute).
TIMED = {
    "scenarios.concretize": ("scenq.scenarios", "iter_concretize"),
    "simulator.simulate": ("scenq.simulator", "simulate"),
    "trace.save": ("scenq.trace", "save_trace"),
    "trace.load": ("scenq.trace", "load_trace_file"),
    "geometry.first_polyline_crossing": ("scenq.geometry", "first_polyline_crossing"),
    "geometry.point_polyline_distance": ("scenq.geometry", "point_polyline_distance"),
    "nano.wttc": ("scenq.nano", "wttc"),
    "nano.ttc": ("scenq.nano", "ttc"),
    "nano.gap_time": ("scenq.nano", "gap_time"),
    "micro.build_encroachment_zone": ("scenq.micro", "build_encroachment_zone"),
    "micro.pet": ("scenq.micro", "pet"),
    "micro.et": ("scenq.micro", "et"),
    "criteria.active_intervals": ("scenq.criteria", "active_intervals"),
    "criteria.evaluate_criterion": ("scenq.criteria", "evaluate_criterion"),
    "results.write_series": ("scenq.results", "write_series"),
    "macro.dtw": ("scenq.macro", "dtw"),
    "macro.collision_probability": ("scenq.macro", "collision_probability"),
}
ROOT = "cli.main"
REGISTRY = "registry.compute"
LAYERS = ("cli", "scenarios", "simulator", "trace", "geometry", "nano", "micro",
          "registry", "criteria", "results", "macro")

#: Percentiles tried, highest first, for the tail of a per-call distribution.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns ``(q, value, n)``. With too few samples for any tail the median
    is returned (q = 50), and an empty input gives ``(50.0, 0.0, 0)``.
    """
    n = len(values)
    if n == 0:
        return 50.0, 0.0, 0
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= min_beyond:
            return q, percentile(values, q), n
    return 50.0, percentile(values, 50.0), n


def quartiles(values) -> tuple[float, float, float]:
    """(p25, median, p75) by nearest rank."""
    return percentile(values, 25.0), percentile(values, 50.0), percentile(values, 75.0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            c_start = max(spans[c][1], reach)
            c_end = min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric of a traced run as (name, unit, better)."""
    specs = [("cli.self_s", "s", "lower"), (f"{REGISTRY}_s", "s", "lower")]
    for name in TIMED:
        specs += [(f"{name}_s", "s", "lower"), (f"{name}.calls", "count", "lower"),
                  (f"{name}.p50_ms", "ms", "lower"), (f"{name}.tail_ms", "ms", "lower"),
                  (f"{name}.tail_pct", "%", "higher")]
    specs += [
        ("simulator.runs", "count", "higher"),
        ("simulator.steps", "count", "higher"),
        ("simulator.us_per_step", "us", "lower"),
        ("trace.rows_written", "count", "higher"),
        ("trace.bytes_written", "B", "lower"),
        ("trace.rows_loaded", "count", "higher"),
        ("nano.samples", "count", "higher"),
        ("nano.defined_frac", "1", "higher"),
        ("registry.compute_calls", "count", "lower"),
        ("registry.distinct_computes", "count", "higher"),
        ("registry.useful_ratio", "1", "higher"),
        ("criteria.verdicts", "count", "higher"),
        ("results.bytes_written", "B", "lower"),
        ("macro.dtw_pairs", "count", "higher"),
        ("macro.dtw_cells", "count", "higher"),
        ("macro.dtw_cells_per_s", "1/s", "higher"),
        ("macro.dtw_peak_mb", "MB", "lower"),
    ]
    specs += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    specs += [("tracing.untraced_traces_per_s", "1/s", "higher"),
              ("tracing.traced_traces_per_s", "1/s", "higher"),
              ("tracing.overhead", "1", "lower")]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_totals(spans) -> dict[str, float]:
    """Per-layer totals of one pass, keyed by metric name."""
    selfs = self_times(spans)
    t: dict[str, float] = defaultdict(float)
    keys = set()
    for span, own in zip(spans, selfs):
        name, attrs = span[0], span[5]
        if name == ROOT:
            t["cli.self_s"] += own
        else:
            t[f"{name}_s"] += own
            t[f"{name}.calls"] += 1
        for key in ("steps", "samples", "defined", "cells"):
            t[f"{name}:{key}"] += attrs.get(key, 0)
        if name == "trace.save":
            t["trace.rows_written"] += attrs["rows"]
            t["trace.bytes_written"] += attrs["bytes"]
        elif name == "trace.load":
            t["trace.rows_loaded"] += attrs["rows"]
        elif name == "results.write_series":
            t["results.bytes_written"] += attrs["bytes"]
        elif name == "macro.dtw":
            t["macro.dtw_peak_mb"] = max(t["macro.dtw_peak_mb"], attrs["peak_bytes"] / 2**20)
        elif name == REGISTRY:
            keys.add(attrs.get("key"))
        if attrs.get("error"):
            t[f"{name.split('.')[0]}.errors"] += 1
    steps = t["simulator.simulate:steps"]
    samples = sum(t[f"nano.{m}:samples"] for m in ("wttc", "ttc", "gap_time"))
    defined = sum(t[f"nano.{m}:defined"] for m in ("wttc", "ttc", "gap_time"))
    t["simulator.runs"] = t["simulator.simulate.calls"]
    t["simulator.steps"] = steps
    t["simulator.us_per_step"] = _ratio(t["simulator.simulate_s"] * 1e6, steps)
    t["nano.samples"] = samples
    t["nano.defined_frac"] = _ratio(defined, samples)
    t["registry.compute_calls"] = t[f"{REGISTRY}.calls"]
    t["registry.distinct_computes"] = len(keys)
    t["registry.useful_ratio"] = _ratio(len(keys), t[f"{REGISTRY}.calls"])
    t["criteria.verdicts"] = t["criteria.evaluate_criterion.calls"]
    t["macro.dtw_pairs"] = t["macro.dtw.calls"]
    t["macro.dtw_cells"] = t["macro.dtw:cells"]
    t["macro.dtw_cells_per_s"] = _ratio(t["macro.dtw:cells"], t["macro.dtw_s"])
    return t


def layer_metrics(per_pass, untraced_tps: float, traced_tps: float) -> dict[str, dict]:
    """Per-layer metrics from the span lists of the traced passes.

    Totals and counts are the median over passes; per-call percentiles
    pool the self times of every call of every pass.
    """
    totals = [_pass_totals(spans) for spans in per_pass]
    per_call = defaultdict(list)
    for spans in per_pass:
        for span, own in zip(spans, self_times(spans)):
            per_call[span[0]].append(own)
    out = {}
    for name, unit, _ in metric_specs():
        base, _, stat = name.rpartition(".")
        if base in TIMED and stat in ("p50_ms", "tail_ms", "tail_pct"):
            q, tail, n = tail_percentile(per_call[base])
            value = {"p50_ms": percentile(per_call[base], 50.0) * 1e3 if n else 0.0,
                     "tail_ms": tail * 1e3, "tail_pct": q}[stat]
        elif name == "tracing.untraced_traces_per_s":
            value = untraced_tps
        elif name == "tracing.traced_traces_per_s":
            value = traced_tps
        elif name == "tracing.overhead":
            value = _ratio(untraced_tps, traced_tps) - 1.0
        else:
            value = median(t[name] for t in totals)
        out[name] = {"value": value, "unit": unit}
    return out
