"""Command line front end.

Subcommands: simulate, evaluate, compare, sweep, report. Every command
computes first, then writes its files into a work directory next to --out
and moves them into --out when it finishes, exit 1 included. Each written
entry (a file, or a whole directory such as traces/) replaces the entry of
the same name; other entries of --out stay. A command that exits 2 leaves
--out untouched. The manifest.json moved in with them lists every file
written, inputs and a config hash; timestamps live only in the manifest so
repeated runs on identical inputs produce byte-identical result files.

Exit codes: 0 all good, 1 at least one criterion failed or drift was
detected, 2 usage or input errors. SCENQ_LOG selects the log level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__, micro, registry
from .criteria import EvaluationReport, Verdict, evaluate_suite, load_criteria
from .errors import ScenqError, SimulationError
from .macro import detect_result_gaps, repeatability_report
from .results import MetricSeries, write_scalars, write_series_batch
from .scenarios import iter_concretize, load_logical_scenario, write_concrete_set
from .simulator import (
    EGO_ID,
    PED_ID,
    SimConfig,
    SimOutcome,
    load_sim_config,
    simulate_batch,
)
from .trace import TraceFormat, load_trace_file, save_traces

log = logging.getLogger("scenq")


def _setup_logging() -> None:
    level = os.environ.get("SCENQ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _hash_files(paths: Sequence[Path]) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.read_bytes())
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@contextmanager
def _output_dir(out: Path, command: str, inputs: Sequence[Path],
                config_paths: Sequence[Path], subdirs: Sequence[str] = ()) -> Iterator[Path]:
    """Yield an empty work directory, with subdirs made, to write a command's files into.

    When the block finishes, manifest.json joins them and the work directory
    becomes out, or, when out is a directory already, each of its entries
    replaces the entry of that name in out. When the block raises, the work
    directory is removed and out is left as it was.
    """
    started = _now()
    out.parent.mkdir(parents=True, exist_ok=True)
    # out.name cut short: mkdtemp's random suffix must fit in one file name too
    scratch = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name[:32]}."))
    work, replaced = scratch / "new", scratch / "old"
    try:
        for path in (work, replaced, *(work / sub for sub in subdirs)):
            path.mkdir()  # not mkdtemp's 0o700: out gets the usual permissions
        yield work
        manifest = {
            "command": command,
            "inputs": [str(p) for p in inputs],
            "config_hash": _hash_files(config_paths),
            "outputs": sorted(p.relative_to(work).as_posix()
                              for p in work.rglob("*") if p.is_file()),
            "tool_version": __version__,
            "started": started,
            "finished": _now(),
        }
        (work / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                            encoding="utf-8")
        if not out.is_dir():
            work.rename(out)
            return
        for entry in sorted(work.iterdir()):
            target = out / entry.name
            if os.path.lexists(target):
                target.rename(replaced / entry.name)
            entry.rename(target)
    except OSError as exc:
        # name a staged file by the place it was meant for
        if isinstance(exc.filename, str) and Path(exc.filename).is_relative_to(work):
            exc.filename = str(out / Path(exc.filename).relative_to(work))
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _safe_name(scenario_id: str) -> str:
    return scenario_id.replace("#", "_").replace("/", "_")


def _collect_trace_paths(raw: Sequence[str]) -> list[Path]:
    paths: list[Path] = []
    for item in raw:
        p = Path(item)
        if p.is_dir():
            found = sorted(
                q for q in p.iterdir()
                if q.suffix in (".csv", ".jsonl") and not q.name.endswith(".meta.json")
            )
            if not found:
                raise ScenqError(f"{p}: no trace files found")
            paths.extend(found)
        elif p.is_file():
            paths.append(p)
        else:
            raise ScenqError(f"{item}: no such file or directory")
    return paths


def _outcome_row(outcome: SimOutcome) -> dict:
    return {
        "scenario_id": outcome.trace.scenario_id,
        "collided": outcome.collided,
        "min_distance": outcome.min_distance,
        "completed": outcome.completed,
        "end_reason": outcome.end_reason,
        "events": dict(outcome.events),
    }


def _simulate_grid(path: str, scenarios: list, config: SimConfig) -> list[SimOutcome]:
    try:
        return simulate_batch(scenarios, config)
    except SimulationError as exc:
        raise SimulationError(f"{path}: {exc}") from None


def cmd_simulate(args: argparse.Namespace) -> int:
    logical = load_logical_scenario(args.scenario)
    config = load_sim_config(args.config)
    fmt = TraceFormat(args.format)
    scenarios = list(iter_concretize(logical))
    outcomes = _simulate_grid(args.scenario, scenarios, config)
    log.info("simulated %d scenarios", len(outcomes))

    inputs = [Path(args.scenario), Path(args.config)]
    with _output_dir(Path(args.out), "simulate", inputs, inputs, ["traces"]) as work:
        traces = [o.trace for o in outcomes]
        names = [f"{_safe_name(t.scenario_id)}.{fmt.value}" for t in traces]
        save_traces(traces, [work / "traces" / name for name in names], fmt)
        write_concrete_set(scenarios, work / "scenarios.jsonl")
        (work / "outcomes.jsonl").write_text(
            "\n".join(json.dumps(_outcome_row(o)) for o in outcomes) + "\n", encoding="utf-8"
        )
    collisions = sum(o.collided for o in outcomes)
    print(f"simulated {len(outcomes)} runs, {collisions} with collisions, "
          f"traces in {Path(args.out) / 'traces'}")
    return 0


def _verdict_dict(v: Verdict) -> dict:
    return {
        "criterion_id": v.criterion_id,
        "scenario_id": v.scenario_id,
        "outcome": v.outcome,
        "score": v.score,
        "evaluated_intervals": [list(i) for i in v.evaluated_intervals],
        "worst_result": None if v.worst_result is None else asdict(v.worst_result),
    }


def _report_dict(report: EvaluationReport) -> dict:
    return {
        "verdicts": [_verdict_dict(v) for v in report.verdicts],
        "cells": [{**asdict(c), "pass_rate": c.pass_rate} for c in report.cells],
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    trace_paths = _collect_trace_paths(args.traces)
    traces = [load_trace_file(p) for p in trace_paths]
    criteria = load_criteria(args.criteria)
    report = evaluate_suite(criteria, traces, perspective=args.perspective, level=args.level)
    del traces  # freed before the files are written, which need only the judged series

    params = {c.criterion_id: c.metric_params for c in criteria}
    plotted = [v for v in report.verdicts
               if args.emit_plot_data and isinstance(v.result, MetricSeries)]
    with _output_dir(Path(args.out), "evaluate", [*trace_paths, Path(args.criteria)],
                     [Path(args.criteria)], ["plot_data"] if args.emit_plot_data else []) as work:
        (work / "evaluation.json").write_text(json.dumps(_report_dict(report), indent=2) + "\n",
                                              encoding="utf-8")
        write_series_batch((v.scenario_id, v.result, work / "plot_data" / (
            f"{_safe_name(v.criterion_id)}_{_safe_name(v.scenario_id)}.csv"
        ), params[v.criterion_id]) for v in plotted)

    fails = sum(v.outcome == "fail" for v in report.verdicts)
    passes = sum(v.outcome == "pass" for v in report.verdicts)
    print(f"{len(report.verdicts)} verdicts: {passes} pass, {fails} fail, "
          f"{sum(v.outcome == 'not_applicable' for v in report.verdicts)} not applicable")
    for cell in report.cells:
        rate = "n/a" if cell.pass_rate is None else f"{cell.pass_rate:.3f}"
        print(f"  [{cell.perspective} x {cell.level}] pass rate {rate}")
    return 1 if report.any_fail else 0


def cmd_compare(args: argparse.Namespace) -> int:
    reference = load_trace_file(Path(args.reference))
    run_paths = _collect_trace_paths(args.runs)
    runs = [load_trace_file(p) for p in run_paths]
    log.info("loaded %d traces (reference + %d runs)", 1 + len(runs), len(runs))
    actor_ids = args.actors.split(",") if args.actors else reference.actor_ids()
    for path, trace in [(Path(args.reference), reference), *zip(run_paths, runs)]:
        for actor in actor_ids:
            if actor not in trace.tracks:
                raise ScenqError(
                    f"{path}: actor {actor!r} missing from run {trace.scenario_id!r}"
                )
    log.info("dtw: %d pairs, %d cells", len(runs) * len(actor_ids), sum(
        len(reference.track(a)) * len(run.track(a)) for run in runs for a in actor_ids))
    report = repeatability_report(reference, runs, actor_ids=actor_ids,
                                  threshold=args.threshold)

    payload = {
        "reference_id": report.reference_id,
        "threshold": report.threshold,
        "entries": [asdict(e) for e in report.entries],
        "all_within": report.all_within,
    }
    with _output_dir(Path(args.out), "compare", [Path(args.reference), *run_paths], []) as work:
        (work / "repeatability.json").write_text(json.dumps(payload, indent=2) + "\n",
                                                 encoding="utf-8")

    drifting = report.drifting()
    for entry in report.entries:
        marker = "ok" if entry.within_threshold else "DRIFT"
        print(f"{entry.run_id} {entry.actor_id}: dtw {entry.dtw_distance:.6g} m "
              f"({entry.per_step:.6g} m/step) {marker}")
    return 1 if drifting else 0


def _finding_text(finding: dict) -> str:
    jump = finding["metric_jump"]
    return "defined/undefined flip" if jump is None else f"jump {jump:.6g}"


#: sweep.csv column -> (registered metric, params) whose minimum it holds
_SWEEP_COLUMNS = {
    "min_euclidean_distance": ("euclidean_distance", {"actor_a": EGO_ID, "actor_b": PED_ID}),
    "min_wttc": ("wttc", {"ego": EGO_ID, "target": PED_ID}),
    "min_gap_time": ("gap_time", {"ego": EGO_ID, "target": PED_ID}),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    logical = load_logical_scenario(args.scenario)
    config = load_sim_config(args.config)
    if len(logical.parameters) != 1:
        raise ScenqError("sweep needs a logical scenario with exactly one varying parameter")
    param = logical.parameters[0]
    outcomes = _simulate_grid(args.scenario, list(iter_concretize(logical)), config)

    rows: list[dict] = []
    for outcome in outcomes:
        trace = outcome.trace
        row = {"value": float(trace.metadata[f"binding_{param.name}"])}
        for col, (metric, params) in _SWEEP_COLUMNS.items():
            row[col] = micro.aggregate(registry.get(metric).compute(trace, params), "min")
        row.update(collided=outcome.collided, end_reason=outcome.end_reason)
        rows.append(row)
    rows.sort(key=lambda r: r["value"])

    findings = {}
    for col in _SWEEP_COLUMNS:
        sweep_points = [(row["value"], row[col]) for row in rows]
        findings[col] = [
            asdict(f)
            for f in detect_result_gaps(sweep_points, gap_factor=args.gap_factor,
                                        parameter=param.name)
        ]

    csv_lines = [param.name + "," + ",".join(_SWEEP_COLUMNS) + ",collided,end_reason"]
    for row in rows:
        cells = [repr(float(row["value"]))]
        for col in _SWEEP_COLUMNS:
            scalar = row[col]
            cells.append(repr(float(scalar.value)) if scalar.defined else "")
        cells.append("true" if row["collided"] else "false")
        cells.append(row["end_reason"])
        csv_lines.append(",".join(cells))
    scalar_rows = []
    for row in rows:
        for col in _SWEEP_COLUMNS:
            scalar_rows.append((f"{param.name}={row['value']!r}", row[col]))
    inputs = [Path(args.scenario), Path(args.config)]
    with _output_dir(Path(args.out), "sweep", inputs, inputs) as work:
        (work / "sweep.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        (work / "gap_findings.json").write_text(json.dumps(findings, indent=2) + "\n",
                                                encoding="utf-8")
        write_scalars(scalar_rows, work / "sweep_scalars.jsonl")

    total_findings = sum(len(v) for v in findings.values())
    print(f"swept {param.name} over {len(rows)} values, "
          f"{total_findings} gap findings ({Path(args.out) / 'gap_findings.json'})")
    for col, items in findings.items():
        for f in items:
            print(f"  {col}: {param.name} in [{f['left_value']!r}, {f['right_value']!r}] "
                  f"{_finding_text(f)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ScenqError(f"{run_dir}: not a directory")
    sections: list[str] = ["# scenq run report", ""]
    found = False
    evaluation = run_dir / "evaluation.json"
    if evaluation.is_file():
        found = True
        data = json.loads(evaluation.read_text(encoding="utf-8"))
        sections.append("## criteria")
        sections.append("")
        sections.append("| perspective | level | pass | fail | score | n/a | pass rate |")
        sections.append("|---|---|---|---|---|---|---|")
        for cell in data["cells"]:
            rate = "n/a" if cell["pass_rate"] is None else f"{cell['pass_rate']:.3f}"
            sections.append(
                f"| {cell['perspective']} | {cell['level']} | {cell['passes']} "
                f"| {cell['fails']} | {cell['scores']} | {cell['not_applicable']} | {rate} |"
            )
        fails = [v for v in data["verdicts"] if v["outcome"] == "fail"]
        if fails:
            sections.append("")
            sections.append("### failed")
            for v in fails:
                worst = v.get("worst_result") or {}
                sections.append(
                    f"- {v['criterion_id']} on {v['scenario_id']}: worst value "
                    f"{worst.get('value')} {worst.get('unit', '')}"
                )
        sections.append("")
    repeatability = run_dir / "repeatability.json"
    if repeatability.is_file():
        found = True
        data = json.loads(repeatability.read_text(encoding="utf-8"))
        sections.append("## repeatability")
        sections.append("")
        sections.append(f"reference: {data['reference_id']}, threshold {data['threshold']} m")
        for entry in data["entries"]:
            marker = "ok" if entry["within_threshold"] else "DRIFT"
            sections.append(
                f"- {entry['run_id']} {entry['actor_id']}: {entry['dtw_distance']:.6g} m {marker}"
            )
        sections.append("")
    gap_findings = run_dir / "gap_findings.json"
    if gap_findings.is_file():
        found = True
        data = json.loads(gap_findings.read_text(encoding="utf-8"))
        sections.append("## sweep gap findings")
        sections.append("")
        for metric, items in data.items():
            for f in items:
                sections.append(
                    f"- {metric}: [{f['left_value']!r}, {f['right_value']!r}] {_finding_text(f)}"
                )
        sections.append("")
    if not found:
        raise ScenqError(f"{run_dir}: no evaluation.json, repeatability.json or "
                         "gap_findings.json to report on")
    with _output_dir(Path(args.out), "report", [run_dir], []) as work:
        (work / "report.md").write_text("\n".join(sections), encoding="utf-8")
    print(f"report written to {Path(args.out) / 'report.md'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenq",
        description="quality metrics for simulation-based driving tests",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="expand a logical scenario and simulate every run")
    p_sim.add_argument("--scenario", required=True, help="logical scenario JSON")
    p_sim.add_argument("--config", required=True, help="simulator config JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sim.add_argument("--jobs", type=int,
                       help="ignored: runs step together; kept while the benchmark passes it")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="judge traces against a criteria suite")
    p_eval.add_argument("--traces", required=True, nargs="+",
                        help="trace files or directories")
    p_eval.add_argument("--criteria", required=True, help="criteria suite JSON")
    p_eval.add_argument("--perspective", choices=("simulation", "sut", "scenario"))
    p_eval.add_argument("--level", choices=("nanoscopic", "microscopic", "macroscopic"))
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--emit-plot-data", action="store_true",
                        help="also write per-timestep metric series as CSV")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="measure repeatability against a reference trace")
    p_cmp.add_argument("--reference", required=True)
    p_cmp.add_argument("--runs", required=True, nargs="+")
    p_cmp.add_argument("--threshold", type=float, default=10.0,
                       help="dtw drift threshold in meters")
    p_cmp.add_argument("--actors", help="comma separated actor ids (default: all)")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="simulate a 1-parameter sweep and flag result gaps")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--gap-factor", type=float, default=5.0)
    p_sweep.add_argument("--jobs", type=int,
                         help="ignored: runs step together; kept while the benchmark passes it")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="summarize a run directory as markdown")
    p_rep.add_argument("--run", required=True, help="directory with command outputs")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
