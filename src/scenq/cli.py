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

from . import __version__, registry
from .criteria import EvaluationReport, Verdict, evaluate_suite, load_criteria
from .errors import CriterionError, ScenqError, SimulationError, in_file
from .macro import repeatability_report
from .results import safe_name, write_series_batch, write_series_meta
from .scenarios import iter_concretize, load_logical_scenario, write_concrete_set
from .simulator import SimOutcome, iter_simulate, load_sim_config
from .trace import FloatTexts, Trace, load_trace_file, save_trace

try:  # the builtin sha256, as random.py takes it: hashlib maps OpenSSL, about 3.5 MB
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

log = logging.getLogger("scenq")

#: the criteria sweep judges: the minima of the ego-pedestrian distance, wttc and gap time
SWEEP_CRITERIA = Path(__file__).parent / "data" / "sweep_criteria.json"


def _setup_logging() -> None:
    level = os.environ.get("SCENQ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _hash_files(paths: Sequence[Path]) -> str:
    digest = sha256()
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


def _say(line: str) -> None:
    """Print one line of a command's summary. --out is complete by then, so a
    reader that closed stdout loses the rest of the summary, not the exit code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w", encoding="utf-8")  # for the flush at exit too


def _collect_trace_paths(raw: Sequence[str]) -> list[Path]:
    """The trace files named, or held by the directories named; each file once."""
    paths: dict[Path, Path] = {}  # by resolved path
    for item in raw:
        p = Path(item)
        if p.is_dir():
            found = sorted(q for q in p.iterdir() if q.suffix == ".csv" and q.is_file())
            if not found:
                raise ScenqError(f"{p}: no trace files found")
        elif p.is_file():
            found = [p]
        else:
            raise ScenqError(f"{item}: no such file or directory")
        for q in found:
            if paths.setdefault(q.resolve(), q) is not q:
                raise ScenqError(f"{q}: trace file is listed twice")
    return list(paths.values())


def _outcome_row(outcome: SimOutcome) -> dict:
    return {
        "scenario_id": outcome.trace.scenario_id,
        "collided": outcome.collided,
        "min_distance": outcome.min_distance,
        "completed": outcome.completed,
        "end_reason": outcome.end_reason,
        "events": dict(outcome.events),
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    logical = load_logical_scenario(args.scenario)
    config = load_sim_config(args.config)
    scenarios = list(iter_concretize(logical))
    with in_file(args.scenario, SimulationError):
        runs = iter_simulate(scenarios, config)
    rows: dict[int, dict] = {}
    float_texts = FloatTexts()  # for all traces: a run's values mostly repeat the last's
    inputs = [Path(args.scenario), Path(args.config)]
    with _output_dir(Path(args.out), "simulate", inputs, inputs, ["traces"]) as work:
        for i, outcome in runs:  # each trace is written as its run ends, then freed
            rows[i] = _outcome_row(outcome)
            path = work / "traces" / f"{safe_name(outcome.trace.scenario_id)}.csv"
            save_trace(outcome.trace, path, float_texts)
        write_concrete_set(scenarios, work / "scenarios.jsonl")
        (work / "outcomes.jsonl").write_text(
            "\n".join(json.dumps(rows[i]) for i in sorted(rows)) + "\n", encoding="utf-8"
        )
    log.info("simulated %d scenarios", len(rows))
    collisions = sum(row["collided"] for row in rows.values())
    _say(f"simulated {len(rows)} runs, {collisions} with collisions, "
         f"traces in {Path(args.out) / 'traces'}")
    return 0


def _verdict_dict(v: Verdict) -> dict:
    worst = v.worst_result  # its fields as asdict orders them, without asdict's deep copy
    return {
        "criterion_id": v.criterion_id,
        "scenario_id": v.scenario_id,
        "outcome": v.outcome,
        "score": v.score,
        "evaluated_intervals": [list(i) for i in v.evaluated_intervals],
        "worst_result": None if worst is None else {
            "time": worst.time, "value": worst.value, "unit": worst.unit, "defined": worst.defined},
    }


def _plot_file(criterion_id: str, scenario_id: str) -> str:
    return f"{safe_name(criterion_id)}_{safe_name(scenario_id)}.csv"


def _report_dict(report: EvaluationReport) -> dict:
    return {
        "verdicts": [_verdict_dict(v) for v in report.verdicts],
        "cells": [{**asdict(c), "pass_rate": c.pass_rate} for c in report.cells],
        "gap_findings": report.gap_findings,
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    criteria = [c for c in load_criteria(args.criteria)
                if args.perspective in (None, c.perspective) and args.level in (None, c.level)]
    if not criteria:
        raise ScenqError(f"{args.criteria}: no criterion of perspective "
                         f"{args.perspective or 'any'} and level {args.level or 'any'}")
    trace_paths = _collect_trace_paths(args.traces)
    plotted = [(c, registry.get(c.metric_name)) for c in criteria
               if args.emit_plot_data and c.level == registry.NANOSCOPIC]
    pairs: dict[str, tuple[str, Path]] = {}  # each plot file's first (criterion id, trace file)
    judging: list = []  # the trace file and scenario id evaluate_suite is judging
    float_texts = FloatTexts()  # for all plot files: a trace's times mostly repeat the last's

    def traces(folder: Path) -> Iterator[Trace]:
        for path in trace_paths:  # each trace is loaded, checked, judged, plotted and let go
            trace = load_trace_file(path)
            for cid in (criterion.criterion_id for criterion in criteria):
                first = pairs.setdefault(name := _plot_file(cid, trace.scenario_id), (cid, path))
                if first != (cid, path):  # two scenario ids clash first, under the first criterion
                    raise ScenqError(f"{path}: scenario id {trace.scenario_id!r} names the plot "
                                     f"files of {first[1]} too" if first[0] == cid else
                                     f"{path}: criterion {cid!r} names the plot file {name} of "
                                     f"criterion {first[0]!r} on {first[1]} too")
            judging[:] = path, trace.scenario_id
            yield trace  # judged: the series judged are kept with it (registry.compute)
            if plotted:
                files = [(registry.compute(spec, trace, c.metric_params), c) for c, spec in plotted]
                write_series_batch([(series, folder / _plot_file(c.criterion_id, trace.scenario_id))
                                    for series, c in files], float_texts)
                for series, c in files if path is trace_paths[0] else ():  # one per criterion
                    write_series_meta(series, folder / f"{safe_name(c.criterion_id)}.meta.json",
                                      c.metric_params)
                files = series = None  # a series shares its trace's arrays: let both go
        judging.clear()  # the set-level criteria are judged after the last trace

    with _output_dir(Path(args.out), "evaluate", [*trace_paths, Path(args.criteria)],
                     [Path(args.criteria)], ["plot_data"] if args.emit_plot_data else []) as work:
        try:
            report = evaluate_suite(criteria, traces(work / "plot_data"))
        except CriterionError as exc:  # raised on a trace: name its file, not its scenario id
            if judging:
                exc.args = (f"{judging[0]}: {str(exc).removeprefix(f'{judging[1]}: ')}",)
            raise
        with (work / "evaluation.json").open("w", encoding="utf-8") as file:
            json.dump(_report_dict(report), file, indent=2)  # a chunk at a time, never one text
            file.write("\n")

    fails = sum(v.outcome == "fail" for v in report.verdicts)
    passes = sum(v.outcome == "pass" for v in report.verdicts)
    _say(f"{len(report.verdicts)} verdicts: {passes} pass, {fails} fail, "
         f"{sum(v.outcome == 'not_applicable' for v in report.verdicts)} not applicable")
    for cell in report.cells:
        rate = "n/a" if cell.pass_rate is None else f"{cell.pass_rate:.3f}"
        _say(f"  [{cell.perspective} x {cell.level}] pass rate {rate}")
    return 1 if report.any_fail else 0


def cmd_compare(args: argparse.Namespace) -> int:
    reference = load_trace_file(Path(args.reference))
    # the reference is no run of its own, also where --runs holds it
    skipped = Path(args.reference).resolve()
    run_paths = [p for p in _collect_trace_paths(args.runs) if p.resolve() != skipped]
    if not run_paths:
        raise ScenqError(f"{args.reference}: no run to compare but the reference")
    actor_ids = args.actors.split(",") if args.actors else reference.actor_ids()
    cells = []  # per run, the cells of its dtw pairs

    def checked(path: Path, trace: Trace) -> Trace:
        for actor in actor_ids:
            if actor not in trace.tracks:
                raise ScenqError(f"{path}: actor {actor!r} missing from run {trace.scenario_id!r}")
        return trace

    def runs() -> Iterator[Trace]:
        # in --runs order, one at a time; a run stays bound until the next has loaded,
        # as freed first its pages would go back to the system and fault in again
        for path in run_paths:
            run = checked(path, load_trace_file(path))
            cells.append(sum(len(reference.track(a)) * len(run.track(a)) for a in actor_ids))
            yield run

    report = repeatability_report(checked(Path(args.reference), reference), runs(),
                                  actor_ids=actor_ids, threshold=args.threshold)
    log.info("loaded %d traces (reference + %d runs)", 1 + len(run_paths), len(run_paths))
    log.info("dtw: %d pairs, %d cells", len(run_paths) * len(actor_ids), sum(cells))

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
        _say(f"{entry.run_id} {entry.actor_id}: dtw {entry.dtw_distance:.6g} m "
             f"({entry.per_step:.6g} m/step) {marker}")
    return 1 if drifting else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = list(iter_concretize(load_logical_scenario(args.scenario)))
    config = load_sim_config(args.config)
    with in_file(args.scenario, SimulationError):
        runs = iter_simulate(scenarios, config)
    report = evaluate_suite(load_criteria(SWEEP_CRITERIA), (o.trace for _, o in runs))
    inputs = [Path(args.scenario), Path(args.config)]
    with _output_dir(Path(args.out), "sweep", inputs, inputs) as work:
        (work / "gap_findings.json").write_text(json.dumps(report.gap_findings, indent=2) + "\n",
                                                encoding="utf-8")
    _say(f"swept {len(scenarios)} runs, gap findings in {Path(args.out) / 'gap_findings.json'}")
    for line in _gap_findings_section(report.gap_findings)[2:]:
        _say(f"  {line}")
    return 0


def _criteria_section(data: dict) -> list[str]:
    lines = ["## criteria", "", "| perspective | level | pass | fail | score | n/a | pass rate |",
             "|---|---|---|---|---|---|---|"]
    for cell in data["cells"]:
        rate = "n/a" if cell["pass_rate"] is None else f"{cell['pass_rate']:.3f}"
        lines.append(
            f"| {cell['perspective']} | {cell['level']} | {cell['passes']} "
            f"| {cell['fails']} | {cell['scores']} | {cell['not_applicable']} | {rate} |"
        )
    fails = [v for v in data["verdicts"] if v["outcome"] == "fail"]
    if fails:
        lines += ["", "### failed"]
        for v in fails:
            worst = v.get("worst_result") or {}
            lines.append(
                f"- {v['criterion_id']} on {v['scenario_id']}: worst value "
                f"{worst.get('value')} {worst.get('unit', '')}"
            )
    return lines + [""] + _gap_findings_section(data.get("gap_findings", {}))


def _repeatability_section(data: dict) -> list[str]:
    lines = ["## repeatability", "",
             f"reference: {data['reference_id']}, threshold {data['threshold']} m"]
    for entry in data["entries"]:
        marker = "ok" if entry["within_threshold"] else "DRIFT"
        lines.append(
            f"- {entry['run_id']} {entry['actor_id']}: {entry['dtw_distance']:.6g} m {marker}"
        )
    return lines


def _gap_findings_section(data: dict) -> list[str]:
    lines = ["## gap findings", ""]
    for criterion, axes in data.items():
        for parameter, axis in axes.items():
            lines.append(f"- {criterion} along {parameter}: {axis['lines']} lines judged, "
                         f"{axis['skipped']} skipped")
            lines += [f"  - [{f['left_value']!r}, {f['right_value']!r}] in {f['logical_id']} at "
                      + ", ".join(f"{k}={v!r}" for k, v in f["held"].items()) + ": "
                      + ("defined/undefined flip" if f["metric_jump"] is None
                         else f"jump {f['metric_jump']:.6g}") for f in axis["findings"]]
    return lines


#: file a command writes -> the report section built from it, in report order
_REPORT_SECTIONS = {
    "evaluation.json": _criteria_section,
    "repeatability.json": _repeatability_section,
    "gap_findings.json": _gap_findings_section,
}


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ScenqError(f"{run_dir}: not a directory")
    found = [run_dir / name for name in _REPORT_SECTIONS if (run_dir / name).is_file()]
    if not found:
        raise ScenqError(f"{run_dir}: no evaluation.json, repeatability.json or "
                         "gap_findings.json to report on")
    sections: list[str] = ["# scenq run report", ""]
    for path in found:
        with in_file(path, ScenqError):
            data = json.loads(path.read_text(encoding="utf-8"))
            try:
                sections += _REPORT_SECTIONS[path.name](data) + [""]
            except KeyError as exc:
                raise ScenqError(f"missing key {exc.args[0]!r}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise ScenqError(f"unexpected content ({exc})") from None
    with _output_dir(Path(args.out), "report", [run_dir], []) as work:
        (work / "report.md").write_text("\n".join(sections), encoding="utf-8")
    _say(f"report written to {Path(args.out) / 'report.md'}")
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
    p_sim.add_argument("--format", choices=("csv",), default="csv",
                       help="ignored: traces are CSV; kept while the benchmark passes it")
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

    p_sweep = sub.add_parser("sweep", help="simulate a scenario grid and flag result gaps")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--config", required=True)
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
    except (ScenqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
