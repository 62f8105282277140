"""Output checks for one benchmark pass.

    python3 perfbench/check.py --spec PASS_JSON --out PASS_DIR

Prints one JSON object: ``problems`` (empty when the outputs are right)
and ``expected_rc``, the exit code the outputs imply. The checks hold for
any seed and recompute what they can independently of scenq; they do not
pin values that open fixes are expected to change (the WTTC scan, the
touching-disc collision predicate).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from scenq import registry
from scenq.scenarios import iter_concretize, load_logical_scenario
from scenq.simulator import load_sim_config, simulate
from scenq.trace import load_trace_file, write_trace

REL_TOL = 1e-9
#: Distances this close to the radius sum may fall either side of "touching".
TOUCH_TOL = 1e-9
# scenq.nano's floor, restated so the check does not take it from the code it checks
CLOSING_SPEED_FLOOR = 1e-6
TRACK_FIELDS = ("times", "xs", "ys", "headings", "speeds", "accels")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def _file_name(scenario_id: str) -> str:
    return scenario_id.replace("#", "_").replace("/", "_")


def _contact(trace) -> bool | None:
    """Whether two actor discs touch or overlap, None when within TOUCH_TOL."""
    ego, ped = trace.track("ego"), trace.track("pedestrian")
    gap = np.hypot(ego.xs - ped.xs, ego.ys - ped.ys).min() - (ego.radius + ped.radius)
    if abs(gap) <= TOUCH_TOL:
        return None
    return bool(gap < 0)


def dtw_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance of two (n, 2) point arrays, one row at a time in O(m) memory.

    Within a row, the horizontal chain ``row[j] = min(c[j], row[j-1] + d[j])``
    is a min-plus prefix scan, done by doubling strides so that only sums
    of non-negative distances are formed (no cancellation).
    """
    m = len(b)
    row = np.cumsum(np.hypot(a[0, 0] - b[:, 0], a[0, 1] - b[:, 1]))
    for i in range(1, len(a)):
        d = np.hypot(a[i, 0] - b[:, 0], a[i, 1] - b[:, 1])
        val = d.copy()
        val[0] += row[0]
        val[1:] += np.minimum(row[1:], row[:-1])
        span = d
        s = 1
        while s < m:
            np.minimum(val[s:], val[:-s] + span[s:], out=val[s:])
            span = np.concatenate((span[:s], span[s:] + span[:-s]))
            s *= 2
        row = val
    return float(row[-1])


def ttc_series(trace) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity time to collision of ego and pedestrian, plain numpy."""
    e, t = trace.track("ego"), trace.track("pedestrian")
    dx, dy = t.xs - e.xs, t.ys - e.ys
    dvx = t.speeds * np.cos(t.headings) - e.speeds * np.cos(e.headings)
    dvy = t.speeds * np.sin(t.headings) - e.speeds * np.sin(e.headings)
    dist = np.hypot(dx, dy)
    with np.errstate(invalid="ignore", divide="ignore"):
        closing = -(dx * dvx + dy * dvy) / dist
    gap = dist - (e.radius + t.radius)
    defined = (closing > CLOSING_SPEED_FLOOR) & (gap > 0.0)
    values = np.where(defined, gap / np.where(defined, closing, 1.0), 0.0)
    return values, defined


def _read_series(path: Path) -> tuple[list[float], list[bool]]:
    with path.open(encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    return ([float(r["value"]) if r["defined"] == "true" else 0.0 for r in rows],
            [r["defined"] == "true" for r in rows])


def check_simulate(spec: dict, out: Path, problems: list[str]) -> int:
    cells = list(iter_concretize(load_logical_scenario(spec["scenario"])))
    names = {_file_name(c.scenario_id) + ".csv" for c in cells}
    found = {p.name for p in (out / "traces").glob("*.csv")}
    if found != names:
        problems.append(f"trace files {sorted(found ^ names)[:3]} differ from the grid")
        return 0
    rows = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
    scenarios = [json.loads(line) for line in (out / "scenarios.jsonl").read_text().splitlines()]
    if [r["scenario_id"] for r in rows] != [c.scenario_id for c in cells]:
        problems.append("outcomes.jsonl does not list the grid in order")
        return 0
    if [s["bindings"] for s in scenarios] != [dict(c.bindings) for c in cells]:
        problems.append("scenarios.jsonl bindings differ from the grid")
    config = load_sim_config(spec["config"])
    for cell, row in zip(cells, rows):
        sid = row["scenario_id"]
        path = out / "traces" / (_file_name(sid) + ".csv")
        text = path.read_text(encoding="utf-8")
        trace = load_trace_file(path)
        if write_trace(trace, "csv") != text:
            problems.append(f"{sid}: CSV does not round-trip")
        simulated = simulate(cell, config).trace
        if any(not np.array_equal(getattr(trace.track(a), field), getattr(track, field))
               for a, track in simulated.tracks.items() for field in TRACK_FIELDS):
            problems.append(f"{sid}: CSV differs from a fresh simulation of its cell")
        samples = len(trace.track("ego"))
        if samples != round(row["events"]["scenario_end"] / trace.time_step) + 1:
            problems.append(f"{sid}: {samples} samples but scenario_end "
                            f"{row['events']['scenario_end']}")
        contact = _contact(trace)
        if contact is not None and contact != row["collided"]:
            problems.append(f"{sid}: collided={row['collided']} but discs say {contact}")
        if row["collided"] != (row["end_reason"] == "collision"):
            problems.append(f"{sid}: collided={row['collided']} with end {row['end_reason']}")
    return 0


def check_evaluate(spec: dict, out: Path, problems: list[str]) -> int:
    criteria = json.loads(Path(spec["criteria"]).read_text(encoding="utf-8"))["criteria"]
    traces = {t.scenario_id: t for t in map(load_trace_file,
                                            sorted(Path(spec["trace_dir"]).glob("*.csv")))}
    levels = {c["criterion_id"]: registry.get(c["metric"]).level for c in criteria}
    per_trace = [c for c in criteria if levels[c["criterion_id"]] != registry.MACROSCOPIC]
    verdicts = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))["verdicts"]
    expected = len(per_trace) * len(traces) + len(criteria) - len(per_trace)
    if len(verdicts) != expected:
        problems.append(f"{len(verdicts)} verdicts, expected {expected}")
    ttc = {sid: ttc_series(trace) for sid, trace in traces.items()}
    for v in verdicts:
        if v["criterion_id"] == "ttc_floor":
            values, defined = ttc[v["scenario_id"]]
            if not defined.any():
                if v["outcome"] != "not_applicable":
                    problems.append(f"ttc_floor {v['scenario_id']}: no defined ttc")
                continue
            worst = float(values[defined].min())
            if v["worst_result"] is None or not _close(v["worst_result"]["value"], worst):
                problems.append(f"ttc_floor {v['scenario_id']}: worst {v['worst_result']}, "
                                f"recomputed {worst!r}")
            if v["outcome"] != ("pass" if worst > 1.0 else "fail"):
                problems.append(f"ttc_floor {v['scenario_id']}: outcome {v['outcome']}")
        elif v["criterion_id"] == "collision_rate":
            contacts = [_contact(t) for t in traces.values()]
            if None not in contacts:
                rate = sum(contacts) / len(contacts)
                if not _close(v["worst_result"]["value"], rate):
                    problems.append(f"collision_rate {v['worst_result']['value']}, "
                                    f"recomputed {rate}")
    nano = [c for c in per_trace if levels[c["criterion_id"]] == registry.NANOSCOPIC]
    for c in nano:
        for sid, trace in traces.items():
            path = out / "plot_data" / f"{c['criterion_id']}_{_file_name(sid)}.csv"
            if not path.is_file():
                problems.append(f"missing plot data {path.name}")
                continue
            values, defined = _read_series(path)
            if len(values) != len(trace.track("ego")):
                problems.append(f"{path.name}: {len(values)} rows")
            elif c["metric"] == "ttc":
                want_values, want_defined = ttc[sid]
                if defined != want_defined.tolist() or not all(
                        _close(a, b) for a, b in zip(values, want_values.tolist())):
                    problems.append(f"{path.name}: ttc differs from the recomputation")
    return 1 if any(v["outcome"] == "fail" for v in verdicts) else 0


def check_compare(spec: dict, out: Path, problems: list[str]) -> int:
    reference = load_trace_file(spec["reference"])
    runs = [load_trace_file(p) for p in spec["runs"]]
    report = json.loads((out / "repeatability.json").read_text(encoding="utf-8"))
    entries = report["entries"]
    pairs = [(run, actor) for run in runs for actor in spec["actors"]]
    if [(e["run_id"], e["actor_id"]) for e in entries] != [
            (run.scenario_id, actor) for run, actor in pairs]:
        problems.append("repeatability entries do not follow the runs")
        return 0
    threshold = spec["threshold"]
    if report["threshold"] != threshold:
        problems.append(f"threshold {report['threshold']} != {threshold}")
    for e, (run, actor) in zip(entries, pairs):
        ref_track = reference.track(actor)
        want = dtw_oracle(ref_track.points, run.track(actor).points)
        if not _close(e["dtw_distance"], want):
            problems.append(f"{e['run_id']}: dtw {e['dtw_distance']!r}, oracle {want!r}")
        if not _close(e["per_step"], e["dtw_distance"] / len(ref_track)):
            problems.append(f"{e['run_id']}: per_step {e['per_step']!r}")
        if e["within_threshold"] != (e["dtw_distance"] <= threshold):
            problems.append(f"{e['run_id']}: drift flag disagrees with the threshold")
    within = [e["within_threshold"] for e in entries]
    if report["all_within"] != all(within):
        problems.append("all_within disagrees with the entries")
    return 0 if all(within) else 1


CHECKS = {"grid_simulate": check_simulate, "grid_evaluate": check_evaluate,
          "repeat_compare": check_compare}


def check(spec: dict, out: Path) -> dict:
    problems: list[str] = []
    try:
        expected_rc = CHECKS[spec["workload"]](spec, out, problems)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        expected_rc = None
    return {"problems": problems, "expected_rc": expected_rc}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    print(json.dumps(check(spec, Path(args.out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
