"""Seeded inputs for the benchmark workloads.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes every file one workload's timed pass reads into DIR, plus
``pass.json``: the scenq argv of one pass (``{out}`` stands for the pass's
output directory), the number of traces a pass processes, and what the
output checks need. The same seed gives byte-identical files.

Workloads (why each exists is recorded in BENCHMARK.json):

* grid_simulate: ``scenq simulate --format csv`` on a 48-run sub-grid of
  the bundled intersection scenario.
* grid_evaluate: ``scenq evaluate --emit-plot-data`` of a fixed criteria
  suite over the traces of an 8-run sub-grid, simulated here.
* repeat_compare: ``scenq compare`` of one reference trace against four
  re-recordings of the same concrete scenario with perturbed bindings and
  time steps.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from scenq.cli import main as scenq_main
from scenq.scenarios import grid_size, logical_from_dict

DATA = Path("src/scenq/data")
SCENARIO = DATA / "intersection_scenario.json"
CONFIG = DATA / "intersection_config.json"

# Sub-grids as (start, step, count) index progressions over the bundled
# v_max, t_cross and d_start ranges; d_start always starts at its minimum,
# where the fast runs collide. Each candidate mixes collisions, braking
# stops and runs that brake without stopping, and its mean trace length is
# within 0.5% of the others in its list (1450 samples for the 48-run
# grids, 1405 for the 8-run grids), so every seed asks for the same work.
SIMULATE_SUBGRIDS = (
    ((0, 1, 12), (0, 1, 1), (0, 2, 4)), ((0, 1, 12), (0, 4, 2), (0, 3, 2)),
    ((0, 1, 12), (2, 1, 2), (0, 5, 2)), ((0, 2, 6), (0, 1, 4), (0, 4, 2)),
    ((0, 2, 8), (0, 4, 2), (0, 2, 3)), ((0, 2, 8), (1, 2, 2), (0, 2, 3)),
    ((1, 1, 12), (0, 1, 1), (0, 1, 4)), ((2, 1, 8), (2, 1, 3), (0, 4, 2)),
    ((2, 2, 6), (1, 2, 2), (0, 2, 4)), ((2, 4, 4), (1, 1, 3), (0, 1, 4)),
    ((2, 6, 3), (0, 1, 4), (0, 1, 4)), ((3, 1, 8), (2, 1, 2), (0, 2, 3)),
    ((3, 2, 6), (1, 3, 2), (0, 2, 4)), ((3, 3, 4), (0, 2, 2), (0, 1, 6)),
    ((3, 3, 4), (1, 1, 3), (0, 1, 4)), ((3, 5, 3), (1, 1, 4), (0, 2, 4)),
    ((4, 1, 6), (1, 3, 2), (0, 2, 4)), ((4, 2, 4), (1, 1, 3), (0, 1, 4)),
    ((4, 3, 3), (1, 1, 4), (0, 2, 4)), ((4, 4, 3), (0, 2, 2), (0, 1, 8)),
    ((5, 1, 3), (1, 1, 4), (0, 2, 4)), ((5, 2, 3), (1, 1, 4), (0, 2, 4)),
    ((6, 1, 2), (0, 2, 3), (0, 1, 8)), ((6, 1, 4), (1, 3, 2), (0, 1, 6)),
    ((6, 2, 4), (3, 1, 2), (0, 1, 6)), ((6, 3, 2), (1, 1, 4), (0, 1, 6)),
    ((6, 4, 2), (0, 2, 3), (0, 1, 8)), ((7, 1, 3), (1, 3, 2), (0, 1, 8)),
    ((7, 1, 4), (2, 2, 2), (0, 1, 6)), ((7, 3, 3), (2, 2, 2), (0, 1, 8)),
    ((8, 1, 3), (1, 3, 2), (0, 1, 8)), ((8, 2, 3), (2, 2, 2), (0, 1, 8)),
)
EVALUATE_SUBGRIDS = (
    ((0, 3, 4), (1, 1, 1), (0, 5, 2)), ((0, 12, 2), (0, 1, 2), (0, 7, 2)),
    ((1, 4, 4), (2, 1, 1), (0, 4, 2)), ((1, 7, 2), (0, 3, 2), (0, 5, 2)),
    ((1, 12, 2), (0, 1, 2), (0, 1, 2)), ((1, 13, 2), (1, 1, 2), (0, 6, 2)),
    ((2, 4, 2), (1, 1, 2), (0, 7, 2)), ((2, 6, 2), (0, 1, 2), (0, 1, 2)),
    ((2, 7, 2), (0, 1, 2), (0, 1, 2)), ((2, 8, 2), (0, 2, 2), (0, 3, 2)),
    ((2, 9, 2), (0, 2, 2), (0, 3, 2)), ((2, 10, 2), (0, 4, 2), (0, 6, 2)),
    ((2, 10, 2), (1, 2, 2), (0, 7, 2)), ((2, 11, 2), (1, 1, 2), (0, 3, 2)),
    ((2, 12, 2), (0, 4, 2), (0, 4, 2)), ((3, 3, 2), (0, 4, 2), (0, 6, 2)),
    ((3, 6, 2), (0, 3, 2), (0, 2, 2)), ((3, 6, 2), (1, 1, 2), (0, 5, 2)),
    ((3, 7, 2), (1, 2, 2), (0, 2, 2)), ((3, 8, 2), (1, 2, 2), (0, 4, 2)),
    ((3, 9, 2), (1, 3, 2), (0, 5, 2)), ((3, 9, 2), (2, 1, 2), (0, 7, 2)),
    ((3, 11, 2), (2, 2, 2), (0, 3, 2)), ((4, 1, 4), (3, 1, 1), (0, 7, 2)),
    ((4, 2, 2), (1, 3, 2), (0, 7, 2)), ((4, 3, 2), (2, 2, 2), (0, 5, 2)),
    ((4, 4, 2), (3, 1, 2), (0, 7, 2)), ((4, 5, 2), (2, 1, 2), (0, 4, 2)),
    ((4, 7, 2), (2, 2, 2), (0, 7, 2)), ((4, 9, 2), (3, 1, 2), (0, 7, 2)),
    ((5, 2, 2), (1, 3, 2), (0, 3, 2)), ((5, 5, 2), (3, 1, 2), (0, 3, 2)),
)

# Criteria suite of grid_evaluate: ttc twice (threshold, and a scale gated
# "while braking"), wttc, gap_time from pedestrian start until the ego has
# passed the conflict, pet, et and collision_probability.
PAIR = {"ego": "ego", "target": "pedestrian"}
CRITERIA = [
    {"criterion_id": "ttc_floor", "metric": "ttc", "params": PAIR,
     "threshold": {"comparator": ">", "value": 1.0, "unit": "s"}},
    {"criterion_id": "ttc_while_braking", "metric": "ttc", "params": PAIR,
     "scale": {"breakpoints": [[0.5, 0.25], [1.0, 0.5], [2.0, 1.0]], "unit": "s"},
     "application_period": {"start_condition": {
         "signal": "acceleration", "actor": "ego", "comparator": "<", "bound": -0.5,
         "unit": "m/s^2"}}},
    {"criterion_id": "wttc_floor", "metric": "wttc", "params": PAIR,
     "threshold": {"comparator": ">", "value": 0.5, "unit": "s"}},
    {"criterion_id": "gap_while_crossing", "metric": "gap_time", "params": PAIR,
     "threshold": {"comparator": ">", "value": 1.0, "unit": "s"},
     "application_period": {
         "start_condition": {"signal": "speed", "actor": "pedestrian", "comparator": ">",
                             "bound": 0.0, "unit": "m/s"},
         "stop": {"kind": "event", "event": "actor_passed_conflict", "actor": "ego"}}},
    {"criterion_id": "pet_margin", "metric": "pet", "perspective": "scenario",
     "params": {"actor_1": "ego", "actor_2": "pedestrian"},
     "threshold": {"comparator": ">", "value": 1.0, "unit": "s"}},
    {"criterion_id": "et_exposure", "metric": "et", "perspective": "scenario",
     "params": {"actor": "ego", "other": "pedestrian"},
     "threshold": {"comparator": "<", "value": 3.0, "unit": "s"}},
    {"criterion_id": "collision_rate", "metric": "collision_probability",
     "perspective": "simulation", "threshold": {"comparator": "<=", "value": 0.1, "unit": "1"}},
]

# repeat_compare: the reference is one braking-stop run of about 2.2k samples.
REFERENCE = {"v_max": 30.0, "t_cross": 9.0, "d_start": 16.0}
# Re-recording 0 keeps the reference bindings at this step, so one pair of
# tracks is 2162 x 3326 samples: its two float64 DTW matrices take 110 MiB,
# more than a 105 MiB L3. The faithful ones take FAITHFUL_STEPS in a seeded
# order; the set is fixed so that every seed asks for the same DTW work.
LONG_STEP = 0.0065
FAITHFUL_STEPS = (0.009, 0.011)
# One re-recording starts the ego up to 1.5 m off its lane, which drifts
# its path by 300 m or more of DTW; faithful ones stay under about 60 m.
DRIFTED = 1
DRIFT_THRESHOLD = 100.0


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _simulate(scenario: dict, config: dict | Path, out: Path) -> None:
    """Run ``scenq simulate`` in this process on a scenario written to ``out``."""
    out.mkdir(parents=True)
    scenario_path = out / "scenario.json"
    _write_json(scenario_path, scenario)
    if isinstance(config, dict):
        config_path = out / "config.json"
        _write_json(config_path, config)
    else:
        config_path = config
    code = scenq_main(["simulate", "--scenario", str(scenario_path), "--config",
                       str(config_path), "--out", str(out / "sim"), "--jobs", "1"])
    if code != 0:
        raise SystemExit(f"scenq simulate exited {code} while generating inputs")


def subgrid(progressions, scenario_id: str) -> dict:
    """Logical scenario over index progressions of the bundled ranges."""
    bundled = json.loads(SCENARIO.read_text(encoding="utf-8"))
    parameters = []
    for param, (start, step, count) in zip(bundled["parameters"], progressions):
        lo = param["min"] + start * param["step"]
        stride = step * param["step"]
        parameters.append({"name": param["name"], "min": lo, "max": lo + (count - 1) * stride,
                           "step": stride, "unit": param["unit"]})
    return {"scenario_id": scenario_id, "description": f"benchmark sub-grid {progressions}",
            "parameters": parameters, "fixed": {}}


def grid_simulate(rng: random.Random, out: Path) -> dict:
    scenario = subgrid(rng.choice(SIMULATE_SUBGRIDS), "bench_grid")
    scenario_path = out / "scenario.json"
    _write_json(scenario_path, scenario)
    return {
        "argv": ["simulate", "--scenario", str(scenario_path), "--config", str(CONFIG),
                 "--out", "{out}", "--format", "csv", "--jobs", "1"],
        "traces": grid_size(logical_from_dict(scenario)),
        "scenario": str(scenario_path),
        "config": str(CONFIG),
    }


def grid_evaluate(rng: random.Random, out: Path) -> dict:
    _simulate(subgrid(rng.choice(EVALUATE_SUBGRIDS), "bench_eval"), CONFIG, out / "traces")
    trace_dir = out / "traces" / "sim" / "traces"
    criteria_path = out / "criteria.json"
    _write_json(criteria_path, {"criteria": CRITERIA})
    return {
        "argv": ["evaluate", "--traces", str(trace_dir), "--criteria", str(criteria_path),
                 "--out", "{out}", "--emit-plot-data"],
        "traces": len(list(trace_dir.glob("*.csv"))),
        "trace_dir": str(trace_dir),
        "criteria": str(criteria_path),
    }


def repeat_compare(rng: random.Random, out: Path) -> dict:
    base_config = json.loads(CONFIG.read_text(encoding="utf-8"))

    def record(name: str, bindings: dict, time_step: float) -> str:
        scenario = {"scenario_id": name, "description": "benchmark re-recording",
                    "parameters": [], "fixed": bindings}
        _simulate(scenario, dict(base_config, time_step=time_step), out / name)
        return str(out / name / "sim" / "traces" / f"{name}_0.csv")

    reference = record("reference", REFERENCE, base_config["time_step"])
    steps = list(FAITHFUL_STEPS)
    rng.shuffle(steps)
    runs = [record("rerun_0", REFERENCE, LONG_STEP)]
    for i in range(1, 1 + len(steps) + DRIFTED):
        bindings = {
            "v_max": REFERENCE["v_max"] + rng.uniform(-0.5, 0.5),
            "t_cross": REFERENCE["t_cross"] + rng.uniform(-0.2, 0.2),
            "d_start": REFERENCE["d_start"] + rng.uniform(-0.5, 0.5),
        }
        if i <= len(steps):
            step = steps[i - 1]
        else:
            step = base_config["time_step"]
            bindings["ego_start_x"] = base_config["ego_route"][0][0] + rng.uniform(1.0, 1.5)
        runs.append(record(f"rerun_{i}", bindings, step))
    return {
        "argv": ["compare", "--reference", reference, "--runs", *runs, "--threshold",
                 repr(DRIFT_THRESHOLD), "--actors", "ego", "--out", "{out}"],
        "traces": len(runs),
        "reference": reference,
        "runs": runs,
        "threshold": DRIFT_THRESHOLD,
        "actors": ["ego"],
    }


WORKLOADS = {f.__name__: f for f in (grid_simulate, grid_evaluate, repeat_compare)}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out``; returns the pass spec."""
    out.mkdir(parents=True)
    spec = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out)
    spec["workload"] = workload
    _write_json(out / "pass.json", spec)
    return spec


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
