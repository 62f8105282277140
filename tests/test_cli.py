import errno
import gc
import hashlib
import io
import json
import logging
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from scenq import (
    ActorTrack, Trace, TraceParseError, concretize, evaluate_suite, load_criteria,
    load_logical_scenario, load_sim_config, load_trace_file, registry, save_trace, simulate_batch,
    write_series, write_concrete_set, write_trace,
)
from scenq import scenarios
from scenq.cli import SWEEP_CRITERIA, _collect_trace_paths, _report_dict, main
from scenq.results import safe_name

from conftest import DATA


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def mini_scenario(workdir) -> Path:
    p = workdir / "mini_scenario.json"
    p.write_text(json.dumps({
        "scenario_id": "cli_demo",
        "description": "two slow runs for command line checks",
        "parameters": [
            {"name": "v_max", "min": 30.0, "max": 34.0, "step": 4.0, "unit": "km/h"},
        ],
        "fixed": {"t_cross": 5.0, "d_start": 16.0},
    }))
    return p


@pytest.fixture(scope="module")
def criteria_ok(workdir) -> Path:
    p = workdir / "criteria_ok.json"
    p.write_text(json.dumps({"criteria": [
        {
            "criterion_id": "stay_apart",
            "metric": "euclidean_distance",
            "params": {"actor_a": "ego", "actor_b": "pedestrian"},
            "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
        },
        {
            "criterion_id": "pet_positive",
            "metric": "pet",
            "params": {"actor_1": "ego", "actor_2": "pedestrian"},
            "threshold": {"comparator": ">", "value": 0.1, "unit": "s"},
        },
    ]}))
    return p


@pytest.fixture(scope="module")
def sim_out(workdir, mini_scenario) -> Path:
    out = workdir / "sim"
    code = main([
        "simulate",
        "--scenario", str(mini_scenario),
        "--config", str(DATA / "intersection_config.json"),
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_simulate_outputs(sim_out):
    traces = sorted((sim_out / "traces").iterdir())
    assert [p.name for p in traces] == [
        "cli_demo_0.csv", "cli_demo_0.csv.meta.json", "cli_demo_0.csv.npy",
        "cli_demo_1.csv", "cli_demo_1.csv.meta.json", "cli_demo_1.csv.npy"]
    outcomes = [json.loads(l) for l in (sim_out / "outcomes.jsonl").read_text().splitlines()]
    assert len(outcomes) == 2
    assert all(o["end_reason"] == "route_completed" for o in outcomes)
    assert (sim_out / "scenarios.jsonl").is_file()
    manifest = json.loads((sim_out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "traces/cli_demo_0.csv" in manifest["outputs"]
    assert manifest["tool_version"]
    assert len(manifest["config_hash"]) == 64
    # loaded traces keep their identity and conflict annotations
    trace = load_trace_file(sim_out / "traces" / "cli_demo_0.csv")
    assert trace.scenario_id == "cli_demo#0"
    assert "conflict_x" in trace.metadata


def test_evaluate_passes_and_is_deterministic(workdir, sim_out, criteria_ok):
    out1, out2 = workdir / "eval1", workdir / "eval2"
    for out in (out1, out2):
        code = main([
            "evaluate",
            "--traces", str(sim_out / "traces"),
            "--criteria", str(criteria_ok),
            "--out", str(out),
        ])
        assert code == 0
    report = json.loads((out1 / "evaluation.json").read_text())
    outcomes = {(v["criterion_id"], v["scenario_id"]): v["outcome"]
                for v in report["verdicts"]}
    assert outcomes[("stay_apart", "cli_demo#0")] == "pass"
    assert outcomes[("pet_positive", "cli_demo#1")] == "pass"
    assert len(report["cells"]) == 2
    # identical inputs, identical result bytes; only the manifest differs
    assert (out1 / "evaluation.json").read_bytes() == (out2 / "evaluation.json").read_bytes()


def _result_files(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_evaluate_and_compare_read_companions_as_the_csv(sim_out, criteria_ok, tmp_path,
                                                         monkeypatch):
    """Traces with their .csv.npy companions give the result bytes that the same traces
    without them give; with them, no CSV is parsed."""
    plain = tmp_path / "plain"
    plain.mkdir()
    for path in (sim_out / "traces").iterdir():
        if path.suffix != ".npy":
            (plain / path.name).write_bytes(path.read_bytes())
    codes = {}
    for name, traces in (("saved", sim_out / "traces"), ("plain", plain)):
        with monkeypatch.context() as patch:
            if name == "saved":
                patch.setattr("scenq.trace._read_csv", lambda stream: pytest.fail("CSV parsed"))
            codes[name] = [
                main(["evaluate", "--traces", str(traces), "--criteria", str(criteria_ok),
                      "--emit-plot-data", "--out", str(tmp_path / f"eval_{name}")]),
                main(["compare", "--reference", str(traces / "cli_demo_0.csv"), "--runs",
                      str(traces / "cli_demo_1.csv"), "--out", str(tmp_path / f"cmp_{name}")]),
            ]
    assert codes["saved"] == codes["plain"] and codes["saved"][0] == 0
    for command in ("eval", "cmp"):
        assert (_result_files(tmp_path / f"{command}_saved")
                == _result_files(tmp_path / f"{command}_plain"))
    assert len(_result_files(tmp_path / "eval_saved")) == 4  # evaluation.json, 2 plots, 1 sidecar


@pytest.mark.parametrize("fmt", ["csv"])  # the one choice of simulate --format
def test_simulate_writes_each_trace_as_write_trace(tmp_path, fmt):
    """One batch writes the grid's traces; each file holds what write_trace gives
    that run alone, and each sidecar and companion what save_trace writes."""
    scenario = tmp_path / "grid.json"
    scenario.write_text(json.dumps({
        "scenario_id": "grid",
        "parameters": [
            {"name": "v_max", "min": 30.0, "max": 58.0, "step": 14.0, "unit": "km/h"},
            {"name": "d_start", "min": 10.0, "max": 24.0, "step": 14.0, "unit": "m"},
        ],
        "fixed": {"t_cross": 5.0},
    }))
    config = DATA / "intersection_config.json"
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario), "--config", str(config),
                 "--out", str(out), "--format", fmt]) == 0
    outcomes = simulate_batch(concretize(load_logical_scenario(scenario)),
                              load_sim_config(config))
    assert len(outcomes) == 6 and 0 < sum(o.collided for o in outcomes) < 6
    for outcome in outcomes:
        path = out / "traces" / f"{safe_name(outcome.trace.scenario_id)}.{fmt}"
        assert path.read_text(encoding="utf-8") == write_trace(outcome.trace, fmt)
        alone = save_trace(outcome.trace, tmp_path / path.name)
        for written in (path.name + ".meta.json", path.name + ".npy"):
            assert (path.parent / written).read_bytes() == (alone.parent / written).read_bytes()


def test_simulate_format_jsonl_exits_2(mini_scenario, tmp_path, capsys):
    """Traces are CSV: --format keeps the one choice the benchmark passes, csv."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(mini_scenario), "--config",
              str(DATA / "intersection_config.json"), "--out", str(out), "--format", "jsonl"])
    assert exc.value.code == 2
    assert "invalid choice: 'jsonl'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_concretizes_the_grid_once(mini_scenario, tmp_path, monkeypatch):
    """The simulator and scenarios.jsonl take one concretized grid."""
    made = []
    concrete = scenarios.ConcreteScenario
    monkeypatch.setattr(scenarios, "ConcreteScenario",
                        lambda **fields: made.append(fields["index"]) or concrete(**fields))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(mini_scenario),
                 "--config", str(DATA / "intersection_config.json"), "--out", str(out)]) == 0
    assert made == [0, 1]
    write_concrete_set(concretize(load_logical_scenario(mini_scenario)), tmp_path / "grid.jsonl")
    assert (out / "scenarios.jsonl").read_bytes() == (tmp_path / "grid.jsonl").read_bytes()


def test_evaluate_failing_criterion_exits_1(workdir, sim_out):
    bad = workdir / "criteria_strict.json"
    bad.write_text(json.dumps({"criteria": [{
        "criterion_id": "impossible_gap",
        "metric": "euclidean_distance",
        "params": {"actor_a": "ego", "actor_b": "pedestrian"},
        "threshold": {"comparator": ">", "value": 100.0, "unit": "m"},
    }]}))
    out = workdir / "eval_fail"
    code = main([
        "evaluate",
        "--traces", str(sim_out / "traces"),
        "--criteria", str(bad),
        "--out", str(out),
    ])
    assert code == 1
    report = json.loads((out / "evaluation.json").read_text())
    assert all(v["outcome"] == "fail" for v in report["verdicts"])


def test_evaluate_plot_data(workdir, sim_out, criteria_ok):
    out = workdir / "eval_plots"
    code = main([
        "evaluate",
        "--traces", str(sim_out / "traces" / "cli_demo_0.csv"),
        "--criteria", str(criteria_ok),
        "--out", str(out),
        "--emit-plot-data",
    ])
    assert code == 0
    plot = out / "plot_data" / "stay_apart_cli_demo_0.csv"
    assert plot.is_file()
    assert plot.read_text().splitlines()[0] == "time_s,value,defined"


def reference_plot_data(criteria_path, trace_dir, plot_dir):
    """Reference oracle: a second compute of every nanoscopic criterion on every
    trace, blind to the evaluate filters; returns the paths in write order."""
    traces = [load_trace_file(p) for p in _collect_trace_paths([str(trace_dir)])]
    plot_dir.mkdir(parents=True)
    paths = []
    for criterion in load_criteria(criteria_path):
        spec = registry.get(criterion.metric_name)
        if spec.level != registry.NANOSCOPIC:
            continue
        for trace in traces:
            series = spec.compute(trace, criterion.metric_params)
            path = plot_dir / (
                f"{safe_name(criterion.criterion_id)}_{safe_name(trace.scenario_id)}.csv"
            )
            write_series(series, path, parameters=criterion.metric_params)
            paths.append(path)
    return paths


def test_plot_data_is_the_judged_series(workdir, sim_out):
    pair = {"ego": "ego", "target": "pedestrian"}
    suite = workdir / "criteria_plots.json"
    suite.write_text(json.dumps({"criteria": [
        {"criterion_id": "ttc_min", "metric": "ttc", "params": pair,
         "threshold": {"comparator": ">", "value": 1.0, "unit": "s"}},
        {"criterion_id": "ttc_braking", "metric": "ttc", "params": pair,
         "scale": {"breakpoints": [[0.0, 0.0], [2.0, 1.0]], "unit": "s"},
         "application_period": {"start_condition": {
             "signal": "acceleration", "actor": "ego", "comparator": "<", "bound": -0.5}}},
        {"criterion_id": "wttc_min", "metric": "wttc", "params": pair,
         "threshold": {"comparator": ">", "value": 0.5, "unit": "s"}},
        {"criterion_id": "gap", "metric": "gap_time", "params": pair,
         "threshold": {"comparator": ">", "value": 1.0, "unit": "s"}},
        {"criterion_id": "apart", "metric": "euclidean_distance",
         "params": {"actor_a": "ego", "actor_b": "pedestrian"},
         "threshold": {"comparator": ">", "value": 0.2, "unit": "m"}},
        {"criterion_id": "pet_min", "metric": "pet",
         "params": {"actor_1": "ego", "actor_2": "pedestrian"},
         "threshold": {"comparator": ">", "value": 1.0, "unit": "s"}},
        {"criterion_id": "hits", "metric": "collision_probability",
         "threshold": {"comparator": "<=", "value": 0.1, "unit": "1"}, "perspective": "scenario"},
    ]}))
    out = workdir / "eval_judged_plots"
    code = main(["evaluate", "--traces", str(sim_out / "traces"), "--criteria", str(suite),
                 "--out", str(out), "--emit-plot-data"])
    assert code in (0, 1)
    reference = workdir / "reference_plots"
    expected = reference_plot_data(suite, sim_out / "traces", reference)
    assert len(expected) == 5 * 2
    names = sorted(p.name for p in expected)
    # one sidecar per plotted criterion, the one write_series writes for each of its files
    sidecars = {f"{cid}.meta.json": f"{cid}_cli_demo_0.csv.meta.json"
                for cid in ("ttc_min", "ttc_braking", "wttc_min", "gap", "apart")}
    # every file written, sidecars included, sorted
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["evaluation.json"] + [
        f"plot_data/{name}" for name in sorted([*names, *sidecars])]
    assert sorted(p.name for p in (out / "plot_data").iterdir()) == sorted([*names, *sidecars])
    for name in names:
        assert (out / "plot_data" / name).read_bytes() == (reference / name).read_bytes()
    for name, per_file in sidecars.items():
        assert (out / "plot_data" / name).read_bytes() == (reference / per_file).read_bytes()
        assert (reference / per_file).read_bytes() == (
            reference / per_file.replace("_0.csv", "_1.csv")).read_bytes()


def test_plot_data_follows_the_filters(workdir, sim_out, criteria_ok):
    out = workdir / "eval_micro_plots"
    code = main(["evaluate", "--traces", str(sim_out / "traces"), "--criteria", str(criteria_ok),
                 "--level", "microscopic", "--out", str(out), "--emit-plot-data"])
    assert code == 0
    report = json.loads((out / "evaluation.json").read_text())
    assert {v["criterion_id"] for v in report["verdicts"]} == {"pet_positive"}
    # stay_apart is nanoscopic and was not judged, so it gets no plot files
    assert list((out / "plot_data").iterdir()) == []
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["evaluation.json"]


def test_compare_identical_runs_ok(workdir, sim_out):
    out = workdir / "cmp_ok"
    ref = sim_out / "traces" / "cli_demo_0.csv"
    code = main([
        "compare",
        "--reference", str(ref),
        "--runs", str(_copy_trace(sim_out, workdir / "cmp_ok_copy")),
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "repeatability.json").read_text())
    assert payload["all_within"] is True
    assert {e["dtw_distance"] for e in payload["entries"]} == {0.0}


def test_compare_flags_drift(workdir, sim_out):
    ref_path = sim_out / "traces" / "cli_demo_0.csv"
    trace = load_trace_file(ref_path)
    shifted_tracks = {}
    for actor in trace.actor_ids():
        t = trace.track(actor)
        shifted_tracks[actor] = ActorTrack(
            actor, t.actor_class, t.radius, t.times,
            t.xs + 0.5, t.ys, t.headings, t.speeds, t.accels,
        )
    drifted = Trace("drifted#0", trace.time_step, shifted_tracks)
    drift_path = sim_out.parent / "drifted.csv"
    save_trace(drifted, drift_path)
    out = workdir / "cmp_drift"
    code = main([
        "compare",
        "--reference", str(ref_path),
        "--runs", str(drift_path),
        "--threshold", "10.0",
        "--out", str(out),
    ])
    assert code == 1
    payload = json.loads((out / "repeatability.json").read_text())
    assert payload["all_within"] is False


def test_compare_rejects_nan_threshold(workdir, sim_out, capsys):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    copy = _copy_trace(sim_out, workdir / "cmp_nan_copy")
    argv = ["compare", "--reference", str(ref), "--runs", str(copy)]
    code = main(argv + ["--threshold", "nan", "--out", str(workdir / "cmp_nan")])
    assert code == 2
    assert "threshold must be >= 0, got nan" in capsys.readouterr().err
    assert main(argv + ["--threshold", "inf", "--out", str(workdir / "cmp_inf")]) == 0


def test_compare_rejects_a_repeated_actor(workdir, sim_out, capsys):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    out = workdir / "cmp_twice"
    copy = _copy_trace(sim_out, workdir / "cmp_twice_copy")
    code = main(["compare", "--reference", str(ref), "--runs", str(copy), "--actors", "ego,ego",
                 "--out", str(out)])
    assert code == 2
    assert "error: actor 'ego' is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_compare_missing_actor_names_file_before_any_dtw(sim_out, tmp_path, capsys,
                                                         monkeypatch):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    trace = load_trace_file(ref)
    solo = tmp_path / "solo.csv"
    save_trace(Trace("solo#0", trace.time_step, {"ego": trace.track("ego")}), solo)
    calls = []
    monkeypatch.setattr("scenq.macro.dtw", lambda a, b: calls.append(1) or 0.0)
    code = main(["compare", "--reference", str(ref), "--runs", str(ref), str(solo),
                 "--out", str(tmp_path / "cmp")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {solo}: actor 'pedestrian' missing from run 'solo#0'")
    assert calls == []


def test_compare_later_run_missing_actor_names_file_after_earlier_dtws(sim_out, tmp_path, capsys,
                                                                       monkeypatch):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    trace = load_trace_file(ref)
    solo = tmp_path / "solo.csv"
    save_trace(Trace("solo#0", trace.time_step, {"ego": trace.track("ego")}), solo)
    unreadable = tmp_path / "unreadable.csv"
    unreadable.write_text("not a trace\n")
    calls = []
    monkeypatch.setattr("scenq.macro.dtw", lambda a, b: calls.append(1) or 0.0)
    # each run is checked as it loads: the first run's pairs come first, and a load
    # error in a run after solo does not take precedence over solo's missing actor
    first = sim_out / "traces" / "cli_demo_1.csv"
    code = main(["compare", "--reference", str(ref), "--runs", str(first), str(solo),
                 str(unreadable), "--out", str(tmp_path / "cmp")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {solo}: actor 'pedestrian' missing from run 'solo#0'\n"
    assert calls == [1, 1]
    assert not (tmp_path / "cmp").exists()


def test_compare_holds_one_run_at_a_time(sim_out, tmp_path, capsys):
    ref = sim_out / "traces" / "cli_demo_1.csv"
    runs = [_copy_trace(sim_out, tmp_path / f"run_{k}") for k in range(6)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace_file(runs[0])
        for actor in trace.actor_ids():
            trace.track(actor).points  # as its dtw leaves a run
        run_size = tracemalloc.get_traced_memory()[0] - before
        del trace
        peaks = {}
        for count in (1, 1, 6):  # the first call warms what stays between calls
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(["compare", "--reference", str(ref), "--runs", *map(str, runs[:count]),
                         "--threshold", "inf", "--out", str(tmp_path / f"cmp_{count}")]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # a run stays bound until the next has loaded, so six runs peak one run above one
    # run, plus the reference's points and the entries; holding all six is five runs above
    assert peaks[6] - peaks[1] < 1.5 * run_size, (peaks, run_size)


def test_config_hash_is_the_sha256_of_the_config_bytes(mini_scenario, sim_out, criteria_ok,
                                                       tmp_path):
    scenario_config = mini_scenario.read_bytes() + (DATA / "intersection_config.json").read_bytes()
    manifest = json.loads((sim_out / "manifest.json").read_text())
    assert manifest["config_hash"] == hashlib.sha256(scenario_config).hexdigest()
    assert _evaluate(sim_out / "traces", criteria_ok, tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == hashlib.sha256(criteria_ok.read_bytes()).hexdigest()


def test_compare_logs_stage_counts(workdir, sim_out, caplog, capsys):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    other = sim_out / "traces" / "cli_demo_1.csv"
    copy = _copy_trace(sim_out, workdir / "cmp_logs_copy")
    argv = ["compare", "--reference", str(ref), "--runs", str(copy), str(other)]
    main(argv + ["--out", str(workdir / "cmp_quiet")])
    quiet = capsys.readouterr().out
    caplog.set_level(logging.INFO, logger="scenq")
    main(argv + ["--out", str(workdir / "cmp_logged")])
    assert capsys.readouterr().out == quiet
    a, b = load_trace_file(ref), load_trace_file(other)
    cells = sum(len(a.track(x)) * (len(a.track(x)) + len(b.track(x))) for x in a.actor_ids())
    assert "loaded 3 traces (reference + 2 runs)" in caplog.messages
    assert f"dtw: 4 pairs, {cells} cells" in caplog.messages
    assert ((workdir / "cmp_quiet" / "repeatability.json").read_bytes()
            == (workdir / "cmp_logged" / "repeatability.json").read_bytes())


@pytest.fixture(scope="module")
def sweep_mini(workdir) -> Path:
    p = workdir / "sweep_mini.json"
    p.write_text(json.dumps({
        "scenario_id": "start_sweep",
        "description": "short start position sweep",
        "parameters": [
            {"name": "ego_start_x", "min": 64.0, "max": 70.0, "step": 1.0, "unit": "m"},
        ],
        "fixed": {"v_max": 58.0, "t_cross": 3.0, "d_start": 16.0},
    }))
    return p


def _sweep(scenario: Path, out: Path) -> int:
    return main(["sweep", "--scenario", str(scenario), "--config", str(DATA / "sweep_config.json"),
                 "--out", str(out)])


def test_sweep_outputs(workdir, sweep_mini):
    out = workdir / "sweep"
    assert _sweep(sweep_mini, out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["gap_findings.json", "manifest.json"]
    findings = json.loads((out / "gap_findings.json").read_text())
    # the three old columns, each judged along the one line the 7 runs make
    assert list(findings) == ["min_euclidean_distance", "min_wttc", "min_gap_time"]
    for axes in findings.values():
        assert list(axes) == ["ego_start_x"]
        assert (axes["ego_start_x"]["lines"], axes["ego_start_x"]["skipped"]) == (1, 0)
    assert findings["min_gap_time"]["ego_start_x"]["findings"] == [{
        "parameter": "ego_start_x", "left_value": 69.0, "right_value": 70.0,
        "metric_jump": None, "kind": "definedness", "logical_id": "start_sweep",
        "held": {"d_start": 16.0, "t_cross": 3.0, "v_max": 58.0}}]


def test_sweep_judges_a_multi_parameter_grid(sweep_mini, tmp_path):
    """Each binding that varies is an axis: its lines hold the other bindings fixed."""
    scenario = json.loads(sweep_mini.read_text())
    scenario["parameters"][0]["min"] = 66.0
    v_max = scenario["fixed"].pop("v_max")
    scenario["parameters"].append({"name": "v_max", "min": v_max - 8.0, "max": v_max,
                                   "step": 4.0, "unit": "km/h"})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(scenario))
    assert _sweep(path, tmp_path / "out") == 0
    findings = json.loads((tmp_path / "out" / "gap_findings.json").read_text())
    for axes in findings.values():
        assert list(axes) == ["ego_start_x", "v_max"]
        # 5 x 3 runs: 3 lines along ego_start_x, 5 along v_max
        assert axes["ego_start_x"]["lines"] + axes["ego_start_x"]["skipped"] == 3
        assert axes["v_max"]["lines"] + axes["v_max"]["skipped"] == 5
        for parameter, axis in axes.items():
            other = {"ego_start_x": "v_max", "v_max": "ego_start_x"}[parameter]
            for f in axis["findings"]:
                assert f["parameter"] == parameter and f["logical_id"] == "start_sweep"
                assert set(f["held"]) == {"d_start", "t_cross", other}
    flips = findings["min_gap_time"]["ego_start_x"]["findings"]
    assert {"left_value": 69.0, "right_value": 70.0, "kind": "definedness",
            "held": {"d_start": 16.0, "t_cross": 3.0, "v_max": 58.0}}.items() <= next(
        f for f in flips if f["held"]["v_max"] == 58.0).items()


def test_sweep_judges_each_column_on_its_own(sweep_mini, tmp_path):
    """A criterion whose line has fewer than 3 defined points counts it as skipped, and the
    others are judged."""
    scenario = json.loads(sweep_mini.read_text())
    scenario["fixed"]["d_start"] = 0.0  # the pedestrian never starts: no gap time is defined
    path = tmp_path / "standing.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "sweep"
    assert _sweep(path, out) == 0
    findings = json.loads((out / "gap_findings.json").read_text())
    assert findings["min_gap_time"] == {"ego_start_x": {"lines": 0, "skipped": 1, "findings": []}}
    assert findings["min_wttc"]["ego_start_x"]["lines"] == 1
    assert main(["report", "--run", str(out), "--out", str(tmp_path / "report")]) == 0
    report = (tmp_path / "report" / "report.md").read_text()
    assert "- min_gap_time along ego_start_x: 0 lines judged, 1 skipped\n" in report


def test_sweep_is_simulate_then_evaluate_with_its_criteria(sweep_mini, tmp_path):
    assert _sweep(sweep_mini, tmp_path / "sweep") == 0
    assert main(["simulate", "--scenario", str(sweep_mini), "--config",
                 str(DATA / "sweep_config.json"), "--out", str(tmp_path / "sim")]) == 0
    assert main(["evaluate", "--traces", str(tmp_path / "sim" / "traces"), "--criteria",
                 str(SWEEP_CRITERIA), "--out", str(tmp_path / "eval")]) in (0, 1)
    report = json.loads((tmp_path / "eval" / "evaluation.json").read_text())
    assert (tmp_path / "sweep" / "gap_findings.json").read_text() == json.dumps(
        report["gap_findings"], indent=2) + "\n"


def test_report_renders_the_gap_findings_of_either_file(workdir, sweep_mini, tmp_path):
    sweep = workdir / "sweep_for_report"
    assert _sweep(sweep_mini, sweep) == 0
    assert main(["report", "--run", str(sweep), "--out", str(tmp_path / "from_sweep")]) == 0
    evaluation = tmp_path / "eval"
    evaluation.mkdir()
    (evaluation / "evaluation.json").write_text(json.dumps({
        "verdicts": [], "cells": [],
        "gap_findings": json.loads((sweep / "gap_findings.json").read_text())}))
    assert main(["report", "--run", str(evaluation), "--out", str(tmp_path / "from_eval")]) == 0
    section = [
        "## gap findings", "",
        "- min_euclidean_distance along ego_start_x: 1 lines judged, 0 skipped",
        "- min_wttc along ego_start_x: 1 lines judged, 0 skipped",
        "- min_gap_time along ego_start_x: 1 lines judged, 0 skipped",
        "  - [69.0, 70.0] in start_sweep at d_start=16.0, t_cross=3.0, v_max=58.0: "
        "defined/undefined flip"]
    for out in ("from_sweep", "from_eval"):
        lines = (tmp_path / out / "report.md").read_text().splitlines()
        at = lines.index("## gap findings")
        assert lines[at:at + len(section)] == section


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("fixed, expected", [
    ({"t_cross": 0.0, "d_start": 16.0}, "cli_demo#0: t_cross must be > 0"),
    ({"t_cross": 5.0}, "cli_demo#0: missing binding 'd_start'"),
])
def test_bad_binding_names_file_and_run_and_writes_nothing(mini_scenario, tmp_path, capsys,
                                                          command, fixed, expected):
    scenario = json.loads(mini_scenario.read_text())
    scenario["fixed"] = fixed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "runs" / "out"
    code = main([command, "--scenario", str(path), "--config",
                 str(DATA / "intersection_config.json"), "--out", str(out),
                 *(["--jobs", "4"] if command == "simulate" else [])])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {expected}\n"
    assert not out.parent.exists()  # every binding is checked before --out is touched


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_contact_at_start_names_file_and_run_and_writes_nothing(mini_scenario, tmp_path, capsys,
                                                                command):
    config = json.loads((DATA / "intersection_config.json").read_text())
    config["ego_route"] = [[11.5, -3.5], [100.0, -3.5]]  # 0.5 m from the pedestrian
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--scenario", str(mini_scenario), "--config", str(config_path),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {mini_scenario}: cli_demo#0: ego starts in contact with the pedestrian\n")
    assert not out.exists()


def _digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("command", ["simulate", "evaluate", "compare", "sweep", "report"])
def test_failed_write_leaves_out_as_it_was(workdir, mini_scenario, sim_out, criteria_ok,
                                           sweep_mini, tmp_path, monkeypatch, capsys,
                                           command, existing):
    trace = str(sim_out / "traces" / "cli_demo_0.csv")
    copy = str(_copy_trace(sim_out, workdir / f"failed_write_{command}_{existing}"))
    compare = ["compare", "--reference", trace, "--runs", copy]
    if command == "report":
        assert main(compare + ["--out", str(workdir / "cmp_for_report")]) == 0
    args = {
        "simulate": ["--scenario", str(mini_scenario),
                     "--config", str(DATA / "intersection_config.json")],
        "evaluate": ["--traces", str(sim_out / "traces"), "--criteria", str(criteria_ok),
                     "--emit-plot-data"],
        "compare": compare[1:],
        "sweep": ["--scenario", str(sweep_mini), "--config", str(DATA / "sweep_config.json")],
        "report": ["--run", str(workdir / "cmp_for_report")],
    }[command]
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "kept.txt").write_text("from an earlier run\n")
        before = _digests(out)

    written = []
    write_text = Path.write_text

    def fail_second(path, *a, **k):
        written.append(path)
        if len(written) == 2:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, *a, **k)

    monkeypatch.setattr(Path, "write_text", fail_second)
    assert main([command, *args, "--out", str(out)]) == 2
    assert len(written) == 2
    assert f"No space left on device: '{out}/" in capsys.readouterr().err
    if existing:
        assert _digests(out) == before
    else:
        assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])


def test_overlong_plot_file_name_exits_2_and_writes_nothing(sim_out, tmp_path, capsys):
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [{
        "criterion_id": "c" * 300, "metric": "euclidean_distance",
        "params": {"actor_a": "ego", "actor_b": "pedestrian"},
        "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
    }]}))
    out = tmp_path / "out"
    code = main(["evaluate", "--traces", str(sim_out / "traces"), "--criteria", str(criteria),
                 "--out", str(out), "--emit-plot-data"])
    assert code == 2
    assert f": '{out / 'plot_data' / ('c' * 300)}_cli_demo_0.csv'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["criteria.json"]


def test_simulate_again_replaces_what_it_writes(mini_scenario, tmp_path):
    out = tmp_path / "out"
    config = str(DATA / "intersection_config.json")
    assert main(["simulate", "--scenario", str(mini_scenario), "--config", config,
                 "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    smaller = json.loads(mini_scenario.read_text())
    smaller["parameters"][0]["max"] = 30.0  # one run instead of two
    (tmp_path / "smaller.json").write_text(json.dumps(smaller))
    assert main(["simulate", "--scenario", str(tmp_path / "smaller.json"), "--config", config,
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        "cli_demo_0.csv", "cli_demo_0.csv.meta.json", "cli_demo_0.csv.npy"]
    assert len((out / "outcomes.jsonl").read_text().splitlines()) == 1
    assert json.loads((out / "manifest.json").read_text())["outputs"] == [
        "outcomes.jsonl", "scenarios.jsonl", "traces/cli_demo_0.csv",
        "traces/cli_demo_0.csv.meta.json", "traces/cli_demo_0.csv.npy"]
    assert (out / "notes.txt").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "smaller.json"]
    probe = tmp_path / "probe"
    probe.mkdir()  # out has the permissions of a directory made the usual way
    assert out.stat().st_mode == probe.stat().st_mode


def test_out_name_of_250_characters(sim_out, tmp_path):
    ref = str(sim_out / "traces" / "cli_demo_0.csv")
    copy = str(_copy_trace(sim_out, sim_out.parent / "long_out_copy"))
    out = tmp_path / ("o" * 250)
    assert main(["compare", "--reference", ref, "--runs", copy, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "repeatability.json"]
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_report_summarizes_run_dir(workdir):
    out = workdir / "report"
    code = main(["report", "--run", str(workdir / "eval_fail"), "--out", str(out)])
    assert code == 0
    text = (out / "report.md").read_text()
    assert "## criteria" in text
    assert "impossible_gap" in text


def test_report_needs_known_artifacts(workdir, tmp_path):
    code = main(["report", "--run", str(tmp_path), "--out", str(tmp_path / "r")])
    assert code == 2


def test_report_run_on_a_file_exits_2(tmp_path, capsys):
    run = tmp_path / "evaluation.json"
    run.write_text("{}")
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {run}: not a directory\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given, expected", [
    ("empty", "no trace files found"), ("missing", "no such file or directory"),
    ("jsonl_only", "no trace files found")])
def test_traces_naming_no_trace_file_exit_2(sim_out, criteria_ok, tmp_path, capsys, given,
                                            expected):
    traces = tmp_path / given
    if given != "missing":
        traces.mkdir()
    if given == "jsonl_only":  # traces are CSV: a directory yields its *.csv files only
        (traces / "run.jsonl").write_text(_jsonl_lines(sim_out))
    assert _evaluate(traces, criteria_ok, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {traces}: {expected}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, content, expected", [
    ("evaluation.json", '{"cells": [', "invalid JSON ("),
    ("evaluation.json", '{"cells": []}', "missing key 'verdicts'"),
    ("evaluation.json", "[]", "unexpected content ("),
    ("repeatability.json", '{"reference_id": "r", "threshold": 1.0, "entries": [',
     "invalid JSON ("),
    ("repeatability.json", '{"reference_id": "r", "threshold": 1.0}', "missing key 'entries'"),
    ("gap_findings.json", '{"min_wttc": ', "invalid JSON ("),
    ("gap_findings.json", '{"min_wttc": {"x": {"lines": 1, "skipped": 0, "findings": ['
     '{"left_value": 1.0}]}}}', "missing key 'right_value'"),
], ids=["evaluation-corrupt", "evaluation-no-verdicts", "evaluation-list", "repeatability-corrupt",
        "repeatability-no-entries", "gap-findings-corrupt", "gap-findings-no-right-value"])
def test_bad_report_input_exits_2_naming_it(tmp_path, capsys, name, content, expected):
    run = tmp_path / "run"
    run.mkdir()
    (run / name).write_text(content)
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {run / name}: {expected}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["criteria", "trace", "sidecar", "report"])
def test_input_that_is_not_utf8_exits_2_naming_it(sim_out, criteria_ok, tmp_path, capsys,
                                                  which):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    bad = {"criteria": tmp_path / "criteria.json", "trace": trace,
           "sidecar": trace.with_name(trace.name + ".meta.json"),
           "report": tmp_path / "run" / "evaluation.json"}[which]
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(b"\xff\xfe{")
    if which == "report":
        code = main(["report", "--run", str(bad.parent), "--out", str(tmp_path / "out")])
    else:
        code = _evaluate(trace, criteria_ok if which != "criteria" else bad, tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n")


def _no_overlap_trace(path: Path) -> Path:
    # the ego is recorded before the pedestrian appears
    header = "time_s,actor_id,actor_class,x_m,y_m,heading_rad,speed_mps,accel_mps2"
    rows = [f"{t},{actor},{cls},0.0,{y},0.0,1.0,0.0" for t, actor, cls, y in (
        (0.0, "ego", "vehicle", 0.0), (0.1, "ego", "vehicle", 0.0),
        (0.2, "pedestrian", "pedestrian", 9.0), (0.3, "pedestrian", "pedestrian", 9.0))]
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_trace_without_overlap_exits_2_naming_it(sim_out, criteria_ok, tmp_path, capsys,
                                                 command):
    bad = _no_overlap_trace(tmp_path / "apart.csv")
    args = {
        "evaluate": ["--traces", str(bad), "--criteria", str(criteria_ok)],
        "compare": ["--reference", str(sim_out / "traces" / "cli_demo_0.csv"),
                    "--runs", str(bad)],
    }[command]
    assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: tracks share no overlap interval of positive length\n")
    assert not (tmp_path / "out").exists()


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("gap, expected", [(0.2, 0), (100.0, 1)])
def test_closed_stdout_keeps_the_exit_code(sim_out, tmp_path, capsys, monkeypatch,
                                           gap, expected):
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [{
        "criterion_id": "apart", "metric": "euclidean_distance",
        "params": {"actor_a": "ego", "actor_b": "pedestrian"},
        "threshold": {"comparator": ">", "value": gap, "unit": "m"},
    }]}))
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = _evaluate(sim_out / "traces", criteria, tmp_path / "out")
    sys.stdout.close()  # the stand-in the command opened once the pipe broke
    assert code == expected
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["evaluation.json"]


def test_missing_input_exits_2(workdir):
    code = main([
        "simulate",
        "--scenario", str(workdir / "nope.json"),
        "--config", str(DATA / "intersection_config.json"),
        "--out", str(workdir / "x"),
    ])
    assert code == 2


def test_simulate_writes_each_run_through_save_trace(mini_scenario, tmp_path, monkeypatch):
    """One save_trace call per run, the trace first, as a wrapper rebinding the name sees it;
    the files are those of an unwrapped run."""
    argv = ["simulate", "--scenario", str(mini_scenario),
            "--config", str(DATA / "intersection_config.json"), "--out"]
    assert main([*argv, str(tmp_path / "plain")]) == 0
    calls = []

    def counted(*args, **kwargs):
        written = save_trace(*args, **kwargs)
        calls.append((args, written, written.is_file()))
        return written

    monkeypatch.setattr("scenq.cli.save_trace", counted)
    assert main([*argv, str(tmp_path / "wrapped")]) == 0
    assert len(calls) == 2
    for args, written, was_file in calls:
        assert isinstance(args[0], Trace)
        assert written == Path(args[1]) and was_file
    assert _digests(tmp_path / "wrapped" / "traces") == _digests(tmp_path / "plain" / "traces")


def test_trace_directory_skips_subdirectories_named_csv(sim_out, criteria_ok, tmp_path):
    """A directory yields its *.csv files; a subdirectory named sub.csv is no trace."""
    traces = tmp_path / "traces"
    traces.mkdir()
    for path in (sim_out / "traces").iterdir():
        (traces / path.name).write_bytes(path.read_bytes())
    assert _evaluate(traces, criteria_ok, tmp_path / "plain") == 0
    (traces / "sub.csv").mkdir()
    assert _evaluate(traces, criteria_ok, tmp_path / "with_sub") == 0
    assert ((tmp_path / "with_sub" / "evaluation.json").read_bytes()
            == (tmp_path / "plain" / "evaluation.json").read_bytes())


def _copy_trace(sim_out, dest) -> Path:
    dest.mkdir()
    src = sim_out / "traces" / "cli_demo_0.csv"
    for name in (src.name, src.name + ".meta.json"):
        (dest / name).write_bytes((src.parent / name).read_bytes())
    return dest / src.name


def _evaluate(traces, criteria, out) -> int:
    return main(["evaluate", "--traces", str(traces), "--criteria", str(criteria),
                 "--out", str(out)])


@pytest.mark.parametrize("content, expected", [
    ('{"scenario_id": ', "invalid JSON"),
    ('["cli_demo#0"]', "expected an object"),
    ('{"scenario_id": "cli_demo#0", "time_step": "0.01"}', "'time_step' must be a positive"),
    ('{"scenario_id": "cli_demo#0", "time_step": -1}', "'time_step' must be a positive"),
    ('{"scenario_id": "cli_demo#0", "time_step": true}', "'time_step' must be a positive"),
    pytest.param('{"scenario_id": "cli_demo#0", "time_step": 1' + "0" * 400 + "}",
                 "'time_step' must be a positive", id="time_step_of_401_digits"),
    ('{"scenario_id": 7, "time_step": 0.01}', "'scenario_id' must be a non-empty string"),
    ('{"scenario_id": "", "time_step": 0.01}', "'scenario_id' must be a non-empty string"),
    # a misspelt key is no silent default: the time step would be inferred instead
    ('{"scenario_id": "cli_demo#0", "timestep": 0.01}', "unknown sidecar keys: ['timestep']"),
])
def test_corrupt_sidecar_exits_2_naming_it(sim_out, criteria_ok, tmp_path, capsys,
                                           content, expected):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    sidecar = trace.with_name(trace.name + ".meta.json")
    sidecar.write_text(content)
    # with plot data, whose file names are built from the scenario id
    assert main(["evaluate", "--traces", str(trace), "--criteria", str(criteria_ok),
                 "--out", str(tmp_path / "out"), "--emit-plot-data"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sidecar}: {expected}")


def test_bad_trace_row_exits_2_naming_file_and_line(sim_out, criteria_ok, tmp_path, capsys):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    lines = trace.read_text().splitlines()
    fields = lines[49].split(",")
    fields[3] = "oops"  # x_m of the row on line 50
    lines[49] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as exc:
        load_trace_file(trace)
    assert exc.value.line == 50
    assert exc.value.actor_id in ("ego", "pedestrian")
    assert _evaluate(trace, criteria_ok, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: line 50: non-numeric value")


def test_negative_speed_exits_2_naming_file_and_line(sim_out, criteria_ok, tmp_path, capsys):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    lines = trace.read_text().splitlines()
    fields = lines[49].split(",")
    fields[lines[0].split(",").index("speed_mps")] = "-0.5"  # on line 50
    lines[49] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert _evaluate(trace, criteria_ok, out) == 2
    assert capsys.readouterr().err == (f"error: {trace}: line 50: negative speed_mps "
                                       f"(-0.5)\n")
    assert not out.exists()


def test_empty_actor_id_exits_2_naming_file_and_line(sim_out, criteria_ok, tmp_path, capsys):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    lines = trace.read_text().splitlines()
    fields = lines[49].split(",")
    fields[lines[0].split(",").index("actor_id")] = ""  # on line 50
    lines[49] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert _evaluate(trace, criteria_ok, out) == 2
    assert capsys.readouterr().err == f"error: {trace}: line 50: empty actor_id\n"
    assert not out.exists()


def _jsonl_lines(sim_out) -> str:
    """A run's rows as JSON lines, the layout of the removed JSONL trace format."""
    lines = (sim_out / "traces" / "cli_demo_0.csv").read_text().splitlines()
    keys = lines[0].split(",")
    rows = ({k: v if k in ("actor_id", "actor_class") else float(v)
             for k, v in zip(keys, line.split(","))} for line in lines[1:])
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_jsonl_trace_exits_2_naming_it(sim_out, criteria_ok, tmp_path, capsys, command):
    trace = tmp_path / "run.jsonl"
    trace.write_text(_jsonl_lines(sim_out))
    out = tmp_path / "out"
    if command == "evaluate":
        assert _evaluate(trace, criteria_ok, out) == 2
    else:
        assert main(["compare", "--reference", str(sim_out / "traces" / "cli_demo_0.csv"),
                     "--runs", str(trace), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {trace}: missing CSV columns: ")
    assert not out.exists()


def test_missing_trace_column_exits_2_naming_file(sim_out, criteria_ok, tmp_path, capsys):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    lines = trace.read_text().splitlines()
    lines[0] = lines[0].replace("actor_id", "agent_id")
    trace.write_text("\n".join(lines) + "\n")
    assert _evaluate(trace, criteria_ok, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: missing CSV columns: actor_id")


def _distance_criterion(criterion_id: str, **parts) -> dict:
    """A threshold criterion on the distance between ego and pedestrian; ``parts``
    replace or add keys."""
    return {"criterion_id": criterion_id, "metric": "euclidean_distance",
            "params": {"actor_a": "ego", "actor_b": "pedestrian"},
            "threshold": {"comparator": ">", "value": 0.2, "unit": "m"}, **parts}


def _metric_criterion(criterion_id: str, metric: str, unit: str, **params) -> dict:
    """A threshold criterion on ``metric`` with ``params``."""
    return {"criterion_id": criterion_id, "metric": metric, "params": params,
            "threshold": {"comparator": ">", "value": 0.5, "unit": unit}}


PAIR = {"ego": "ego", "target": "pedestrian"}


@pytest.mark.parametrize("payload, expected", [
    ({"suite": []}, "non-empty 'criteria' list"),
    ({"criteria": [{"criterion_id": "odd_params", "metric": "euclidean_distance",
                    "params": ["ego", "pedestrian"],
                    "threshold": {"comparator": ">", "value": 0.2, "unit": "m"}}]},
     "criterion 'odd_params': params must be an object"),
    ({"criteria": [{"criterion_id": "odd_period", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
                    "application_period": {"start_condition": {
                        "signal": "metric_value", "metric": "ttc", "params": "ego",
                        "comparator": "<", "bound": 3.0}}}]},
     "condition params must be an object"),
    ({"criteria": ["stay_apart"]}, "criterion must be an object"),
    ({"criteria": [{"criterion_id": "odd_value", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "threshold": {"comparator": ">", "value": "fast", "unit": "m"}}]},
     "malformed criterion 'odd_value'"),
    ({"criteria": [{"criterion_id": "odd_bound", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
                    "application_period": {"start_condition": {
                        "signal": "time", "comparator": ">=", "bound": None}}}]},
     "malformed criterion 'odd_bound'"),
    ({"criteria": [{"criterion_id": "odd_scale", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "scale": {"breakpoints": [[0.0, 1.0, 2.0]], "unit": "m"}}]},
     "malformed criterion 'odd_scale'"),
    ({"criteria": [{"criterion_id": "odd_stop", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
                    "application_period": {
                        "start_condition": {"signal": "time", "comparator": ">=", "bound": 0.0},
                        "stop": ["elapsed", 2.0]}}]},
     "malformed criterion 'odd_stop': stop must be an object"),
    ({"criteria": [{"criterion_id": "x", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "threshold": {"comparator": ">", "value": 0.2, "unit": "m"}},
                   {"criterion_id": "x", "metric": "ttc",
                    "params": {"ego": "ego", "target": "pedestrian"},
                    "threshold": {"comparator": ">", "value": 1.0, "unit": "s"}}]},
     "criterion_id 'x' is repeated"),
    # a number is a finite JSON number: NaN and Infinity are no bounds
    ({"criteria": [_distance_criterion("nan_value", threshold={
        "comparator": ">", "value": math.nan, "unit": "m"})]},
     "malformed criterion 'nan_value': threshold value must be a finite number, got nan"),
    ({"criteria": [{"criterion_id": "nan_breakpoint", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "scale": {"breakpoints": [[0.0, 0.5], [math.nan, 1.0]], "unit": "m"}}]},
     "malformed criterion 'nan_breakpoint': breakpoint bound must be a finite number, got nan"),
    ({"criteria": [_distance_criterion("inf_bound", application_period={"start_condition": {
        "signal": "time", "comparator": "<=", "bound": math.inf}})]},
     "malformed criterion 'inf_bound': condition bound must be a finite number, got inf"),
    ({"criteria": [_distance_criterion("nan_duration", application_period={
        "start_condition": {"signal": "time", "comparator": ">=", "bound": 0.0},
        "stop": {"kind": "elapsed", "duration": math.nan}})]},
     "malformed criterion 'nan_duration': stop duration must be a finite number, got nan"),
    ({"criteria": [_distance_criterion("text_value", threshold={
        "comparator": ">", "value": "0.2", "unit": "m"})]},
     "malformed criterion 'text_value': threshold value must be a finite number, got '0.2'"),
    # the top-level object knows one key
    ({"criteria": [_distance_criterion("ok")], "extra": 1},
     "unknown criteria file keys: ['extra']"),
    # a metric's params: only the keys it reads, each by the input rule of its key
    ({"criteria": [_metric_criterion("misspelt", "wttc", "s", **PAIR, a_max=3.0)]},
     "unknown wttc params keys: ['a_max']"),
    ({"criteria": [_metric_criterion("text_a_max", "wttc", "s", **PAIR, a_max_ego="9")]},
     "malformed criterion 'text_a_max': wttc param 'a_max_ego' must be a finite number, got '9'"),
    ({"criteria": [_metric_criterion("nan_a_max", "wttc", "s", **PAIR, a_max_target=math.nan)]},
     "malformed criterion 'nan_a_max': wttc param 'a_max_target' must be a finite number"),
    ({"criteria": [_metric_criterion("bool_radius", "traffic_density", "1/m^2", actor="ego",
                                     radius=True)]},
     "malformed criterion 'bool_radius': traffic_density param 'radius' must be a finite number"),
    ({"criteria": [_metric_criterion("text_inflation", "pet", "s", actor_1="ego",
                                     actor_2="pedestrian", inflation="0.5")]},
     "malformed criterion 'text_inflation': pet param 'inflation' must be a finite number"),
    ({"criteria": [_metric_criterion("odd_other", "et", "s", actor="ego", other=5)]},
     "malformed criterion 'odd_other': et param 'other' must be an actor id, got 5"),
    ({"criteria": [_metric_criterion("text_threshold", "dtw", "m", threshold="10")]},
     "unknown dtw params keys: ['threshold']"),
    ({"criteria": [_metric_criterion("odd_actor_ids", "dtw", "m", actor_ids="ego")]},
     "malformed criterion 'odd_actor_ids': dtw param 'actor_ids' must be a list of actor ids"),
    ({"criteria": [_distance_criterion("gated_misspelt", application_period={"start_condition": {
        "signal": "metric_value", "metric": "ttc", "params": {**PAIR, "radius": 5.0},
        "comparator": "<", "bound": 3.0, "unit": "s"}})]},
     "unknown ttc params keys: ['radius']"),
    ({"criteria": [_distance_criterion("gated_unknown", application_period={"start_condition": {
        "signal": "metric_value", "metric": "tcc", "params": PAIR,
        "comparator": "<", "bound": 3.0, "unit": "s"}})]},
     "condition on unknown metric 'tcc'"),
    # units, gates and actor params are checked when the file loads, before any trace
    ({"criteria": [_metric_criterion("ttc_floor", "ttc", "m", **PAIR)]},
     "criterion 'ttc_floor': unit 'm' does not match 's'"),
    ({"criteria": [{"criterion_id": "scale_unit", "metric": "euclidean_distance",
                    "params": {"actor_a": "ego", "actor_b": "pedestrian"},
                    "scale": {"breakpoints": [[0.0, 1.0]], "unit": "s"}}]},
     "criterion 'scale_unit': unit 's' does not match 'm'"),
    ({"criteria": [_distance_criterion("accel_unit", application_period={"start_condition": {
        "signal": "acceleration", "actor": "ego", "comparator": "<", "bound": -1.0,
        "unit": "m/s"}})]},
     "acceleration condition: unit 'm/s' does not match 'm/s^2'"),
    ({"criteria": [_distance_criterion("gate_unit", application_period={"start_condition": {
        "signal": "metric_value", "metric": "ttc", "params": PAIR,
        "comparator": "<", "bound": 3.0, "unit": "m"}})]},
     "condition on 'ttc': unit 'm' does not match 's'"),
    ({"criteria": [_distance_criterion("gate_on_pet", application_period={"start_condition": {
        "signal": "metric_value", "metric": "pet", "params": {"actor_1": "ego",
        "actor_2": "pedestrian"}, "comparator": "<", "bound": 3.0, "unit": "s"}})]},
     "condition on 'pet': only per-timestep metrics can gate a period"),
    ({"criteria": [_metric_criterion("no_ego", "ttc", "s", target="pedestrian")]},
     "metric 'ttc' needs parameter 'ego'"),
    ({"criteria": [_metric_criterion("no_other", "et", "s", actor="ego")]},
     "metric 'et' needs parameter 'other'"),
    ({"criteria": [_distance_criterion("gate_no_target", application_period={"start_condition": {
        "signal": "metric_value", "metric": "ttc", "params": {"ego": "ego"},
        "comparator": "<", "bound": 3.0, "unit": "s"}})]},
     "metric 'ttc' needs parameter 'target'"),
    # the stop rule's own checks
    *[({"criteria": [_distance_criterion("stop", application_period={
        "start_condition": {"signal": "time", "comparator": ">=", "bound": 0.0}, "stop": stop})]},
       expected) for stop, expected in [
        ({"kind": "elapsed"}, "elapsed stop rule needs a duration > 0"),
        ({"kind": "event", "event": "halt"}, "unknown event 'halt'"),
        ({"kind": "event", "event": "actor_passed_conflict"},
         "actor_passed_conflict stop rule needs an actor"),
        ({"kind": "pause"}, "unknown stop rule 'pause'"),
    ]],
    # plot files are named by the id with '#' and '/' made '_'
    ({"criteria": [_distance_criterion("gap#1"), _distance_criterion("gap_1")]},
     "criterion ids 'gap#1' and 'gap_1' name one plot file"),
])
def test_bad_criteria_file_exits_2_naming_it(sim_out, tmp_path, capsys, monkeypatch,
                                             payload, expected):
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps(payload))
    monkeypatch.setattr("scenq.cli.load_trace_file",
                        lambda path: pytest.fail("a trace loaded before the criteria"))
    assert _evaluate(sim_out / "traces", criteria, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {criteria}: ")
    assert expected in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("metric, unit, params, expected", [
    ("wttc", "s", {**PAIR, "a_max_ego": -1.0}, "wttc param 'a_max_ego' must be >= 0, got -1.0"),
    ("wttc", "s", {**PAIR, "a_max_target": -0.5},
     "wttc param 'a_max_target' must be >= 0, got -0.5"),
    ("traffic_density", "1/m^2", {"actor": "ego", "radius": 0},
     "traffic_density param 'radius' must be > 0, got 0"),
    ("pet", "s", {"actor_1": "ego", "actor_2": "pedestrian", "inflation": -0.1},
     "pet param 'inflation' must be >= 0, got -0.1"),
    ("et", "s", {"actor": "ego", "other": "pedestrian", "inflation": -2},
     "et param 'inflation' must be >= 0, got -2"),
], ids=["a_max_ego", "a_max_target", "radius", "pet_inflation", "et_inflation"])
def test_out_of_range_metric_param_exits_2_naming_the_criterion(sim_out, tmp_path, capsys,
                                                                 metric, unit, params, expected):
    """A param outside its range is rejected when the criteria file loads, not when a trace
    is judged: a negative inflation no longer turns into a not_applicable verdict."""
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [_metric_criterion("bad", metric, unit, **params)]}))
    assert _evaluate(sim_out / "traces", criteria, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {criteria}: malformed criterion 'bad': {expected}\n"
    assert not (tmp_path / "out").exists()


def _gated_criterion(evaluation: str) -> dict:
    """A criterion using every key a criteria file knows, judged by a threshold or a scale."""
    leaf = {"signal": "speed", "actor": "ego", "comparator": ">", "bound": 0.0, "unit": "m/s"}
    return {
        "criterion_id": "gated", "metric": "euclidean_distance", "perspective": "sut",
        "params": {"actor_a": "ego", "actor_b": "pedestrian"},
        evaluation: {"comparator": ">", "value": 0.2, "unit": "m"} if evaluation == "threshold"
        else {"breakpoints": [[0.0, 0.5], [2.0, 1.0]], "unit": "m"},
        "application_period": {
            "start_condition": {"all": [leaf, {"any": [dict(leaf, actor="pedestrian"), {
                "signal": "metric_value", "metric": "ttc", "params": {"ego": "ego",
                "target": "pedestrian"}, "actor_b": "pedestrian", "comparator": "<",
                "bound": 9.0, "unit": "s"}]}]},
            "stop": {"kind": "event", "event": "actor_passed_conflict", "actor": "ego"}},
    }


@pytest.mark.parametrize("evaluation, where, what, key", [
    ("threshold", (), "criterion", "aplication_period"),
    ("threshold", (), "criterion", "perspectiv"),
    ("threshold", ("threshold",), "threshold", "unti"),
    ("scale", ("scale",), "scale", "unti"),
    ("threshold", ("application_period",), "application_period", "sotp"),
    ("threshold", ("application_period", "start_condition"), "condition", "any"),
    ("threshold", ("application_period", "start_condition", "all", 0), "condition", "untis"),
    ("threshold", ("application_period", "start_condition", "all", 1, "any", 1), "condition",
     "metric_params"),
    ("threshold", ("application_period", "stop"), "stop", "knid"),
])
def test_unknown_criteria_key_exits_2_naming_file_and_key(sim_out, tmp_path, capsys,
                                                          evaluation, where, what, key):
    criterion = _gated_criterion(evaluation)
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [criterion]}))
    assert _evaluate(sim_out / "traces", criteria, tmp_path / "ok") == 0
    node = criterion
    for step in where:
        node = node[step]
    node[key] = "x"
    criteria.write_text(json.dumps({"criteria": [criterion]}))
    assert _evaluate(sim_out / "traces", criteria, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {criteria}: unknown {what} keys: ['{key}']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("twice", ["same_file", "other_spelling", "file_in_directory"])
def test_trace_file_reached_twice_exits_2_naming_it(sim_out, criteria_ok, tmp_path, capsys,
                                                    command, twice):
    traces = sim_out / "traces"
    other = traces / "cli_demo_1.csv"
    given = {
        "same_file": [other, other],
        "other_spelling": [other, traces / ".." / "traces" / other.name],
        "file_in_directory": [traces, other],
    }[twice]
    args = {
        "evaluate": ["--criteria", str(criteria_ok), "--traces"],
        "compare": ["--reference", str(traces / "cli_demo_0.csv"), "--runs"],
    }[command]
    assert main([command, *args, *map(str, given), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {given[1]}: trace file is listed twice\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names", [("run.csv", "run.csv"), ("run#0.csv", "run_0.csv")])
def test_evaluate_scenario_ids_naming_the_same_plot_files_exit_2(sim_out, criteria_ok, tmp_path,
                                                                capsys, names):
    src = sim_out / "traces" / "cli_demo_0.csv"
    given = []
    for folder, name in zip("ab", names):  # no sidecar: the file name is the scenario id
        (tmp_path / folder).mkdir()
        given.append(tmp_path / folder / name)
        given[-1].write_bytes(src.read_bytes())
    out = tmp_path / "out"
    assert main(["evaluate", "--criteria", str(criteria_ok), "--traces", *map(str, given),
                 "--out", str(out), "--emit-plot-data"]) == 2
    assert capsys.readouterr().err == (f"error: {given[1]}: scenario id {given[1].stem!r} names "
                                       f"the plot files of {given[0]} too\n")
    assert not out.exists()


def test_evaluate_criterion_and_scenario_ids_naming_one_plot_file_exit_2(sim_out, tmp_path,
                                                                         capsys):
    """Criterion 'gap' on scenario 'x_s' and criterion 'gap_x' on scenario 's' both name
    gap_x_s.csv; no two pairs may write one plot file."""
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [{
        "criterion_id": cid, "metric": "euclidean_distance",
        "params": {"actor_a": "ego", "actor_b": "pedestrian"},
        "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
    } for cid in ("gap", "gap_x")]}))
    src = sim_out / "traces" / "cli_demo_0.csv"
    given = [tmp_path / "x_s.csv", tmp_path / "s.csv"]  # no sidecar: the file name is the id
    for path in given:
        path.write_bytes(src.read_bytes())
    out = tmp_path / "out"
    assert main(["evaluate", "--criteria", str(criteria), "--traces", *map(str, given),
                 "--out", str(out), "--emit-plot-data"]) == 2
    assert capsys.readouterr().err == (f"error: {given[1]}: criterion 'gap_x' names the plot "
                                       f"file gap_x_s.csv of criterion 'gap' on {given[0]} too\n")
    assert not out.exists()


def test_evaluate_checks_the_plot_files_of_the_selected_criteria_only(sim_out, tmp_path):
    """'gap_x' would clash with 'gap' as above, but --perspective leaves it out."""
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [{
        "criterion_id": cid, "metric": "euclidean_distance", "perspective": perspective,
        "params": {"actor_a": "ego", "actor_b": "pedestrian"},
        "threshold": {"comparator": ">", "value": 0.2, "unit": "m"},
    } for cid, perspective in (("gap", "sut"), ("gap_x", "simulation"))]}))
    src = sim_out / "traces" / "cli_demo_0.csv"
    given = [tmp_path / "x_s.csv", tmp_path / "s.csv"]  # no sidecar: the file name is the id
    for path in given:
        path.write_bytes(src.read_bytes())
    out = tmp_path / "out"
    assert main(["evaluate", "--criteria", str(criteria), "--traces", *map(str, given),
                 "--out", str(out), "--emit-plot-data", "--perspective", "sut"]) == 0
    assert sorted(p.name for p in (out / "plot_data").glob("*.csv")) == ["gap_s.csv",
                                                                         "gap_x_s.csv"]
    assert [v["criterion_id"] for v in json.loads(
        (out / "evaluation.json").read_text())["verdicts"]] == ["gap", "gap"]


@pytest.mark.parametrize("criterion", [
    pytest.param(_metric_criterion("ghost_ttc", "ttc", "s", ego="ego", target="ghost"),
                 id="metric_params"),
    pytest.param(_distance_criterion("ghost_start", application_period={
        "start_condition": {"signal": "speed", "actor": "ghost", "comparator": ">",
                            "bound": 0.0, "unit": "m/s"}}), id="start_condition"),
    pytest.param(_distance_criterion("ghost_stop", application_period={
        "start_condition": {"signal": "time", "comparator": ">=", "bound": 0.0, "unit": "s"},
        "stop": {"kind": "event", "event": "actor_passed_conflict", "actor": "ghost"}}),
        id="stop_rule"),
])
def test_unknown_actor_names_trace_file_and_criterion(sim_out, tmp_path, capsys, criterion):
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [criterion]}))
    trace, out = sim_out / "traces" / "cli_demo_0.csv", tmp_path / "out"
    assert _evaluate(trace, criteria, out) == 2
    assert capsys.readouterr().err == (f"error: {trace}: criterion {criterion['criterion_id']!r}: "
                                       f"unknown actor 'ghost'\n")
    assert not out.exists()


@pytest.mark.parametrize("given, expected", [
    # an earlier trace's unknown actor comes before a later trace's bad row
    pytest.param(("plain", "bad"), "{plain}: criterion 'near_ghost': unknown actor 'ghost'",
                 id="actor_before_a_later_bad_row"),
    pytest.param(("bad", "plain"), "{bad}: line 50: non-numeric value", id="bad_row_first"),
    # on one trace, its load comes first, then its plot files, then its criteria's actors
    pytest.param(("ghost", "plain"), "{plain}: scenario id 'run' names the plot files of "
                 "{ghost} too", id="clash_before_actor"),
    pytest.param(("ghost", "bad"), "{bad}: line 50: non-numeric value",
                 id="bad_row_before_clash"),
])
def test_evaluate_errors_come_trace_by_trace(sim_out, tmp_path, capsys, given, expected):
    """Each trace is loaded, its plot files are checked and its criteria judged before the
    next trace loads; each error leaves --out untouched."""
    text = (sim_out / "traces" / "cli_demo_0.csv").read_text()
    lines = text.splitlines()
    fields = lines[49].split(",")
    fields[3] = "oops"  # x_m of the row on line 50
    lines[49] = ",".join(fields)
    paths = {}
    for kind, content in (("plain", text), ("bad", "\n".join(lines) + "\n"),
                          ("ghost", text.replace(",pedestrian,pedestrian,", ",ghost,pedestrian,"))):
        (tmp_path / kind).mkdir()
        paths[kind] = tmp_path / kind / "run.csv"  # no sidecar: each scenario id is 'run'
        paths[kind].write_text(content)
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [_distance_criterion(
        "near_ghost", params={"actor_a": "ego", "actor_b": "ghost"})]}))
    out = tmp_path / "out"
    assert main(["evaluate", "--traces", *(str(paths[kind]) for kind in given), "--criteria",
                 str(criteria), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {expected.format(**paths)}")
    assert not out.exists()


def test_evaluation_json_is_the_report_of_evaluate_suite(sim_out, tmp_path):
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps({"criteria": [
        _distance_criterion("apart"),
        _metric_criterion("pet_margin", "pet", "s", actor_1="ego", actor_2="pedestrian"),
        {"criterion_id": "hits", "metric": "collision_probability",
         "threshold": {"comparator": "<=", "value": 0.0, "unit": "1"}},
        {"criterion_id": "drift", "metric": "dtw", "params": {"actor_ids": ["ego"]},
         "scale": {"breakpoints": [[0.0, 1.0], [5.0, 0.5]], "unit": "m"}},
    ]}))
    out = tmp_path / "out"
    assert main(["evaluate", "--traces", str(sim_out / "traces"), "--criteria", str(criteria),
                 "--out", str(out), "--emit-plot-data"]) in (0, 1)
    report = evaluate_suite(load_criteria(criteria), [
        load_trace_file(p) for p in sorted((sim_out / "traces").glob("*.csv"))])
    assert json.loads((out / "evaluation.json").read_text()) == json.loads(
        json.dumps(_report_dict(report)))
    assert {v.criterion_id for v in report.verdicts} == {"apart", "pet_margin", "hits", "drift"}


def test_compare_skips_the_reference_among_the_runs(sim_out, tmp_path):
    traces = sim_out / "traces"
    ref = traces / "cli_demo_0.csv"
    for runs in ([traces], [ref, traces / "cli_demo_1.csv"]):
        out = tmp_path / f"cmp_{len(runs)}"
        argv = ["compare", "--reference", str(ref), "--runs", *map(str, runs), "--out", str(out)]
        assert main(argv) == 1  # the ego of the faster run drifts
        payload = json.loads((out / "repeatability.json").read_text())
        assert [(e["run_id"], e["actor_id"]) for e in payload["entries"]] == [
            ("cli_demo#1", "ego"), ("cli_demo#1", "pedestrian")]
        assert json.loads((out / "manifest.json").read_text())["inputs"] == [
            str(ref), str(traces / "cli_demo_1.csv")]


@pytest.mark.parametrize("case", ["evaluate_filtered", "compare_reference", "compare_directory",
                                  "evaluate_filtered_before_traces"])
def test_nothing_to_judge_exits_2(sim_out, criteria_ok, tmp_path, capsys, case):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    alone = _copy_trace(sim_out, tmp_path / "alone")
    argv, expected = {
        "evaluate_filtered": (
            ["evaluate", "--traces", str(ref), "--criteria", str(criteria_ok),
             "--perspective", "sut", "--level", "macroscopic"],
            f"{criteria_ok}: no criterion of perspective sut and level macroscopic"),
        # an empty selection is found before any trace is read
        "evaluate_filtered_before_traces": (
            ["evaluate", "--traces", str(tmp_path / "missing.csv"), "--criteria",
             str(criteria_ok), "--level", "macroscopic", "--perspective", "sut"],
            f"{criteria_ok}: no criterion of perspective sut and level macroscopic"),
        "compare_reference": (["compare", "--reference", str(ref), "--runs", str(ref)],
                              f"{ref}: no run to compare but the reference"),
        "compare_directory": (["compare", "--reference", str(alone), "--runs", str(alone.parent)],
                              f"{alone}: no run to compare but the reference"),
    }[case]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, key, value, expected", [
    ("config", "time_step", "fast", "malformed sim config"),
    ("config", "ego_route", [[1.75, -45.0, 0.0], [1.75, -1.75], [100.0, -1.75]],
     "malformed sim config"),
    ("scenario", "fixed", {"t_cross": "soon"}, "malformed logical scenario"),
    ("config", None, [], "sim config must be an object"),
    ("scenario", None, [], "logical scenario must be an object"),
    # a number is a finite JSON number, never NaN, Infinity, a string or a bool
    ("config", "max_duration", math.inf,
     "malformed sim config: max_duration must be a finite number, got inf"),
    pytest.param("config", "max_duration", 10 ** 400,
                 "malformed sim config: max_duration must be a finite number, got 1000",
                 id="config-max_duration-401_digits"),
    ("config", "trigger_gap_time", math.nan,
     "malformed sim config: trigger_gap_time must be a finite number, got nan"),
    ("config", "comfort_decel", math.nan,
     "malformed sim config: comfort_decel must be a finite number, got nan"),
    ("config", "time_step", "0.01",
     "malformed sim config: time_step must be a finite number, got '0.01'"),
    ("config", "max_decel", True,
     "malformed sim config: max_decel must be a finite number, got True"),
    ("config", "ped_crossing", [[12.0, -3.5], [12.0, math.inf]],
     "malformed sim config: ped_crossing must be a finite number, got inf"),
    ("scenario", "parameters",
     [{"name": "v_max", "min": 30.0, "max": math.inf, "step": 4.0, "unit": "km/h"}],
     "malformed logical scenario: parameter 'v_max' max must be a finite number, got inf"),
    ("scenario", "fixed", {"t_cross": 5.0, "d_start": math.nan},
     "malformed logical scenario: fixed 'd_start' must be a finite number, got nan"),
    ("scenario", "fixed", [1], "malformed logical scenario: fixed must be an object, got [1]"),
    # the sim config's own checks
    ("config", "time_step", 0.0, "time_step must be > 0"),
    ("config", "max_duration", 0.005, "max_duration must cover at least one step"),
    ("config", "street_width", 0.0, "street_width must be > 0"),
    ("config", "ego_route", [[1.75, -45.0]], "ego_route needs at least 2 points"),
    ("config", "ped_crossing", [[12.0, -3.5], [12.0, 0.0], [12.0, 3.5]],
     "ped_crossing must be a single segment (2 points)"),
    ("config", "ego_route", [[1.75, -45.0], [1.75, -45.0]], "ego_route must have positive length"),
    ("config", "ped_crossing", [[12.0, 3.5], [12.0, 3.5]],
     "ped_crossing must have positive length"),
    ("config", "comfort_decel", 0.0, "deceleration limits must be > 0"),
    ("config", "max_decel", 2.0, "max_decel must be >= comfort_decel"),
    ("config", "trigger_gap_time", -1.0, "trigger_gap_time must be >= 0"),
    ("config", "ego_start_speed", -1.0, "ego_start_speed must be >= 0"),
])
def test_bad_simulate_input_exits_2_naming_it(mini_scenario, tmp_path, capsys,
                                              name, key, value, expected):
    inputs = {
        "scenario": json.loads(mini_scenario.read_text()),
        "config": json.loads((DATA / "intersection_config.json").read_text()),
    }
    if key is None:  # the whole document
        inputs[name] = value
    else:
        inputs[name][key] = value
    paths = {}
    for which, data in inputs.items():
        paths[which] = tmp_path / f"{which}.json"
        paths[which].write_text(json.dumps(data))
    code = main(["simulate", "--scenario", str(paths["scenario"]),
                 "--config", str(paths["config"]), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[name]}: {expected}")
    assert not (tmp_path / "out").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
