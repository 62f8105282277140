import errno
import hashlib
import json
import logging
from pathlib import Path

import pytest

from scenq import (
    ActorTrack, Trace, TraceParseError, concretize, load_criteria, load_logical_scenario,
    load_sim_config, load_trace_file, registry, save_trace, simulate_batch, write_series,
    write_concrete_set, write_trace,
)
from scenq import scenarios
from scenq.cli import _collect_trace_paths, _safe_name, main

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
    assert [p.name for p in traces] == ["cli_demo_0.csv", "cli_demo_0.csv.meta.json",
                                        "cli_demo_1.csv", "cli_demo_1.csv.meta.json"]
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


def test_simulate_jsonl_matches_csv(workdir, mini_scenario, sim_out, criteria_ok):
    out = workdir / "sim_jsonl"
    code = main([
        "simulate",
        "--scenario", str(mini_scenario),
        "--config", str(DATA / "intersection_config.json"),
        "--out", str(out),
        "--format", "jsonl",
    ])
    assert code == 0
    csv_paths = sorted((sim_out / "traces").glob("*.csv"))
    jsonl_paths = sorted((out / "traces").glob("*.jsonl"))
    assert [p.stem for p in jsonl_paths] == [p.stem for p in csv_paths] == ["cli_demo_0",
                                                                            "cli_demo_1"]
    for csv_path, jsonl_path in zip(csv_paths, jsonl_paths):
        a, b = load_trace_file(csv_path), load_trace_file(jsonl_path)
        assert (b.scenario_id, b.time_step, b.metadata) == (a.scenario_id, a.time_step,
                                                            a.metadata)
        assert b.actor_ids() == a.actor_ids()
        for actor_id in a.actor_ids():
            for name in ("times", "xs", "ys", "headings", "speeds", "accels"):
                assert getattr(b.track(actor_id), name).tobytes() == \
                    getattr(a.track(actor_id), name).tobytes(), (jsonl_path, actor_id, name)
    reports = []
    for fmt, traces in (("csv", sim_out / "traces"), ("jsonl", out / "traces")):
        eval_out = workdir / f"eval_from_{fmt}"
        code = main(["evaluate", "--traces", str(traces), "--criteria", str(criteria_ok),
                     "--out", str(eval_out)])
        assert code == 0
        reports.append((eval_out / "evaluation.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_simulate_writes_each_trace_as_write_trace(tmp_path, fmt):
    """One batch writes the grid's traces; each file holds what write_trace gives
    that run alone, and each sidecar what save_trace writes."""
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
        path = out / "traces" / f"{_safe_name(outcome.trace.scenario_id)}.{fmt}"
        assert path.read_text(encoding="utf-8") == write_trace(outcome.trace, fmt)
        alone = save_trace(outcome.trace, tmp_path / path.name)
        sidecar = path.name + ".meta.json"
        assert (path.parent / sidecar).read_bytes() == (alone.parent / sidecar).read_bytes()


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
                f"{_safe_name(criterion.criterion_id)}_{_safe_name(trace.scenario_id)}.csv"
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
    names = sorted(p.name for p in reference.iterdir())
    # every file written, series sidecars included, sorted
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["evaluation.json"] + [f"plot_data/{name}" for name in names]
    assert sorted(p.name for p in (out / "plot_data").iterdir()) == names
    for name in names:  # series and their .meta.json sidecars
        assert (out / "plot_data" / name).read_bytes() == (reference / name).read_bytes()


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
        "--runs", str(ref),
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
    argv = ["compare", "--reference", str(ref), "--runs", str(ref)]
    code = main(argv + ["--threshold", "nan", "--out", str(workdir / "cmp_nan")])
    assert code == 2
    assert "threshold must be >= 0, got nan" in capsys.readouterr().err
    assert main(argv + ["--threshold", "inf", "--out", str(workdir / "cmp_inf")]) == 0


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


def test_compare_logs_stage_counts(workdir, sim_out, caplog, capsys):
    ref = sim_out / "traces" / "cli_demo_0.csv"
    other = sim_out / "traces" / "cli_demo_1.csv"
    argv = ["compare", "--reference", str(ref), "--runs", str(ref), str(other)]
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


def test_sweep_outputs(workdir, sweep_mini):
    out = workdir / "sweep"
    code = main([
        "sweep",
        "--scenario", str(sweep_mini),
        "--config", str(DATA / "sweep_config.json"),
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("ego_start_x,min_euclidean_distance,min_wttc,min_gap_time,"
                        "collided,end_reason")
    assert len(lines) == 8
    findings = json.loads((out / "gap_findings.json").read_text())
    assert set(findings) == {"min_euclidean_distance", "min_wttc", "min_gap_time"}
    scalars = (out / "sweep_scalars.jsonl").read_text().splitlines()
    assert len(scalars) == 7 * 3


def test_sweep_rejects_multi_parameter_scenario(workdir):
    out = workdir / "sweep_bad"
    code = main([
        "sweep",
        "--scenario", str(DATA / "intersection_scenario.json"),
        "--config", str(DATA / "sweep_config.json"),
        "--out", str(out),
    ])
    assert code == 2


def test_failed_sweep_writes_nothing(tmp_path, capsys):
    scenario = json.loads((DATA / "sweep_scenario.json").read_text())
    scenario["parameters"][0]["max"] = 39.0  # two points: too few for gap detection
    (tmp_path / "two_points.json").write_text(json.dumps(scenario))
    out = tmp_path / "sweep"
    code = main([
        "sweep",
        "--scenario", str(tmp_path / "two_points.json"),
        "--config", str(DATA / "sweep_config.json"),
        "--out", str(out),
    ])
    assert code == 2
    assert "at least 3 defined sweep points" in capsys.readouterr().err
    assert not out.exists()


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
    out = tmp_path / "out"
    code = main([command, "--scenario", str(path), "--config",
                 str(DATA / "intersection_config.json"), "--out", str(out), "--jobs", "4"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {expected}\n"
    assert not out.exists()


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
    compare = ["compare", "--reference", trace, "--runs", trace]
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
        "cli_demo_0.csv", "cli_demo_0.csv.meta.json"]
    assert len((out / "outcomes.jsonl").read_text().splitlines()) == 1
    assert json.loads((out / "manifest.json").read_text())["outputs"] == [
        "outcomes.jsonl", "scenarios.jsonl", "traces/cli_demo_0.csv",
        "traces/cli_demo_0.csv.meta.json"]
    assert (out / "notes.txt").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "smaller.json"]
    probe = tmp_path / "probe"
    probe.mkdir()  # out has the permissions of a directory made the usual way
    assert out.stat().st_mode == probe.stat().st_mode


def test_out_name_of_250_characters(sim_out, tmp_path):
    ref = str(sim_out / "traces" / "cli_demo_0.csv")
    out = tmp_path / ("o" * 250)
    assert main(["compare", "--reference", ref, "--runs", ref, "--out", str(out)]) == 0
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


def test_missing_input_exits_2(workdir):
    code = main([
        "simulate",
        "--scenario", str(workdir / "nope.json"),
        "--config", str(DATA / "intersection_config.json"),
        "--out", str(workdir / "x"),
    ])
    assert code == 2


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
    ('{"scenario_id": 7, "time_step": 0.01}', "'scenario_id' must be a non-empty string"),
    ('{"scenario_id": "", "time_step": 0.01}', "'scenario_id' must be a non-empty string"),
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


def test_missing_trace_column_exits_2_naming_file(sim_out, criteria_ok, tmp_path, capsys):
    trace = _copy_trace(sim_out, tmp_path / "traces")
    lines = trace.read_text().splitlines()
    lines[0] = lines[0].replace("actor_id", "agent_id")
    trace.write_text("\n".join(lines) + "\n")
    assert _evaluate(trace, criteria_ok, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: missing CSV columns: actor_id")


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
])
def test_bad_criteria_file_exits_2_naming_it(sim_out, tmp_path, capsys, payload, expected):
    criteria = tmp_path / "criteria.json"
    criteria.write_text(json.dumps(payload))
    assert _evaluate(sim_out / "traces", criteria, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {criteria}: ")
    assert expected in err


@pytest.mark.parametrize("name, key, value, expected", [
    ("config", "time_step", "fast", "malformed sim config"),
    ("config", "ego_route", [[1.75, -45.0, 0.0], [1.75, -1.75], [100.0, -1.75]],
     "malformed sim config"),
    ("scenario", "fixed", {"t_cross": "soon"}, "malformed logical scenario"),
    ("config", None, [], "sim config must be an object"),
    ("scenario", None, [], "logical scenario must be an object"),
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


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
