"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from scenq.macro import dtw  # noqa: E402
from scenq.trace import ActorClass, ActorTrack  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert spans.tail_percentile(values) == (90.0, 90.0, 100)
    assert spans.tail_percentile(values * 10) == (99.0, 99.0, 1000)
    assert spans.tail_percentile(values[:20]) == (50.0, 10.0, 20)
    # too few calls for any tail: the median, labelled as p50
    assert spans.tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0, 3)
    assert spans.tail_percentile([]) == (50.0, 0.0, 0)


def test_percentile_is_nearest_rank():
    assert spans.percentile([5.0, 1.0, 4.0, 2.0, 3.0], 50.0) == 3.0
    assert spans.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.0, 2.0, 3.0)


def test_self_time_subtracts_children_once():
    tree = [
        ["cli.main", 0.0, 10.0, None, 0, {}],
        ["trace.load", 1.0, 4.0, 0, 0, {}],
        ["nano.wttc", 5.0, 9.0, 0, 0, {}],
        ["geometry.first_polyline_crossing", 6.0, 8.0, 2, 0, {}],
        # overlaps its sibling: covered time is counted once
        ["geometry.point_polyline_distance", 7.0, 8.5, 2, 0, {}],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 1.5, 2.0, 1.5])


def test_layer_metrics_cover_every_declared_name():
    tree = [
        ["cli.main", 0.0, 2.0, None, 1, {}],
        ["macro.dtw", 0.5, 1.5, 0, 1, {"cells": 400, "peak_bytes": 2**20}],
        ["registry.compute", 1.5, 1.6, 0, 1, {"key": "a", "error": 1}],
        ["registry.compute", 1.6, 1.7, 0, 1, {"key": "a"}],
    ]
    metrics = spans.layer_metrics([tree], untraced_tps=3.0, traced_tps=2.0)
    assert list(metrics) == [name for name, _, _ in spans.metric_specs()]
    assert metrics["macro.dtw_cells_per_s"]["value"] == pytest.approx(400.0)
    assert metrics["macro.dtw_peak_mb"]["value"] == 1.0
    assert metrics["registry.useful_ratio"]["value"] == 0.5
    assert metrics["registry.errors"]["value"] == 1
    assert metrics["cli.self_s"]["value"] == pytest.approx(0.8)
    assert metrics["tracing.overhead"]["value"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_reported_metrics():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(s) for s in spans.metric_specs()]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(gen.WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == [
        "traces_per_s", "peak_rss_mb", "setup_s"]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes().replace(str(root).encode(), b"<out>")
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("workload", ["grid_simulate", "repeat_compare"])
def test_generator_is_deterministic_per_seed(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(workload, seed, tmp_path / name)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def _track(points: np.ndarray) -> ActorTrack:
    n = len(points)
    return ActorTrack("a", ActorClass.VEHICLE, 1.0, np.arange(n) * 0.1, points[:, 0],
                      points[:, 1], np.zeros(n), np.zeros(n), np.zeros(n))


def test_dtw_oracle_agrees_with_macro_dtw_on_tiny_tracks():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(rng.integers(2, 13), 2)) * 5
        b = rng.normal(size=(rng.integers(2, 13), 2)) * 5
        b[1:3] = b[1]  # a standing actor repeats its position
        want = dtw(_track(a), _track(b))
        assert check.dtw_oracle(a, b) == pytest.approx(want, rel=1e-12)
        assert check.dtw_oracle(b, a) == pytest.approx(want, rel=1e-12)


def test_traced_pass_records_each_layer(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "scenario_id": "mini", "parameters": [
            {"name": "v_max", "min": 40.0, "max": 44.0, "step": 4.0, "unit": "km/h"}],
        "fixed": {"t_cross": 5.0, "d_start": 10.0}}))
    spec = tmp_path / "pass.json"
    spec.write_text(json.dumps({"argv": [
        "simulate", "--scenario", str(scenario), "--config",
        "src/scenq/data/intersection_config.json", "--out", "{out}"]}))
    report, span_file = tmp_path / "report.json", tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "child.py"), "--report", str(report),
                    "--spec", str(spec), "--out", str(tmp_path / "out"),
                    "--spans", str(span_file), "--pass-id", "4"],
                   cwd=REPO, check=True, env={"PYTHONPATH": str(REPO / "src")})
    assert json.loads(report.read_text())["rc"] == 0
    recorded = json.loads(span_file.read_text())
    names = [s[0] for s in recorded]
    assert names[0] == "cli.main" and recorded[0][3] is None
    assert names.count("simulator.simulate") == 2
    assert names.count("trace.save") == 2
    assert "scenarios.concretize" in names
    assert {s[4] for s in recorded} == {4}
    metrics = spans.layer_metrics([recorded], 1.0, 1.0)
    assert metrics["simulator.runs"]["value"] == 2
    assert metrics["trace.rows_written"]["value"] == 2 * metrics["simulator.steps"]["value"]
    assert all(t >= 0 for t in spans.self_times(recorded))
