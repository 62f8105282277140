import json

import pytest

from scenq import (
    LogicalScenario,
    ParameterRange,
    ScenarioError,
    concretize,
    grid_size,
    iter_concretize,
    load_logical_scenario,
    write_concrete_set,
)


def test_range_values_and_count():
    r = ParameterRange("v", 30.0, 58.0, 2.0, unit="km/h")
    assert r.count == 15
    vals = r.values()
    assert vals[0] == 30.0
    assert vals[-1] == 58.0
    assert vals[1] - vals[0] == 2.0


def test_range_single_point():
    r = ParameterRange("x", 5.0, 5.0, 1.0)
    assert r.count == 1
    assert r.values() == [5.0]


def test_range_fractional_step_hits_endpoint():
    # 0.1 is not exactly representable; the endpoint must still be exact
    r = ParameterRange("x", 0.0, 1.0, 0.1)
    assert r.count == 11
    assert r.values()[-1] == 1.0


def test_range_contains_and_index():
    r = ParameterRange("x", 10.0, 24.0, 2.0)
    assert r.contains(16.0)
    assert not r.contains(15.0)
    assert not r.contains(26.0)
    assert r.index_of(16.0) == 3


def test_range_rejects_bad_definitions():
    with pytest.raises(ScenarioError):
        ParameterRange("x", 0.0, 10.0, 0.0)
    with pytest.raises(ScenarioError):
        ParameterRange("x", 10.0, 0.0, 1.0)
    with pytest.raises(ScenarioError):
        ParameterRange("x", 0.0, 10.0, 3.0)  # span not a step multiple


def test_logical_rejects_name_collisions():
    with pytest.raises(ScenarioError):
        LogicalScenario(
            "s", "", (ParameterRange("a", 0, 1, 1), ParameterRange("a", 0, 1, 1)), {}
        )
    with pytest.raises(ScenarioError):
        LogicalScenario("s", "", (ParameterRange("a", 0, 1, 1),), {"a": 3.0})


def simple_logical():
    return LogicalScenario(
        "demo",
        "three by two grid",
        (ParameterRange("a", 0.0, 2.0, 1.0), ParameterRange("b", 10.0, 20.0, 10.0)),
        {"c": 7.0},
    )


def test_grid_size_and_expansion():
    logical = simple_logical()
    assert grid_size(logical) == 6
    runs = concretize(logical)
    assert len(runs) == 6
    assert len({r.scenario_id for r in runs}) == 6
    assert all(r.scenario_id == f"demo#{r.index}" for r in runs)
    assert all(r.bindings["c"] == 7.0 for r in runs)


def test_expansion_order_last_parameter_fastest():
    runs = concretize(simple_logical())
    assert [r.bindings["b"] for r in runs[:2]] == [10.0, 20.0]
    assert [r.bindings["a"] for r in runs[:3]] == [0.0, 0.0, 1.0]


def test_iter_concretize_matches_concretize():
    logical = simple_logical()
    assert list(iter_concretize(logical)) == concretize(logical)


def test_fixed_only_scenario_yields_one_run():
    logical = LogicalScenario("only", "", (), {"a": 1.0})
    runs = concretize(logical)
    assert len(runs) == 1
    assert runs[0].bindings == {"a": 1.0}


def test_file_roundtrip_and_json_keys(tmp_path):
    logical = simple_logical()
    p = tmp_path / "logical.json"
    p.write_text(json.dumps({
        "scenario_id": logical.scenario_id,
        "description": logical.description,
        "parameters": [{"name": r.name, "min": r.minimum, "max": r.maximum, "step": r.step,
                        "unit": r.unit} for r in logical.parameters],
        "fixed": dict(logical.fixed),
    }))
    data = json.loads(p.read_text())
    assert data["parameters"][0]["min"] == 0.0
    assert data["parameters"][0]["max"] == 2.0
    assert load_logical_scenario(p) == logical


def test_load_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "scenario_id": "s", "description": "",
        "parameters": [{"name": "a", "min": 0, "max": 1, "step": 1, "typo": 1}],
        "fixed": {},
    }))
    with pytest.raises(ScenarioError):
        load_logical_scenario(p)


def test_write_concrete_set(tmp_path):
    runs = concretize(simple_logical())
    p = tmp_path / "runs.jsonl"
    write_concrete_set(runs, p)
    lines = [json.loads(line) for line in p.read_text().splitlines()]
    assert len(lines) == 6
    assert lines[0]["scenario_id"] == "demo#0"
    assert lines[0]["bindings"]["c"] == 7.0
