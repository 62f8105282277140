import math
from dataclasses import replace

import numpy as np
import pytest

from scenq import (
    SimConfig,
    SimulationError,
    conflict_point,
    simulate,
    simulate_batch,
    sim_config_from_dict,
    validate_trace,
    write_trace,
)
from scenq.scenarios import LogicalScenario, ParameterRange

REF = {"v_max": 32.0, "t_cross": 5.0, "d_start": 16.0}


def test_identical_inputs_identical_bytes(intersection_config):
    a = simulate(REF, intersection_config)
    b = simulate(REF, intersection_config)
    assert write_trace(a.trace) == write_trace(b.trace)
    assert a.events == b.events
    assert a.min_distance == b.min_distance


def test_reference_run_shape(intersection_config, reference_outcome):
    out = reference_outcome
    assert out.end_reason == "route_completed"
    assert out.completed and not out.collided
    ev = out.events
    assert "ped_crossing_started" in ev
    assert "braking_started" in ev
    assert ev["braking_started"] >= ev["ped_crossing_started"]
    assert ev["ped_passed_conflict"] < ev["ego_passed_conflict"]
    # the trigger distance is honored at the step it first fires
    trace = out.trace
    k = int(round(ev["ped_crossing_started"] / trace.time_step))
    ego, ped = trace.track("ego"), trace.track("pedestrian")
    d = math.hypot(ego.xs[k] - ped.xs[k], ego.ys[k] - ped.ys[k])
    assert d <= REF["d_start"]


def test_pedestrian_crosses_at_constant_speed(reference_outcome):
    out = reference_outcome
    ped = out.trace.track("pedestrian")
    walking = ped.speeds[ped.speeds > 0.0]
    assert walking.size > 0
    expect = 7.0 / REF["t_cross"]
    assert np.allclose(walking, expect)
    # full crossing takes t_cross seconds
    moving = np.flatnonzero(ped.speeds > 0.0)
    duration = ped.times[moving[-1]] - ped.times[moving[0]]
    assert abs(duration - REF["t_cross"]) <= 2 * out.trace.time_step


def test_speed_and_accel_stay_bounded(intersection_config, reference_outcome):
    ego = reference_outcome.trace.track("ego")
    v_cap = REF["v_max"] / 3.6
    assert np.all(ego.speeds <= v_cap + 1e-9)
    assert np.all(ego.speeds >= 0.0)
    assert np.all(ego.accels <= 2.0 + 1e-9)
    assert np.all(ego.accels >= -intersection_config.max_decel - 1e-9)


def test_braking_slows_then_resumes(reference_outcome):
    ego = reference_outcome.trace.track("ego")
    v_cap = REF["v_max"] / 3.6
    k_min = int(np.argmin(ego.speeds))
    assert ego.speeds[k_min] < 0.5 * v_cap
    assert ego.speeds[-1] > 0.9 * v_cap


def test_zero_trigger_distance_never_starts_pedestrian(intersection_config):
    out = simulate({**REF, "d_start": 0.0}, intersection_config)
    assert "ped_crossing_started" not in out.events
    assert out.completed
    ped = out.trace.track("pedestrian")
    assert np.all(ped.speeds == 0.0)


def test_trigger_time_monotone_in_d_start(intersection_config):
    starts = []
    for d in (10.0, 16.0, 24.0):
        out = simulate({**REF, "d_start": d}, intersection_config)
        starts.append(out.events["ped_crossing_started"])
    assert starts[0] >= starts[1] >= starts[2]


def test_collision_run_records_overlap(intersection_config):
    out = simulate({"v_max": 58.0, "t_cross": 5.0, "d_start": 10.0}, intersection_config)
    assert out.collided
    assert out.end_reason == "collision"
    assert out.min_distance <= 1.3
    trace = out.trace
    ego, ped = trace.track("ego"), trace.track("pedestrian")
    d_last = math.hypot(ego.xs[-1] - ped.xs[-1], ego.ys[-1] - ped.ys[-1])
    assert d_last <= 1.3
    report = validate_trace(trace)
    assert any(i.code == "collision" for i in report.issues)
    assert report.ok  # contact is a warning, not an error


def test_clean_run_validates_clean(reference_outcome):
    report = validate_trace(reference_outcome.trace)
    assert report.ok
    assert not report.issues


def test_timeout_end_reason(intersection_config):
    config = replace(intersection_config, max_duration=2.0)
    out = simulate(REF, config)
    assert out.end_reason == "timeout"
    assert not out.completed


def test_conflict_metadata_matches_geometry(reference_outcome):
    # the planned crossing of the configured route and crosswalk
    planned = conflict_point(reference_outcome.trace, "ego", "pedestrian")
    assert planned is not None
    assert planned.position == (12.0, -1.75)
    assert math.isclose(planned.ego_arc_length, 53.5)
    assert math.isclose(planned.other_arc_length, 1.75)
    swapped = conflict_point(reference_outcome.trace, "pedestrian", "ego")
    assert swapped.position == planned.position
    assert swapped.ego_arc_length == planned.other_arc_length
    assert swapped.other_arc_length == planned.ego_arc_length


def test_missing_binding_rejected(intersection_config):
    with pytest.raises(SimulationError):
        simulate({"v_max": 30.0, "t_cross": 5.0}, intersection_config)
    with pytest.raises(SimulationError):
        simulate({**REF, "t_cross": 0.0}, intersection_config)


def test_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(time_step=0.0)
    with pytest.raises(SimulationError):
        SimConfig(comfort_decel=5.0, max_decel=3.0)
    with pytest.raises(SimulationError):
        sim_config_from_dict({"time_step": 0.01, "typo": 1.0})


def test_ego_start_speed_override(sweep_config):
    out = simulate({**REF, "ego_start_x": 70.0}, sweep_config)
    ego = out.trace.track("ego")
    assert ego.speeds[0] == 0.0
    assert ego.xs[0] == 70.0


def test_batch_matches_single_runs(intersection_config):
    logical = LogicalScenario(
        "mini", "",
        (ParameterRange("v_max", 30.0, 34.0, 4.0),),
        {"t_cross": 5.0, "d_start": 16.0},
    )
    serial = simulate_batch(logical, intersection_config)
    assert [o.trace.scenario_id for o in serial] == ["mini#0", "mini#1"]
    single = simulate({"v_max": 30.0, "t_cross": 5.0, "d_start": 16.0}, intersection_config)
    assert np.array_equal(serial[0].trace.track("ego").xs, single.trace.track("ego").xs)
    parallel = simulate_batch(logical, intersection_config, jobs=2)
    for a, b in zip(serial, parallel):
        assert write_trace(a.trace) == write_trace(b.trace)
