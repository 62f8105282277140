import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from scenq import (
    ActorClass,
    ActorTrack,
    ConcreteScenario,
    SimConfig,
    SimOutcome,
    SimulationError,
    Trace,
    TraceError,
    concretize,
    conflict_point,
    iter_simulate,
    simulate,
    simulate_batch,
    sim_config_from_dict,
    validate_trace,
    write_trace,
)
from scenq.geometry import cumulative_arc, first_polyline_crossing
from scenq.scenarios import LogicalScenario, ParameterRange
from scenq.simulator import EGO_ID, KMH_TO_MPS, PED_ID, RESUME_ACCEL, SPEED_FLOOR, STOP_MARGIN
from scenq.trace import DEFAULT_RADII


def reference_simulate(scenario, config: SimConfig) -> SimOutcome:
    """Scalar reference: one run, one Python step at a time."""
    if isinstance(scenario, ConcreteScenario):
        bindings = scenario.bindings
        scenario_id = scenario.scenario_id
        logical_id = scenario.logical_id
        index = scenario.index
    else:
        bindings = dict(scenario)
        scenario_id, logical_id, index = "adhoc#0", "adhoc", 0

    v_max = float(bindings["v_max"]) * KMH_TO_MPS
    t_cross = float(bindings["t_cross"])
    d_start = float(bindings["d_start"])

    route = [list(p) for p in config.ego_route]
    if "ego_start_x" in bindings:
        route[0][0] = float(bindings["ego_start_x"])
    route_pts = np.asarray(route, dtype=float)
    cum = cumulative_arc(route_pts)
    route_len = float(cum[-1])
    seg_dirs = np.diff(route_pts, axis=0)
    seg_lens = np.hypot(seg_dirs[:, 0], seg_dirs[:, 1])
    seg_head = np.arctan2(seg_dirs[:, 1], seg_dirs[:, 0])

    crossing = np.asarray(config.ped_crossing, dtype=float)
    ped_len = float(math.dist(config.ped_crossing[0], config.ped_crossing[1]))
    ped_dir = (crossing[1] - crossing[0]) / ped_len
    ped_heading = float(math.atan2(ped_dir[1], ped_dir[0]))
    ped_walk_speed = config.street_width / t_cross

    hit = first_polyline_crossing(route_pts, crossing)
    if hit is None:
        conflict_pos = None
        s_conflict = None
        ped_conflict_arc = None
    else:
        conflict_pos, s_conflict, ped_conflict_arc = hit
        s_conflict, ped_conflict_arc = float(s_conflict), float(ped_conflict_arc)
    # the same doubles as Python floats: the loop runs faster and rounds the same
    cum, seg_lens, seg_head, route_pts, seg_dirs, crossing, ped_dir = (
        a.tolist() for a in (cum, seg_lens, seg_head, route_pts, seg_dirs, crossing, ped_dir))

    r_ego = DEFAULT_RADII[ActorClass.VEHICLE]
    r_ped = DEFAULT_RADII[ActorClass.PEDESTRIAN]
    r_sum = r_ego + r_ped

    dt = config.time_step
    n_max = int(round(config.max_duration / dt)) + 1
    ego_x = np.empty(n_max)
    ego_y = np.empty(n_max)
    ego_h = np.empty(n_max)
    ego_v = np.empty(n_max)
    ego_a = np.empty(n_max)
    ped_x = np.empty(n_max)
    ped_y = np.empty(n_max)
    ped_v = np.empty(n_max)

    v = v_max if config.ego_start_speed is None else min(config.ego_start_speed, v_max)
    s = 0.0
    ped_arc = 0.0
    seg_idx = 0
    ped_started = False
    braking = False
    escalated = False
    min_distance = math.inf
    collided = False
    completed = False
    events: dict[str, float] = {}
    stop_target = None
    if s_conflict is not None:
        stop_target = s_conflict - r_sum - STOP_MARGIN

    n = 0
    for k in range(n_max):
        t = k * dt

        # position on route
        while seg_idx < len(seg_lens) - 1 and s > cum[seg_idx + 1]:
            seg_idx += 1
        frac = min(max(s - cum[seg_idx], 0.0), seg_lens[seg_idx]) / seg_lens[seg_idx]
        ex = route_pts[seg_idx][0] + frac * seg_dirs[seg_idx][0]
        ey = route_pts[seg_idx][1] + frac * seg_dirs[seg_idx][1]
        px = crossing[0][0] + ped_arc * ped_dir[0]
        py = crossing[0][1] + ped_arc * ped_dir[1]

        dist = math.hypot(ex - px, ey - py)
        if not ped_started and dist <= d_start:
            ped_started = True
            events.setdefault("ped_crossing_started", t)
        ped_speed = ped_walk_speed if (ped_started and ped_arc < ped_len) else 0.0

        # controller
        ped_cleared = ped_conflict_arc is not None and ped_arc >= ped_conflict_arc + r_sum
        ego_past_zone = s_conflict is not None and s >= s_conflict + r_sum
        if braking and (ped_cleared or ego_past_zone or not ped_started):
            braking = False
            escalated = False
        if braking:
            if not escalated and s + v * v / (2.0 * config.comfort_decel) > stop_target:
                escalated = True
            a = -(config.max_decel if escalated else config.comfort_decel)
        else:
            a = RESUME_ACCEL if v < v_max else 0.0
            if (
                s_conflict is not None
                and ped_started
                and not ped_cleared
                and not ego_past_zone
                and config.trigger_gap_time > 0.0
            ):
                t_ego = (s_conflict - s) / max(v, SPEED_FLOOR)
                t_ped = max(ped_conflict_arc - ped_arc, 0.0) / max(ped_speed, SPEED_FLOOR)
                if abs(t_ego - t_ped) < config.trigger_gap_time:
                    if s + v * v / (2.0 * config.max_decel) <= stop_target:
                        braking = True
                        escalated = s + v * v / (2.0 * config.comfort_decel) > stop_target
                        a = -(config.max_decel if escalated else config.comfort_decel)
                        events.setdefault("braking_started", t)

        v_next = min(max(v + a * dt, 0.0), v_max)

        ego_x[k] = ex
        ego_y[k] = ey
        ego_h[k] = seg_head[seg_idx]
        ego_v[k] = v
        ego_a[k] = (v_next - v) / dt
        ped_x[k] = px
        ped_y[k] = py
        ped_v[k] = ped_speed
        n = k + 1

        if dist < min_distance:
            min_distance = dist
        if s_conflict is not None and s >= s_conflict:
            events.setdefault("ego_passed_conflict", t)
        if ped_conflict_arc is not None and ped_arc >= ped_conflict_arc:
            events.setdefault("ped_passed_conflict", t)
        if dist <= r_sum:
            collided = True
            events.setdefault("collision", t)
            break
        if s >= route_len:
            completed = True
            break

        s += v * dt
        v = v_next
        ped_arc = min(ped_arc + ped_speed * dt, ped_len)

    if collided:
        end_reason = "collision"
    elif completed:
        end_reason = "route_completed"
    else:
        end_reason = "timeout"
    events["scenario_end"] = (n - 1) * dt

    times = np.arange(n) * dt
    metadata = {"logical_id": logical_id, "index": str(index), "end_reason": end_reason}
    for name, value in bindings.items():
        metadata[f"binding_{name}"] = repr(float(value))
    for name, value in events.items():
        metadata[f"event_{name}"] = repr(value)
    if conflict_pos is not None:
        metadata["conflict_x"] = repr(float(conflict_pos[0]))
        metadata["conflict_y"] = repr(float(conflict_pos[1]))
        metadata["conflict_ego_arc"] = repr(float(s_conflict))
        metadata["conflict_other_arc"] = repr(float(ped_conflict_arc))

    ego_track = ActorTrack(EGO_ID, ActorClass.VEHICLE, r_ego, times, ego_x[:n], ego_y[:n],
                           ego_h[:n], ego_v[:n], ego_a[:n])
    ped_track = ActorTrack(PED_ID, ActorClass.PEDESTRIAN, r_ped, times, ped_x[:n],
                           ped_y[:n], np.full(n, ped_heading), ped_v[:n], np.zeros(n))
    trace = Trace(scenario_id, dt, {EGO_ID: ego_track, PED_ID: ped_track}, metadata)
    return SimOutcome(trace, collided, min_distance, completed, end_reason, events)


TRACK_FIELDS = ("times", "xs", "ys", "headings", "speeds", "accels")


def assert_same_outcome(got: SimOutcome, want: SimOutcome) -> None:
    """Every field equal, arrays bit for bit and dicts in the same key order."""
    label = want.trace.scenario_id
    assert (got.collided, got.completed, got.end_reason) == (
        want.collided, want.completed, want.end_reason), label
    assert got.min_distance == want.min_distance, label
    assert list(got.events.items()) == list(want.events.items()), label
    assert got.trace.scenario_id == want.trace.scenario_id
    assert got.trace.time_step == want.trace.time_step, label
    assert list(got.trace.metadata.items()) == list(want.trace.metadata.items()), label
    assert list(got.trace.tracks) == list(want.trace.tracks), label
    for actor, track in want.trace.tracks.items():
        mine = got.trace.track(actor)
        assert (mine.actor_class, mine.radius) == (track.actor_class, track.radius), label
        for name in TRACK_FIELDS:
            assert getattr(mine, name).tobytes() == getattr(track, name).tobytes(), (
                label, actor, name)


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
    batch = simulate_batch(concretize(logical), intersection_config)
    assert [o.trace.scenario_id for o in batch] == ["mini#0", "mini#1"]
    for outcome, v_max in zip(batch, (30.0, 34.0)):
        single = simulate({"v_max": v_max, "t_cross": 5.0, "d_start": 16.0}, intersection_config)
        assert single.trace.scenario_id == "adhoc#0"
        assert write_trace(single.trace) == write_trace(outcome.trace)
        assert list(single.events.items()) == list(outcome.events.items())


def test_batch_equals_scalar_reference_on_bundled_grids(
        batch600, intersection_config, sweep_runs, sweep_logical, sweep_config):
    scenarios, outcomes, _ = batch600
    for scenario, outcome in zip(scenarios, outcomes):
        assert_same_outcome(outcome, reference_simulate(scenario, intersection_config))
    for scenario, (_, outcome) in zip(concretize(sweep_logical), sweep_runs):
        assert_same_outcome(outcome, reference_simulate(scenario, sweep_config))


#: Config variants for the random batches, on top of the bundled intersection
#: cut to 20 s, each with the case at least one of its runs must reach
EDGE_CONFIGS = {
    "intersection": ({}, lambda o: o.collided),
    "route_misses_crossing": ({"ego_route": ((50.0, -45.0), (50.0, 45.0))},
                              lambda o: "conflict_x" not in o.trace.metadata),
    "no_braking": ({"trigger_gap_time": 0.0}, lambda o: o.completed),
    "standing_start": ({"ego_start_speed": 0.0}, lambda o: "braking_started" in o.events),
    "gentle_start": ({"ego_start_speed": 4.0, "comfort_decel": 1.5},
                     lambda o: o.trace.track("ego").speeds[0] == 4.0),
    "timeout": ({"max_duration": 3.0}, lambda o: o.end_reason == "timeout"),
    "contact_at_step_1": ({"ego_route": ((10.65, -3.5), (100.0, -3.5))},
                          lambda o: o.events.get("collision") == 0.01),
}
#: Bindings every variant runs besides the random draws
EDGE_BINDINGS = (
    {"v_max": 32.0, "t_cross": 5.0, "d_start": 0.0},
    {"v_max": 0.0, "t_cross": 5.0, "d_start": 16.0},
    {"v_max": -0.0, "t_cross": 5.0, "d_start": 16.0},
    {"v_max": 58.0, "t_cross": 5.0, "d_start": 10.0},
    {"v_max": 58.0, "t_cross": 3.0, "d_start": 16.0, "ego_start_x": 69.0},
)


@pytest.mark.parametrize("variant", sorted(EDGE_CONFIGS))
def test_batch_equals_scalar_reference_on_random_bindings(intersection_config, variant):
    overrides, reaches = EDGE_CONFIGS[variant]
    config = replace(intersection_config, **{"max_duration": 20.0, **overrides})
    rng = np.random.default_rng(sorted(EDGE_CONFIGS).index(variant))
    draws = [dict(b) for b in EDGE_BINDINGS]
    for _ in range(25):
        bindings = {"v_max": rng.uniform(0.0, 70.0), "t_cross": rng.uniform(0.5, 12.0),
                    "d_start": rng.uniform(0.0, 40.0)}
        if rng.random() < 0.3:
            bindings["ego_start_x"] = rng.uniform(-30.0, 30.0)
        draws.append(bindings)
    scenarios = [ConcreteScenario(f"{variant}#{i}", variant, b, i) for i, b in enumerate(draws)]
    outcomes = simulate_batch(scenarios, config)
    for scenario, outcome in zip(scenarios, outcomes):
        assert_same_outcome(outcome, reference_simulate(scenario, config))
    assert any(reaches(o) for o in outcomes)


#: Runs that end at 19.12 s, in a collision at 3.27 s and at 14.36 s, in that order
STREAMED = ({"v_max": 30.0, "t_cross": 5.0, "d_start": 16.0},
            {"v_max": 58.0, "t_cross": 5.0, "d_start": 10.0},
            {"v_max": 50.0, "t_cross": 9.0, "d_start": 40.0})


def test_iter_simulate_yields_each_run_as_it_ends(intersection_config):
    scenarios = [ConcreteScenario(f"s#{i}", "s", b, i) for i, b in enumerate(STREAMED)]
    stream = list(iter_simulate(scenarios, intersection_config))
    # each once, in the order they end: the early collision before the long runs
    assert [i for i, _ in stream] == [1, 2, 0]
    assert [o.end_reason for _, o in stream] == ["collision", "route_completed", "route_completed"]
    for i, outcome in stream:
        assert_same_outcome(outcome, simulate(scenarios[i], intersection_config))


def test_iter_simulate_frees_a_recording_with_its_outcome(intersection_config):
    stream = iter_simulate(STREAMED, intersection_config)
    _, outcome = next(stream)
    recording = weakref.ref(outcome.trace.track("ego").speeds.base)
    # s, v, accel, pedestrian arc and speed for each step the run took, not max_duration's
    assert recording().shape == (5, len(outcome.trace.track("ego")))
    del outcome
    next(stream)
    assert recording() is None


def test_iter_simulate_holds_only_the_steps_taken(intersection_logical, intersection_config):
    runs = list(concretize(intersection_logical))[::75]

    def peak(max_duration: float) -> int:
        config = replace(intersection_config, max_duration=max_duration)
        tracemalloc.start()
        try:
            for _ in iter_simulate(runs, config):
                pass  # each outcome freed as the next run is taken
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # every run ends within 40 s: recordings sized by max_duration would grow tenfold
    assert max(o.trace.overlap()[1] for o in simulate_batch(runs, intersection_config)) < 40.0
    peaks = [peak(40.0), peak(400.0)]
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_contact_at_step_0_fails_as_in_the_reference(intersection_config):
    # one recorded state is not a trace: the reference fails on the track,
    # a batch names the run before it steps
    config = replace(intersection_config, ego_route=((11.5, -3.5), (100.0, -3.5)))
    with pytest.raises(TraceError, match="'ego': needs at least 2 states"):
        reference_simulate(REF, config)
    with pytest.raises(SimulationError,
                       match=r"^adhoc#0: ego starts in contact with the pedestrian$"):
        simulate_batch([{**REF, "ego_start_x": -20.0}, REF], config)
    # moved out of contact by its own ego_start_x, a run steps as the reference does
    assert_same_outcome(simulate_batch([{**REF, "ego_start_x": -20.0}], config)[0],
                        reference_simulate({**REF, "ego_start_x": -20.0}, config))


def test_bad_bindings_name_the_run_before_any_step(intersection_config):
    logical = LogicalScenario(
        "mini", "",
        (ParameterRange("t_cross", 0.0, 5.0, 5.0),),
        {"v_max": 30.0, "d_start": 16.0},
    )
    with pytest.raises(SimulationError, match=r"^mini#0: t_cross must be > 0$"):
        simulate_batch(concretize(logical), intersection_config)
    with pytest.raises(SimulationError, match=r"^adhoc#0: missing binding 'd_start'$"):
        simulate({"v_max": 30.0, "t_cross": 5.0}, intersection_config)


@pytest.mark.parametrize("route, start_x", [
    (((1.75, -45.0), (1.75, -45.0), (1.75, -1.75), (100.0, -1.75)), None),
    (((1.75, -45.0), (1.75, -1.75), (1.75, -1.75), (100.0, -1.75)), None),
    (((0.0, -45.0), (1.75, -45.0), (1.75, -1.75), (100.0, -1.75)), 1.75),
])
def test_zero_length_route_steps_are_dropped(intersection_config, route, start_x):
    # a repeated vertex, given or made by ego_start_x, runs as the route without it
    plain = ((1.75, -45.0), (1.75, -1.75), (100.0, -1.75))
    draws = [REF, {"v_max": 42.0, "t_cross": 5.0, "d_start": 10.0},
             {"v_max": 58.0, "t_cross": 9.0, "d_start": 24.0}]
    if start_x is not None:
        draws = [{**b, "ego_start_x": start_x} for b in draws]
    scenarios = [ConcreteScenario(f"r#{i}", "r", b, i) for i, b in enumerate(draws)]
    got = simulate_batch(scenarios, replace(intersection_config, ego_route=route))
    want = simulate_batch(scenarios, replace(intersection_config, ego_route=plain))
    for mine, theirs in zip(got, want):
        assert_same_outcome(mine, theirs)
        assert write_trace(mine.trace) == write_trace(theirs.trace)
    assert any(o.collided for o in want) and any(o.completed for o in want)
