import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from scenq import (
    ActorClass,
    ActorTrack,
    ApplicationPeriod,
    CriterionError,
    MetricError,
    QualityCriterion,
    Scale,
    ScalarResult,
    StopRule,
    Threshold,
    Trace,
    UnitMismatchError,
    Verdict,
    active_intervals,
    always_active,
    comparison_margin,
    condition,
    evaluate_criterion,
    evaluate_suite,
    load_criteria,
    margin_holds,
    normalize_comparator,
    registry,
    undefined_scalar,
)
from scenq.criteria import (
    COMPARATORS,
    STOP_ELAPSED,
    STOP_EVENT,
    ConditionNode,
    _event_time,
    _margins_and_holds,
)
from scenq.micro import margin_runs
from scenq.nano import euclidean_distance
from scenq.trace import common_grid


def speed_track(speeds, dt=1.0, actor_id="ego", y=0.0):
    speeds = np.asarray(speeds, dtype=float)
    n = len(speeds)
    times = np.arange(n) * dt
    xs = np.concatenate([[0.0], np.cumsum(speeds[:-1] * dt)])
    return ActorTrack(
        actor_id=actor_id,
        actor_class=ActorClass.VEHICLE,
        radius=1.0,
        times=times,
        xs=xs,
        ys=np.full(n, y),
        headings=np.zeros(n),
        speeds=speeds,
        accels=np.gradient(speeds, times),
    )


def one_actor_trace(speeds, dt=1.0, metadata=None):
    track = speed_track(speeds, dt)
    return Trace("t", dt, {"ego": track}, metadata or {})


TRIANGLE = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 8.0, 6.0, 4.0, 2.0, 0.0]


def test_comparator_normalization_and_margins():
    assert normalize_comparator("==") == "="
    with pytest.raises(CriterionError):
        normalize_comparator("!=")
    assert comparison_margin("<", 3.0, 5.0) == 2.0
    assert comparison_margin(">", 3.0, 5.0) == -2.0
    assert margin_holds("<", 0.0) == False  # strict
    assert margin_holds("<=", 0.0) == True
    assert bool(margin_holds("=", comparison_margin("=", 5.0, 5.0)))
    assert not bool(margin_holds("=", comparison_margin("=", 5.0, 5.1)))


def test_condition_tree_validation():
    with pytest.raises(CriterionError):
        condition("altitude", ">", 0.0)
    with pytest.raises(CriterionError):
        condition("speed", ">", 0.0)  # no actor
    with pytest.raises(CriterionError):
        condition("distance_between", ">", 0.0, actor="a")
    with pytest.raises(CriterionError):
        condition("metric_value", ">", 0.0)  # no metric
    with pytest.raises(CriterionError):
        ConditionNode(op="all", children=(condition("time", ">=", 0.0),))
    node = ConditionNode(op="all", children=(
        condition("time", ">=", 0.0),
        condition("speed", ">", 1.0, actor="ego"),
    ))
    assert node.referenced_actors() == {"ego"}


def test_always_active_covers_whole_trace():
    trace = one_actor_trace(TRIANGLE)
    assert active_intervals(always_active(), trace) == [(0.0, 10.0)]


def test_interval_opens_and_closes_on_condition():
    trace = one_actor_trace(TRIANGLE)
    period = ApplicationPeriod(condition("speed", ">", 5.0, actor="ego"))
    intervals = active_intervals(period, trace)
    assert len(intervals) == 1
    start, stop = intervals[0]
    # linear rise 4 -> 6 crosses 5 at 2.5; fall 6 -> 4 crosses at 7.5
    assert math.isclose(start, 2.5)
    assert math.isclose(stop, 7.5)


def test_elapsed_stop_yields_single_interval():
    trace = one_actor_trace(TRIANGLE)
    period = ApplicationPeriod(
        condition("speed", ">", 5.0, actor="ego"),
        stop=StopRule(kind="elapsed", duration=1.2),
    )
    intervals = active_intervals(period, trace)
    # the condition stays true after the stop; without a fresh rising edge
    # no second period may open
    assert intervals == [(2.5, 3.7)]


def test_elapsed_stop_reopens_after_new_edge():
    trace = one_actor_trace([0.0, 6.0, 0.0, 6.0, 0.0])
    period = ApplicationPeriod(
        condition("speed", ">", 5.0, actor="ego"),
        stop=StopRule(kind="elapsed", duration=0.1),
    )
    intervals = active_intervals(period, trace)
    assert len(intervals) == 2
    assert math.isclose(intervals[0][0], 5.0 / 6.0)
    assert math.isclose(intervals[1][0], 2.0 + 5.0 / 6.0)
    for start, stop in intervals:
        assert math.isclose(stop - start, 0.1)


def test_elapsed_stop_clamped_to_trace_end():
    trace = one_actor_trace(TRIANGLE)
    period = ApplicationPeriod(
        condition("speed", ">", 5.0, actor="ego"),
        stop=StopRule(kind="elapsed", duration=100.0),
    )
    assert active_intervals(period, trace) == [(2.5, 10.0)]


def test_event_stop_scenario_end():
    trace = one_actor_trace(TRIANGLE)
    period = ApplicationPeriod(
        condition("speed", ">", 5.0, actor="ego"),
        stop=StopRule(kind="event", event="scenario_end"),
    )
    assert active_intervals(period, trace) == [(2.5, 10.0)]


def test_event_stop_collision_from_metadata():
    # the metadata claims a collision at 9 s, but the actors never touch: the
    # trace decides, so the period runs to the scenario end
    ego = speed_track(TRIANGLE)
    far = speed_track(TRIANGLE, actor_id="other", y=50.0)
    trace = Trace("t", 1.0, {"ego": ego, "other": far}, {"event_collision": "9.0"})
    period = ApplicationPeriod(
        condition("speed", ">", 5.0, actor="ego"),
        stop=StopRule(kind="event", event="collision"),
    )
    assert _event_time(trace, period.stop) is None
    assert active_intervals(period, trace) == [(2.5, 10.0)]


def test_event_stop_actor_passed_conflict():
    dt = 0.5
    n = 11
    times = np.arange(n) * dt
    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=2.0 * times, ys=np.zeros(n), headings=np.zeros(n),
                     speeds=np.full(n, 2.0), accels=np.zeros(n))
    walker = ActorTrack("walker", ActorClass.PEDESTRIAN, 0.3, times,
                        xs=np.full(n, 6.0), ys=-4.0 + 1.0 * times,
                        headings=np.full(n, math.pi / 2),
                        speeds=np.full(n, 1.0), accels=np.zeros(n))
    trace = Trace("t", dt, {"ego": ego, "walker": walker})
    period = ApplicationPeriod(
        condition("time", ">=", 0.0),
        stop=StopRule(kind="event", event="actor_passed_conflict", actor="ego"),
    )
    intervals = active_intervals(period, trace)
    # ego reaches the crossing at x=6 after 3 s
    assert len(intervals) == 1
    assert math.isclose(intervals[0][1], 3.0)


def test_pedestrian_passed_conflict_same_with_and_without_metadata(reference_outcome):
    trace = reference_outcome.trace
    bare = Trace(trace.scenario_id, trace.time_step, dict(trace.tracks), {})
    period = ApplicationPeriod(
        condition("time", ">=", 0.0),
        stop=StopRule(kind="event", event="actor_passed_conflict", actor="pedestrian"),
    )
    closes = [active_intervals(period, t)[0][1] for t in (trace, bare)]
    assert closes[0] == closes[1]
    assert closes[0] < trace.overlap()[1]


def test_condition_combinators():
    trace = one_actor_trace(TRIANGLE)
    both = ApplicationPeriod(ConditionNode(op="all", children=(
        condition("speed", ">", 5.0, actor="ego"),
        condition("time", "<", 6.0),
    )))
    assert active_intervals(both, trace) == [(2.5, 6.0)]
    either = ApplicationPeriod(ConditionNode(op="any", children=(
        condition("speed", ">", 5.0, actor="ego"),
        condition("time", "<", 1.0),
    )))
    assert active_intervals(either, trace) == [(0.0, 1.0), (2.5, 7.5)]


def test_metric_value_condition():
    dt = 0.5
    n = 25
    times = np.arange(n) * dt
    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=2.0 * times, ys=np.zeros(n), headings=np.zeros(n),
                     speeds=np.full(n, 2.0), accels=np.zeros(n))
    other = ActorTrack("other", ActorClass.VEHICLE, 1.0, times,
                       xs=np.full(n, 30.0), ys=np.zeros(n), headings=np.zeros(n),
                       speeds=np.zeros(n), accels=np.zeros(n))
    trace = Trace("t", dt, {"ego": ego, "other": other})
    period = ApplicationPeriod(condition(
        "metric_value", "<", 10.0,
        metric="euclidean_distance",
        metric_params={"actor_a": "ego", "actor_b": "other"},
    ))
    intervals = active_intervals(period, trace)
    assert len(intervals) == 1
    assert math.isclose(intervals[0][0], 10.0)  # distance 30 - 2t < 10


def test_unit_mismatch_rejected():
    trace = one_actor_trace(TRIANGLE)
    period = ApplicationPeriod(condition("speed", ">", 5.0, unit="km/h", actor="ego"))
    with pytest.raises(UnitMismatchError):
        active_intervals(period, trace)
    crit = QualityCriterion(
        criterion_id="c1",
        metric_name="pet",
        evaluation=Threshold(">", 1.5, unit="ms"),
    )
    with pytest.raises(UnitMismatchError):
        evaluate_criterion(crit, ScalarResult("pet", 3.0, "s"))


def test_scale_scoring():
    scale = Scale(breakpoints=((1.0, 0.3), (2.0, 0.7), (4.0, 1.0)))
    assert scale.score(0.5) == 0.0  # below the first breakpoint
    assert scale.score(1.0) == 0.3
    assert scale.score(3.9) == 0.7
    assert scale.score(100.0) == 1.0
    with pytest.raises(CriterionError):
        Scale(breakpoints=((2.0, 0.5), (1.0, 1.0)))
    with pytest.raises(CriterionError):
        Scale(breakpoints=())


def test_criterion_validation():
    with pytest.raises(CriterionError):
        QualityCriterion("c", "no_such_metric", Threshold(">", 0.0))
    with pytest.raises(CriterionError):
        QualityCriterion("c", "pet", Threshold(">", 0.0), perspective="observer")
    with pytest.raises(CriterionError):
        QualityCriterion("", "pet", Threshold(">", 0.0))
    crit = QualityCriterion("c", "pet", Threshold(">", 0.0))
    assert crit.level == "microscopic"


def test_scalar_threshold_verdicts():
    crit = QualityCriterion("pet_margin", "pet", Threshold(">", 1.5, unit="s"))
    assert evaluate_criterion(crit, ScalarResult("pet", 3.0, "s")).outcome == "pass"
    assert evaluate_criterion(crit, ScalarResult("pet", 1.4, "s")).outcome == "fail"
    assert evaluate_criterion(crit, ScalarResult("pet", 1.5, "s")).outcome == "fail"
    na = evaluate_criterion(crit, undefined_scalar("pet", "s", "never_occupies"))
    assert na.outcome == "not_applicable"


def test_scalar_scale_verdict():
    crit = QualityCriterion(
        "pet_score", "pet",
        Scale(breakpoints=((1.0, 0.5), (3.0, 1.0)), unit="s"),
    )
    verdict = evaluate_criterion(crit, ScalarResult("pet", 2.0, "s"))
    assert verdict.outcome == "score"
    assert verdict.score == 0.5
    assert verdict.worst_result.value == 2.0


def test_series_threshold_gated_by_period():
    dt = 0.5
    n = 21
    times = np.arange(n) * dt
    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=2.0 * times, ys=np.zeros(n), headings=np.zeros(n),
                     speeds=np.full(n, 2.0), accels=np.zeros(n))
    other = ActorTrack("other", ActorClass.VEHICLE, 1.0, times,
                       xs=np.full(n, 15.0), ys=np.zeros(n), headings=np.zeros(n),
                       speeds=np.zeros(n), accels=np.zeros(n))
    trace = Trace("t", dt, {"ego": ego, "other": other})
    series = euclidean_distance(trace, "ego", "other")
    # over the whole trace the distance reaches 0; gated to the first
    # two seconds it stays above 10
    gated = QualityCriterion(
        "keep_apart", "euclidean_distance", Threshold(">", 10.0, unit="m"),
        application_period=ApplicationPeriod(
            condition("time", ">=", 0.0),
            stop=StopRule(kind="elapsed", duration=2.0),
        ),
        metric_params={"actor_a": "ego", "actor_b": "other"},
    )
    verdict = evaluate_criterion(gated, series, trace)
    assert verdict.outcome == "pass"
    assert verdict.evaluated_intervals == ((0.0, 2.0),)
    whole = QualityCriterion(
        "keep_apart_all", "euclidean_distance", Threshold(">", 10.0, unit="m"),
        metric_params={"actor_a": "ego", "actor_b": "other"},
    )
    failing = evaluate_criterion(whole, series, trace)
    assert failing.outcome == "fail"
    assert failing.worst_result.value == min(series.values)
    assert failing.worst_result.time == 7.5  # ego center reaches the other


def test_series_requires_trace_and_matching_metric():
    trace = one_actor_trace(TRIANGLE)
    series = euclidean_distance(
        Trace("t2", 1.0, {
            "a": speed_track(TRIANGLE, actor_id="a"),
            "b": speed_track(TRIANGLE, actor_id="b", y=5.0),
        }), "a", "b")
    crit = QualityCriterion("c", "euclidean_distance", Threshold(">", 0.0, unit="m"),
                            metric_params={"actor_a": "a", "actor_b": "b"})
    with pytest.raises(CriterionError):
        evaluate_criterion(crit, series)
    wrong = QualityCriterion("c", "headway", Threshold(">", 0.0, unit="m"),
                             metric_params={"ego": "a", "target": "b"})
    with pytest.raises(CriterionError):
        evaluate_criterion(wrong, series, trace)


def test_vacuous_period_is_not_applicable_never_pass():
    trace = one_actor_trace(TRIANGLE)
    crit = QualityCriterion(
        "never_active", "pet", Threshold(">", 0.0, unit="s"),
        application_period=ApplicationPeriod(
            condition("speed", ">", 999.0, actor="ego"),
        ),
    )
    verdict = evaluate_criterion(crit, ScalarResult("pet", 5.0, "s"), trace)
    assert verdict.outcome == "not_applicable"


def test_interval_edges_stable_under_resampling():
    trace = one_actor_trace(TRIANGLE, metadata={})
    coarse = trace.track("ego")
    times = np.arange(51) * 0.2  # every 0.2 s over the 10 s of the coarse track
    fine = Trace("t", 0.2, {"ego": replace(coarse, times=times, **{
        name: np.interp(times, coarse.times, getattr(coarse, name))
        for name in ("xs", "ys", "headings", "speeds", "accels")
    })})
    period = ApplicationPeriod(condition("speed", ">", 5.0, actor="ego"))
    coarse_iv = active_intervals(period, trace)
    fine_iv = active_intervals(period, fine)
    assert len(coarse_iv) == len(fine_iv) == 1
    assert abs(coarse_iv[0][0] - fine_iv[0][0]) <= 1.0
    assert abs(coarse_iv[0][1] - fine_iv[0][1]) <= 1.0
    # on piecewise linear speed the interpolated edges agree exactly
    assert math.isclose(coarse_iv[0][0], fine_iv[0][0])
    assert math.isclose(coarse_iv[0][1], fine_iv[0][1])


def _edge_time(grid, margins, k):
    """Interpolated zero crossing of the margin between samples k-1 and k."""
    m0, m1 = margins[k - 1], margins[k]
    if not (np.isfinite(m0) and np.isfinite(m1)) or m0 == m1:
        return float(grid[k])
    t = float(grid[k - 1] + (grid[k] - grid[k - 1]) * (-m0) / (m1 - m0))
    return min(max(t, float(grid[k - 1])), float(grid[k]))


def active_intervals_loop(period, trace):
    """Scalar reference for active_intervals: one grid sample at a time."""
    actors = period.start_condition.referenced_actors()
    if period.stop.actor:
        actors.add(period.stop.actor)
    grid_actors = tuple(sorted(actors)) if actors else tuple(trace.actor_ids())
    grid = common_grid(trace, grid_actors)
    margins, holds = _margins_and_holds(period.start_condition, trace, grid)
    event_at = _event_time(trace, period.stop) if period.stop.kind == STOP_EVENT else None
    end_of_grid = float(grid[-1])
    n = len(grid)
    edges = [(0, float(grid[0]))] if holds[0] else []
    for k in range(1, n):
        if holds[k] and not holds[k - 1]:
            edges.append((k, _edge_time(grid, margins, k)))
    intervals = []
    guard = -math.inf
    for k, start in edges:
        if start < guard:
            continue
        if period.stop.kind == STOP_ELAPSED:
            stop = min(start + period.stop.duration, end_of_grid)
        elif period.stop.kind == STOP_EVENT:
            stop = event_at if event_at is not None and event_at >= start else end_of_grid
        else:
            j = k
            while j + 1 < n and holds[j + 1]:
                j += 1
            stop = _edge_time(grid, margins, j + 1) if j + 1 < n else end_of_grid
        if stop > start:
            intervals.append((start, stop))
        guard = max(guard, stop)
    return intervals


def random_crossing_trace(rng, sid, dt=0.1, n=60):
    """Ego along y = 0 with stepped speeds, a pedestrian crossing x = 12."""
    times = np.arange(n) * dt
    ego_speed = np.repeat(rng.choice([0.0, 2.0, 4.0, 6.0, 8.0], 4), n // 4)
    ego_speed = np.clip(ego_speed + rng.integers(2) * np.linspace(0.0, rng.uniform(-2, 2), n),
                        0.0, None)
    ped_speed = np.repeat(rng.choice([0.0, 0.5, 1.5, 3.0], 3), n // 3)

    def travelled(start, speed):
        return start + np.concatenate([[0.0], np.cumsum(speed[:-1] * dt)])

    ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                     xs=travelled(rng.uniform(-10.0, 5.0), ego_speed),
                     ys=np.zeros(n), headings=np.zeros(n), speeds=ego_speed,
                     accels=np.gradient(ego_speed, times))
    ped = ActorTrack("pedestrian", ActorClass.PEDESTRIAN, 0.3, times,
                     xs=np.full(n, 12.0), ys=travelled(rng.uniform(-6.0, -1.0), ped_speed),
                     headings=np.full(n, math.pi / 2), speeds=ped_speed,
                     accels=np.gradient(ped_speed, times))
    return Trace(sid, dt, {"ego": ego, "pedestrian": ped})


METRIC_LEAVES = (
    ("ttc", {"ego": "ego", "target": "pedestrian"}, 10.0),
    ("gap_time", {"ego": "ego", "target": "pedestrian"}, 10.0),
    ("braking_time", {"actor": "ego"}, 5.0),
    ("euclidean_distance", {"actor_a": "ego", "actor_b": "pedestrian"}, 25.0),
)


def random_leaf(rng, dt=0.1, n=60):
    comparator = str(rng.choice(COMPARATORS))
    kind = int(rng.integers(5))
    if kind == 0:  # a grid time, so "=" can hold exactly
        return condition("time", comparator, float(np.arange(n)[rng.integers(n)] * dt))
    if kind == 1:
        if rng.random() < 0.5:  # a speed the stepped profiles hold, so "=" can hold
            bound = float(rng.choice([0.0, 2.0, 4.0, 6.0, 8.0]))
        else:
            bound = rng.uniform(0, 8)
        return condition("speed", comparator, bound, actor=str(rng.choice(["ego", "pedestrian"])))
    if kind == 2:
        return condition("acceleration", comparator, rng.choice([0.0, rng.uniform(-20, 20)]),
                         actor="ego")
    if kind == 3:
        return condition("distance_between", comparator, rng.uniform(0, 25),
                         actor="ego", actor_b="pedestrian")
    metric, params, top = METRIC_LEAVES[rng.integers(len(METRIC_LEAVES))]
    return condition("metric_value", comparator, rng.uniform(0, top),
                     metric=metric, metric_params=params)


def random_condition(rng, depth=0):
    if depth < 2 and rng.random() < 0.35:
        children = [random_condition(rng, depth + 1) for _ in range(int(rng.integers(2, 4)))]
        return ConditionNode(op="all" if rng.random() < 0.5 else "any", children=children)
    return random_leaf(rng)


def random_stop(rng):
    pick = int(rng.integers(5))
    if pick == 0:
        return StopRule()
    if pick == 1:
        return StopRule(kind="elapsed", duration=rng.uniform(0.05, 2.0))
    if pick == 2:
        return StopRule(kind="event", event="actor_passed_conflict",
                        actor=str(rng.choice(["ego", "pedestrian"])))
    return StopRule(kind="event", event=("scenario_end", "collision")[pick - 3])


def _leaves(node):
    return [node] if node.op == "leaf" else [l for c in node.children for l in _leaves(c)]


def test_active_intervals_equal_loop_on_random_periods():
    rng = np.random.default_rng(7)
    traces = [random_crossing_trace(rng, f"r{i}") for i in range(8)]
    seen = {"comparators": set(), "ops": set(), "stops": set()}
    compared = nonempty = undefined = 0
    for i in range(400):
        trace = traces[i % len(traces)]
        period = ApplicationPeriod(random_condition(rng), random_stop(rng))
        try:
            expected = active_intervals_loop(period, trace)
        except MetricError:
            with pytest.raises(MetricError):
                active_intervals(period, trace)
            continue
        assert active_intervals(period, trace) == expected, period
        compared += 1
        nonempty += bool(expected)
        leaves = _leaves(period.start_condition)
        seen["comparators"].update(l.comparator for l in leaves)
        seen["ops"].add(period.start_condition.op)
        seen["stops"].add(period.stop.kind)
        undefined += any(
            not registry.get(l.metric).compute(trace, l.metric_params).defined.all()
            for l in leaves if l.signal == "metric_value"
        )
    assert compared >= 300
    assert nonempty >= 100
    assert undefined >= 30
    assert seen == {"comparators": set(COMPARATORS), "ops": {"leaf", "all", "any"},
                    "stops": {"condition_no_longer_fulfilled", "elapsed", "event"}}


@pytest.mark.parametrize("margins, holds, starts, stops", [
    ([1.0, 1.0, -1.0, -1.0, -1.0], None, [0.0], [1.5]),  # run at the first sample
    ([-1.0, -1.0, -1.0, 1.0, 1.0], None, [2.5], [4.0]),  # run at the last sample
    ([1.0] * 5, None, [0.0], [4.0]),  # the whole grid
    ([-1.0] * 5, None, [], []),  # no run
    # a one-sample touch at margin 0: it starts where it stops, and callers
    # that need a positive length drop it
    ([-1.0, 0.0, -1.0, -1.0, -1.0], None, [1.0], [1.0]),
    # an edge next to an undefined (-inf) sample lands on the later sample
    ([-math.inf, 1.0, 1.0, -1.0, -1.0], None, [1.0], [2.5]),
    ([-1.0, 1.0, 1.0, -math.inf, -1.0], None, [0.5], [3.0]),
    # equal margins on both sides of an edge: the later sample
    ([2.0, 2.0, 2.0, 2.0, 2.0], [False, True, True, True, True], [1.0], [4.0]),
    # an interpolated zero outside the two samples is clamped to them
    ([1.0, 2.0, 2.0, 2.0, 2.0], [False, True, True, True, True], [0.0], [4.0]),
])
def test_margin_runs_edge_cases(margins, holds, starts, stops):
    times = np.arange(5, dtype=float)
    margins = np.array(margins)
    holds = margins >= 0.0 if holds is None else np.array(holds)
    got_starts, got_stops = margin_runs(times, margins, holds)
    assert got_starts.tolist() == starts
    assert got_stops.tolist() == stops


def test_one_sample_touch_opens_only_timed_periods():
    # speed reaches 10 at t = 5 only, so ">= 10" holds at one sample with margin 0
    trace = one_actor_trace(TRIANGLE)
    touch = condition("speed", ">=", 10.0, actor="ego")
    assert active_intervals(ApplicationPeriod(touch), trace) == []
    elapsed = ApplicationPeriod(touch, stop=StopRule(kind="elapsed", duration=0.5))
    assert active_intervals(elapsed, trace) == [(5.0, 5.5)]


def test_scalar_judged_as_one_sample_series_at_period_start():
    trace = one_actor_trace(TRIANGLE)
    crit = QualityCriterion(
        "pet_margin", "pet", Threshold(">", 1.5, unit="s"),
        application_period=ApplicationPeriod(condition("speed", ">", 5.0, actor="ego")),
    )
    verdict = evaluate_criterion(crit, ScalarResult("pet", 3.0, "s"), trace)
    assert verdict.outcome == "pass"
    assert verdict.scenario_id == "t"
    assert verdict.evaluated_intervals == ((2.5, 7.5),)
    assert (verdict.worst_result.time, verdict.worst_result.value) == (2.5, 3.0)
    na = evaluate_criterion(crit, undefined_scalar("pet", "s", "never_occupies"), trace)
    assert na.outcome == "not_applicable"
    assert na.evaluated_intervals == ((2.5, 7.5),)
    assert na.worst_result is None


def approach_traces():
    """Two runs of an ego driving at a standing actor 40 m and 15 m ahead."""
    dt = 0.5
    n = 21
    times = np.arange(n) * dt
    traces = []
    for sid, x_other in (("run#0", 40.0), ("run#1", 15.0)):
        ego = ActorTrack("ego", ActorClass.VEHICLE, 1.0, times,
                         xs=2.0 * times, ys=np.zeros(n), headings=np.zeros(n),
                         speeds=np.full(n, 2.0), accels=np.zeros(n))
        other = ActorTrack("other", ActorClass.VEHICLE, 1.0, times,
                           xs=np.full(n, x_other), ys=np.zeros(n),
                           headings=np.zeros(n), speeds=np.zeros(n),
                           accels=np.zeros(n))
        traces.append(Trace(sid, dt, {"ego": ego, "other": other}))
    return traces


def test_evaluate_suite_cells_and_filters():
    traces = approach_traces()
    criteria = [
        QualityCriterion("apart", "euclidean_distance", Threshold(">", 10.0, unit="m"),
                         metric_params={"actor_a": "ego", "actor_b": "other"},
                         perspective="sut"),
        QualityCriterion("no_hits", "collision_probability", Threshold("<=", 0.0, unit="1"),
                         perspective="scenario"),
    ]
    report = evaluate_suite(criteria, traces)
    assert len(report.verdicts) == 3  # 2 per-trace + 1 set-level
    outcomes = {(v.criterion_id, v.scenario_id): v.outcome for v in report.verdicts}
    assert outcomes[("apart", "run#0")] == "pass"
    assert outcomes[("apart", "run#1")] == "fail"
    assert outcomes[("no_hits", "scenario_set")] == "fail"  # run#1 reaches contact
    assert report.any_fail
    cell = {(c.perspective, c.level): c for c in report.cells}
    assert cell[("sut", "nanoscopic")].passes == 1
    assert cell[("sut", "nanoscopic")].fails == 1
    assert cell[("sut", "nanoscopic")].pass_rate == 0.5
    assert cell[("scenario", "macroscopic")].fails == 1

    only_sut = evaluate_suite(criteria, traces, perspective="sut")
    assert {v.criterion_id for v in only_sut.verdicts} == {"apart"}
    only_macro = evaluate_suite(criteria, traces, level="macroscopic")
    assert {v.criterion_id for v in only_macro.verdicts} == {"no_hits"}
    with pytest.raises(CriterionError):
        evaluate_suite(criteria, [])


def test_load_criteria_file(tmp_path):
    suite = {
        "criteria": [
            {
                "criterion_id": "pet_margin",
                "metric": "pet",
                "params": {"actor_1": "ego", "actor_2": "pedestrian"},
                "threshold": {"comparator": ">", "value": 1.5, "unit": "s"},
                "perspective": "sut",
            },
            {
                "criterion_id": "ttc_floor",
                "metric": "ttc",
                "params": {"ego": "ego", "target": "pedestrian"},
                "threshold": {"comparator": ">=", "value": 1.0, "unit": "s"},
                "application_period": {
                    "start_condition": {
                        "signal": "speed", "actor": "ego",
                        "comparator": ">", "bound": 0.5, "unit": "m/s",
                    },
                    "stop": {"kind": "event", "event": "scenario_end"},
                },
            },
            {
                "criterion_id": "drift_score",
                "metric": "dtw",
                "params": {},
                "scale": {"breakpoints": [[0.0, 1.0], [5.0, 0.5]], "unit": "m"},
                "perspective": "simulation",
            },
        ]
    }
    p = tmp_path / "suite.json"
    p.write_text(json.dumps(suite))
    criteria = load_criteria(p)
    assert [c.criterion_id for c in criteria] == ["pet_margin", "ttc_floor", "drift_score"]
    assert criteria[0].evaluation == Threshold(">", 1.5, unit="s")
    assert criteria[1].application_period.stop.kind == "event"
    assert isinstance(criteria[2].evaluation, Scale)
    assert criteria[2].perspective == "simulation"


def test_load_criteria_rejects_bad_suites(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"criteria": []}))
    with pytest.raises(CriterionError):
        load_criteria(p)
    p.write_text(json.dumps({"criteria": [{"criterion_id": "x", "metric": "pet"}]}))
    with pytest.raises(CriterionError):
        load_criteria(p)
    p.write_text(json.dumps({"criteria": [{
        "criterion_id": "x", "metric": "pet",
        "threshold": {"comparator": ">", "value": 0.0},
        "scale": {"breakpoints": [[0.0, 1.0]]},
    }]}))
    with pytest.raises(CriterionError):
        load_criteria(p)
    p.write_text("not json")
    with pytest.raises(CriterionError):
        load_criteria(p)


def test_negating_comparator_flips_scalar_verdict():
    opposites = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
    rng = np.random.default_rng(11)
    for _ in range(100):
        value = float(rng.uniform(-10, 10))
        bound = float(rng.uniform(-10, 10))
        if abs(value - bound) < 1e-6:
            continue
        for comp, anti in opposites.items():
            a = evaluate_criterion(
                QualityCriterion("c", "pet", Threshold(comp, bound)),
                ScalarResult("pet", value, "s"),
            )
            b = evaluate_criterion(
                QualityCriterion("c", "pet", Threshold(anti, bound)),
                ScalarResult("pet", value, "s"),
            )
            assert {a.outcome, b.outcome} == {"pass", "fail"}
            assert a.outcome != b.outcome


@pytest.fixture
def compute_log(monkeypatch):
    """Wraps every registered compute; the log counts (metric, subject, params) calls."""
    log = Counter()

    def counted(spec):
        def compute(subject, params):
            ids = [t.scenario_id for t in subject] if isinstance(subject, list) \
                else subject.scenario_id
            log[json.dumps([spec.name, ids, params], sort_keys=True)] += 1
            return spec.compute(subject, params)
        return compute

    for spec in registry.all_specs():
        monkeypatch.setitem(registry._REGISTRY, spec.name,
                            replace(spec, compute=counted(spec)))
    return log


def test_evaluate_suite_computes_each_metric_once_per_trace(compute_log):
    pair = {"ego": "ego", "target": "other"}
    criteria = [
        QualityCriterion("ttc_min", "ttc", Threshold(">", 1.0, unit="s"), metric_params=pair),
        QualityCriterion("ttc_scale", "ttc", Scale(((0.0, 0.0), (2.0, 1.0)), unit="s"),
                         metric_params=dict(reversed(pair.items()))),
        QualityCriterion("ttc_back", "ttc", Threshold(">", 1.0, unit="s"),
                         metric_params={"ego": "other", "target": "ego"}),
        QualityCriterion("gap", "gap_time", Threshold(">", 1.0, unit="s"), metric_params=pair),
        QualityCriterion("hits", "collision_probability", Threshold("<=", 0.0, unit="1")),
        QualityCriterion("hits_again", "collision_probability", Threshold("<", 1.0, unit="1")),
    ]
    report = evaluate_suite(criteria, approach_traces())
    assert len(report.verdicts) == 4 * 2 + 2
    assert set(compute_log.values()) == {1}
    names = Counter(json.loads(key)[0] for key in compute_log)
    assert names == {"ttc": 4, "gap_time": 2, "collision_probability": 1}
    # criteria on one (metric, params) judge the very same result
    by_id = {(v.criterion_id, v.scenario_id): v.result for v in report.verdicts}
    for sid in ("run#0", "run#1"):
        assert by_id[("ttc_min", sid)] is by_id[("ttc_scale", sid)]
        assert by_id[("ttc_min", sid)] is not by_id[("ttc_back", sid)]
    assert by_id[("hits", "scenario_set")] is by_id[("hits_again", "scenario_set")]


def test_evaluate_suite_computes_gating_metrics_once_per_trace(compute_log):
    pair = {"ego": "ego", "target": "other"}
    close = ApplicationPeriod(condition("metric_value", "<", 5.0, unit="s", metric="ttc",
                                        metric_params=pair))
    criteria = [
        QualityCriterion("ttc_close", "ttc", Threshold(">", 1.0, unit="s"),
                         application_period=close, metric_params=pair),
        QualityCriterion("apart_close", "euclidean_distance", Threshold(">", 2.0, unit="m"),
                         application_period=close,
                         metric_params={"actor_a": "ego", "actor_b": "other"}),
    ]
    traces = approach_traces()
    report = evaluate_suite(criteria, traces)
    ttc_calls = sum(n for key, n in compute_log.items() if json.loads(key)[0] == "ttc")
    assert ttc_calls == 2  # one per trace, shared by both criteria and both conditions
    # the same verdicts as each criterion judged on its own, outside the memo
    alone = [
        evaluate_criterion(c, registry.get(c.metric_name).compute(t, c.metric_params), t)
        for c in criteria for t in traces
    ]
    assert report.verdicts == tuple(alone)
    # run#0 never closes in below 5 s; run#1 does from 1.5 s until the ego reaches the other
    assert [v.outcome for v in report.verdicts] == ["not_applicable", "fail"] * 2
    assert report.verdicts[1].evaluated_intervals == ((1.5, 6.5),)


def test_direct_evaluations_compute_a_gating_metric_once_per_trace(compute_log):
    pair = {"ego": "ego", "target": "other"}
    close = ApplicationPeriod(condition("metric_value", "<", 5.0, unit="s", metric="ttc",
                                        metric_params=pair))
    criterion = QualityCriterion("close_pet", "pet", Threshold(">", 0.0, unit="s"),
                                 application_period=close)
    trace = approach_traces()[1]
    first = evaluate_criterion(criterion, ScalarResult("pet", 1.0, "s"), trace)
    second = evaluate_criterion(criterion, ScalarResult("pet", 1.0, "s"), trace)
    assert first == second
    assert first.evaluated_intervals == ((1.5, 6.5),)
    # the ttc series is kept with the trace, so the second call reuses it
    assert [json.loads(key)[0] for key in compute_log] == ["ttc"]
    assert set(compute_log.values()) == {1}


def test_a_spec_registered_in_place_is_not_served_the_old_result():
    trace = approach_traces()[1]  # the ego closes in from 15 m at 2 m/s
    params = {"actor_a": "ego", "actor_b": "other"}
    far = ApplicationPeriod(condition("metric_value", ">", 20.0, unit="m",
                                      metric="euclidean_distance", metric_params=params))
    criterion = QualityCriterion("far", "euclidean_distance", Threshold(">", 25.0, unit="m"),
                                 application_period=far, metric_params=params)
    spec = registry.get("euclidean_distance")
    kept = registry.compute(spec, trace, params)
    assert registry.compute(spec, trace, params) is kept
    assert evaluate_suite([criterion], trace).verdicts[0].outcome == "not_applicable"

    def doubled(t, p):
        series = spec.compute(t, p)
        return replace(series, values=2.0 * series.values)

    registry.register(replace(spec, compute=doubled), replace=True)
    try:
        fresh = registry.compute(registry.get("euclidean_distance"), trace, params)
        verdict = evaluate_suite([criterion], trace).verdicts[0]
    finally:
        registry.register(spec, replace=True)
    assert np.array_equal(fresh.values, 2.0 * kept.values)
    # the doubled distance, 30 m down to 20 m at 2.5 s, gates and is judged
    assert verdict.evaluated_intervals == ((0.0, 2.5),)
    assert verdict.outcome == "fail"
    assert verdict.result is fresh
    assert registry.compute(registry.get("euclidean_distance"), trace, params) is kept


def test_evaluate_suite_takes_list_params(monkeypatch):
    calls = []

    def span(trace, params):
        calls.append(trace.scenario_id)
        series = euclidean_distance(trace, *params["actors"])
        return replace(series, metric_name="span")

    monkeypatch.setitem(registry._REGISTRY, "span", registry.MetricSpec(
        "span", "m", registry.NANOSCOPIC, registry.WORSE_LOW, "distance of a listed pair", span))
    params = {"actors": ["ego", "other"]}
    criteria = [
        QualityCriterion("apart", "span", Threshold(">", 10.0, unit="m"), metric_params=params),
        QualityCriterion("close", "span", Threshold("<", 50.0, unit="m"), metric_params=params),
    ]
    report = evaluate_suite(criteria, approach_traces())
    assert calls == ["run#0", "run#1"]
    assert [v.outcome for v in report.verdicts] == ["pass", "fail", "pass", "pass"]
    assert [v.result.metric_name for v in report.verdicts] == ["span"] * 4


def test_verdict_equality_and_repr_ignore_result():
    series = euclidean_distance(approach_traces()[0], "ego", "other")
    bare = Verdict("apart", "pass", "run#0")
    judged = Verdict("apart", "pass", "run#0", result=series)
    assert judged == bare
    assert hash(judged) == hash(bare)
    assert repr(judged) == repr(bare)
    assert judged.result is series
