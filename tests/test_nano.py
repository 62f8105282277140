import math

import numpy as np
import pytest

from scenq import ActorClass, ActorTrack, ConflictPoint, MetricError, Trace
from scenq.nano import (
    BRAKING_ACCEL_FLOOR,
    braking_distance,
    braking_time,
    conflict_point,
    euclidean_distance,
    gap_time,
    headway,
    traffic_density,
    ttc,
    wttc,
)
from scenq.trace import common_grid, sample_track

DT = 0.1


def track_from(actor_id, xs, ys, headings, speeds, accels=None,
               actor_class=ActorClass.VEHICLE, radius=None):
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if radius is None:
        radius = 0.3 if actor_class is ActorClass.PEDESTRIAN else 1.0
    return ActorTrack(
        actor_id=actor_id,
        actor_class=actor_class,
        radius=radius,
        times=np.arange(n) * DT,
        xs=xs,
        ys=np.asarray(ys, dtype=float),
        headings=np.asarray(headings, dtype=float),
        speeds=np.asarray(speeds, dtype=float),
        accels=np.zeros(n) if accels is None else np.asarray(accels, dtype=float),
    )


def moving_track(actor_id, x0, y0, heading, speed, n=11, **kw):
    ts = np.arange(n) * DT
    xs = x0 + speed * math.cos(heading) * ts
    ys = y0 + speed * math.sin(heading) * ts
    return track_from(actor_id, xs, ys, np.full(n, heading), np.full(n, speed), **kw)


def make_trace(*tracks) -> Trace:
    return Trace("unit", DT, {t.actor_id: t for t in tracks})


def test_common_grid_reuses_identical_times():
    a = moving_track("a", 0, 0, 0.0, 1.0)
    b = moving_track("b", 5, 0, 0.0, 1.0)
    trace = make_trace(a, b)
    grid = common_grid(trace, ("a", "b"))
    assert np.array_equal(grid, a.times)


def test_common_grid_covers_overlap_only():
    a = moving_track("a", 0, 0, 0.0, 1.0, n=21)
    ts = 0.5 + np.arange(11) * DT
    b = ActorTrack("b", ActorClass.VEHICLE, 1.0, ts, np.zeros(11), np.full(11, 5.0),
                   np.zeros(11), np.zeros(11), np.zeros(11))
    grid = common_grid(make_trace(a, b), ("a", "b"))
    assert grid[0] >= 0.5 - 1e-12
    assert grid[-1] <= 1.5 + 1e-12


def test_euclidean_distance_values_and_symmetry():
    a = moving_track("a", 0, 0, 0.0, 2.0)
    b = moving_track("b", 10, 0, 0.0, 1.0)
    trace = make_trace(a, b)
    d_ab = euclidean_distance(trace, "a", "b")
    d_ba = euclidean_distance(trace, "b", "a")
    assert d_ab.values[0] == 10.0
    assert math.isclose(d_ab.values[-1], 9.0)
    assert np.array_equal(d_ab.values, d_ba.values)
    assert d_ab.defined.all()
    assert d_ab.unit == "m"


def test_headway_front_gap():
    ego = moving_track("ego", 0, 0, 0.0, 5.0)
    ped = moving_track("ped", 10, 0, 0.0, 0.0, actor_class=ActorClass.PEDESTRIAN)
    hw = headway(make_trace(ego, ped), "ego", "ped")
    # 10 m between centers minus radii 1.0 + 0.3
    assert math.isclose(hw.values[0], 8.7)
    assert hw.defined[0]


def test_headway_undefined_behind():
    ego = moving_track("ego", 0, 0, 0.0, 5.0)
    other = moving_track("other", -10, 0, 0.0, 5.0)
    hw = headway(make_trace(ego, other), "ego", "other")
    assert not hw.defined.any()


def test_ttc_head_on_gap_over_closing():
    ego = moving_track("ego", 0, 0, 0.0, 10.0)
    target = moving_track("target", 20, 0, 0.0, 0.0)
    series = ttc(make_trace(ego, target), "ego", "target")
    # gap 20 - 2 = 18 m, closing 10 m/s
    assert math.isclose(series.values[0], 1.8)
    assert series.defined[0]


def test_ttc_uses_velocity_vectors():
    ego = moving_track("ego", 0, 0, 0.0, 10.0)
    target = moving_track("target", 20, 0, 0.0, 4.0)  # fleeing at 4
    series = ttc(make_trace(ego, target), "ego", "target")
    assert math.isclose(series.values[0], 18.0 / 6.0)


def test_ttc_undefined_when_receding():
    ego = moving_track("ego", 0, 0, 0.0, 1.0)
    target = moving_track("target", 20, 0, 0.0, 5.0)
    series = ttc(make_trace(ego, target), "ego", "target")
    assert not series.defined.any()


def test_wttc_zero_on_overlap():
    ego = moving_track("ego", 0, 0, 0.0, 0.0, n=3)
    target = moving_track("target", 1.0, 0, 0.0, 0.0, n=3)
    series = wttc(make_trace(ego, target), "ego", "target")
    assert series.defined.all()
    assert np.all(series.values == 0.0)


def test_wttc_static_closed_form():
    # standing vehicle and pedestrian 23.05 m apart, bounds 8 + 2:
    # contact first possible at sqrt((23.05 - 1.3) / 5) = sqrt(4.35) s
    ego = moving_track("ego", 0, 0, 0.0, 0.0, n=3)
    ped = moving_track("ped", 23.05, 0, 0.0, 0.0, n=3, actor_class=ActorClass.PEDESTRIAN)
    series = wttc(make_trace(ego, ped), "ego", "ped")
    assert series.defined.all()
    assert abs(series.values[0] - math.sqrt(4.35)) <= 1e-3


def test_wttc_undefined_without_acceleration_reserve():
    ego = moving_track("ego", 0, 0, 0.0, 1.0)
    target = moving_track("target", 20, 0, 0.0, 5.0)
    series = wttc(make_trace(ego, target), "ego", "target",
                  a_max_ego=0.0, a_max_target=0.0)
    assert not series.defined.any()
    with pytest.raises(MetricError):
        wttc(make_trace(ego, target), "ego", "target", a_max_ego=-1.0)


def test_wttc_finds_grazing_entry_shorter_than_a_scan_step():
    # a pedestrian 1.304 m beside a vehicle passing at 30 m/s: the growing
    # disc (r_sum 1.3, a_sum 10) is entered only briefly, around 0.03 s
    ego = moving_track("ego", 0, 0, math.pi, 30.0, n=2)
    ped = moving_track("ped", -1.0, 1.304, 0.0, 0.0, n=2, actor_class=ActorClass.PEDESTRIAN)
    series = wttc(make_trace(ego, ped), "ego", "ped")
    assert series.defined[0]
    t = series.values[0]
    assert 0.03 < t < 0.033
    margin = math.hypot(-1.0 + 30.0 * t, 1.304) - (1.3 + 5.0 * t * t)
    assert abs(margin) <= 1e-9


def test_wttc_without_acceleration_reserve_equals_ttc_head_on():
    ego = moving_track("ego", 0, 0, 0.0, 10.0)
    target = moving_track("target", 30, 0, math.pi, 5.0)
    trace = make_trace(ego, target)
    lin = ttc(trace, "ego", "target")
    worst = wttc(trace, "ego", "target", a_max_ego=0.0, a_max_target=0.0)
    assert lin.defined.all()
    assert np.array_equal(worst.defined, lin.defined)
    assert np.allclose(worst.values, lin.values, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("bounds", [(None, None), (3.0, 0.5), (0.0, 0.0)])
def test_wttc_matches_dense_scan_of_unsquared_margin(bounds):
    # every sample is an independent encounter: the ego stands at the origin
    # and the target's position and velocity are drawn afresh
    rng = np.random.default_rng(2024)
    n = 150
    vx, vy = rng.uniform(-30.0, 30.0, (2, n))
    ego = track_from("ego", np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))
    ped = track_from("ped", rng.uniform(-40.0, 40.0, n), rng.uniform(-40.0, 40.0, n),
                     np.arctan2(vy, vx), np.hypot(vx, vy), actor_class=ActorClass.PEDESTRIAN)
    series = wttc(make_trace(ego, ped), "ego", "ped", *bounds)
    a_sum = 10.0 if bounds[0] is None else sum(bounds)
    step = 1e-4
    grid = np.arange(0.0, 20.0 + step / 2, step)
    for i in range(n):
        margin = np.hypot(ped.xs[i] + vx[i] * grid, ped.ys[i] + vy[i] * grid) - (
            1.3 + 0.5 * a_sum * grid * grid
        )
        inside = margin <= 0.0
        assert series.defined[i] == inside.any()
        if inside.any():
            assert abs(series.values[i] - grid[np.argmax(inside)]) <= step


def test_wttc_never_exceeds_ttc_on_closing_line():
    ego = moving_track("ego", 0, 0, 0.0, 10.0)
    target = moving_track("target", 30, 0, 0.0, 0.0)
    trace = make_trace(ego, target)
    t1 = ttc(trace, "ego", "target")
    t2 = wttc(trace, "ego", "target")
    mask = t1.defined & t2.defined
    assert mask.any()
    assert np.all(t2.values[mask] <= t1.values[mask] + 1e-9)


def crossing_trace():
    # ego east along y=0, walker north along x=6, conflict at (6, 0)
    ego = moving_track("ego", 0, 0, 0.0, 2.0, n=41)
    walker = moving_track("walker", 6, -4, math.pi / 2, 1.0, n=41,
                          actor_class=ActorClass.PEDESTRIAN)
    return make_trace(ego, walker), ConflictPoint((6.0, 0.0), 6.0, 4.0)


def test_gap_time_values_and_termination():
    trace, conflict = crossing_trace()
    series = gap_time(trace, "ego", "walker", conflict)
    # at t=0: ego 6/2 = 3 s out, walker 4/1 = 4 s out
    assert math.isclose(series.values[0], 1.0)
    assert series.defined[0]
    # ego reaches the conflict at t=3, walker at t=4; from the first
    # sample at or past the earlier arrival the series is undefined
    last_defined = series.times[series.defined][-1]
    assert abs(last_defined - 3.0) <= DT
    after = series.times >= 3.0 + DT
    assert not series.defined[after].any()


def test_gap_time_floors_standing_actor_speed():
    """A standing actor (below 1 mm/s) has no predicted arrival: the gap is
    undefined while either actor stands and defined again once both move."""
    ego = track_from("ego", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.0], np.zeros(7), np.zeros(7),
                     [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0])
    walker = track_from("walker", np.full(7, 6.0), [-4.0, -4.0, -4.0, -4.0, -3.9, -3.8, -3.7],
                        np.full(7, math.pi / 2), [0.0, 0.0009, 0.001, 1.0, 1.0, 1.0, 1.0],
                        actor_class=ActorClass.PEDESTRIAN)
    series = gap_time(make_trace(ego, walker), "ego", "walker",
                      ConflictPoint((6.0, 0.0), 6.0, 4.0))
    assert series.defined.tolist() == [False, False, True, True, True, True, False]
    assert series.values[2] == pytest.approx(4.0 / 0.001 - 5.6 / 2.0)  # moving at the floor
    assert series.values[3] == pytest.approx(4.0 - 5.4 / 2.0)
    assert series.values[~series.defined].tolist() == [0.0, 0.0, 0.0]


def test_gap_time_rejects_conflict_off_traveled_path():
    trace, _ = crossing_trace()
    bogus = ConflictPoint((3.0, 2.0), 3.0, 1.0)  # inside traveled arc, off path
    with pytest.raises(MetricError):
        gap_time(trace, "ego", "walker", bogus)


def test_gap_time_trusts_conflict_beyond_traveled_end():
    ego = moving_track("ego", 0, 0, 0.0, 1.0, n=5)  # travels 0.4 m
    walker = moving_track("walker", 6, -4, math.pi / 2, 1.0, n=5,
                          actor_class=ActorClass.PEDESTRIAN)
    series = gap_time(make_trace(ego, walker), "ego", "walker",
                      ConflictPoint((6.0, 0.0), 6.0, 4.0))
    assert series.defined.all()


def test_rigid_motion_invariance():
    """Distances and times must not depend on the map frame."""
    trace, conflict = crossing_trace()
    ang = 0.7
    c, s = math.cos(ang), math.sin(ang)
    ox, oy = 100.0, -40.0

    def transform(track):
        xs = c * track.xs - s * track.ys + ox
        ys = s * track.xs + c * track.ys + oy
        headings = np.arctan2(np.sin(track.headings + ang), np.cos(track.headings + ang))
        return ActorTrack(track.actor_id, track.actor_class, track.radius,
                          track.times, xs, ys, headings, track.speeds, track.accels)

    moved = Trace("unit", DT, {a: transform(trace.track(a)) for a in trace.actor_ids()})
    cx = c * conflict.position[0] - s * conflict.position[1] + ox
    cy = s * conflict.position[0] + c * conflict.position[1] + oy
    moved_conflict = ConflictPoint((cx, cy), conflict.ego_arc_length,
                                   conflict.other_arc_length)

    for fn in (euclidean_distance, ttc, wttc):
        ref = fn(trace, "ego", "walker")
        got = fn(moved, "ego", "walker")
        assert np.array_equal(ref.defined, got.defined)
        assert np.allclose(ref.values, got.values, atol=1e-9)
    ref = gap_time(trace, "ego", "walker", conflict)
    got = gap_time(moved, "ego", "walker", moved_conflict)
    assert np.allclose(ref.values, got.values, atol=1e-9)


def test_braking_metrics_defined_only_while_decelerating():
    n = 5
    speeds = np.array([10.0, 10.0, 8.0, 6.0, 6.0])
    accels = np.array([0.0, -2.0, -2.0, 0.0, 1.0])
    track = track_from("car", np.arange(n) * 1.0, np.zeros(n), np.zeros(n), speeds, accels)
    other = moving_track("x", 50, 50, 0.0, 0.0, n=n)
    trace = make_trace(track, other)
    bt = braking_time(trace, "car")
    bd = braking_distance(trace, "car")
    assert bt.defined.tolist() == [False, True, True, False, False]
    assert math.isclose(bt.values[1], 5.0)  # 10 / 2
    assert math.isclose(bd.values[1], 25.0)  # 100 / 4
    assert math.isclose(bd.values[2], 16.0)  # 64 / 4
    assert bt.unit == "s" and bd.unit == "m"


def test_braking_zero_speed_edge():
    n = 3
    track = track_from("car", np.zeros(n), np.zeros(n), np.zeros(n),
                       np.zeros(n), np.full(n, -1.0))
    other = moving_track("x", 50, 50, 0.0, 0.0, n=n)
    bt = braking_time(make_trace(track, other), "car")
    assert bt.defined.all()
    assert np.all(bt.values == 0.0)


def braking_formulas(trace, actor):
    """Reference: the masked formulas braking_time and braking_distance had,
    on the actor's samples resampled onto its own common grid."""
    times = common_grid(trace, (actor,))
    s = sample_track(trace.track(actor), times)
    defined = s["accel"] < BRAKING_ACCEL_FLOOR
    bt, bd = np.zeros(len(times)), np.zeros(len(times))
    bt[defined] = s["speed"][defined] / np.abs(s["accel"][defined])
    bd[defined] = s["speed"][defined] ** 2 / (2.0 * np.abs(s["accel"][defined]))
    return times, defined, bt, bd


def test_braking_metrics_are_the_masked_formulas_bitwise():
    rng = np.random.default_rng(5)
    edges = [-1e-6, 0.0, -0.0, -5e-324, 5e-324, -2.2e-308, -1.0000000000000002e-6, -3.0]
    n = 40
    for _ in range(50):
        speeds = rng.choice([0.0, 1e-300, 0.5, 12.0, 31.7], n) * rng.uniform(0.5, 1.0, n)
        accels = np.where(rng.random(n) < 0.5, rng.choice(edges, n), rng.uniform(-9.0, 3.0, n))
        speeds[:3], accels[:3] = 0.0, -4.0  # a standing actor that is braking
        car = track_from("car", rng.uniform(0, 50, n), np.zeros(n), np.zeros(n), speeds, accels)
        trace = make_trace(car, moving_track("x", 50, 50, 0.0, 0.0, n=n))
        times, defined, bt, bd = braking_formulas(trace, "car")
        for kernel, want in ((braking_time, bt), (braking_distance, bd)):
            series = kernel(trace, "car")
            assert series.times.tobytes() == times.tobytes()
            assert series.defined.tolist() == defined.tolist()
            assert series.values.tobytes() == want.tobytes()
        assert not defined[accels >= -1e-6].any()
        assert braking_time(trace, "car").values[:3].tolist() == [0.0] * 3


def test_traffic_density_counts_neighbors():
    n = 5
    center = moving_track("c", 0, 0, 0.0, 0.0, n=n)
    near1 = moving_track("n1", 3, 0, 0.0, 0.0, n=n)
    near2 = moving_track("n2", 0, 4, 0.0, 0.0, n=n)
    far = moving_track("f", 100, 0, 0.0, 0.0, n=n)
    trace = make_trace(center, near1, near2, far)
    series = traffic_density(trace, "c", radius=10.0)
    assert series.defined.all()
    assert np.allclose(series.values, 2.0 / (math.pi * 100.0))
    assert series.unit == "1/m^2"


def test_conflict_from_trace_matches_geometry():
    trace, conflict = crossing_trace()
    found = conflict_point(trace, "ego", "walker")
    assert found is not None
    assert math.isclose(found.position[0], 6.0, abs_tol=1e-9)
    assert math.isclose(found.ego_arc_length, 6.0, abs_tol=1e-9)
    assert math.isclose(found.other_arc_length, 4.0, abs_tol=1e-9)
    # parallel movers never cross
    a = moving_track("a", 0, 0, 0.0, 1.0)
    b = moving_track("b", 0, 5, 0.0, 1.0)
    assert conflict_point(make_trace(a, b), "a", "b") is None
