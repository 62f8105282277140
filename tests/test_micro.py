import math
from dataclasses import replace

import numpy as np
import pytest

from scenq import ActorClass, ActorTrack, MetricError, Trace
from scenq.geometry import band_intersection, polygon_area
from scenq.micro import _zone_margins, aggregate, build_encroachment_zone, et, occupancy, pet
from scenq.nano import euclidean_distance
from scenq.results import EncroachmentZone, MetricSeries, OccupancyInterval


def linear_track(actor_id, p0, velocity, duration, dt=0.1,
                 actor_class=ActorClass.VEHICLE, radius=None):
    n = int(round(duration / dt)) + 1
    times = np.arange(n) * dt
    vx, vy = velocity
    speed = math.hypot(vx, vy)
    heading = math.atan2(vy, vx) if speed > 0 else 0.0
    if radius is None:
        radius = 0.3 if actor_class is ActorClass.PEDESTRIAN else 1.0
    return ActorTrack(
        actor_id=actor_id,
        actor_class=actor_class,
        radius=radius,
        times=times,
        xs=p0[0] + vx * times,
        ys=p0[1] + vy * times,
        headings=np.full(n, heading),
        speeds=np.full(n, speed),
        accels=np.zeros(n),
    )


def crossing_trace(ped_y0=-30.3, duration=35.0, dt=0.1):
    """Vehicle east along y=0 from x -12.7; walker north along x=12.

    With the defaults the vehicle leaves the conflict zone at t=26 and the
    walker enters it at t=29.
    """
    car = linear_track("car", (-12.7, 0.0), (1.0, 0.0), duration, dt)
    walker = linear_track("walker", (12.0, ped_y0), (0.0, 1.0), duration, dt,
                          actor_class=ActorClass.PEDESTRIAN)
    return Trace("cross", dt, {"car": car, "walker": walker})


def occupancy_loop(trace, actor, zone):
    """Scalar reference for occupancy: one sample at a time."""
    track = trace.track(actor)
    times = track.times
    margins = _zone_margins(track.xs, track.ys, zone.polygon, track.radius)
    occupied = margins >= 0.0
    intervals = []
    i = 0
    n = len(times)
    while i < n:
        if not occupied[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and occupied[j + 1]:
            j += 1
        if i == 0:
            entry = float(times[0])
        else:
            m0, m1 = margins[i - 1], margins[i]
            entry = float(times[i - 1] + (times[i] - times[i - 1]) * (-m0) / (m1 - m0))
        if j == n - 1:
            exit_ = float(times[-1])
        else:
            m0, m1 = margins[j], margins[j + 1]
            exit_ = float(times[j] + (times[j + 1] - times[j]) * m0 / (m0 - m1))
        if exit_ > entry:
            intervals.append(OccupancyInterval(actor_id=actor, entry_time=entry, exit_time=exit_))
        i = j + 1
    return intervals


def zone_margins_loop(xs, ys, polygon, radius):
    """Reference: the per-edge loop _zone_margins had, one edge at a time."""
    n_edges = len(polygon)
    edge_dist = np.full(xs.shape, np.inf)
    inside = np.zeros(xs.shape, dtype=bool)
    for i in range(n_edges):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n_edges]
        dx, dy = bx - ax, by - ay
        len2 = dx * dx + dy * dy
        if len2 > 0:
            t = np.clip(((xs - ax) * dx + (ys - ay) * dy) / len2, 0.0, 1.0)
        else:
            t = np.zeros(xs.shape)
        edge_dist = np.minimum(edge_dist, np.hypot(xs - (ax + t * dx), ys - (ay + t * dy)))
        crosses = (ay > ys) != (by > ys)
        if crosses.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = ax + (ys - ay) / (by - ay) * dx
            inside ^= crosses & (xs < x_cross)
    signed = np.where(inside, -edge_dist, edge_dist)
    return radius - signed


def _seeded_polygons(rng):
    for _ in range(150):
        heading_a, turn = rng.uniform(-math.pi, math.pi), rng.uniform(0.2, math.pi - 0.2)
        yield band_intersection(
            tuple(rng.uniform(-40.0, 40.0, 2)),
            (math.cos(heading_a), math.sin(heading_a)),
            (math.cos(heading_a + turn), math.sin(heading_a + turn)),
            rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
        )
    for _ in range(100):  # any polygon, repeated vertices give zero-length edges
        poly = rng.uniform(-10.0, 10.0, (int(rng.integers(3, 9)), 2))
        yield np.repeat(poly, rng.integers(1, 3, len(poly)), axis=0)
    yield np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])


def test_zone_margins_are_the_edge_loop_bitwise():
    rng = np.random.default_rng(41)
    for poly in _seeded_polygons(rng):
        a, b = poly, np.roll(poly, -1, axis=0)
        samples = np.concatenate([
            poly,  # on the vertices
            a + 0.5 * (b - a),  # on the edges
            a + rng.uniform(0.0, 1.0, (len(a), 1)) * (b - a),
            poly.mean(axis=0) + rng.normal(0.0, 4.0, (60, 2)),
        ])
        xs, ys = samples[:, 0].copy(), samples[:, 1].copy()
        for radius in (0.0, 0.3, 1.0):
            got = _zone_margins(xs, ys, poly, radius)
            assert got.tobytes() == zone_margins_loop(xs, ys, poly, radius).tobytes()


def test_zone_margins_are_the_edge_loop_on_bundled_grid(batch600):
    _, outcomes, _ = batch600
    for outcome in outcomes:
        trace = outcome.trace
        try:
            zone = build_encroachment_zone(trace, "ego", "pedestrian")
        except MetricError:
            continue
        for track in trace.tracks.values():
            args = (track.xs, track.ys, zone.polygon, track.radius)
            assert _zone_margins(*args).tobytes() == zone_margins_loop(*args).tobytes()


def test_zone_is_the_band_overlap_rectangle():
    trace = crossing_trace()
    zone = build_encroachment_zone(trace, "car", "walker")
    xs, ys = zone.polygon[:, 0], zone.polygon[:, 1]
    # walker band is 2 * 0.3 wide in x, car band 2 * 1.0 tall in y
    assert math.isclose(xs.max() - xs.min(), 0.6)
    assert math.isclose(ys.max() - ys.min(), 2.0)
    assert math.isclose(polygon_area(zone.polygon), 1.2)
    assert zone.derived_from == ("car", "walker")


def test_zone_grows_with_inflation():
    trace = crossing_trace()
    zone = build_encroachment_zone(trace, "car", "walker", inflation=0.2)
    xs, ys = zone.polygon[:, 0], zone.polygon[:, 1]
    assert math.isclose(xs.max() - xs.min(), 1.0)
    assert math.isclose(ys.max() - ys.min(), 2.4)
    with pytest.raises(MetricError):
        build_encroachment_zone(trace, "car", "walker", inflation=-0.1)


def test_zone_requires_crossing_paths():
    dt = 0.1
    a = linear_track("a", (0.0, 0.0), (1.0, 0.0), 5.0, dt)
    b = linear_track("b", (0.0, 5.0), (1.0, 0.0), 5.0, dt)
    trace = Trace("par", dt, {"a": a, "b": b})
    with pytest.raises(MetricError):
        build_encroachment_zone(trace, "a", "b")


def test_occupancy_interpolates_entry_and_exit():
    trace = crossing_trace()
    zone = build_encroachment_zone(trace, "car", "walker")
    occ_car = occupancy(trace, "car", zone)
    assert len(occ_car) == 1
    # car disc (r 1.0) meets the zone edge x=11.7 at x=10.7, t=23.4,
    # and clears x=12.3 at x=13.3, t=26.0
    assert math.isclose(occ_car[0].entry_time, 23.4, abs_tol=1e-9)
    assert math.isclose(occ_car[0].exit_time, 26.0, abs_tol=1e-9)
    occ_w = occupancy(trace, "walker", zone)
    assert len(occ_w) == 1
    assert math.isclose(occ_w[0].entry_time, 29.0, abs_tol=1e-9)
    assert math.isclose(occ_w[0].exit_time, 31.6, abs_tol=1e-9)


def test_occupancy_empty_when_actor_stays_away():
    zone = build_encroachment_zone(crossing_trace(), "car", "walker")
    short = crossing_trace(duration=10.0)  # walker never gets near the zone
    assert occupancy(short, "walker", zone) == []


def test_occupancy_equals_loop_on_bundled_grid(batch600):
    _, outcomes, _ = batch600
    compared = 0
    for outcome in outcomes:
        trace = outcome.trace
        try:
            zone = build_encroachment_zone(trace, "ego", "pedestrian")
        except MetricError:
            continue
        for actor in ("ego", "pedestrian"):
            assert occupancy(trace, actor, zone) == occupancy_loop(trace, actor, zone)
        compared += 1
    assert compared >= 500


@pytest.mark.parametrize("xs, expected", [
    ([0.5, 0.5, 3.0, 4.0, 5.0], [(0.0, 1.4)]),  # occupied at the first sample
    ([5.0, 4.0, 3.0, 0.5, 0.5], [(2.6, 4.0)]),  # occupied at the last sample
    ([0.5] * 5, [(0.0, 4.0)]),  # the whole trace
    ([5.0] * 5, []),  # never
    ([5.0, 0.5, 5.0, 0.5, 5.0], [(7 / 9, 11 / 9), (25 / 9, 29 / 9)]),  # two visits
    # the disc touches the zone at one sample only: margin 0 there, so
    # the interpolated exit equals the entry and the touch is dropped
    ([4.0, 3.0, 1.5, 3.0, 4.0], []),
])
def test_occupancy_edge_cases_equal_loop(xs, expected):
    # unit square zone; disc of radius 0.5 moving along y = 0.5, 1 s steps
    zone = EncroachmentZone(
        polygon=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        derived_from=("a", "b"),
    )
    n = len(xs)
    track = ActorTrack("a", ActorClass.PEDESTRIAN, 0.5, np.arange(n, dtype=float),
                       xs=np.array(xs), ys=np.full(n, 0.5), headings=np.zeros(n),
                       speeds=np.zeros(n), accels=np.zeros(n))
    trace = Trace("edge", 1.0, {"a": track})
    occ = occupancy(trace, "a", zone)
    assert occ == occupancy_loop(trace, "a", zone)
    assert len(occ) == len(expected)
    for interval, (entry, exit_) in zip(occ, expected):
        assert math.isclose(interval.entry_time, entry, abs_tol=1e-12)
        assert math.isclose(interval.exit_time, exit_, abs_tol=1e-12)


def test_pet_ordered_passage():
    trace = crossing_trace()
    zone = build_encroachment_zone(trace, "car", "walker")
    result = pet(trace, "car", "walker", zone)
    assert result.defined
    assert math.isclose(result.value, 3.0, abs_tol=1e-9)
    assert result.unit == "s"
    assert result.context["first_actor"] == "car"
    # argument order must not matter
    swapped = pet(trace, "walker", "car", zone)
    assert math.isclose(swapped.value, result.value)
    assert swapped.context["first_actor"] == "car"


def test_pet_undefined_on_overlap():
    trace = crossing_trace(ped_y0=-26.3)  # walker arrives while the car is inside
    zone = build_encroachment_zone(trace, "car", "walker")
    result = pet(trace, "car", "walker", zone)
    assert not result.defined
    assert result.context["reason"] == "simultaneous_occupancy"
    assert result.context["conflict"] == "overlap"


def test_pet_undefined_when_one_never_occupies():
    zone = build_encroachment_zone(crossing_trace(), "car", "walker")
    # 27 s: the car has already cleared the zone, the walker (entry at
    # t=29) has not reached it yet
    trace = crossing_trace(duration=27.0)
    result = pet(trace, "car", "walker", zone)
    assert not result.defined
    assert result.context["reason"] == "never_occupies"
    assert result.context["actor"] == "walker"


def test_et_first_interval_duration():
    trace = crossing_trace()
    zone = build_encroachment_zone(trace, "car", "walker")
    result = et(trace, "car", zone)
    assert result.defined
    assert math.isclose(result.value, 2.6, abs_tol=1e-9)
    missing = et(crossing_trace(duration=10.0), "walker", zone)
    assert not missing.defined


def test_inflation_monotonicity():
    """A larger zone is entered earlier and left later, so PET can only
    shrink and ET can only grow with inflation."""
    trace = crossing_trace()
    pets, ets = [], []
    for inflation in (0.0, 0.3, 0.8):
        zone = build_encroachment_zone(trace, "car", "walker", inflation=inflation)
        pets.append(pet(trace, "car", "walker", zone).value)
        ets.append(et(trace, "car", zone).value)
    assert pets[0] >= pets[1] >= pets[2]
    assert ets[0] <= ets[1] <= ets[2]


def test_aggregate_ops():
    trace = crossing_trace(duration=10.0)
    series = euclidean_distance(trace, "car", "walker")
    lo = aggregate(series, "min")
    hi = aggregate(series, "max")
    avg = aggregate(series, "mean")
    assert lo.metric_name == "min_euclidean_distance"
    assert lo.value == float(np.min(series.values))
    assert hi.value == float(np.max(series.values))
    assert math.isclose(avg.value, float(np.mean(series.values)))
    assert lo.context["samples"] == str(len(series))


def test_aggregate_undefined_cases():
    trace = crossing_trace(duration=10.0)
    series = euclidean_distance(trace, "car", "walker")
    undefined = replace(series, defined=np.zeros(len(series), dtype=bool))
    out = aggregate(undefined, "min")
    assert not out.defined
    assert out.context["reason"] == "no_defined_samples"
    with pytest.raises(MetricError):
        aggregate(series, "median")


def test_aggregate_skips_undefined_samples():
    times = np.arange(5) * 0.1
    series = MetricSeries(
        metric_name="ttc", actor_ids=("a", "b"), unit="s",
        times=times,
        values=np.array([5.0, 1.0, 9.0, 2.0, 7.0]),
        defined=np.array([True, False, True, True, False]),
    )
    assert aggregate(series, "min").value == 2.0
    assert aggregate(series, "max").value == 9.0
