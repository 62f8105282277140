import math

import numpy as np
import pytest

from scenq import (
    ActorClass,
    ActorTrack,
    ApplicationPeriod,
    StopRule,
    Trace,
    TraceError,
    active_intervals,
    always_active,
    collision_probability,
    first_contact_time,
    load_trace,
    load_trace_file,
    resample,
    sample_track,
    save_trace,
    validate_trace,
    write_trace,
)


def straight_track(actor_id="car", n=11, dt=0.1, speed=5.0, y=0.0,
                   actor_class=ActorClass.VEHICLE, radius=1.0, t0=0.0):
    times = t0 + np.arange(n) * dt
    return ActorTrack(
        actor_id=actor_id,
        actor_class=actor_class,
        radius=radius,
        times=times,
        xs=speed * (times - t0),
        ys=np.full(n, y),
        headings=np.zeros(n),
        speeds=np.full(n, speed),
        accels=np.zeros(n),
    )


def two_actor_trace(**kwargs) -> Trace:
    a = straight_track("car", **kwargs)
    b = straight_track("walker", speed=1.0, y=10.0,
                       actor_class=ActorClass.PEDESTRIAN, radius=0.3,
                       n=kwargs.get("n", 11), dt=kwargs.get("dt", 0.1))
    return Trace("t1", kwargs.get("dt", 0.1), {"car": a, "walker": b})


def test_track_rejects_bad_shapes():
    with pytest.raises(TraceError):
        straight_track(n=1)
    with pytest.raises(TraceError):
        ActorTrack("a", ActorClass.VEHICLE, 1.0,
                   times=np.array([0.0, 0.0]), xs=np.zeros(2), ys=np.zeros(2),
                   headings=np.zeros(2), speeds=np.zeros(2), accels=np.zeros(2))
    with pytest.raises(TraceError):
        ActorTrack("a", ActorClass.VEHICLE, -1.0,
                   times=np.array([0.0, 1.0]), xs=np.zeros(2), ys=np.zeros(2),
                   headings=np.zeros(2), speeds=np.zeros(2), accels=np.zeros(2))
    with pytest.raises(TraceError):
        ActorTrack("a", ActorClass.VEHICLE, 1.0,
                   times=np.array([0.0, 1.0]), xs=np.zeros(3), ys=np.zeros(2),
                   headings=np.zeros(2), speeds=np.zeros(2), accels=np.zeros(2))


def test_track_arrays_are_frozen():
    track = straight_track()
    with pytest.raises(ValueError):
        track.xs[0] = 99.0


def test_trace_requires_overlap():
    a = straight_track("a", t0=0.0, n=5)
    b = straight_track("b", t0=10.0, n=5)
    with pytest.raises(TraceError):
        Trace("t", 0.1, {"a": a, "b": b})


def test_trace_key_must_match_actor_id():
    a = straight_track("a")
    with pytest.raises(TraceError):
        Trace("t", 0.1, {"b": a})


def test_state_at_interpolates():
    track = straight_track(speed=5.0, dt=0.1)
    s = sample_track(track, np.array([0.25]))
    assert math.isclose(s["x"][0], 1.25)
    assert s["speed"][0] == 5.0
    with pytest.raises(TraceError):
        sample_track(track, np.array([99.0]))


def test_sample_track_matches_grid_points():
    track = straight_track(speed=5.0, dt=0.1, n=11)
    cols = sample_track(track, track.times)
    assert np.array_equal(cols["x"], track.xs)
    assert np.array_equal(cols["arc"], track.arc_lengths)


def test_sample_track_heading_wraparound():
    # headings near +/- pi must interpolate along the short arc
    times = np.array([0.0, 1.0])
    track = ActorTrack(
        "a", ActorClass.VEHICLE, 1.0, times,
        xs=np.zeros(2), ys=np.zeros(2),
        headings=np.array([math.pi - 0.1, -math.pi + 0.1]),
        speeds=np.zeros(2), accels=np.zeros(2),
    )
    h = sample_track(track, np.array([0.5]))["heading"][0]
    assert abs(h) > math.pi - 0.11


def test_resample_grid_and_exactness():
    trace = two_actor_trace()
    out = resample(trace, 0.05)
    assert out.time_step == 0.05
    car = out.track("car")
    assert car.times[0] == 0.0
    assert math.isclose(car.times[-1], 1.0)
    # original grid points reproduce the source samples
    src = trace.track("car")
    assert np.allclose(car.xs[::2], src.xs)
    with pytest.raises(TraceError):
        resample(trace, 100.0)


def test_csv_roundtrip_is_exact(tmp_path):
    trace = two_actor_trace()
    p = save_trace(trace, tmp_path / "run.csv")
    back = load_trace_file(p)
    assert back.scenario_id == trace.scenario_id
    assert back.time_step == trace.time_step
    assert back.actor_ids() == trace.actor_ids()
    for actor in trace.actor_ids():
        a, b = trace.track(actor), back.track(actor)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.speeds, b.speeds)
        assert a.actor_class == b.actor_class
        assert a.radius == b.radius


def test_jsonl_roundtrip_is_exact(tmp_path):
    trace = two_actor_trace()
    p = save_trace(trace, tmp_path / "run.jsonl")
    back = load_trace_file(p)
    for actor in trace.actor_ids():
        a, b = trace.track(actor), back.track(actor)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.headings, b.headings)


def test_csv_header_with_spaces_loads():
    trace = two_actor_trace()
    lines = write_trace(trace).splitlines()
    lines[0] = ", ".join(lines[0].split(","))
    back = load_trace("\n".join(lines) + "\n")
    assert back.actor_ids() == trace.actor_ids()
    assert np.array_equal(back.track("car").xs, trace.track("car").xs)


def test_validate_clean_trace():
    report = validate_trace(two_actor_trace())
    assert report.ok
    assert not report.issues


def test_validate_flags_availability_gap():
    times = np.array([0.0, 0.1, 0.2, 0.5, 0.6])
    track = ActorTrack(
        "a", ActorClass.VEHICLE, 1.0, times,
        xs=np.zeros(5), ys=np.zeros(5), headings=np.zeros(5),
        speeds=np.zeros(5), accels=np.zeros(5),
    )
    report = validate_trace(Trace("t", 0.1, {"a": track}))
    codes = [i.code for i in report.issues]
    assert "actor_availability" in codes
    assert not report.ok


def test_validate_flags_sampling_jitter():
    times = np.array([0.0, 0.1, 0.215, 0.3, 0.4])
    track = ActorTrack(
        "a", ActorClass.VEHICLE, 1.0, times,
        xs=np.zeros(5), ys=np.zeros(5), headings=np.zeros(5),
        speeds=np.zeros(5), accels=np.zeros(5),
    )
    report = validate_trace(Trace("t", 0.1, {"a": track}))
    assert any(i.code == "sampling" and i.severity == "warning" for i in report.issues)
    assert report.ok  # warnings only


def test_validate_flags_contact():
    a = straight_track("a", y=0.0)
    b = straight_track("b", y=1.5)  # radii 1 + 1 overlap at 1.5 m apart
    report = validate_trace(Trace("t", 0.1, {"a": a, "b": b}))
    assert any(i.code == "collision" for i in report.issues)


def test_first_contact_time():
    # b starts 12 m ahead and closes at 4 m/s; circles (r 1+1) touch
    # when the gap reaches 2 m, at t = 2.5 s
    n, dt = 41, 0.1
    times = np.arange(n) * dt
    a = straight_track("a", n=n, dt=dt, speed=5.0)
    b = ActorTrack(
        "b", ActorClass.VEHICLE, 1.0, times,
        xs=12.0 + 1.0 * times, ys=np.zeros(n), headings=np.zeros(n),
        speeds=np.full(n, 1.0), accels=np.zeros(n),
    )
    t = first_contact_time(Trace("t", dt, {"a": a, "b": b}))
    assert t is not None
    # tangency at 2.5 s counts as contact; rounding in the sampled gap may
    # still push the first flagged sample to the one after
    assert 0.0 <= t - 2.5 <= dt + 1e-9
    assert first_contact_time(two_actor_trace()) is None


def test_touching_discs_are_a_contact_everywhere():
    # radii 1.0 + 0.3 and 1.3 m apart: the discs touch at every sample
    a = straight_track("a", y=0.0, radius=1.0)
    b = straight_track("b", y=1.3, radius=0.3)
    trace = Trace("t", 0.1, {"a": a, "b": b})
    assert collision_probability([trace]) == 1.0
    assert first_contact_time(trace) == 0.0
    contacts = [i for i in validate_trace(trace).issues if i.code == "collision"]
    assert [i.time for i in contacts] == [0.0]


def test_jittered_trace_contact_is_the_same_everywhere():
    # recorded times are not on the nominal 0.1 s grid; the discs
    # (r 1.0 + 0.3) are 1.2 m apart only at the recorded t = 0.25
    times = np.array([0.0, 0.1, 0.25, 0.3, 0.4])
    a = ActorTrack("a", ActorClass.VEHICLE, 1.0, times,
                   xs=np.zeros(5), ys=np.zeros(5), headings=np.zeros(5),
                   speeds=np.zeros(5), accels=np.zeros(5))
    b = ActorTrack("b", ActorClass.PEDESTRIAN, 0.3, times,
                   xs=np.zeros(5), ys=np.array([5.0, 5.0, 1.2, 5.0, 5.0]),
                   headings=np.zeros(5), speeds=np.zeros(5), accels=np.zeros(5))
    trace = Trace("jitter", 0.1, {"a": a, "b": b})
    assert first_contact_time(trace) == 0.25
    contacts = [i for i in validate_trace(trace).issues if i.code == "collision"]
    assert [i.time for i in contacts] == [0.25]
    assert collision_probability([trace]) == 1.0
    period = ApplicationPeriod(
        always_active().start_condition, stop=StopRule(kind="event", event="collision")
    )
    assert active_intervals(period, trace) == [(0.0, 0.25)]
