import io
import json
import math
import tempfile
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scenq import (
    ActorClass,
    ActorTrack,
    ApplicationPeriod,
    StopRule,
    Trace,
    TraceError,
    TraceParseError,
    active_intervals,
    always_active,
    first_contact_time,
    load_trace_file,
    registry,
    sample_track,
    save_trace,
    simulate,
    validate_trace,
    write_trace,
)
from scenq import trace as trace_module
from scenq.geometry import normalize_angles
from scenq.nano import euclidean_distance
from scenq.trace import (
    CSV_COLUMNS, GAP_FACTOR, SAMPLING_TOLERANCE, FloatTexts, ValidationIssue, ValidationReport,
    common_grid, sample_pair,
)


def load_text(text: str) -> Trace:
    """``text`` loaded from a file ``trace.csv``, so its scenario id is ``trace``; an error
    is raised without the file's name in front of its message."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            return load_trace_file(path)
        except TraceError as exc:
            exc.args = (str(exc).removeprefix(f"{path}: "),)
            raise


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


def interpolated_samples(track, times):
    """The interpolating path of ``sample_track``, which once ran on every grid."""
    cols = {"x": track.xs, "y": track.ys, "heading": np.unwrap(track.headings),
            "speed": track.speeds, "accel": track.accels, "arc": track.arc_lengths}
    samples = {key: np.interp(times, track.times, col) for key, col in cols.items()}
    samples["heading"] = normalize_angles(samples["heading"])
    return samples


@pytest.mark.parametrize("copy", [False, True])
def test_sample_track_on_its_own_times_is_the_interpolation(copy):
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        times = np.cumsum(rng.uniform(0.01, 0.2, n))
        times[0] = rng.choice([-0.0, 0.0, times[0]])

        def column(scale):  # signed zeros among normal draws
            return np.where(rng.random(n) < 0.2, rng.choice([-0.0, 0.0]), rng.normal(0.0, scale, n))

        # headings turn by up to about pi per step, across the wrap too
        track = ActorTrack("a", ActorClass.VEHICLE, 1.0, times, column(50.0), column(50.0),
                           normalize_angles(column(3.0)), np.abs(column(10.0)), column(3.0))
        grid = track.times.copy() if copy else track.times
        samples = sample_track(track, grid)
        for key, want in interpolated_samples(track, grid).items():
            assert samples[key].tobytes() == want.tobytes(), key  # signed zeros too
            assert not samples[key].flags.writeable, key
        assert samples["x"] is track.xs
    # off the own times, the interpolation runs as before
    track = straight_track()
    for grid in (track.times[1:], track.times[:-1] + 0.05):
        samples = sample_track(track, grid)
        for key, want in interpolated_samples(track, grid).items():
            assert samples[key].tobytes() == want.tobytes(), key


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


def test_write_trace_knows_only_csv():
    trace = two_actor_trace()
    assert write_trace(trace, "csv") == write_trace(trace)
    with pytest.raises(ValueError, match="'jsonl'"):
        write_trace(trace, "jsonl")


def test_csv_header_with_spaces_loads():
    trace = two_actor_trace()
    lines = write_trace(trace).splitlines()
    lines[0] = ", ".join(lines[0].split(","))
    back = load_text("\n".join(lines) + "\n")
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


def set_collision_probability(trace):
    """The collision probability of a set of one trace, as evaluate judges it: from what the
    registry spec keeps of the trace."""
    spec = registry.get("collision_probability")
    [(_, result)] = spec.compute([spec.keep(trace, {})], {})
    return result.value


def test_touching_discs_are_a_contact_everywhere():
    # radii 1.0 + 0.3 and 1.3 m apart: the discs touch at every sample
    a = straight_track("a", y=0.0, radius=1.0)
    b = straight_track("b", y=1.3, radius=0.3)
    trace = Trace("t", 0.1, {"a": a, "b": b})
    assert set_collision_probability(trace) == 1.0
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
    assert set_collision_probability(trace) == 1.0
    period = ApplicationPeriod(
        always_active().start_condition, stop=StopRule(kind="event", event="collision")
    )
    assert active_intervals(period, trace) == [(0.0, 0.25)]


def test_tracks_on_different_times_are_sampled_on_the_union_of_their_times():
    # the vehicle (r 1.0) is recorded 1.2 m from the pedestrian (r 0.3) only at
    # t = 0.25, which is not on the pedestrian's 0.1 s grid
    def track(actor_id, actor_class, radius, times, xs):
        n = len(times)
        return ActorTrack(actor_id, actor_class, radius, np.array(times), xs=np.array(xs),
                          ys=np.zeros(n), headings=np.zeros(n), speeds=np.zeros(n),
                          accels=np.zeros(n))

    car = track("car", ActorClass.VEHICLE, 1.0, [0.0, 0.1, 0.25, 0.3, 0.4],
                [10.0, 6.0, 1.2, 6.0, 10.0])
    walker = track("walker", ActorClass.PEDESTRIAN, 0.3, [0.0, 0.1, 0.2, 0.3, 0.4], np.zeros(5))
    trace = Trace("offgrid", 0.1, {"car": car, "walker": walker})
    assert common_grid(trace, ("car", "walker")).tolist() == [0.0, 0.1, 0.2, 0.25, 0.3, 0.4]
    assert first_contact_time(trace) == 0.25
    contacts = [i for i in validate_trace(trace).issues if i.code == "collision"]
    assert [i.time for i in contacts] == [0.25]
    distance = euclidean_distance(trace, "car", "walker")
    assert distance.values.min() == distance.values[distance.times == 0.25][0] == 1.2
    # only the times inside the span both tracks cover
    late = track("walker", ActorClass.PEDESTRIAN, 0.3, [0.05, 0.2, 0.35, 0.5], np.zeros(4))
    trace = Trace("offgrid", 0.1, {"car": car, "walker": late})
    assert common_grid(trace, ("car", "walker")).tolist() == [
        0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.4]
    assert common_grid(trace, ("car",)) is car.times


def validate_trace_loop(trace: Trace) -> ValidationReport:
    """Reference for ``validate_trace``: one step at a time, one pair at a time."""
    issues: list[ValidationIssue] = []
    nominal = trace.time_step
    for actor_id in trace.actor_ids():
        track = trace.tracks[actor_id]
        steps = np.diff(track.times)
        for i, step in enumerate(steps):
            if step >= GAP_FACTOR * nominal - 1e-9:
                issues.append(ValidationIssue(
                    severity="error",
                    code="actor_availability",
                    message=(f"actor {actor_id!r}: {step:.6g} s hole after "
                             f"t={track.times[i]:.6g} s (nominal step {nominal:.6g} s)"),
                    time=float(track.times[i]),
                    actor_id=actor_id,
                ))
            elif abs(step - nominal) > SAMPLING_TOLERANCE * nominal:
                issues.append(ValidationIssue(
                    severity="warning",
                    code="sampling",
                    message=(f"actor {actor_id!r}: step {step:.6g} s at t={track.times[i]:.6g} "
                             f"s deviates from nominal {nominal:.6g} s by more than 10%"),
                    time=float(track.times[i]),
                    actor_id=actor_id,
                ))
    ids = trace.actor_ids()
    for i, a_id in enumerate(ids):
        for b_id in ids[i + 1:]:
            times, sa, sb = sample_pair(trace, a_id, b_id)
            dist = np.hypot(sa["x"] - sb["x"], sa["y"] - sb["y"])
            r_sum = trace.track(a_id).radius + trace.track(b_id).radius
            touching = np.concatenate([[False], dist <= r_sum])
            for t in times[np.flatnonzero(touching[1:] & ~touching[:-1])].tolist():
                issues.append(ValidationIssue(
                    severity="warning",
                    code="collision",
                    message=f"actors {a_id!r} and {b_id!r} overlap at t={t:.6g} s",
                    time=t,
                    actor_id=a_id,
                ))
    return ValidationReport(issues=tuple(issues))


def assert_validation_is_the_loop(trace: Trace) -> tuple[ValidationIssue, ...]:
    issues = validate_trace(trace).issues
    assert issues == validate_trace_loop(trace).issues
    contacts = [i.time for i in issues if i.code == "collision"]
    assert first_contact_time(trace) == min(contacts, default=None)
    return issues


def test_validate_equals_loop_on_bundled_grid(batch600):
    codes = set()
    for outcome in batch600[1]:
        issues = assert_validation_is_the_loop(outcome.trace)
        codes.update(i.code for i in issues)
        assert outcome.collided == any(i.code == "collision" for i in issues)
    assert codes == {"collision"}  # simulated runs sample evenly


def resampled(trace: Trace, rng: np.random.Generator, keep: float, jitter: float) -> Trace:
    """The trace with each inner sample kept with probability ``keep`` and every
    inner time moved by up to ``jitter`` nominal steps, still increasing."""
    tracks = {}
    for actor_id, track in trace.tracks.items():
        n = len(track)
        kept = np.flatnonzero((rng.random(n) < keep) | (np.arange(n) % (n - 1) == 0))
        times = track.times + rng.uniform(-jitter, jitter, n) * trace.time_step
        times[[0, -1]] = track.times[[0, -1]]
        columns = [getattr(track, f)[kept] for f in ("xs", "ys", "headings", "speeds", "accels")]
        tracks[actor_id] = ActorTrack(actor_id, track.actor_class, track.radius,
                                      times[kept], *columns)
    return Trace(trace.scenario_id, trace.time_step, tracks)


def test_validate_equals_loop_on_thinned_and_jittered_traces(batch600):
    rng = np.random.default_rng(2020)
    counts = dict.fromkeys(("actor_availability", "sampling", "collision"), 0)
    for outcome in batch600[1][::10]:
        trace = resampled(outcome.trace, rng, keep=rng.uniform(0.6, 1.0),
                          jitter=rng.uniform(0.0, 0.3))
        for issue in assert_validation_is_the_loop(trace):
            counts[issue.code] += 1
    assert min(counts.values()) > 0, counts


def test_validate_equals_loop_on_seeded_random_walks():
    rng = np.random.default_rng(7)
    codes = set()
    for _ in range(40):
        tracks = {}
        for k in range(rng.integers(2, 5)):
            n = int(rng.integers(5, 40))
            times = np.cumsum(rng.choice([0.1, 0.1, 0.1, 0.12, 0.25], n)) - 0.1
            xs = np.cumsum(rng.normal(0.0, 1.0, n)) - 3.0 * k
            tracks[f"a{k}"] = ActorTrack(f"a{k}", ActorClass.PEDESTRIAN, 1.0, times, xs=xs,
                                         ys=rng.normal(0.0, 1.0, n), headings=np.zeros(n),
                                         speeds=np.zeros(n), accels=np.zeros(n))
        try:
            trace = Trace("walk", 0.1, tracks)
        except TraceError:
            continue  # no common span
        codes.update(i.code for i in assert_validation_is_the_loop(trace))
    assert codes == {"actor_availability", "sampling", "collision"}


@pytest.mark.parametrize("nominal", [0.1, 0.05, 0.02, 10.0])
def test_validate_equals_loop_at_the_hole_and_jitter_edges(nominal):
    # at 10 s the jitter edges 9 s and 11 s are off by exactly the 1 s tolerance
    hole = GAP_FACTOR * nominal - 1e-9
    edges = [hole, np.nextafter(hole, 0.0), np.nextafter(hole, np.inf)]
    for sign in (-1.0, 1.0):
        edge = nominal + sign * SAMPLING_TOLERANCE * nominal
        edges += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    # one actor per edge step, each then taking a nominal step, all from t = 0
    tracks = {f"a{k}": ActorTrack(f"a{k}", ActorClass.VEHICLE, 0.1,
                                  np.array([0.0, step, step + nominal]),
                                  np.full(3, 10.0 * k), *np.zeros((4, 3)))
              for k, step in enumerate(edges)}
    issues = assert_validation_is_the_loop(Trace("edges", nominal, tracks))
    first = {i.actor_id: i.code for i in issues if i.time == 0.0}
    assert first["a0"] == "actor_availability"
    assert first["a1"] == "sampling"
    assert first["a2"] == "actor_availability"
    assert first["a4"] == first["a8"] == "sampling"
    if nominal == 10.0:
        assert "a3" not in first and "a6" not in first


# ---------------------------------------------------------------------------
# codec: parse errors, reference writer, round trips


def base_rows():
    """Two actors sampled at 0.0 .. 0.3 s, one row per actor and time."""
    return [
        {"time_s": round(0.1 * k, 1), "actor_id": actor, "actor_class": cls,
         "x_m": float(k), "y_m": y, "heading_rad": 0.0, "speed_mps": 1.0, "accel_mps2": 0.0}
        for k in range(4)
        for actor, cls, y in (("car", "vehicle", 0.0), ("walker", "pedestrian", 5.0))
    ]


def rows_text(rows, columns=CSV_COLUMNS):
    """Rows as CSV, header on line 1; None stands for a blank line."""
    lines = [",".join(columns)]
    lines += ["" if r is None else ",".join(str(r[c]) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


#: The line of row 0 of rows_text(): the header is line 1.
FIRST_DATA_LINE = 2

#: The formats write_trace takes: CSV alone. Codec tests run once per format, under its id.
TRACE_FORMATS = ["csv"]


def setting(row, **fields):
    return lambda rows: [dict(r, **fields) if i == row else r for i, r in enumerate(rows)]


NOT_A_FLOAT = "non-numeric value (could not convert string to float: {!r})"

# (mutation of base_rows(), message after "line N: ", row index or None, actor)
ROW_ERRORS = {
    "value_on_first_row": (setting(0, x_m="oops"), NOT_A_FLOAT.format("oops"), 0, "car"),
    "value_on_middle_row": (setting(3, speed_mps="fast"), NOT_A_FLOAT.format("fast"), 3, "walker"),
    "value_on_last_row": (setting(7, accel_mps2="1.0.0"), NOT_A_FLOAT.format("1.0.0"), 7, "walker"),
    "duplicate_time": (setting(4, time_s=0.1), "duplicate timestamp 0.1 for actor 'car'", 4, "car"),
    "non_monotonic_time": (
        setting(4, time_s=0.05), "non-monotonic time for actor 'car' (0.05 after 0.1)", 4, "car"
    ),
    "class_change": (setting(5, actor_class="vehicle"), "actor 'walker' changes class", 5, "walker"),
    "unknown_class": (
        lambda rows: [dict(r, actor_class="truck") if r["actor_id"] == "walker" else r
                      for r in rows],
        "actor 'walker': unknown actor_class 'truck'", None, "walker",
    ),
    "fewer_than_2_states": (
        lambda rows: rows + [dict(rows[0], actor_id="bike")],
        "actor 'bike' has fewer than 2 states", None, "bike",
    ),
    # the earliest offending row is reported, whatever its kind
    "time_before_value": (
        lambda rows: setting(6, x_m="oops")(setting(4, time_s=0.1)(rows)),
        "duplicate timestamp 0.1 for actor 'car'", 4, "car",
    ),
    "value_before_time": (
        lambda rows: setting(6, time_s=0.1)(setting(4, x_m="oops")(rows)),
        NOT_A_FLOAT.format("oops"), 4, "car",
    ),
    "class_before_value_on_one_row": (
        setting(5, actor_class="vehicle", x_m="oops"), "actor 'walker' changes class", 5, "walker"
    ),
    "class_before_time_on_one_row": (
        setting(4, actor_class="pedestrian", time_s=0.1), "actor 'car' changes class", 4, "car"
    ),
    "earliest_time_across_actors": (
        lambda rows: setting(6, time_s=0.2)(setting(3, time_s=0.0)(rows)),
        "duplicate timestamp 0.0 for actor 'walker'", 3, "walker",
    ),
    # found before any arithmetic on the values, so no RuntimeWarning comes first
    "heading_not_finite": (
        setting(2, heading_rad=math.inf), "non-finite heading_rad (inf)", 2, "car"
    ),
    "non_finite_before_time": (
        lambda rows: setting(6, time_s=0.1)(setting(4, speed_mps=math.nan)(rows)),
        "non-finite speed_mps (nan)", 4, "car",
    ),
    "value_before_non_finite": (
        lambda rows: setting(6, y_m=math.inf)(setting(5, x_m="oops")(rows)),
        NOT_A_FLOAT.format("oops"), 5, "walker",
    ),
    "empty_actor_id": (setting(3, actor_id=""), "empty actor_id", 3, ""),
    "negative_speed": (setting(4, speed_mps=-0.5), "negative speed_mps (-0.5)", 4, "car"),
    "negative_speed_before_time": (
        lambda rows: setting(6, time_s=0.1)(setting(3, speed_mps=-0.5)(rows)),
        "negative speed_mps (-0.5)", 3, "walker",
    ),
    "time_before_negative_speed_on_one_row": (
        setting(4, time_s=0.1, speed_mps=-0.5), "duplicate timestamp 0.1 for actor 'car'", 4, "car"
    ),
    "non_finite_before_negative_speed_on_one_row": (
        setting(4, x_m=math.inf, speed_mps=-0.5), "non-finite x_m (inf)", 4, "car"
    ),
    # float() reads these spellings and np.loadtxt does not: a number is what loadtxt reads
    "underscore_in_number": (setting(2, x_m="1_000"), NOT_A_FLOAT.format("1_000"), 2, "car"),
    "fullwidth_digit": (setting(3, y_m="\uff11"), NOT_A_FLOAT.format("\uff11"), 3, "walker"),
    "arabic_indic_digit": (setting(3, y_m="\u0665"), NOT_A_FLOAT.format("\u0665"), 3, "walker"),
}


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
@pytest.mark.parametrize("case", sorted(ROW_ERRORS))
def test_parse_errors_name_line_and_actor(fmt, case):
    mutate, message, row, actor = ROW_ERRORS[case]
    with pytest.raises(TraceParseError) as exc:
        load_text(rows_text(mutate(base_rows())))
    line = None if row is None else row + FIRST_DATA_LINE
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")
    assert exc.value.line == line
    assert exc.value.actor_id == actor


def extra_field(line):
    return line + ",99"


# {row index of base_rows(): edit of its line}, message after "line N: ", row, actor
CSV_WIDTH_ERRORS = {
    "short_row": ({3: lambda line: "0.1,walker"}, "2 fields, header has 8", 3, "walker"),
    "short_row_of_numbers": (
        {3: lambda line: line.rsplit(",", 3)[0]}, "5 fields, header has 8", 3, "walker"
    ),
    "extra_field": ({2: extra_field}, "9 fields, header has 8", 2, "car"),
    # the earliest offending row is reported, whatever its kind
    "class_before_width": (
        {2: lambda line: line.replace("vehicle", "pedestrian"), 5: extra_field},
        "actor 'car' changes class", 2, "car",
    ),
    "time_before_width": (
        {4: lambda line: line.replace("0.2", "0.1", 1), 6: lambda line: "0.3"},
        "duplicate timestamp 0.1 for actor 'car'", 4, "car",
    ),
    "value_before_width": (
        {3: lambda line: line.replace("5.0", "oops"), 5: extra_field},
        NOT_A_FLOAT.format("oops"), 3, "walker",
    ),
    "width_before_value": (
        {3: extra_field, 5: lambda line: line.replace("5.0", "oops")},
        "9 fields, header has 8", 3, "walker",
    ),
}


@pytest.mark.parametrize("case", sorted(CSV_WIDTH_ERRORS))
def test_csv_rows_must_match_header_width(case):
    edits, message, row, actor = CSV_WIDTH_ERRORS[case]
    lines = rows_text(base_rows()).splitlines()
    for k, edit in edits.items():
        lines[k + 1] = edit(lines[k + 1])
    with pytest.raises(TraceParseError) as exc:
        load_text("\n".join(lines) + "\n")
    line = row + FIRST_DATA_LINE
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line
    assert exc.value.actor_id == actor


def test_csv_width_checked_past_the_used_columns():
    # an unused last column: a short and a long row leave the comma count as it should be
    lines = [line + ",n" for line in rows_text(base_rows()).splitlines()]
    assert load_text("\n".join(lines)).actor_ids() == ("car", "walker")
    lines[3], lines[5] = lines[3][:-2], extra_field(lines[5])
    with pytest.raises(TraceParseError) as exc:
        load_text("\n".join(lines))
    assert str(exc.value) == "line 4: 8 fields, header has 9"


NO_ROW_ERRORS = [
    ("csv", rows_text(base_rows(), [c for c in CSV_COLUMNS if c != "y_m"]),
     "missing CSV columns: y_m", None),
    ("csv", ",".join(CSV_COLUMNS) + "\n\n", "no data rows", None),
    ("csv", "", "empty CSV input", None),
]


@pytest.mark.parametrize("fmt, text, message, line", NO_ROW_ERRORS)
def test_parse_errors_without_rows(fmt, text, message, line):
    with pytest.raises(TraceParseError) as exc:
        load_text(text)
    assert str(exc.value) == message
    assert exc.value.line == line
    assert exc.value.actor_id is None


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_error_line_counts_blank_lines(fmt):
    rows = setting(3, x_m="oops")(base_rows())
    rows.insert(2, None)  # a blank line before the bad row
    with pytest.raises(TraceParseError) as exc:
        load_text(rows_text(rows))
    line = 4 + FIRST_DATA_LINE  # blank line 4, bad row on line 6
    assert str(exc.value) == f"line {line}: " + NOT_A_FLOAT.format("oops")
    assert exc.value.line == line


def test_open_quote_stays_on_its_line():
    # a quote opened on line 4 and closed on line 5 must not join the two
    text = rows_text(base_rows()).replace("0.1,car,", '0.1,"car\nx",')
    with pytest.raises(TraceParseError) as exc:
        load_text(text)
    assert exc.value.line == 4
    assert exc.value.actor_id == "car"
    assert str(exc.value) == "line 4: 2 fields, header has 8"


# ---------------------------------------------------------------------------
# the block reader: text and files are parsed a block at a time


@pytest.fixture()
def small_blocks(monkeypatch):
    """Traces read in 64-character blocks, one or two lines of base_rows() each."""
    monkeypatch.setattr(trace_module, "_READ_BLOCK", 64)


@pytest.mark.parametrize("case", sorted(ROW_ERRORS))
def test_parse_errors_name_line_and_actor_in_small_blocks(small_blocks, case):
    test_parse_errors_name_line_and_actor("csv", case)


@pytest.mark.parametrize("case", sorted(CSV_WIDTH_ERRORS))
def test_csv_rows_must_match_header_width_in_small_blocks(small_blocks, case):
    test_csv_rows_must_match_header_width(case)


@pytest.mark.parametrize("fmt, text, message, line", NO_ROW_ERRORS)
def test_parse_errors_without_rows_in_small_blocks(small_blocks, fmt, text, message, line):
    test_parse_errors_without_rows(fmt, text, message, line)


def test_error_line_counts_blank_lines_in_small_blocks(small_blocks):
    test_error_line_counts_blank_lines("csv")


def test_negative_speed_in_a_file_names_its_line(small_blocks, tmp_path):
    path = tmp_path / "run.csv"
    path.write_text(rows_text(setting(7, speed_mps=-0.5)(base_rows())), encoding="utf-8")
    assert load_outcome(path) == ("line 9: negative speed_mps (-0.5)", 9, "walker")


def load_outcome(source):
    """What loading ``source``, text or a file's path, gives: each track's class and array
    bytes, or the error's message (after the file's path), line and actor."""
    try:
        trace = load_trace_file(source) if isinstance(source, Path) else load_text(source)
    except TraceParseError as exc:
        return str(exc).removeprefix(f"{source}: "), exc.line, exc.actor_id
    return trace.metadata, {
        actor_id: (track.actor_class, [getattr(track, name).tobytes() for name in (
            "times", "xs", "ys", "headings", "speeds", "accels")])
        for actor_id, track in trace.tracks.items()}


def with_blank_lines(text):
    lines = text.splitlines()
    return "\n".join([lines[0], "", *lines[1:4], "", "", *lines[4:], ""]) + "\n"


# text, and text that loads alike when read in one block (None: the text itself)
BLOCK_EDGE_TEXTS = {
    "crlf_line_ends": (rows_text(base_rows()).replace("\n", "\r\n"), rows_text(base_rows())),
    "lone_cr_line_ends": (rows_text(base_rows()).replace("\n", "\r"), rows_text(base_rows())),
    "blank_lines": (with_blank_lines(rows_text(base_rows())), rows_text(base_rows())),
    "no_trailing_newline": (rows_text(base_rows()).rstrip("\n"), rows_text(base_rows())),
    "bad_row_after_blank_lines": (
        with_blank_lines(rows_text(setting(5, x_m="oops")(base_rows()))), None),
    "bad_row_after_crlf_line_ends": (
        rows_text(setting(5, x_m="oops")(base_rows())).replace("\n", "\r\n"),
        rows_text(setting(5, x_m="oops")(base_rows()))),
    # a quote opened on line 4 and closed on line 5, whichever blocks the two lines are in
    "open_quote": (rows_text(base_rows()).replace("0.1,car,", '0.1,"car\nx",'), None),
}


@pytest.mark.parametrize("block", [1 << 16, 64])
def test_error_line_counts_a_run_of_blank_lines(monkeypatch, block):
    monkeypatch.setattr(trace_module, "_READ_BLOCK", block)
    text = with_blank_lines(rows_text(setting(3, x_m="oops")(base_rows())))  # blank 2, 6, 7
    assert load_outcome(text) == ("line 8: " + NOT_A_FLOAT.format("oops"), 8, "walker")


@pytest.mark.parametrize("case", sorted(BLOCK_EDGE_TEXTS))
def test_block_edges_change_no_load(monkeypatch, tmp_path, case):
    """At every block size, so that every line and blank line ends a block once, text and
    file load as the text read in one block does."""
    text, alike = BLOCK_EDGE_TEXTS[case]
    alike = alike or text
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(trace_module, "_READ_BLOCK", len(alike))
    want = load_outcome(alike)
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(trace_module, "_READ_BLOCK", size)
        assert load_outcome(text) == want, size
        assert load_outcome(path) == want, size


def test_invalid_utf8_in_a_later_block_names_its_byte_before_a_bad_row(small_blocks, tmp_path):
    data = rows_text(setting(1, x_m="oops")(base_rows())).encode("utf-8")
    at = len(data) - 10
    path = tmp_path / "trace.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(TraceError) as exc:
        load_trace_file(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte at byte {at})"


@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xf0\x9f\x98"], ids=["1", "2", "3"])
def test_invalid_utf8_names_its_byte_past_the_first_chunks(batch600, tmp_path, bad):
    """The decoder reads 8 KiB chunks, then 64 KiB ones: a bad sequence of 1, 2 or 3 bytes
    across or past their edges, or at the file's end, is named at its byte in the file, also
    where the first row is bad."""
    longest = max((o.trace for o in batch600[1]), key=lambda t: sum(map(len, t.tracks.values())))
    data = write_trace(longest).encode("utf-8")
    lines = data.split(b"\n")
    cells = lines[1].split(b",")
    lines[1] = b",".join([*cells[:3], b"oops", *cells[4:]])
    path = tmp_path / "trace.csv"
    for text in (data, b"\n".join(lines)):
        for at in (8191, 8192, 8193, 1 << 16, len(text) - 1, len(text)):
            corrupt = text[:at] + bad + text[at:]
            path.write_bytes(corrupt)
            with pytest.raises(UnicodeDecodeError) as whole:
                corrupt.decode("utf-8")
            assert whole.value.start == at
            with pytest.raises(TraceError) as exc:
                load_trace_file(path)
            assert str(exc.value) == f"{path}: not UTF-8 text ({whole.value.reason} at byte {at})"


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    text = rows_text(base_rows())
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_outcome(path) == load_outcome("\ufeff" + text) == load_outcome(text)
    # one mark: a second one is part of the first column's name
    assert load_outcome("\ufeff\ufeff" + text) == ("missing CSV columns: time_s", None, None)


def test_a_bad_last_row_parses_one_block_line_by_line(batch600, monkeypatch):
    """loadtxt runs once per block, and line by line only in the block holding the bad row."""
    longest = max((o.trace for o in batch600[1]), key=lambda t: sum(map(len, t.tracks.values())))
    lines = write_trace(longest).splitlines()
    cells = lines[-1].split(",")
    lines[-1] = ",".join([*cells[:3], "oops", *cells[4:]])
    text = "\n".join(lines) + "\n"
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
    with pytest.raises(TraceParseError, match=f"^line {len(lines)}: non-numeric value"):
        load_text(text)
    block = trace_module._READ_BLOCK
    blocks = -(-len(text) // block)
    assert blocks > 2
    assert len(calls) <= text[:block].count("\n") + blocks + 1


def test_block_reads_equal_whole_text_reads_on_the_bundled_grid(batch600, tmp_path, monkeypatch):
    path = tmp_path / "trace.csv"
    longest = 0
    for outcome in batch600[1]:
        text = write_trace(outcome.trace)
        path.write_text(text, encoding="utf-8")
        in_blocks = load_outcome(path)
        monkeypatch.setattr(trace_module, "_READ_BLOCK", len(text))
        assert load_outcome(text) == in_blocks
        monkeypatch.undo()
        longest = max(longest, len(text))
    assert longest > 4 * trace_module._READ_BLOCK


def test_the_per_line_path_reads_the_values_of_its_rows():
    # the last field's quote is left open: the whole text joins lines, so every line is
    # parsed on its own, and each then reads its own values
    rows = setting(4, accel_mps2='"0.0')(base_rows())
    assert load_outcome(rows_text(rows)) == load_outcome(rows_text(base_rows()))
    # a bad row sends its lines down that path too, so an earlier non-finite x_m is x_m
    rows = setting(1, x_m=math.inf)(base_rows())
    lines = rows_text(rows).splitlines()
    lines[6] += ",99"
    assert load_outcome("\n".join(lines)) == ("line 3: non-finite x_m (inf)", 3, "walker")


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_memory_is_the_arrays_and_one_block(intersection_config, tmp_path, line_end):
    """A load holds the trace's arrays and one block of text with what is parsed from it,
    not the whole text and a table of its rows. 8,002 rows peak 0.65 MB above their 0.38 MB
    of arrays; read as one text they peaked 2.81 MB above."""
    slow = simulate({"v_max": 10.0, "t_cross": 5.0, "d_start": 16.0}, intersection_config)
    path = save_trace(slow.trace, tmp_path / "slow.csv")
    path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
    path.with_name("slow.csv.npy").unlink()  # so that "lf" is parsed too
    load_trace_file(path)
    tracemalloc.start()
    try:
        trace = load_trace_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(getattr(track, name).nbytes for track in trace.tracks.values()
                 for name in ("times", "xs", "ys", "headings", "speeds", "accels"))
    assert sum(map(len, trace.tracks.values())) > 8000
    assert peak - arrays < 2 * arrays + 8 * (1 << 16)  # one 64 KiB block, parsed


def central_difference(times, values):
    """Central differences, one-sided at the ends, one sample at a time."""
    n = len(times)
    return [(values[min(i + 1, n - 1)] - values[max(i - 1, 0)])
            / (times[min(i + 1, n - 1)] - times[max(i - 1, 0)]) for i in range(n)]


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_missing_accel_is_the_central_difference_of_speed(fmt):
    rows = base_rows()
    for k, row in enumerate(rows):  # uneven steps and speeds
        row.update(time_s=[0.0, 0.1, 0.25, 0.3][k // 2], speed_mps=[1.0, 2.0, 2.5, 4.5][k // 2])
    trace = load_text(rows_text(rows, CSV_COLUMNS[:-1]))
    assert trace.metadata["accel_derived"] == "car,walker"
    for track in trace.tracks.values():
        assert track.accels.tolist() == central_difference(track.times.tolist(),
                                                           track.speeds.tolist())
        assert track.accels.tolist() != [0.0] * 4  # not the recorded column


# edits of base_rows() (car on rows 0, 2, 4, 6, walker on 1, 3, 5, 7), row and actor reported
ACCEL_OVERFLOWS = {
    "speed_jump_over_a_tiny_step": (
        {0: {"speed_mps": 0.0}, 2: {"time_s": 1e-300, "speed_mps": 1e308}}, 2, "car"),
    "speed_jump": ({2: {"speed_mps": 1e308}}, 2, "car"),
    # the walker's jump comes first in the file, the car's first among the actors
    "earliest_row_across_actors": ({6: {"speed_mps": 1e308}, 3: {"speed_mps": 1e308}}, 3,
                                   "walker"),
}


@pytest.mark.parametrize("case", sorted(ACCEL_OVERFLOWS))
def test_derived_accel_that_overflows_names_the_later_row(case):
    edits, row, actor = ACCEL_OVERFLOWS[case]
    rows = [dict(r, **edits.get(k, {})) for k, r in enumerate(base_rows())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(TraceParseError) as exc:
            load_text(rows_text(rows, CSV_COLUMNS[:-1]))
    line = row + FIRST_DATA_LINE
    assert str(exc.value) == f"line {line}: non-finite derived accel_mps2 (inf)"
    assert (exc.value.line, exc.value.actor_id) == (line, actor)
    assert load_text(rows_text(rows)).track(actor).speeds.max() == 1e308  # recorded accel


def test_derived_accel_of_one_row_is_no_bad_row():
    rows = base_rows() + [dict(base_rows()[0], actor_id="bike")]
    with pytest.raises(TraceParseError, match="^actor 'bike' has fewer than 2 states$"):
        load_text(rows_text(rows, CSV_COLUMNS[:-1]))


@pytest.mark.parametrize("actor_id", ["ego,1", 'say "hi"'])
def test_quoted_actor_id_loads_in_the_one_pass(monkeypatch, actor_id):
    """A quoted comma or quote is read by the one loadtxt pass: only the header is split
    line by line."""
    trace = Trace("quoted", 0.1, {actor_id: straight_track(actor_id),
                                  "walker": straight_track("walker", y=10.0)})
    text = write_trace(trace)
    split = trace_module._split_csv_line
    calls = []
    monkeypatch.setattr(trace_module, "_split_csv_line",
                        lambda line: calls.append(line) or split(line))
    assert_same_tracks(load_text(text), trace)
    assert calls == [text.splitlines()[0]]


def reference_rows(trace):
    """Reference row order and values: per-row dicts sorted by (time, actor id)."""
    heads = []
    for actor_id in trace.actor_ids():
        track = trace.tracks[actor_id]
        for i in range(len(track)):
            heads.append((float(track.times[i]), actor_id, i, track))
    heads.sort(key=lambda item: (item[0], item[1]))
    for t, actor_id, i, track in heads:
        yield {
            "time_s": t,
            "actor_id": actor_id,
            "actor_class": track.actor_class.value,
            "x_m": float(track.xs[i]),
            "y_m": float(track.ys[i]),
            "heading_rad": float(track.headings[i]),
            "speed_mps": float(track.speeds[i]),
            "accel_mps2": float(track.accels[i]),
        }


def reference_write(trace):
    """Reference writer, one row at a time."""
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for row in reference_rows(trace):
        out.write(
            f"{row['time_s']!r},{row['actor_id']},{row['actor_class']},"
            f"{row['x_m']!r},{row['y_m']!r},{row['heading_rad']!r},"
            f"{row['speed_mps']!r},{row['accel_mps2']!r}\n"
        )
    return out.getvalue()


SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e22, 0.1 + 0.2, -1e-300, 2.0**-1074 * 3])


def random_trace(rng, size=60, ids=("a", "b", "car", "walker_1")):
    """Actors on a shared grid (ties in time), on grids of their own, or on
    the shared grid shifted; values mix random bit patterns, normal draws
    and SPECIAL_VALUES."""
    shared = np.cumsum(rng.uniform(0.05, 0.15, size=size))
    tracks = {}
    for actor_id in rng.choice(ids, size=rng.integers(1, len(ids) + 1), replace=False):
        kind = rng.integers(3)
        if kind == 0:
            times = shared[: rng.integers(size // 3, size + 1)].copy()
        elif kind == 1:
            times = np.cumsum(rng.uniform(0.05, 0.2, size=rng.integers(10, size + 20)))
        else:
            times = shared[: 2 * size // 3] + 0.05
        times[0] = rng.choice([-0.0, 0.0, times[0]])
        n = len(times)

        def column(scale):
            bits = rng.integers(0, 2**63, size=n, dtype=np.uint64).view(np.float64)
            vals = np.where(np.isfinite(bits), bits, 1.0) if rng.random() < 0.3 else \
                rng.normal(scale=scale, size=n)
            picks = rng.random(n) < 0.2
            vals[picks] = rng.choice(SPECIAL_VALUES, size=picks.sum())
            return vals

        cls = ActorClass(rng.choice([c.value for c in ActorClass]))
        tracks[str(actor_id)] = ActorTrack(
            str(actor_id), cls, 1.0, times, xs=column(50.0), ys=column(50.0),
            headings=normalize_angles(column(3.0)), speeds=np.abs(column(10.0)),
            accels=column(3.0),
        )
    return Trace("random", 0.1, tracks)


def assert_same_tracks(back, trace):
    assert back.actor_ids() == trace.actor_ids()
    for actor_id in trace.actor_ids():
        a, b = trace.track(actor_id), back.track(actor_id)
        assert a.actor_class == b.actor_class
        for name in ("times", "xs", "ys", "speeds", "accels"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (actor_id, name)
        assert normalize_angles(a.headings).tobytes() == b.headings.tobytes()


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_write_matches_reference_writer_and_round_trips(fmt):
    rng = np.random.default_rng(8)
    # the large traces span several write blocks
    for size in [60] * 40 + [2000] * 3:
        trace = random_trace(rng, size)
        text = write_trace(trace, fmt)
        assert text == reference_write(trace)
        assert_same_tracks(load_text(text), trace)


def signed_zero_trace():
    """Two actors whose columns alternate 0.0 and -0.0 over several rows; one
    actor starts at time -0.0, the other at 0.0."""
    zeros = np.where(np.arange(8) % 2, -0.0, 0.0)
    tracks = {}
    for actor_id, start in (("a", -0.0), ("b", 0.0)):
        times = np.concatenate([[start], 0.1 * np.arange(1, 8)])
        tracks[actor_id] = ActorTrack(actor_id, ActorClass.VEHICLE, 1.0, times,
                                      zeros, -zeros, zeros, zeros, -zeros)
    return Trace("zeros", 0.1, tracks)


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_write_matches_reference_writer_on_repeated_values(fmt, intersection_config):
    """Simulator traces repeat most of their values, which random_trace does not."""
    runs = [
        simulate({"v_max": 58.0, "t_cross": 5.0, "d_start": 10.0}, intersection_config),
        simulate({"v_max": 30.0, "t_cross": 5.0, "d_start": 10.0}, intersection_config),
        simulate({"v_max": 32.0, "t_cross": 5.0, "d_start": 16.0},
                 replace(intersection_config, max_duration=3.0)),
    ]
    assert [run.end_reason for run in runs] == ["collision", "route_completed", "timeout"]
    assert runs[1].trace.track("ego").speeds.min() == 0.0  # the ego brakes to a stop
    for trace in [run.trace for run in runs] + [signed_zero_trace()]:
        text = write_trace(trace, fmt)
        assert text == reference_write(trace)
        assert_same_tracks(load_text(text), trace)


def zero_trace(zero):
    """Two actors standing still: every column but time holds ``zero``, and
    one actor's first time is ``zero`` too."""
    tracks = {}
    for actor_id, start in (("a", zero), ("b", 0.0)):
        times = np.concatenate([[start], 0.1 * np.arange(1, 6)])
        column = np.full(6, zero)
        tracks[actor_id] = ActorTrack(actor_id, ActorClass.VEHICLE, 1.0, times,
                                      column, column, column, column, column)
    return Trace("zeros", 0.1, tracks)


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_batch_writer_matches_one_at_a_time_and_reference(fmt, intersection_config, tmp_path):
    """Each trace of a batch is written as alone, whatever the trace before it held."""

    def saved(batch, name):
        """The texts of the files save_trace writes for a batch sharing one FloatTexts."""
        (tmp_path / name).mkdir()
        float_texts = FloatTexts()
        paths = [save_trace(trace, tmp_path / name / f"{i}.{fmt}", float_texts)
                 for i, trace in enumerate(batch)]
        return [path.read_bytes().decode("utf-8") for path in paths]

    runs = [
        simulate({"v_max": v_max, "t_cross": 5.0, "d_start": d_start}, intersection_config)
        for v_max, d_start in ((30.0, 16.0), (30.0, 16.0), (34.0, 16.0), (58.0, 10.0),
                               (30.0, 10.0))
    ]
    # the same run twice, then shorter runs and a longer one that share most of their times
    assert [len(run.trace.track("ego")) for run in runs] == [1913, 1913, 1688, 328, 2074]
    rng = np.random.default_rng(15)
    batch = [run.trace for run in runs]
    batch += [zero_trace(0.0), zero_trace(-0.0), zero_trace(0.0), signed_zero_trace()]
    batch += [random_trace(rng, size) for size in (60, 2000, 60, 60, 1500)]
    texts = saved(batch, "batch")
    assert texts == [write_trace(trace, fmt) for trace in batch]
    assert texts == [reference_write(trace) for trace in batch]
    assert "-0.0" not in texts[5] and "-0.0" in texts[6] and "-0.0" not in texts[7]
    assert saved(batch[3:4], "one") == [reference_write(batch[3])]
    assert saved([], "none") == []


def test_batch_writer_calls_repr_only_for_patterns_new_to_the_trace_before(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr("scenq.trace.repr", lambda v: calls.append(v) or repr(v), raising=False)
    a, b = two_actor_trace(), two_actor_trace(speed=4.0)

    def bits(trace):
        return {v.tobytes() for tr in trace.tracks.values() for v in np.concatenate(
            [tr.times, tr.xs, tr.ys, tr.headings, tr.speeds, tr.accels])}

    counts = []
    float_texts = FloatTexts()
    for i, trace in enumerate([a, a, b, a]):
        save_trace(trace, tmp_path / f"{i}.csv", float_texts)
        counts.append(len(calls))
        calls.clear()
    zero = np.float64(0.0).tobytes()  # the table starts out holding 0.0
    assert counts == [len(bits(a) - {zero}), 0, len(bits(b) - bits(a)), len(bits(a) - bits(b))]
    assert 0 not in counts[2:]


def test_batch_writer_memory_is_bounded_by_one_trace(batch600, tmp_path):
    """The table of known texts holds one trace's patterns, so writing a batch
    peaks near writing its largest trace alone, not with the batch size."""
    traces = [outcome.trace for outcome in batch600[1][::12]]
    largest = max(traces, key=lambda trace: sum(map(len, trace.tracks.values())))

    def peak(batch):
        tracemalloc.start()
        try:
            float_texts = FloatTexts()
            for trace in batch:
                save_trace(trace, tmp_path / "run.csv", float_texts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(traces) == 50
    assert peak(traces) < 1.5 * peak([largest])


@pytest.mark.parametrize("fmt", TRACE_FORMATS)
def test_awkward_actor_ids_round_trip(fmt):
    ids = ["e,go", 'say "hi"', ' "a,b" ', "tab\there", "émile"]
    tracks = {
        actor_id: straight_track(actor_id, y=10.0 * i) for i, actor_id in enumerate(ids)
    }
    trace = Trace("ids", 0.1, tracks)
    back = load_text(write_trace(trace, fmt))
    assert_same_tracks(back, trace)


@pytest.mark.parametrize("actor_id", ["line\nbreak", "carriage\rreturn", "sep\u2028arator"])
def test_track_rejects_actor_id_with_line_break(actor_id):
    with pytest.raises(TraceError, match="line break"):
        straight_track(actor_id)


# ---------------------------------------------------------------------------
# the companion save_trace writes beside the CSV


def assert_identical(loaded, parsed):
    """Two loads of one file agree bit for bit, tracks in the same order."""
    assert list(loaded.tracks) == list(parsed.tracks)
    assert (loaded.scenario_id, loaded.time_step, loaded.metadata) == (
        parsed.scenario_id, parsed.time_step, parsed.metadata)
    for actor_id, track in parsed.tracks.items():
        other = loaded.tracks[actor_id]
        assert (other.actor_class, other.radius) == (track.actor_class, track.radius)
        for name in trace_module._TRACK_FIELDS:
            assert np.array_equal(getattr(other, name).view(np.uint64),
                                  getattr(track, name).view(np.uint64)), (actor_id, name)


def companion(path):
    return path.with_name(path.name + ".npy")


def load_saved(path, monkeypatch):
    """``path`` loaded from its companion: parsing the CSV fails the test."""
    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "_read_csv", lambda stream: pytest.fail("CSV parsed"))
        return load_trace_file(path)


def load_parsed(path, monkeypatch):
    """``path`` loaded by parsing the CSV, its sidecar's ``columns`` key passed over."""
    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "_load_saved", lambda *args: None)
        return load_trace_file(path)


def assert_companion_is_the_parse(trace, path, monkeypatch):
    save_trace(trace, path)
    assert_identical(load_saved(path, monkeypatch), load_parsed(path, monkeypatch))


def test_companion_loads_as_the_csv_on_bundled_grid_runs(batch600, tmp_path, monkeypatch):
    runs = batch600[1][::20]
    assert {o.end_reason for o in runs} >= {"collision", "route_completed"}
    for i, outcome in enumerate(runs):
        assert_companion_is_the_parse(outcome.trace, tmp_path / f"run_{i}.csv", monkeypatch)


def test_companion_loads_as_the_csv_on_awkward_traces(tmp_path, monkeypatch):
    """Actors that start at different times or tie at -0.0 and 0.0, three and four actors,
    random bit patterns and ids that need quoting."""
    rng = np.random.default_rng(37)
    ids = ["e,go", 'say "hi"', ' "a,b" ', "tab\there", "émile"]
    traces = [random_trace(rng, size) for size in [60] * 20 + [2000] * 2]
    traces += [signed_zero_trace(), zero_trace(-0.0),
               Trace("ids", 0.1, {a: straight_track(a, y=10.0 * i) for i, a in enumerate(ids)})]
    assert max(len(trace.tracks) for trace in traces) == 5
    assert any(len({t.first_time for t in trace.tracks.values()}) > 1 for trace in traces)
    for i, trace in enumerate(traces):
        assert_companion_is_the_parse(trace, tmp_path / f"t{i}.csv", monkeypatch)


def test_companion_tracks_come_in_order_of_first_appearance(tmp_path, monkeypatch):
    """As the parser meets them: by first time, ties by actor id; not by actor id alone."""
    tracks = {"c": straight_track("c", t0=0.0), "b": straight_track("b", t0=0.3),
              "a": straight_track("a", t0=0.3, y=5.0), "d": straight_track("d", t0=-0.0)}
    path = save_trace(Trace("order", 0.1, tracks), tmp_path / "order.csv")
    assert list(load_saved(path, monkeypatch).tracks) == ["c", "d", "a", "b"]
    assert list(load_parsed(path, monkeypatch).tracks) == ["c", "d", "a", "b"]


def test_sidecar_describes_the_csv_and_the_companion(tmp_path):
    trace = Trace("t1", 0.1, {"walker": straight_track("walker", n=4, t0=0.1),
                              "car": straight_track("car", n=5)})
    path = save_trace(trace, tmp_path / "run.csv")
    data = path.read_bytes()
    assert data.decode("utf-8") == write_trace(trace)
    sidecar = json.loads(path.with_name("run.csv.meta.json").read_text(encoding="utf-8"))
    assert sidecar["columns"] == {"crc32": zlib.crc32(data), "bytes": len(data),
                                  "tracks": [["car", "vehicle", 5], ["walker", "vehicle", 4]]}
    array = np.load(companion(path), allow_pickle=False)
    assert array.dtype == np.dtype("<f8") and array.shape == (6, 9)
    assert np.array_equal(array, trace_module._columns(trace)[1])


@pytest.mark.parametrize("value", [b"0.x", b"9.0"], ids=["bad", "good"])
def test_a_same_length_edit_is_parsed(tmp_path, monkeypatch, value):
    """The size matches, the CRC-32 does not: the CSV is parsed, a bad row's line named."""
    path = save_trace(two_actor_trace(), tmp_path / "run.csv")
    lines = path.read_bytes().split(b"\n")
    assert lines[2].endswith(b",0.0")  # line 3: the walker's first row, its accel_mps2
    lines[2] = lines[2][:-3] + value
    path.write_bytes(b"\n".join(lines))
    if value == b"0.x":
        with pytest.raises(TraceParseError, match=r"line 3: non-numeric value .*'0\.x'"):
            load_trace_file(path)
    else:
        trace = load_trace_file(path)
        assert trace.track("walker").accels[0] == 9.0
        assert_identical(trace, load_parsed(path, monkeypatch))


def _truncated(path):
    companion(path).write_bytes(companion(path).read_bytes()[:-8])


def _reshaped(path):
    np.save(companion(path), np.load(companion(path))[:, :-1])


def _transposed(path):
    np.save(companion(path), np.load(companion(path)).T)


def _objects(path):
    np.save(companion(path), np.load(companion(path)).astype(object), allow_pickle=True)


def _single(path):
    np.save(companion(path), np.load(companion(path)).astype(np.float32))


def _nan(path):  # the CSV is unchanged, so only the trace's checks catch this
    array = np.load(companion(path))
    array[1, 3] = np.nan
    np.save(companion(path), array)


def _empty(path):
    companion(path).write_bytes(b"")


COMPANION_FAULTS = {
    "missing": lambda path: companion(path).unlink(), "truncated": _truncated, "empty": _empty,
    "wrong_shape": _reshaped, "transposed": _transposed, "object_dtype": _objects,
    "float32": _single, "nan": _nan,
}


def _columns_key(edit):
    def fault(path):
        sidecar = path.with_name(path.name + ".meta.json")
        data = json.loads(sidecar.read_text(encoding="utf-8"))
        edit(data["columns"])
        sidecar.write_text(json.dumps(data), encoding="utf-8")
    return fault


COLUMNS_KEY_FAULTS = {
    "not_an_object": lambda c: c.clear() or c.update(x=[]),
    "missing_crc": lambda c: c.pop("crc32"),
    "extra_key": lambda c: c.update(sha256="0"),
    "crc_as_text": lambda c: c.update(crc32=str(c["crc32"])),
    "bytes_as_bool": lambda c: c.update(bytes=True),
    "wrong_crc": lambda c: c.update(crc32=c["crc32"] ^ 1),
    "wrong_bytes": lambda c: c.update(bytes=c["bytes"] + 1),
    "tracks_not_a_list": lambda c: c.update(tracks={"car": 11}),
    "no_tracks": lambda c: c.update(tracks=[]),
    "short_track": lambda c: c["tracks"][0].pop(),
    "rows_as_float": lambda c: c["tracks"][0].__setitem__(2, 11.0),
    "zero_rows": lambda c: c["tracks"].append(["ghost", "vehicle", 0]),
    "repeated_actor": lambda c: c["tracks"][1].__setitem__(0, "car"),
    "unknown_class": lambda c: c["tracks"][0].__setitem__(1, "robot"),
    "one_row": lambda c: c["tracks"].__setitem__(slice(None), [["car", "vehicle", 21],
                                                               ["walker", "pedestrian", 1]]),
}


@pytest.mark.parametrize("fault", [*COMPANION_FAULTS, *COLUMNS_KEY_FAULTS])
def test_a_companion_that_does_not_fit_is_passed_over(tmp_path, monkeypatch, fault):
    path = save_trace(two_actor_trace(), tmp_path / "run.csv")
    (COMPANION_FAULTS.get(fault) or _columns_key(COLUMNS_KEY_FAULTS.get(fault)))(path)
    parsed = []
    read_csv = trace_module._read_csv
    monkeypatch.setattr(trace_module, "_read_csv", lambda s: parsed.append(1) or read_csv(s))
    assert_identical(load_trace_file(path), load_parsed(path, monkeypatch))
    assert len(parsed) == 2  # this load, and the reference load


def test_a_save_cut_short_leaves_no_matching_sidecar(tmp_path, monkeypatch):
    """The sidecar is written last: a save that fails before it leaves the old one, whose
    digest does not match the new CSV, so the CSV is parsed."""
    path = save_trace(two_actor_trace(), tmp_path / "run.csv")
    with monkeypatch.context() as patch:
        patch.setattr(np, "save", lambda *args, **kw: (_ for _ in ()).throw(OSError("full")))
        with pytest.raises(OSError, match="full"):
            save_trace(two_actor_trace(speed=4.0), path)
    trace = load_parsed(path, monkeypatch)
    assert trace.track("car").speeds[0] == 4.0
    assert_identical(load_trace_file(path), trace)


def test_companion_load_memory_is_the_arrays_and_one_crc_block(intersection_config, tmp_path):
    """The CRC is taken a 64 KiB block at a time: the load holds the trace's arrays, the
    normalized headings and one block, whatever the file's size."""
    slow = simulate({"v_max": 10.0, "t_cross": 5.0, "d_start": 16.0}, intersection_config)
    path = save_trace(slow.trace, tmp_path / "slow.csv")
    load_trace_file(path)
    tracemalloc.start()
    try:
        trace = load_trace_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(getattr(track, name).nbytes for track in trace.tracks.values()
                 for name in trace_module._TRACK_FIELDS)
    assert path.stat().st_size > 4 * trace_module._CRC_BLOCK
    assert peak - arrays < arrays / 2 + 2 * trace_module._CRC_BLOCK
