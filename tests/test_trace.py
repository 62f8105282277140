import io
import json
import math
import tracemalloc
from collections import deque
from dataclasses import replace

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
    collision_probability,
    first_contact_time,
    load_trace,
    load_trace_file,
    sample_track,
    save_trace,
    simulate,
    validate_trace,
    write_trace,
)
from scenq.geometry import normalize_angles
from scenq.nano import euclidean_distance
from scenq.trace import CSV_COLUMNS, common_grid, write_traces


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


def rows_text(rows, fmt, columns=CSV_COLUMNS):
    """Rows as CSV (header on line 1) or JSONL; None stands for a blank line."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += ["" if r is None else ",".join(str(r[c]) for c in columns) for r in rows]
    else:
        lines = ["" if r is None else json.dumps({c: r[c] for c in columns}) for r in rows]
    return "\n".join(lines) + "\n"


def first_data_line(fmt):
    return 2 if fmt == "csv" else 1


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
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("case", sorted(ROW_ERRORS))
def test_parse_errors_name_line_and_actor(fmt, case):
    mutate, message, row, actor = ROW_ERRORS[case]
    with pytest.raises(TraceParseError) as exc:
        load_trace(rows_text(mutate(base_rows()), fmt), fmt)
    line = None if row is None else row + first_data_line(fmt)
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")
    assert exc.value.line == line
    assert exc.value.actor_id == actor


def extra_field(line):
    return line + ",99"


# CSV only: {row index of base_rows(): edit of its line}, message after "line N: ", row, actor
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
    lines = rows_text(base_rows(), "csv").splitlines()
    for k, edit in edits.items():
        lines[k + 1] = edit(lines[k + 1])
    with pytest.raises(TraceParseError) as exc:
        load_trace("\n".join(lines) + "\n")
    line = row + first_data_line("csv")
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line
    assert exc.value.actor_id == actor


def without(key):
    return lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != key})


# JSONL only: {row index of base_rows(): edit of its line}, message after "line N: ", row, actor
JSONL_LINE_ERRORS = {
    "missing_key": ({5: without("y_m")}, "missing keys: y_m", 5, "walker"),
    "missing_actor_id": ({5: without("actor_id")}, "missing keys: actor_id", 5, None),
    "not_an_object": ({5: lambda line: "[]"}, "row is not an object", 5, None),
    "invalid_json": (
        {5: lambda line: line[:-1]}, "invalid JSON (Expecting ',' delimiter)", 5, None
    ),
    # the earliest offending row is reported, whatever its kind
    "class_before_missing_key": (
        {2: lambda line: line.replace("vehicle", "pedestrian"), 5: without("y_m")},
        "actor 'car' changes class", 2, "car",
    ),
    "time_before_invalid_json": (
        {4: lambda line: line.replace("0.2", "0.1", 1), 6: lambda line: "{"},
        "duplicate timestamp 0.1 for actor 'car'", 4, "car",
    ),
    "value_before_not_an_object": (
        {3: lambda line: line.replace("5.0", '"oops"'), 5: lambda line: "[]"},
        NOT_A_FLOAT.format("oops"), 3, "walker",
    ),
    "missing_key_before_class": (
        {3: without("x_m"), 5: lambda line: line.replace("pedestrian", "vehicle")},
        "missing keys: x_m", 3, "walker",
    ),
}


@pytest.mark.parametrize("case", sorted(JSONL_LINE_ERRORS))
def test_jsonl_rows_must_be_objects_with_every_key(case):
    edits, message, row, actor = JSONL_LINE_ERRORS[case]
    lines = rows_text(base_rows(), "jsonl").splitlines()
    for k, edit in edits.items():
        lines[k] = edit(lines[k])
    with pytest.raises(TraceParseError) as exc:
        load_trace("\n".join(lines) + "\n", "jsonl")
    line = row + first_data_line("jsonl")
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line
    assert exc.value.actor_id == actor


def test_csv_width_checked_past_the_used_columns():
    # an unused last column: a short and a long row leave the comma count as it should be
    lines = [line + ",n" for line in rows_text(base_rows(), "csv").splitlines()]
    assert load_trace("\n".join(lines)).actor_ids() == ("car", "walker")
    lines[3], lines[5] = lines[3][:-2], extra_field(lines[5])
    with pytest.raises(TraceParseError) as exc:
        load_trace("\n".join(lines))
    assert str(exc.value) == "line 4: 8 fields, header has 9"


@pytest.mark.parametrize("fmt, text, message, line", [
    ("csv", rows_text(base_rows(), "csv", [c for c in CSV_COLUMNS if c != "y_m"]),
     "missing CSV columns: y_m", None),
    ("jsonl", rows_text(base_rows(), "jsonl", [c for c in CSV_COLUMNS if c != "y_m"]),
     "line 1: missing keys: y_m", 1),
    ("csv", ",".join(CSV_COLUMNS) + "\n\n", "no data rows", None),
    ("jsonl", "\n", "no data rows", None),
    ("csv", "", "empty CSV input", None),
])
def test_parse_errors_without_rows(fmt, text, message, line):
    with pytest.raises(TraceParseError) as exc:
        load_trace(text, fmt)
    assert str(exc.value) == message
    assert exc.value.line == line
    assert exc.value.actor_id == ("car" if line else None)  # the actor its line names


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_error_line_counts_blank_lines(fmt):
    rows = setting(3, x_m="oops")(base_rows())
    rows.insert(2, None)  # a blank line before the bad row
    with pytest.raises(TraceParseError) as exc:
        load_trace(rows_text(rows, fmt), fmt)
    line = 4 + first_data_line(fmt)  # CSV: blank line 4, bad row on line 6
    assert str(exc.value) == f"line {line}: " + NOT_A_FLOAT.format("oops")
    assert exc.value.line == line


def test_open_quote_stays_on_its_line():
    # a quote opened on line 4 and closed on line 5 must not join the two
    text = rows_text(base_rows(), "csv").replace("0.1,car,", '0.1,"car\nx",')
    with pytest.raises(TraceParseError) as exc:
        load_trace(text)
    assert exc.value.line == 4
    assert exc.value.actor_id == "car"
    assert str(exc.value) == "line 4: 2 fields, header has 8"


def test_csv_values_parse_like_float():
    # loadtxt rejects these spellings while float() reads them
    rows = setting(2, x_m="1_000")(setting(3, y_m="\u0665")(base_rows()))
    trace = load_trace(rows_text(rows, "csv"))
    assert trace.track("car").xs[1] == 1000.0
    assert trace.track("walker").ys[1] == 5.0


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


def reference_write(trace, fmt):
    """Reference writer, one row at a time."""
    if fmt == "csv":
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in reference_rows(trace):
            out.write(
                f"{row['time_s']!r},{row['actor_id']},{row['actor_class']},"
                f"{row['x_m']!r},{row['y_m']!r},{row['heading_rad']!r},"
                f"{row['speed_mps']!r},{row['accel_mps2']!r}\n"
            )
        return out.getvalue()
    return "\n".join(json.dumps(row, ensure_ascii=False) for row in reference_rows(trace)) + "\n"


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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_matches_reference_writer_and_round_trips(fmt):
    rng = np.random.default_rng(8)
    # the large traces span several write blocks
    for size in [60] * 40 + [2000] * 3:
        trace = random_trace(rng, size)
        text = write_trace(trace, fmt)
        assert text == reference_write(trace, fmt)
        assert_same_tracks(load_trace(text, fmt), trace)


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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
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
        assert text == reference_write(trace, fmt)
        assert_same_tracks(load_trace(text, fmt), trace)


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


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_batch_writer_matches_one_at_a_time_and_reference(fmt, intersection_config):
    """Each trace of a batch is written as alone, whatever the trace before it held."""
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
    texts = list(write_traces(batch, fmt))
    assert texts == [write_trace(trace, fmt) for trace in batch]
    assert texts == [reference_write(trace, fmt) for trace in batch]
    assert "-0.0" not in texts[5] and "-0.0" in texts[6] and "-0.0" not in texts[7]
    assert list(write_traces(batch[3:4], fmt)) == [reference_write(batch[3], fmt)]
    assert list(write_traces([], fmt)) == []


def test_batch_writer_calls_repr_only_for_patterns_new_to_the_trace_before(monkeypatch):
    calls = []
    monkeypatch.setattr("scenq.trace.repr", lambda v: calls.append(v) or repr(v), raising=False)
    a, b = two_actor_trace(), two_actor_trace(speed=4.0)

    def bits(trace):
        return {v.tobytes() for tr in trace.tracks.values() for v in np.concatenate(
            [tr.times, tr.xs, tr.ys, tr.headings, tr.speeds, tr.accels])}

    counts = []
    for _ in write_traces([a, a, b, a]):
        counts.append(len(calls))
        calls.clear()
    zero = np.float64(0.0).tobytes()  # the table starts out holding 0.0
    assert counts == [len(bits(a) - {zero}), 0, len(bits(b) - bits(a)), len(bits(a) - bits(b))]
    assert 0 not in counts[2:]


def test_batch_writer_memory_is_bounded_by_one_trace(batch600):
    """The table of known texts holds one trace's patterns, so writing a batch
    peaks near writing its largest trace alone, not with the batch size."""
    traces = [outcome.trace for outcome in batch600[1][::12]]
    largest = max(traces, key=lambda trace: sum(map(len, trace.tracks.values())))

    def peak(batch):
        tracemalloc.start()
        try:
            deque(write_traces(batch), maxlen=0)  # keeps no text alive
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(traces) == 50
    assert peak(traces) < 1.5 * peak([largest])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_awkward_actor_ids_round_trip(fmt):
    ids = ["e,go", 'say "hi"', ' "a,b" ', "tab\there", "émile"]
    tracks = {
        actor_id: straight_track(actor_id, y=10.0 * i) for i, actor_id in enumerate(ids)
    }
    trace = Trace("ids", 0.1, tracks)
    back = load_trace(write_trace(trace, fmt), fmt)
    assert_same_tracks(back, trace)


@pytest.mark.parametrize("actor_id", ["line\nbreak", "carriage\rreturn", "sep\u2028arator"])
def test_track_rejects_actor_id_with_line_break(actor_id):
    with pytest.raises(TraceError, match="line break"):
        straight_track(actor_id)
