import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scenq import (
    ActorClass,
    ActorTrack,
    MetricError,
    ScalarResult,
    ScenarioError,
    Trace,
    first_contact_time,
    simulate,
    undefined_scalar,
)
from scenq.macro import (
    _SLAB_CELLS,
    _SLAB_DIAGONALS,
    collision_probability,
    detect_result_gaps,
    dtw,
    parameter_coverage,
    repeatability_report,
)
from scenq.scenarios import LogicalScenario, ParameterRange, concretize


def path_track(actor_id, xs, ys, dt=0.1):
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    return ActorTrack(
        actor_id=actor_id,
        actor_class=ActorClass.VEHICLE,
        radius=1.0,
        times=np.arange(n) * dt,
        xs=xs,
        ys=np.asarray(ys, dtype=float),
        headings=np.zeros(n),
        speeds=np.zeros(n),
        accels=np.zeros(n),
    )


def test_dtw_identical_tracks_is_zero():
    a = path_track("a", [0, 1, 2, 3], [0, 0, 1, 1])
    b = path_track("b", [0, 1, 2, 3], [0, 0, 1, 1])
    assert dtw(a, b) == 0.0


def test_dtw_hand_computed_example():
    a = path_track("a", [0, 1, 2], [0, 0, 0])
    b = path_track("b", [0, 2], [0, 0])
    # best warp: (0,0) (1,0|1) (2,1); one off-diagonal step costs 1
    assert dtw(a, b) == 1.0


def test_dtw_symmetry_and_offset():
    rng = np.random.default_rng(7)
    for n, m in [(9, 6), (2, 9), (40, 3), (123, 250), (301, 77)]:
        a = path_track("a", rng.normal(size=n), rng.normal(size=n))
        b = path_track("b", rng.normal(size=m), rng.normal(size=m))
        assert dtw(a, b) == dtw(b, a), (n, m)
    # constant offset on a straight line costs offset per matched pair
    c = path_track("c", np.arange(5.0), np.zeros(5))
    d = path_track("d", np.arange(5.0), np.full(5, 0.5))
    assert np.isclose(dtw(c, d), 5 * 0.5)


def full_matrix_dtw(a, b):
    """Reference DTW: both n x m matrices, filled by fancy indexing."""
    return float(full_matrix_acc(a, b)[-1, -1])


def full_matrix_acc(a, b):
    """The reference's accumulated cost matrix."""
    n, m = len(a), len(b)
    dist = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    acc = np.full((n, m), np.inf)
    acc[0, :] = np.cumsum(dist[0, :])
    acc[:, 0] = np.cumsum(dist[:, 0])
    for k in range(2, n + m - 1):
        lo = max(1, k - (m - 1))
        hi = min(n - 1, k - 1)
        if lo > hi:
            continue
        rows = np.arange(lo, hi + 1)
        cols = k - rows
        best = np.minimum(acc[rows - 1, cols], acc[rows, cols - 1])
        np.minimum(best, acc[rows - 1, cols - 1], out=best)
        acc[rows, cols] = dist[rows, cols] + best
    return acc


def random_walk_track(rng, n):
    steps = rng.normal(size=(n, 2))
    return path_track("w", np.cumsum(steps[:, 0]), np.cumsum(steps[:, 1]))


def test_dtw_equals_full_matrix_reference_exactly():
    rng = np.random.default_rng(20)
    lengths = [(2, 2), (2, 400), (400, 2), (3, 397), (350, 7)]
    lengths += [tuple(rng.integers(2, 401, size=2)) for _ in range(195)]
    lengths += [(2, m) for m in (3, 47, 48, 49, 50, 97)]  # around the slab height
    for n, m in lengths:
        a, b = random_walk_track(rng, n), random_walk_track(rng, m)
        assert_exact_both_ways(a, b)


def staircase_cost(a, b):
    """Cost of the index-proportional warp path, a bound the distance cannot exceed."""
    i, j = (np.linspace(0, count - 1, max(len(a), len(b))).round().astype(int)
            for count in (len(a), len(b)))
    return np.cumsum(np.hypot(a[i, 0] - b[j, 0], a[i, 1] - b[j, 1]))[-1]


def assert_exact_both_ways(a, b):
    want = full_matrix_dtw(a.points, b.points)
    assert dtw(a, b) == want
    assert dtw(b, a) == want


RECORDING = {"v_max": 30.0, "t_cross": 9.0, "d_start": 16.0}  # stops for the pedestrian


def recording(config, time_step, **bindings):
    return simulate({**RECORDING, **bindings},
                    replace(config, time_step=time_step)).trace.track("ego")


def test_dtw_exact_on_rerecordings_where_most_cells_are_pruned(intersection_config):
    tracks = [recording(intersection_config, dt) for dt in (0.05, 0.065, 0.09)]
    for a, b in itertools.combinations(tracks, 2):
        assert_exact_both_ways(a, b)
        # most cells cost more than a known path, so the kernel never fills them
        acc = full_matrix_acc(a.points, b.points)
        assert np.mean(acc > staircase_cost(a.points, b.points)) > 0.5, (len(a), len(b))


def test_dtw_exact_against_a_drifted_run(intersection_config):
    reference = recording(intersection_config, 0.05)
    drifted = recording(intersection_config, 0.065, ego_start_x=3.25)  # 1.5 m off the lane
    assert_exact_both_ways(reference, drifted)
    assert dtw(reference, drifted) > 100.0


def test_dtw_keeps_cells_equal_to_the_bound():
    # the diagonal is an optimal path and the staircase: its cost reaches the
    # bound at (3, 3) and stays there, so every later cell on it ties the bound
    xs = np.arange(40.0)
    a = path_track("a", xs, np.zeros(40))
    b = path_track("b", xs, np.where(xs < 3, 0.5, 0.0))
    assert dtw(a, b) == staircase_cost(a.points, b.points) == 1.5
    assert_exact_both_ways(a, b)


def test_dtw_identical_recordings_is_zero(intersection_config):
    # a zero bound leaves only the cells that zero-cost paths reach, the
    # standstill blocks among them
    a = recording(intersection_config, 0.05)
    b = path_track("b", a.xs, a.ys)
    assert dtw(a, b) == dtw(b, a) == full_matrix_dtw(a.points, b.points) == 0.0


@pytest.mark.parametrize("diagonals", [_SLAB_DIAGONALS - 1, _SLAB_DIAGONALS,
                                       _SLAB_DIAGONALS + 1, 2 * _SLAB_DIAGONALS + 1])
def test_dtw_exact_at_slab_boundaries(diagonals):
    # n + m - 2 anti-diagonals follow cell (0, 0): the last slab is short, full or of one
    rng = np.random.default_rng(diagonals)
    for n in (2, 3, diagonals // 2, diagonals // 2 + 1, diagonals - 1, diagonals):
        a, b = random_walk_track(rng, n), random_walk_track(rng, diagonals + 2 - n)
        assert_exact_both_ways(a, b)


def test_dtw_exact_when_the_band_outgrows_the_cell_budget():
    rng = np.random.default_rng(24)
    for n, m in [(300, 420), (450, 260), (380, 380)]:
        a, b = random_walk_track(rng, n), random_walk_track(rng, m)
        acc = full_matrix_acc(a.points, b.points)
        rows, cols = np.nonzero(acc <= staircase_cost(a.points, b.points))
        widest = np.bincount(rows + cols).max()  # cells at or below UB per anti-diagonal
        # a full-height slab over such a band would exceed the budget, so slabs shrink
        assert widest * _SLAB_DIAGONALS > _SLAB_CELLS, (n, m, widest)
        assert_exact_both_ways(a, b)


def test_dtw_exact_along_a_long_standstill():
    # b waits at the start, at a midway point and at the end while a moves on:
    # the optimal path holds one row of a for many more diagonals than a slab
    xs = np.linspace(0.0, 60.0, 90)
    ys = np.sin(xs / 7.0)
    a = path_track("a", xs, ys)
    wait = np.concatenate((np.zeros(130), np.linspace(0.0, 30.0, 40), np.full(110, 30.0),
                           np.linspace(30.0, 60.0, 40), np.full(70, 60.0)))
    b = path_track("b", wait + 0.25, np.sin(wait / 7.0))
    assert_exact_both_ways(a, b)
    assert dtw(a, b) > 0.0


def test_dtw_memory_is_linear():
    rng = np.random.default_rng(22)
    a, b = random_walk_track(rng, 2000), random_walk_track(rng, 3000)
    tracemalloc.start()
    try:
        dtw(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 2000 x 3000 float matrix alone would take 48 MB
    assert peak < 2**20


def two_run_traces(offset=0.0):
    dt = 0.1
    base_x = np.arange(20.0)
    ref = Trace("ref", dt, {
        "ego": path_track("ego", base_x, np.zeros(20), dt),
        "other": path_track("other", base_x, np.full(20, 30.0), dt),
    })
    run = Trace("run", dt, {
        "ego": path_track("ego", base_x, np.full(20, offset), dt),
        "other": path_track("other", base_x, np.full(20, 30.0), dt),
    })
    return ref, run


def test_repeatability_report_entries():
    ref, run = two_run_traces(offset=0.3)
    report = repeatability_report(ref, [run], threshold=10.0)
    assert len(report.entries) == 2
    by_actor = {e.actor_id: e for e in report.entries}
    assert np.isclose(by_actor["ego"].dtw_distance, 20 * 0.3)
    assert by_actor["other"].dtw_distance == 0.0
    assert by_actor["ego"].per_step == by_actor["ego"].dtw_distance / 20
    assert report.all_within
    assert report.drifting() == []


def test_repeatability_flags_drift_over_threshold():
    ref, run = two_run_traces(offset=1.0)
    report = repeatability_report(ref, [run], threshold=10.0)
    drifting = report.drifting()
    assert [e.actor_id for e in drifting] == ["ego"]
    assert not report.all_within


def test_repeatability_skips_reference_and_checks_actors():
    ref, run = two_run_traces()
    report = repeatability_report(ref, [ref, run])
    assert len(report.entries) == 2  # the reference itself contributes nothing
    with pytest.raises(MetricError):
        repeatability_report(ref, [run], actor_ids=["ghost"])
    with pytest.raises(MetricError):
        repeatability_report(ref, [run], threshold=-1.0)
    with pytest.raises(MetricError, match="got nan"):
        repeatability_report(ref, [run], threshold=float("nan"))
    assert repeatability_report(ref, [run], threshold=float("inf")).all_within


def test_repeatability_rejects_a_run_without_an_actor():
    ref, run = two_run_traces()
    lone = Trace("lone", run.time_step, {"ego": run.track("ego")})
    with pytest.raises(MetricError, match="actor 'other' missing from run 'lone'"):
        repeatability_report(ref, [run, lone])


def test_repeatability_rejects_a_repeated_actor():
    ref, run = two_run_traces()
    with pytest.raises(MetricError, match="actor 'ego' is listed twice"):
        repeatability_report(ref, [run], actor_ids=["ego", "other", "ego"])


def test_collision_probability_over_traces():
    dt = 0.1
    touching = Trace("hit", dt, {
        "a": path_track("a", np.arange(5.0), np.zeros(5), dt),
        "b": path_track("b", np.arange(5.0), np.full(5, 1.5), dt),
    })
    apart = Trace("ok", dt, {
        "a": path_track("a", np.arange(5.0), np.zeros(5), dt),
        "b": path_track("b", np.arange(5.0), np.full(5, 10.0), dt),
    })
    contacts = [first_contact_time(touching), first_contact_time(apart)]
    assert contacts[0] is not None and contacts[1] is None
    assert collision_probability(contacts) == 0.5
    assert collision_probability(contacts[1:]) == 0.0
    with pytest.raises(MetricError):
        collision_probability([])
    # first-contact times, not traces: a list of traces is no silent count of collisions
    with pytest.raises(TypeError):
        collision_probability([touching, apart])


def grid_logical():
    return LogicalScenario(
        "g", "",
        (ParameterRange("a", 0.0, 2.0, 1.0), ParameterRange("b", 0.0, 1.0, 1.0)),
        {},
    )


def test_coverage_full_and_empty():
    logical = grid_logical()
    runs = concretize(logical)
    full = parameter_coverage(logical, runs)
    assert full.overall == 1.0
    assert all(v == 1.0 for v in full.per_parameter.values())
    assert full.grid_cells == 6 and full.executed_cells == 6
    assert full.missing == ()
    empty = parameter_coverage(logical, [])
    assert empty.overall == 0.0
    assert all(v == 0.0 for v in empty.per_parameter.values())
    assert len(empty.missing) == 6


def test_coverage_counts_duplicates_once():
    logical = grid_logical()
    runs = concretize(logical)
    result = parameter_coverage(logical, [runs[0], runs[0], runs[0]])
    assert result.executed_cells == 1
    assert result.overall == pytest.approx(1 / 6)
    assert result.per_parameter["a"] == pytest.approx(1 / 3)
    assert result.per_parameter["b"] == pytest.approx(1 / 2)


def test_coverage_monotone_under_more_runs():
    logical = grid_logical()
    runs = concretize(logical)
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = rng.integers(0, len(runs) + 1)
        subset = [runs[i] for i in rng.choice(len(runs), size=k, replace=False)]
        extra = [runs[i] for i in rng.choice(len(runs), size=rng.integers(0, 3))]
        small = parameter_coverage(logical, subset)
        large = parameter_coverage(logical, subset + extra)
        assert large.overall >= small.overall
        for name in small.per_parameter:
            assert large.per_parameter[name] >= small.per_parameter[name]


def test_coverage_rejects_off_grid_and_missing_bindings():
    logical = grid_logical()
    with pytest.raises(ScenarioError):
        parameter_coverage(logical, [{"a": 0.5, "b": 0.0}])
    with pytest.raises(ScenarioError):
        parameter_coverage(logical, [{"a": 0.0}])


def test_coverage_missing_enumeration_capped():
    logical = LogicalScenario("big", "", (ParameterRange("a", 0.0, 99.0, 1.0),), {})
    result = parameter_coverage(logical, [], max_missing=5)
    assert len(result.missing) == 5
    assert result.missing[0] == {"a": 0.0}


def scalars(values):
    out = []
    for i, v in enumerate(values):
        if v is None:
            out.append((float(i), undefined_scalar("min_gap_time", "s", "no_samples")))
        else:
            out.append((float(i), ScalarResult("min_gap_time", float(v), "s")))
    return out


def test_gap_detection_quiet_on_smooth_data():
    assert detect_result_gaps(scalars([5, 5, 5, 5, 5])) == []
    assert detect_result_gaps(scalars([0, 1, 2, 3, 4])) == []


def test_gap_detection_flags_step():
    findings = detect_result_gaps(scalars([1, 1, 1, 9, 9, 9]), parameter="x")
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "jump"
    assert (f.left_value, f.right_value) == (2.0, 3.0)
    assert f.metric_jump == 8.0
    assert f.parameter == "x"


def test_gap_detection_respects_gap_factor():
    values = [0, 1, 2, 3, 10]  # last delta is 7x the median delta
    assert len(detect_result_gaps(scalars(values), gap_factor=5.0)) == 1
    assert detect_result_gaps(scalars(values), gap_factor=8.0) == []


def test_gap_detection_definedness_flips_always_flagged():
    findings = detect_result_gaps(scalars([1, 2, None, 3, 4]))
    kinds = [(f.kind, f.left_value, f.right_value) for f in findings]
    assert ("definedness", 1.0, 2.0) in kinds
    assert ("definedness", 2.0, 3.0) in kinds
    assert all(k == "definedness" for k, _, _ in kinds)
    for f in findings:
        assert f.metric_jump is None


def test_gap_detection_input_validation():
    with pytest.raises(MetricError):
        detect_result_gaps(scalars([1, 2]))  # too few defined points
    with pytest.raises(MetricError):
        detect_result_gaps(scalars([1, None, 2, None, 3])[:3])
    with pytest.raises(MetricError):
        detect_result_gaps(scalars([1, 2, 3]), gap_factor=1.0)
    points = scalars([1, 2, 3])
    points[1] = (0.0, points[1][1])  # parameter values no longer increasing
    with pytest.raises(MetricError):
        detect_result_gaps(points)
