import math

import numpy as np
import pytest

from scenq.geometry import (
    band_intersection,
    compress_polyline,
    cumulative_arc,
    first_polyline_crossing,
    normalize_angles,
    point_at_arc,
    point_polyline_distance,
    polygon_area,
)
from scenq.micro import _zone_margins


def segment_intersection(p0, p1, q0, q1, eps=1e-12):
    """Scalar reference: (t, u) of the crossing of two segments, both clamped
    to [0, 1], or None when they do not cross or are parallel."""
    d1 = p1 - p0
    d2 = q1 - q0
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < eps:
        return None
    rel = q0 - p0
    t = (rel[0] * d2[1] - rel[1] * d2[0]) / denom
    u = (rel[0] * d1[1] - rel[1] * d1[0]) / denom
    if -eps <= t <= 1.0 + eps and -eps <= u <= 1.0 + eps:
        return float(min(max(t, 0.0), 1.0)), float(min(max(u, 0.0), 1.0))
    return None


def compress_polyline_loop(points):
    """Scalar reference for compress_polyline: one vertex at a time."""
    pts = np.asarray(points, dtype=float)
    if len(pts) <= 2:
        return pts
    keep = [0]
    for i in range(1, len(pts) - 1):
        d_in = pts[i] - pts[keep[-1]]
        d_out = pts[i + 1] - pts[i]
        if d_out[0] == 0.0 and d_out[1] == 0.0:
            continue
        if d_in[0] == 0.0 and d_in[1] == 0.0:
            continue
        cross = d_in[0] * d_out[1] - d_in[1] * d_out[0]
        dot = d_in[0] * d_out[0] + d_in[1] * d_out[1]
        norm = math.hypot(*d_in) * math.hypot(*d_out)
        if abs(cross) <= 1e-12 * max(norm, 1.0) and dot > 0.0:
            continue
        keep.append(i)
    keep.append(len(pts) - 1)
    return pts[keep]


def first_polyline_crossing_loop(a_points, b_points):
    """Scalar reference for first_polyline_crossing: every segment pair."""
    a = compress_polyline_loop(np.asarray(a_points, dtype=float))
    b = compress_polyline_loop(np.asarray(b_points, dtype=float))
    arcs_a = cumulative_arc(a)
    arcs_b = cumulative_arc(b)
    for i in range(len(a) - 1):
        best = None
        for j in range(len(b) - 1):
            hit = segment_intersection(a[i], a[i + 1], b[j], b[j + 1])
            if hit is None:
                continue
            t, u = hit
            seg_a = float(np.hypot(*(a[i + 1] - a[i])))
            seg_b = float(np.hypot(*(b[j + 1] - b[j])))
            arc_a = float(arcs_a[i]) + t * seg_a
            arc_b = float(arcs_b[j]) + u * seg_b
            if best is None or arc_a < best[0]:
                best = (arc_a, arc_b, t)
        if best is not None:
            arc_a, arc_b, t = best
            seg = a[i + 1] - a[i]
            point = (float(a[i, 0] + t * seg[0]), float(a[i, 1] + t * seg[1]))
            return point, arc_a, arc_b
    return None


def test_normalize_angle_range():
    angles = np.array([-7.0, -math.pi, 0.0, math.pi, 9.5, 100.0])
    for a, n in zip(angles, normalize_angles(angles)):
        assert -math.pi < n <= math.pi
        assert math.isclose(math.sin(n), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(n), math.cos(a), abs_tol=1e-12)


def test_cumulative_arc_and_length():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    arcs = cumulative_arc(pts)
    assert arcs.tolist() == [0.0, 5.0, 11.0]
    assert cumulative_arc(pts)[-1] == 11.0


def test_point_at_arc_interpolates_and_clamps():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    arcs = cumulative_arc(pts)
    x, y, h = point_at_arc(pts, arcs, 5.0)
    assert (x, y) == (5.0, 0.0)
    assert h == 0.0
    x, y, h = point_at_arc(pts, arcs, 15.0)
    assert (x, y) == (10.0, 5.0)
    assert math.isclose(h, math.pi / 2)
    # out of range clamps to the endpoints
    assert point_at_arc(pts, arcs, -1.0)[:2] == (0.0, 0.0)
    assert point_at_arc(pts, arcs, 99.0)[:2] == (10.0, 10.0)


def test_segment_intersection_hit_and_miss():
    hit = segment_intersection(
        np.array([0.0, 0.0]), np.array([10.0, 0.0]),
        np.array([4.0, -2.0]), np.array([4.0, 2.0]),
    )
    assert hit is not None
    t, u = hit
    assert math.isclose(t, 0.4)
    assert math.isclose(u, 0.5)
    miss = segment_intersection(
        np.array([0.0, 0.0]), np.array([10.0, 0.0]),
        np.array([4.0, 1.0]), np.array([4.0, 2.0]),
    )
    assert miss is None
    parallel = segment_intersection(
        np.array([0.0, 0.0]), np.array([10.0, 0.0]),
        np.array([0.0, 1.0]), np.array([10.0, 1.0]),
    )
    assert parallel is None


def test_compress_polyline_keeps_arc_parametrization():
    # collinear interior points and a repeated point vanish
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 3.0]])
    out = compress_polyline(pts)
    assert out.tolist() == [[0.0, 0.0], [2.0, 0.0], [2.0, 3.0]]
    assert cumulative_arc(out)[-1] == cumulative_arc(pts)[-1]


def test_compress_polyline_keeps_reversals():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [2.0, 0.0]])
    out = compress_polyline(pts)
    assert len(out) == 3
    assert cumulative_arc(out)[-1] == 8.0


def test_first_polyline_crossing_arcs():
    a = np.array([[0.0, 0.0], [10.0, 0.0]])
    b = np.array([[6.0, -3.0], [6.0, 3.0]])
    hit = first_polyline_crossing(a, b)
    assert hit is not None
    (x, y), arc_a, arc_b = hit
    assert (x, y) == (6.0, 0.0)
    assert arc_a == 6.0
    assert arc_b == 3.0
    assert first_polyline_crossing(a, np.array([[0.0, 1.0], [10.0, 1.0]])) is None


def test_first_polyline_crossing_earliest_on_first_path():
    # two crossings; the one reached first along path a wins
    a = np.array([[0.0, 0.0], [10.0, 0.0]])
    b = np.array([[8.0, -1.0], [8.0, 1.0], [3.0, 1.0], [3.0, -1.0]])
    (x, _), arc_a, _ = first_polyline_crossing(a, b)
    assert x == 3.0
    assert arc_a == 3.0


def _random_walk(rng, n):
    # steps snapped to a coarse grid give repeated vertices, reversals and
    # exactly collinear runs
    steps = np.round(rng.normal(size=(n, 2)) * 2.0) / 2.0
    return np.cumsum(steps, axis=0) + rng.uniform(-3.0, 3.0, 2)


def _straight_with_stop(rng, n):
    # constant heading, with a standstill of repeated samples mid-way
    heading = rng.uniform(-math.pi, math.pi)
    s = np.concatenate([
        np.linspace(0.0, 10.0, n),
        np.full(int(rng.integers(1, 20)), 10.0),
        np.linspace(10.0, 20.0, n)[1:],
    ])
    return np.c_[s * math.cos(heading), s * math.sin(heading)] + rng.uniform(-5.0, 5.0, 2)


def _reversal(rng, n):
    heading = rng.uniform(-math.pi, math.pi)
    s = np.concatenate([np.linspace(0.0, 8.0, n), np.linspace(8.0, 2.0, n)[1:]])
    return np.c_[s * math.cos(heading), s * math.sin(heading)] + rng.uniform(-5.0, 5.0, 2)


def _arc(rng, n):
    # a curve turns at every vertex, so every vertex is kept
    theta = np.linspace(0.0, rng.uniform(1.0, 6.0), n)
    radius = rng.uniform(2.0, 20.0)
    return np.c_[radius * np.cos(theta), radius * np.sin(theta)] + rng.uniform(-5.0, 5.0, 2)


def _slow_curve(rng, n):
    # consecutive steps turn by just under the collinearity tolerance, while
    # the step from a vertex two or more back turns by more than it: a
    # dropped vertex changes the test for the ones after it
    x = np.arange(n, dtype=float)
    return np.c_[x, rng.uniform(0.1e-12, 1.5e-12) * x * x]


def _polyline_cases():
    rng = np.random.default_rng(29)
    makers = (_random_walk, _straight_with_stop, _reversal, _arc, _slow_curve)
    for k in range(320):
        yield makers[k % 5](rng, int(rng.integers(1, 80)))
    for n in (1, 2):
        for maker in makers:
            yield maker(rng, n)[:n]


def test_compress_polyline_matches_vertex_loop():
    cases = list(_polyline_cases())
    assert len(cases) >= 300
    for pts in cases:
        # bit for bit, signed zeros included
        assert compress_polyline(pts).tobytes() == compress_polyline_loop(pts).tobytes()
    # arcs keep every vertex, collinear runs with a stop keep only the ends
    assert len(compress_polyline(_arc(np.random.default_rng(1), 50))) == 50
    xs = np.r_[np.linspace(0.0, 5.0, 11), [5.0] * 4, np.linspace(5.0, 9.0, 9)]
    line = np.c_[xs, np.zeros(24)]
    assert compress_polyline(line).tolist() == [[0.0, 0.0], [9.0, 0.0]]


def test_first_polyline_crossing_matches_segment_pair_loop():
    cases = list(_polyline_cases())
    rng = np.random.default_rng(31)
    hits = 0
    for k in range(len(cases)):
        a = cases[k]
        b = cases[int(rng.integers(len(cases)))]
        # move b over a so that most pairs cross
        b = b - b.mean(axis=0) + a.mean(axis=0) + rng.normal(size=2)
        for x, y in ((a, b), (b, a)):
            got = first_polyline_crossing(x, y)
            assert got == first_polyline_crossing_loop(x, y)
            hits += got is not None
    assert hits > len(cases)


def test_first_polyline_crossing_on_a_shared_vertex():
    # b passes exactly through a's vertex (5, 0): the first segment of a
    # reaches it at t = 1 and wins over the second at t = 0
    a = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0]])
    b = np.array([[3.0, -2.0], [8.0, 3.0]])
    got = first_polyline_crossing(a, b)
    assert got == first_polyline_crossing_loop(a, b)
    (x, y), arc_a, arc_b = got
    assert (x, y, arc_a) == (5.0, 0.0, 5.0)
    assert math.isclose(arc_b, 2.0 * math.sqrt(2.0))
    # crossings just past the end of a segment, within the tolerance, are
    # clamped onto its end: on a, then on b
    b = np.array([[5.0 + 5e-13, -1.0], [5.0 + 5e-13, 1.0]])
    got = first_polyline_crossing(a[:2], b)
    assert got == first_polyline_crossing_loop(a[:2], b)
    assert got[:2] == ((5.0, 0.0), 5.0)
    b = np.array([[3.0, -1.0], [3.0, -5e-13]])
    got = first_polyline_crossing(a[:2], b)
    assert got == first_polyline_crossing_loop(a[:2], b)
    assert got == ((3.0, 0.0), 3.0, 1.0 - 5e-13)


def test_first_polyline_crossing_two_hits_on_one_segment():
    # b crosses a's only segment at x = 7 first (in b's order), then at x = 3;
    # the crossing nearer the start of a wins
    a = np.array([[0.0, 0.0], [10.0, 0.0]])
    b = np.array([[7.0, -1.0], [7.0, 1.0], [3.0, 1.0], [3.0, -1.0]])
    got = first_polyline_crossing(a, b)
    assert got == first_polyline_crossing_loop(a, b)
    assert got == ((3.0, 0.0), 3.0, 7.0)


def test_first_polyline_crossing_in_a_later_row_block():
    # a 400-vertex arc against a 300-vertex zigzag: the pair search takes
    # about 219 rows of a per block, and the zigzag only meets a near its end
    rng = np.random.default_rng(37)
    a = _arc(rng, 400)
    zig = np.c_[np.linspace(-2.0, 2.0, 300), np.tile([-0.5, 0.5], 150)]
    b = a[350] + zig @ np.array([[0.0, 1.0], [1.0, 0.0]])
    got = first_polyline_crossing(a, b)
    assert got == first_polyline_crossing_loop(a, b)
    assert got[1] > cumulative_arc(a)[300]
    assert first_polyline_crossing(b, a) == first_polyline_crossing_loop(b, a)
    assert first_polyline_crossing(a, a + [100.0, 0.0]) is None


def test_polygon_area_and_containment():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert polygon_area(square) == 4.0
    # with radius 0 the margin is minus the signed distance to the boundary
    margins = _zone_margins(np.array([1.0, 3.0]), np.array([1.0, 1.0]), square, 0.0)
    assert margins.tolist() == [1.0, -1.0]


def test_point_polyline_distance():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    assert point_polyline_distance(5.0, 3.0, pts) == 3.0
    assert point_polyline_distance(-4.0, 0.0, pts) == 4.0


def test_point_polyline_distance_single_vertex_is_a_point():
    assert point_polyline_distance(3.0, 4.0, np.array([[0.0, 0.0]])) == 5.0


def _segment_distance(px, py, a, b):
    # scalar reference: clamped projection onto one segment
    d = b - a
    len2 = float(d[0] * d[0] + d[1] * d[1])
    if len2 <= 0.0:
        return math.hypot(px - a[0], py - a[1])
    t = min(max(((px - a[0]) * d[0] + (py - a[1]) * d[1]) / len2, 0.0), 1.0)
    return math.hypot(px - (a[0] + t * d[0]), py - (a[1] + t * d[1]))


def test_point_polyline_distance_matches_segment_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        pts = rng.uniform(-50.0, 50.0, (int(rng.integers(2, 40)), 2))
        # repeated vertices give zero-length segments
        pts = np.repeat(pts, rng.integers(1, 3, len(pts)), axis=0)
        px, py = rng.uniform(-60.0, 60.0, 2)
        expect = min(_segment_distance(px, py, pts[i], pts[i + 1]) for i in range(len(pts) - 1))
        assert abs(point_polyline_distance(px, py, pts) - expect) <= 1e-12


def point_polyline_distance_formula(px, py, points):
    """Reference: the single-point formula point_polyline_distance had on its own."""
    a = np.asarray(points, dtype=float)
    d = np.diff(a, axis=0, append=a[-1:])
    len2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    dot = (px - a[:, 0]) * d[:, 0] + (py - a[:, 1]) * d[:, 1]
    t = np.clip(np.divide(dot, len2, out=np.zeros_like(dot), where=len2 > 0.0), 0.0, 1.0)
    return float(np.min(np.hypot(px - (a[:, 0] + t * d[:, 0]), py - (a[:, 1] + t * d[:, 1]))))


def _points_on_and_near(rng, pts):
    """Vertices, points on segments and random points around a polyline."""
    a, b = pts[:-1], pts[1:]
    on = a + rng.uniform(0.0, 1.0, (len(a), 1)) * (b - a)
    mid = a + 0.5 * (b - a)
    near = rng.uniform(pts.min() - 5.0, pts.max() + 5.0, (20, 2))
    return np.concatenate([pts, on, mid, near])


def test_point_polyline_distance_is_its_old_formula_bitwise():
    rng = np.random.default_rng(23)
    cases = [np.array([[1.5, -2.0]])]  # a single vertex
    for _ in range(200):
        pts = rng.uniform(-50.0, 50.0, (int(rng.integers(1, 12)), 2))
        # repeated vertices give zero-length steps
        cases.append(np.repeat(pts, rng.integers(1, 3, len(pts)), axis=0))
    for pts in cases:
        for px, py in _points_on_and_near(rng, pts):
            assert point_polyline_distance(px, py, pts) == \
                point_polyline_distance_formula(px, py, pts)


def test_band_intersection_rectangle():
    poly = band_intersection((5.0, 5.0), (1.0, 0.0), (0.0, 1.0), 2.0, 0.5)
    assert len(poly) == 4
    assert math.isclose(polygon_area(poly), 4.0 * 1.0)
    xs, ys = poly[:, 0], poly[:, 1]
    assert math.isclose(xs.min(), 4.5) and math.isclose(xs.max(), 5.5)
    assert math.isclose(ys.min(), 3.0) and math.isclose(ys.max(), 7.0)


def test_band_intersection_oblique_area():
    # parallelogram area = 4 * wa * wb / |sin(angle)|
    ang = math.radians(30.0)
    poly = band_intersection(
        (0.0, 0.0), (1.0, 0.0), (math.cos(ang), math.sin(ang)), 1.0, 0.7
    )
    expect = 4.0 * 1.0 * 0.7 / math.sin(ang)
    assert math.isclose(polygon_area(poly), expect, rel_tol=1e-9)


def test_band_intersection_parallel_rejected():
    with pytest.raises(ValueError):
        band_intersection((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), 1.0, 1.0)
