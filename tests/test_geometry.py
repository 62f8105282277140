import math

import numpy as np
import pytest

from scenq.geometry import (
    band_intersection,
    compress_polyline,
    cumulative_arc,
    first_polyline_crossing,
    normalize_angle,
    point_at_arc,
    point_in_polygon,
    point_polyline_distance,
    polygon_area,
    polyline_length,
    segment_intersection,
    signed_polygon_distance,
)


def test_normalize_angle_range():
    for a in (-7.0, -math.pi, 0.0, math.pi, 9.5, 100.0):
        n = normalize_angle(a)
        assert -math.pi < n <= math.pi
        assert math.isclose(math.sin(n), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(n), math.cos(a), abs_tol=1e-12)


def test_cumulative_arc_and_length():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]])
    arcs = cumulative_arc(pts)
    assert arcs.tolist() == [0.0, 5.0, 11.0]
    assert polyline_length(pts) == 11.0


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
    assert polyline_length(out) == polyline_length(pts)


def test_compress_polyline_keeps_reversals():
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [2.0, 0.0]])
    out = compress_polyline(pts)
    assert len(out) == 3
    assert polyline_length(out) == 8.0


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


def test_polygon_area_and_containment():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert polygon_area(square) == 4.0
    assert point_in_polygon(1.0, 1.0, square)
    assert not point_in_polygon(3.0, 1.0, square)
    assert signed_polygon_distance(1.0, 1.0, square) == -1.0
    assert signed_polygon_distance(3.0, 1.0, square) == 1.0


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
