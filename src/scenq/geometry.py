"""Planar geometry helpers: angles, polylines, segment crossings, polygons.

Everything operates on plain floats and numpy arrays. Polylines are (N, 2)
arrays of vertices, polygons are (N, 2) arrays of vertices in counter
clockwise order.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(angle: float) -> float:
    """Map an angle in radians onto (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    result = wrapped - math.pi
    if result <= -math.pi:
        result += TWO_PI
    return result


def shortest_arc_delta(start: float, end: float) -> float:
    """Signed shortest rotation from ``start`` to ``end``, in (-pi, pi]."""
    return normalize_angle(end - start)


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`normalize_angle`."""
    wrapped = np.mod(np.asarray(angles, dtype=float) + math.pi, TWO_PI) - math.pi
    wrapped[wrapped <= -math.pi] += TWO_PI
    return wrapped


def cumulative_arc(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length along a polyline, starting at 0."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 1:
        raise ValueError("polyline must be an (N, 2) array")
    if len(pts) == 1:
        return np.zeros(1)
    steps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    return np.concatenate([[0.0], np.cumsum(steps)])


def polyline_length(points: np.ndarray) -> float:
    return float(cumulative_arc(points)[-1])


def point_at_arc(points: np.ndarray, arcs: np.ndarray, s: float) -> tuple[float, float, float]:
    """Position and tangent heading at arc length ``s`` along a polyline.

    ``arcs`` must be the cumulative arc array for ``points``. ``s`` is
    clamped to the polyline ends. On a vertex the heading of the outgoing
    segment is returned (the incoming one at the final vertex).
    """
    pts = np.asarray(points, dtype=float)
    total = float(arcs[-1])
    s = min(max(s, 0.0), total)
    idx = int(np.searchsorted(arcs, s, side="right")) - 1
    idx = min(max(idx, 0), len(pts) - 2)
    seg = pts[idx + 1] - pts[idx]
    seg_len = float(np.hypot(seg[0], seg[1]))
    if seg_len <= 0.0:
        frac = 0.0
    else:
        frac = (s - float(arcs[idx])) / seg_len
    x = float(pts[idx, 0] + frac * seg[0])
    y = float(pts[idx, 1] + frac * seg[1])
    heading = math.atan2(seg[1], seg[0])
    return x, y, heading


def segment_intersection(
    p0: np.ndarray, p1: np.ndarray, q0: np.ndarray, q1: np.ndarray, eps: float = 1e-12
) -> tuple[float, float] | None:
    """Parametric intersection of two segments.

    Returns (t, u) with the crossing at ``p0 + t*(p1-p0)`` and
    ``q0 + u*(q1-q0)``, both in [0, 1], or None when the segments do not
    cross or are parallel.
    """
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


def compress_polyline(points: np.ndarray) -> np.ndarray:
    """Drop zero-length steps and forward-collinear interior vertices.

    The returned polyline traces the same point set with identical arc
    parametrization; direction reversals are kept as vertices.
    """
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


def first_polyline_crossing(
    a_points: np.ndarray, b_points: np.ndarray
) -> tuple[tuple[float, float], float, float] | None:
    """First crossing of two polylines in traversal order of the first.

    Returns ((x, y), arc_a, arc_b) where the arcs are the distances along
    each polyline up to the crossing, or None when the paths never cross.
    """
    a = compress_polyline(np.asarray(a_points, dtype=float))
    b = compress_polyline(np.asarray(b_points, dtype=float))
    arcs_a = cumulative_arc(a)
    arcs_b = cumulative_arc(b)
    for i in range(len(a) - 1):
        best: tuple[float, float, float] | None = None
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


def point_polyline_distance(px: float, py: float, points: np.ndarray) -> float:
    """Distance from a point to a polyline; a single vertex is a point."""
    a = np.asarray(points, dtype=float)
    # every vertex starts a segment; the last one a zero-length one
    d = np.diff(a, axis=0, append=a[-1:])
    len2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    dot = (px - a[:, 0]) * d[:, 0] + (py - a[:, 1]) * d[:, 1]
    t = np.clip(np.divide(dot, len2, out=np.zeros_like(dot), where=len2 > 0.0), 0.0, 1.0)
    return float(np.min(np.hypot(px - (a[:, 0] + t * d[:, 0]), py - (a[:, 1] + t * d[:, 1]))))


def point_in_polygon(px: float, py: float, polygon: np.ndarray) -> bool:
    """Even-odd test; boundary points may land on either side."""
    inside = False
    n = len(polygon)
    for i in range(n):
        x0, y0 = polygon[i]
        x1, y1 = polygon[(i + 1) % n]
        if (y0 > py) != (y1 > py):
            x_cross = x0 + (py - y0) / (y1 - y0) * (x1 - x0)
            if px < x_cross:
                inside = not inside
    return inside


def signed_polygon_distance(px: float, py: float, polygon: np.ndarray) -> float:
    """Distance to the polygon boundary, negative when inside."""
    poly = np.asarray(polygon, dtype=float)
    edge = point_polyline_distance(px, py, np.vstack([poly, poly[:1]]))
    return -edge if point_in_polygon(px, py, poly) else edge


def polygon_area(polygon: np.ndarray) -> float:
    """Shoelace area, positive for counter clockwise vertex order."""
    poly = np.asarray(polygon, dtype=float)
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def band_intersection(
    center: tuple[float, float],
    dir_a: tuple[float, float],
    dir_b: tuple[float, float],
    half_width_a: float,
    half_width_b: float,
) -> np.ndarray:
    """Parallelogram where two straight bands around crossing paths overlap.

    Each band runs through ``center`` along its direction with the given half
    width. Vertices are returned counter clockwise, starting at the
    lexicographically smallest one. Raises ValueError for parallel paths.
    """
    na = np.array([-dir_a[1], dir_a[0]], dtype=float)
    na /= np.hypot(*na)
    nb = np.array([-dir_b[1], dir_b[0]], dtype=float)
    nb /= np.hypot(*nb)
    m = np.array([na, nb])
    det = float(np.linalg.det(m))
    if abs(det) < 1e-12:
        raise ValueError("paths are parallel at the crossing")
    c = np.asarray(center, dtype=float)
    corners = []
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            rhs = np.array([sa * half_width_a, sb * half_width_b])
            corners.append(c + np.linalg.solve(m, rhs))
    corners = np.array(corners)
    centroid = corners.mean(axis=0)
    # Angle sort yields counter clockwise order for a convex vertex set.
    order = np.argsort(np.arctan2(corners[:, 1] - centroid[1], corners[:, 0] - centroid[0]))
    corners = corners[order]
    start = int(np.lexsort((corners[:, 1], corners[:, 0]))[0])
    return np.roll(corners, -start, axis=0)
