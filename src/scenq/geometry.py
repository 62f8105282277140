"""Planar geometry helpers: angles, polylines, segment crossings, polygons.

Everything operates on plain floats and numpy arrays. Polylines are (N, 2)
arrays of vertices, polygons are (N, 2) arrays of vertices in counter
clockwise order.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Map angles in radians onto (-pi, pi]."""
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


# (segment of a) x (segment of b) cells tested per block of first_polyline_crossing
PAIR_BLOCK_CELLS = 1 << 16


def _turns(ix: np.ndarray, iy: np.ndarray, ox: np.ndarray, oy: np.ndarray) -> np.ndarray:
    """True where step (ix, iy) is nonzero and does not run on along step (ox, oy)."""
    cross = ix * oy - iy * ox
    dot = ix * ox + iy * oy
    limit = 1e-12 * np.maximum(np.hypot(ix, iy) * np.hypot(ox, oy), 1.0)
    size, forward = np.abs(cross), dot > 0.0
    straight = (size <= limit) & forward
    # np.hypot and math.hypot can differ in the last bit: settle near-ties with math.hypot
    for k in np.flatnonzero(forward & (np.abs(size - limit) <= 1e-14 * limit)):
        norm_k = math.hypot(ix[k], iy[k]) * math.hypot(ox[k], oy[k])
        straight[k] = abs(cross[k]) <= 1e-12 * max(norm_k, 1.0)
    return ((ix != 0.0) | (iy != 0.0)) & ~straight


def compress_polyline(points: np.ndarray) -> np.ndarray:
    """Drop zero-length steps and forward-collinear interior vertices.

    The returned polyline traces the same point set with identical arc
    parametrization; direction reversals are kept as vertices.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n <= 2:
        return pts
    xs, ys = pts[:, 0], pts[:, 1]
    dx, dy = np.diff(xs), np.diff(ys)
    # an interior vertex is kept only if it moves on (a nonzero step out) and
    # the step to it from the last kept vertex turns into that step
    movers = np.flatnonzero((dx[1:] != 0.0) | (dy[1:] != 0.0)) + 1
    prev = np.concatenate([[0], movers[:-1]])
    mx, my, ox, oy = xs[movers], ys[movers], dx[movers], dy[movers]
    # the test from the previous mover, exact whenever that one is kept
    dropped = np.flatnonzero(~_turns(mx - xs[prev], my - ys[prev], ox, oy))
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    m = len(movers)
    i = 0  # the next mover to decide; the one before it (or vertex 0) is kept
    while i < m:
        k = int(np.searchsorted(dropped, i))
        stop = int(dropped[k]) if k < len(dropped) else m
        keep[movers[i:stop]] = True
        if stop == m:
            break
        # mover stop is dropped; scan on from the one before it in doubling windows
        anchor, i, width = prev[stop], stop + 1, 64
        while i < m:
            end = min(i + width, m)
            hit = np.flatnonzero(_turns(
                mx[i:end] - xs[anchor], my[i:end] - ys[anchor], ox[i:end], oy[i:end]
            ))
            if hit.size:
                keep[movers[i + hit[0]]] = True
                i += int(hit[0]) + 1
                break
            i, width = end, 2 * width
    return pts[keep]


def first_polyline_crossing(
    a_points: np.ndarray, b_points: np.ndarray
) -> tuple[tuple[float, float], float, float] | None:
    """First crossing of two polylines in traversal order of the first.

    Returns ((x, y), arc_a, arc_b) where the arcs are the distances along
    each polyline up to the crossing, or None when the paths never cross.
    Parallel segments never cross. Segment pairs are tested in blocks of
    about PAIR_BLOCK_CELLS, so memory stays bounded.
    """
    a = compress_polyline(np.asarray(a_points, dtype=float))
    b = compress_polyline(np.asarray(b_points, dtype=float))
    arcs_a = cumulative_arc(a)
    arcs_b = cumulative_arc(b)
    d_a = np.diff(a, axis=0)
    d_b = np.diff(b, axis=0)
    eps = 1e-12
    rows = max(1, PAIR_BLOCK_CELLS // (len(d_b) or 1))
    for first in range(0, len(d_a), rows):
        # p = a[i] + t * d_a[i] meets q = b[j] + u * d_b[j]; axes (i, j)
        d1 = d_a[first:first + rows, None, :]
        rel = b[None, :-1, :] - a[first:first + len(d1), None, :]
        denom = d1[..., 0] * d_b[:, 1] - d1[..., 1] * d_b[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rel[..., 0] * d_b[:, 1] - rel[..., 1] * d_b[:, 0]) / denom
            u = (rel[..., 0] * d1[..., 1] - rel[..., 1] * d1[..., 0]) / denom
        inside = (t >= -eps) & (t <= 1.0 + eps) & (u >= -eps) & (u <= 1.0 + eps)
        hit = (np.abs(denom) >= eps) & inside
        rows_hit = np.flatnonzero(hit.any(axis=1))
        if not rows_hit.size:
            continue
        r = int(rows_hit[0])
        i, js = first + r, np.flatnonzero(hit[r])
        # min(max(t, 0.0), 1.0) as Python computes it, a -0.0 included
        t_hit = np.where(t[r, js] > 1.0, 1.0, np.where(t[r, js] < 0.0, 0.0, t[r, js]))
        arcs = arcs_a[i] + t_hit * np.hypot(d_a[i, 0], d_a[i, 1])
        best = int(np.argmin(arcs))
        j = int(js[best])
        u_j = min(max(float(u[r, j]), 0.0), 1.0)
        arc_b = float(arcs_b[j]) + u_j * float(np.hypot(d_b[j, 0], d_b[j, 1]))
        t_i = float(t_hit[best])
        point = (float(a[i, 0] + t_i * d_a[i, 0]), float(a[i, 1] + t_i * d_a[i, 1]))
        return point, float(arcs[best]), arc_b
    return None


def polyline_distances(xs: np.ndarray, ys: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each point (xs[k], ys[k]) to a polyline of two or more
    vertices; a repeated vertex makes a zero-length segment, which is a point."""
    # axes (segment, point): the long point axis runs innermost
    (ax, ay), (dx, dy) = points[:-1].T[..., None], np.diff(points, axis=0).T[..., None]
    len2 = dx * dx + dy * dy
    dot = (xs - ax) * dx + (ys - ay) * dy
    t = np.clip(np.divide(dot, len2, out=np.zeros_like(dot), where=len2 > 0.0), 0.0, 1.0)
    return np.min(np.hypot(xs - (ax + t * dx), ys - (ay + t * dy)), axis=0)


def point_polyline_distance(px: float, py: float, points: np.ndarray) -> float:
    """Distance from a point to a polyline; a single vertex is a point."""
    # every vertex starts a segment; the last one a zero-length one
    ends = np.concatenate([points, points[-1:]])
    return float(polyline_distances(np.array([px]), np.array([py]), ends)[0])


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
