"""Per-scenario metrics built on zone occupancy.

The encroachment zone of two actors is the intersection of the bands their
footprints sweep along their paths, taken where the paths cross. Occupancy
intervals of that zone drive post encroachment time and encroachment time.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError
from .geometry import (band_intersection, first_polyline_crossing, point_at_arc,
                       polyline_distances)
from .results import (
    EncroachmentZone,
    MetricSeries,
    OccupancyInterval,
    ScalarResult,
    undefined_scalar,
)
from .trace import Trace

AGGREGATE_OPS = ("min", "max", "mean")


def build_encroachment_zone(
    trace: Trace, actor_a: str, actor_b: str, inflation: float = 0.0
) -> EncroachmentZone:
    """Intersection of the two swept bands at the first path crossing.

    Each band is centered on the actor's traveled path with half width
    radius + inflation. Raises when the paths never cross or run parallel
    at the crossing.
    """
    if inflation < 0:
        raise MetricError("inflation must be >= 0")
    track_a = trace.track(actor_a)
    track_b = trace.track(actor_b)
    hit = first_polyline_crossing(track_a.points, track_b.points)
    if hit is None:
        raise MetricError(f"paths of {actor_a!r} and {actor_b!r} do not cross")
    (cx, cy), arc_a, arc_b = hit
    _, _, heading_a = point_at_arc(track_a.points, track_a.arc_lengths, arc_a)
    _, _, heading_b = point_at_arc(track_b.points, track_b.arc_lengths, arc_b)
    dir_a = (np.cos(heading_a), np.sin(heading_a))
    dir_b = (np.cos(heading_b), np.sin(heading_b))
    try:
        quad = band_intersection(
            (cx, cy), dir_a, dir_b, track_a.radius + inflation, track_b.radius + inflation
        )
    except ValueError as exc:
        raise MetricError(str(exc)) from None
    return EncroachmentZone(polygon=quad, derived_from=(actor_a, actor_b))


def _zone_margins(xs: np.ndarray, ys: np.ndarray, polygon: np.ndarray, radius: float) -> np.ndarray:
    """radius - signed distance to the polygon, vectorized over samples.

    Positive margin means the actor disc intersects the zone.
    """
    closed = np.concatenate([polygon, polygon[:1]])
    (ax, ay), (bx, by) = closed[:-1].T[..., None], closed[1:].T[..., None]  # axes (edge, sample)
    # ray cast: a sample is inside when a ray to +x crosses an odd number of edges
    crosses = (ay > ys) != (by > ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = ax + (ys - ay) / (by - ay) * (bx - ax)
    inside = np.logical_xor.reduce(crosses & (xs < x_cross), axis=0)
    edge_dist = polyline_distances(xs, ys, closed)
    return radius - np.where(inside, -edge_dist, edge_dist)


def margin_runs(
    times: np.ndarray, margins: np.ndarray, holds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop times of the maximal runs of samples where holds is True.

    An edge between samples k and k + 1 sits at the zero of the margin
    interpolated linearly between them, clamped to the two samples; when
    either margin is not finite or both are equal it sits on the later
    sample. Runs touching the first or last sample start or stop there.
    Runs are not filtered: a one-sample touch at margin 0 starts where it
    stops.
    """
    edges = np.flatnonzero(np.diff(np.concatenate([[False], holds, [False]])))
    first, last = edges[0::2], edges[1::2] - 1  # first and last held sample of each run

    def crossing(k: np.ndarray) -> np.ndarray:
        t0, t1, m0, m1 = times[k], times[k + 1], margins[k], margins[k + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.minimum(np.maximum(t0 + (t1 - t0) * (-m0) / (m1 - m0), t0), t1)
        return np.where(np.isfinite(m0) & np.isfinite(m1) & (m0 != m1), t, t1)

    starts = times[first]
    starts[first > 0] = crossing(first[first > 0] - 1)
    stops = times[last]
    stops[last < len(times) - 1] = crossing(last[last < len(times) - 1])
    return starts, stops


def in_periods(times: np.ndarray, periods: list[tuple[float, float]]) -> np.ndarray:
    """Mask of the times inside any (start, stop) period, endpoints inclusive."""
    mask = np.zeros(len(times), dtype=bool)
    for start, stop in periods:
        mask |= (times >= start) & (times <= stop)
    return mask


def occupancy(trace: Trace, actor: str, zone: EncroachmentZone) -> list[OccupancyInterval]:
    """Maximal intervals during which the actor disc intersects the zone.

    Entry and exit times are refined by linear interpolation of the
    intersection margin between samples (margin_runs); intervals touching
    the trace bounds start or end there.
    """
    track = trace.track(actor)
    margins = _zone_margins(track.xs, track.ys, zone.polygon, track.radius)
    entry, exit_ = margin_runs(track.times, margins, margins >= 0.0)
    keep = exit_ > entry
    return [
        OccupancyInterval(actor_id=actor, entry_time=t0, exit_time=t1)
        for t0, t1 in zip(entry[keep].tolist(), exit_[keep].tolist())
    ]


def pet(trace: Trace, actor_1: str, actor_2: str, zone: EncroachmentZone) -> ScalarResult:
    """Post encroachment time: how long after the first actor left the zone
    the second one entered it.

    Undefined when either actor never occupies the zone, or when their
    occupancies overlap in time (that is a conflict, not a near miss; the
    context then carries conflict=overlap).
    """
    occ1 = occupancy(trace, actor_1, zone)
    occ2 = occupancy(trace, actor_2, zone)
    if not occ1 or not occ2:
        absent = actor_1 if not occ1 else actor_2
        return undefined_scalar("pet", "s", "never_occupies", actor=absent)
    first, second = (occ1[0], occ2[0])
    first_actor, second_actor = actor_1, actor_2
    if occ2[0].entry_time < occ1[0].entry_time:
        first, second = occ2[0], occ1[0]
        first_actor, second_actor = actor_2, actor_1
    if second.entry_time < first.exit_time:
        return undefined_scalar(
            "pet", "s", "simultaneous_occupancy", conflict="overlap",
            first_actor=first_actor, second_actor=second_actor,
        )
    return ScalarResult(
        metric_name="pet",
        value=second.entry_time - first.exit_time,
        unit="s",
        defined=True,
        context={"first_actor": first_actor, "second_actor": second_actor},
    )


def et(trace: Trace, actor: str, zone: EncroachmentZone) -> ScalarResult:
    """Encroachment time: duration of the actor's first zone occupancy."""
    occ = occupancy(trace, actor, zone)
    if not occ:
        return undefined_scalar("et", "s", "never_occupies", actor=actor)
    return ScalarResult(
        metric_name="et",
        value=occ[0].duration,
        unit="s",
        defined=True,
        context={"actor": actor},
    )


def aggregate(series: MetricSeries, op: str) -> ScalarResult:
    """Collapse a per-timestep series to one scalar.

    op is one of min, max, mean, applied over defined samples. Undefined when
    no sample is defined.
    """
    if op not in AGGREGATE_OPS:
        raise MetricError(f"unknown aggregation {op!r}, expected one of {AGGREGATE_OPS}")
    mask = series.defined
    name = f"{op}_{series.metric_name}"
    if not mask.any():
        return undefined_scalar(name, series.unit, "no_defined_samples")
    selected = series.values[mask]
    value = {"min": np.min, "max": np.max, "mean": np.mean}[op](selected)
    return ScalarResult(
        metric_name=name,
        value=float(value),
        unit=series.unit,
        defined=True,
        context={"samples": str(int(mask.sum())), "source_metric": series.metric_name},
    )
