"""Per-timestep metrics over actor traces.

Every function returns a MetricSeries aligned with the trace grid over the
time span the involved actors share. Samples where a metric has no meaning
(no closing motion, actor past the conflict, no braking) are marked
undefined rather than clamped or extrapolated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MetricError
from .geometry import first_polyline_crossing, point_polyline_distance
from .results import ConflictPoint, MetricSeries
from .simulator import EGO_ID, PED_ID
from .trace import ActorClass, ActorTrack, Trace, common_grid, sample_pair, sample_track

CLOSING_SPEED_FLOOR = 1e-6  # m/s, below this the encounter counts as not closing
ARRIVAL_SPEED_FLOOR = 1e-3  # m/s, below this an actor stands and has no predicted arrival
BRAKING_ACCEL_FLOOR = -1e-6  # m/s^2, accelerations above this are not braking

WTTC_HORIZON = 20.0  # s, beyond this no worst-case collision is searched
WTTC_MAX_ITERATIONS = 64  # cap on Newton steps; roots settle to rounding in about 15

# worst-case acceleration magnitude assumed per actor class, m/s^2
DEFAULT_MAX_ACCEL = {
    ActorClass.VEHICLE: 8.0,
    ActorClass.PEDESTRIAN: 2.0,
    ActorClass.OTHER: 4.0,
}


def _relative_motion(trace: Trace, ego: str, target: str) -> tuple[np.ndarray, ...]:
    """Shared sample times, target offset from the ego and relative velocity."""
    times, e, t = sample_pair(trace, ego, target)
    dvx = t["speed"] * np.cos(t["heading"]) - e["speed"] * np.cos(e["heading"])
    dvy = t["speed"] * np.sin(t["heading"]) - e["speed"] * np.sin(e["heading"])
    return times, t["x"] - e["x"], t["y"] - e["y"], dvx, dvy


def euclidean_distance(trace: Trace, actor_a: str, actor_b: str) -> MetricSeries:
    """Center-to-center distance; defined on every shared sample."""
    times, a, b = sample_pair(trace, actor_a, actor_b)
    values = np.hypot(b["x"] - a["x"], b["y"] - a["y"])
    return MetricSeries(
        metric_name="euclidean_distance",
        actor_ids=(actor_a, actor_b),
        unit="m",
        times=times,
        values=values,
        defined=np.ones(len(times), dtype=bool),
    )


def headway(trace: Trace, ego: str, target: str) -> MetricSeries:
    """Bumper gap along the ego heading.

    The target offset is projected onto the ego heading; the sum of radii is
    subtracted from the projection. Defined only while the projection is
    positive, so targets abeam or behind yield undefined samples.
    """
    times, e, t = sample_pair(trace, ego, target)
    proj = (t["x"] - e["x"]) * np.cos(e["heading"]) + (t["y"] - e["y"]) * np.sin(e["heading"])
    r_sum = trace.track(ego).radius + trace.track(target).radius
    defined = proj > 0.0
    return MetricSeries(
        metric_name="headway",
        actor_ids=(ego, target),
        unit="m",
        times=times,
        values=np.where(defined, proj - r_sum, 0.0),
        defined=defined,
    )


def ttc(trace: Trace, ego: str, target: str) -> MetricSeries:
    """Time to collision under constant velocities.

    Gap between the actor discs divided by the closing speed, where the
    closing speed is the shrink rate of the center distance computed from
    the current velocity vectors. Defined while the actors are apart and
    actually closing.
    """
    times, dx, dy, dvx, dvy = _relative_motion(trace, ego, target)
    dist = np.hypot(dx, dy)
    with np.errstate(invalid="ignore", divide="ignore"):
        closing = -np.where(dist > 0, (dx * dvx + dy * dvy) / dist, 0.0)
    r_sum = trace.track(ego).radius + trace.track(target).radius
    gap = dist - r_sum
    defined = (closing > CLOSING_SPEED_FLOOR) & (gap > 0.0)
    values = np.zeros(len(times))
    values[defined] = gap[defined] / closing[defined]
    return MetricSeries(
        metric_name="ttc",
        actor_ids=(ego, target),
        unit="s",
        times=times,
        values=values,
        defined=defined,
    )


def _disc_entry_times(px, py, vx, vy, r: float, k: float) -> np.ndarray:
    """Earliest t in [0, WTTC_HORIZON] with |p + v*t| <= r + k*t^2, per
    sample; NaN where the offset stays outside the growing disc.

    Both sides are >= 0, so squaring is exact: the offset is inside exactly
    where g(t) = k^2 t^4 + (2rk - |v|^2) t^2 - 2(p.v) t + (r^2 - |p|^2) >= 0.
    g is monotone between its stationary points, so the first of 0, those
    points and the horizon where g >= 0 closes a bracket around the first
    entry. Newton steps refine it; one leaving the bracket is bisected.
    """
    c2 = (2.0 * r * k - (vx * vx + vy * vy))[:, None]
    c1 = (-2.0 * (px * vx + py * vy))[:, None]
    c0 = (r * r - (px * px + py * py))[:, None]

    def g(t):
        return ((k * k * t * t + c2) * t + c1) * t + c0

    with np.errstate(divide="ignore", invalid="ignore"):
        if k > 0.0:
            # stationary points: real roots of g'(t) / (4k^2) = t^3 + p t + q,
            # one by Cardano (cube root on the side of q that does not
            # cancel) or three by the trigonometric form
            p, q = c2 / (2.0 * k * k), c1 / (4.0 * k * k)
            disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
            u = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(np.maximum(disc, 0.0))), q)
            m = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0))
            phi = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
            three = m * np.cos(phi - 2.0 * np.pi / 3.0 * np.arange(3))
            stationary = np.where(disc > 0.0, u - p / (3.0 * u), three)
        else:
            stationary = -c1 / (2.0 * c2)
        horizon = np.full_like(c0, WTTC_HORIZON)
        # NaN (no such root) sorts last and never counts as inside
        knots = np.column_stack([np.zeros_like(c0), np.clip(stationary, 0.0, horizon), horizon])
        knots = np.sort(knots, axis=1)
        inside = g(knots) >= 0.0
        j = np.argmax(inside, axis=1)[:, None]
        lo = np.take_along_axis(knots, np.maximum(j - 1, 0), axis=1)
        hi = np.take_along_axis(knots, j, axis=1)
        t = 0.5 * (lo + hi)
        for _ in range(WTTC_MAX_ITERATIONS):
            g_t = g(t)
            lo, hi = np.where(g_t >= 0.0, (lo, t), (t, hi))
            newton = t - g_t / ((4.0 * k * k * t * t + 2.0 * c2) * t + c1)
            in_bracket = (lo < newton) & (newton < hi) | (newton == t)
            newton = np.where(in_bracket, newton, 0.5 * (lo + hi))
            converged = np.all(np.abs(newton - t) <= 1e-15 * (1.0 + t))
            t = newton
            if converged:
                break
    return np.where(inside.any(axis=1), t[:, 0], np.nan)


def wttc(
    trace: Trace,
    ego: str,
    target: str,
    a_max_ego: float | None = None,
    a_max_target: float | None = None,
) -> MetricSeries:
    """Worst-case time to collision.

    Both actors keep their current velocity while an uncertainty disc around
    the relative position grows quadratically with the summed worst-case
    acceleration magnitudes, r_sum + 0.5*a_sum*t^2. The value is the exact
    first time the relative offset enters that disc, solved for all samples
    at once to floating-point rounding, with no time grid, so an entry of
    any duration is found; 0 for actors already in contact. Undefined when
    no entry happens within WTTC_HORIZON. Acceleration bounds default per
    actor class when not given.
    """
    ego_track = trace.track(ego)
    target_track = trace.track(target)
    bounds = [
        DEFAULT_MAX_ACCEL[track.actor_class] if a_max is None else float(a_max)
        for track, a_max in ((ego_track, a_max_ego), (target_track, a_max_target))
    ]
    if min(bounds) < 0:
        raise MetricError("worst-case acceleration bounds must be >= 0")
    times, *motion = _relative_motion(trace, ego, target)
    entry = _disc_entry_times(*motion, ego_track.radius + target_track.radius, 0.5 * sum(bounds))
    defined = ~np.isnan(entry)
    return MetricSeries(
        metric_name="wttc",
        actor_ids=(ego, target),
        unit="s",
        times=times,
        values=np.where(defined, entry, 0.0),
        defined=defined,
    )


def conflict_point(trace: Trace, actor: str, other: str) -> ConflictPoint | None:
    """Where the paths of two actors cross, arc lengths in (actor, other) order.

    For the simulator's ego/pedestrian pair the planned crossing recorded in
    the ``conflict_*`` metadata wins; otherwise the first crossing of the
    two traveled paths. None when there is neither.
    """
    meta = trace.metadata
    if {actor, other} == {EGO_ID, PED_ID} and "conflict_ego_arc" in meta:
        arcs = float(meta["conflict_ego_arc"]), float(meta["conflict_other_arc"])
        if actor == PED_ID:
            arcs = arcs[::-1]
        return ConflictPoint((float(meta["conflict_x"]), float(meta["conflict_y"])), *arcs)
    hit = first_polyline_crossing(trace.track(actor).points, trace.track(other).points)
    return None if hit is None else ConflictPoint(*hit)


def _check_conflict_on_path(track: ActorTrack, arc: float, position: tuple[float, float]) -> None:
    # A conflict inside the traveled span must lie on the traveled path;
    # one beyond the traveled end is a statement about the planned path and
    # is taken on trust.
    traveled = float(track.arc_lengths[-1])
    if arc <= traveled + 1e-9:
        if point_polyline_distance(position[0], position[1], track.points) > 1e-6:
            raise MetricError(
                f"conflict point {position} not on the path of {track.actor_id!r}"
            )


def gap_time(trace: Trace, ego: str, target: str, conflict: ConflictPoint | None) -> MetricSeries:
    """Predicted arrival-time difference at a shared conflict point.

    Each actor's remaining arc to the conflict is divided by its current
    speed. Defined only while neither actor has passed the conflict and
    both move at 1 mm/s or more: a standing actor has no predicted arrival.
    The series goes undefined from the first sample after either passes.
    With no conflict point the series exists but is never defined.
    """
    times, e, t = sample_pair(trace, ego, target)
    if conflict is None:
        return MetricSeries(metric_name="gap_time", actor_ids=(ego, target), unit="s",
                            times=times, values=np.zeros(len(times)),
                            defined=np.zeros(len(times), dtype=bool))
    ego_track = trace.track(ego)
    target_track = trace.track(target)
    _check_conflict_on_path(ego_track, conflict.ego_arc_length, conflict.position)
    _check_conflict_on_path(target_track, conflict.other_arc_length, conflict.position)
    remaining_e = conflict.ego_arc_length - e["arc"]
    remaining_t = conflict.other_arc_length - t["arc"]
    defined = (remaining_e > 0.0) & (remaining_t > 0.0)
    defined &= (e["speed"] >= ARRIVAL_SPEED_FLOOR) & (t["speed"] >= ARRIVAL_SPEED_FLOOR)
    t_e = remaining_e / np.maximum(e["speed"], ARRIVAL_SPEED_FLOOR)
    t_t = remaining_t / np.maximum(t["speed"], ARRIVAL_SPEED_FLOOR)
    return MetricSeries(
        metric_name="gap_time",
        actor_ids=(ego, target),
        unit="s",
        times=times,
        values=np.where(defined, np.abs(t_e - t_t), 0.0),
        defined=defined,
    )


def braking_time(trace: Trace, actor: str) -> MetricSeries:
    """Time a braking actor needs to stop at its current deceleration.

    Defined exactly where the recorded acceleration is negative (below
    -1e-6 m/s^2); a standing actor that is still braking stops in 0 s.
    """
    times = common_grid(trace, (actor,))
    s = sample_track(trace.track(actor), times)
    defined = s["accel"] < BRAKING_ACCEL_FLOOR
    values = np.zeros(len(times))
    values[defined] = s["speed"][defined] / np.abs(s["accel"][defined])
    return MetricSeries(
        metric_name="braking_time",
        actor_ids=(actor,),
        unit="s",
        times=times,
        values=values,
        defined=defined,
    )


def braking_distance(trace: Trace, actor: str) -> MetricSeries:
    """Distance a braking actor covers before standing still."""
    times = common_grid(trace, (actor,))
    s = sample_track(trace.track(actor), times)
    defined = s["accel"] < BRAKING_ACCEL_FLOOR
    values = np.zeros(len(times))
    values[defined] = s["speed"][defined] ** 2 / (2.0 * np.abs(s["accel"][defined]))
    return MetricSeries(
        metric_name="braking_distance",
        actor_ids=(actor,),
        unit="m",
        times=times,
        values=values,
        defined=defined,
    )


def traffic_density(trace: Trace, center_actor: str, radius: float) -> MetricSeries:
    """Actors per square meter within a disc around one actor.

    Counts every other actor whose center lies within the radius; defined on
    every sample of the center actor, including when the count is zero.
    """
    if not radius > 0:
        raise MetricError("radius must be > 0")
    times = common_grid(trace, (center_actor,))
    c = sample_track(trace.track(center_actor), times)
    counts = np.zeros(len(times))
    for other_id in trace.actor_ids():
        if other_id == center_actor:
            continue
        track = trace.track(other_id)
        inside_span = (times >= track.first_time) & (times <= track.last_time)
        if not inside_span.any():
            continue
        o = sample_track(track, times[inside_span])
        d = np.hypot(o["x"] - c["x"][inside_span], o["y"] - c["y"][inside_span])
        counts[inside_span] += (d <= radius).astype(float)
    values = counts / (math.pi * radius * radius)
    return MetricSeries(
        metric_name="traffic_density",
        actor_ids=(center_actor,),
        unit="1/m^2",
        times=times,
        values=values,
        defined=np.ones(len(times), dtype=bool),
    )
