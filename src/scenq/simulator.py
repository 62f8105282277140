"""Deterministic kinematic simulator for an urban intersection encounter.

One ego vehicle follows a polyline route at a target speed; one pedestrian
waits at the curb and starts crossing, at constant speed, once the ego gets
within a trigger distance. The ego brakes when the predicted arrival-time
gap at the path crossing falls below a threshold, escalating from comfort
to maximum deceleration when a comfort stop would end inside the conflict
zone. Forward Euler integration on a fixed step; no randomness anywhere,
so identical inputs give byte-identical traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import SimulationError, fields, in_file, number
from .geometry import cumulative_arc, first_polyline_crossing
from .scenarios import ConcreteScenario
from .trace import DEFAULT_RADII, ActorClass, ActorTrack, Trace

KMH_TO_MPS = 1.0 / 3.6
RESUME_ACCEL = 2.0  # m/s^2, also the hard upper bound on ego acceleration
SPEED_FLOOR = 1e-3  # m/s, guards arrival-time division
STOP_MARGIN = 0.5  # m kept between the planned stop point and the zone edge

EGO_ID = "ego"
PED_ID = "pedestrian"

_DEFAULT_ROUTE = ((1.75, -45.0), (1.75, -1.75), (100.0, -1.75))
_DEFAULT_CROSSING = ((12.0, -3.5), (12.0, 3.5))


@dataclass(frozen=True)
class SimConfig:
    """Fixed world and controller settings, independent of scenario bindings.

    ego_start_speed None means the ego starts already at its target speed;
    trigger_gap_time 0 disables braking entirely (the gap is never below it).
    """

    time_step: float = 0.01
    max_duration: float = 40.0
    street_width: float = 7.0
    ego_route: tuple[tuple[float, float], ...] = _DEFAULT_ROUTE
    ped_crossing: tuple[tuple[float, float], ...] = _DEFAULT_CROSSING
    comfort_decel: float = 3.0
    max_decel: float = 8.0
    trigger_gap_time: float = 2.0
    ego_start_speed: float | None = None

    def __post_init__(self) -> None:
        if not (self.time_step > 0):
            raise SimulationError("time_step must be > 0")
        if not (self.max_duration >= self.time_step):
            raise SimulationError("max_duration must cover at least one step")
        if not (self.street_width > 0):
            raise SimulationError("street_width must be > 0")
        route = tuple((float(x), float(y)) for x, y in self.ego_route)
        crossing = tuple((float(x), float(y)) for x, y in self.ped_crossing)
        object.__setattr__(self, "ego_route", route)
        object.__setattr__(self, "ped_crossing", crossing)
        if len(route) < 2:
            raise SimulationError("ego_route needs at least 2 points")
        if len(crossing) != 2:
            raise SimulationError("ped_crossing must be a single segment (2 points)")
        if cumulative_arc(np.asarray(route))[-1] <= 0:
            raise SimulationError("ego_route must have positive length")
        if math.dist(crossing[0], crossing[1]) <= 0:
            raise SimulationError("ped_crossing must have positive length")
        if self.comfort_decel <= 0 or self.max_decel <= 0:
            raise SimulationError("deceleration limits must be > 0")
        if self.max_decel < self.comfort_decel:
            raise SimulationError("max_decel must be >= comfort_decel")
        if self.trigger_gap_time < 0:
            raise SimulationError("trigger_gap_time must be >= 0")
        if self.ego_start_speed is not None and self.ego_start_speed < 0:
            raise SimulationError("ego_start_speed must be >= 0")


@dataclass(frozen=True)
class SimOutcome:
    """Everything one simulation run produced.

    events maps event names (ped_crossing_started, braking_started,
    ego_passed_conflict, ped_passed_conflict, collision, scenario_end)
    to the simulation time they first occurred.
    """

    trace: Trace
    collided: bool
    min_distance: float
    completed: bool
    end_reason: str
    events: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", dict(self.events))


#: Steps recorded time-major for the whole batch before each run's slice is
#: copied out to it, so the shared buffer stays small for any batch, and a run
#: holds only the blocks it has stepped through, never max_duration's steps.
_BLOCK_STEPS = 256
#: np.hypot and math.hypot can differ in the last bit: a distance within this
#: relative slack of a threshold is settled with math.hypot, as the loop took it.
_HYPOT_SLACK = 1e-15
#: Event marks of an ended run: distance, passages, route end and braking window
_ENDED = (-math.inf, math.inf, math.inf, math.inf, -math.inf)
_R_SUM = DEFAULT_RADII[ActorClass.VEHICLE] + DEFAULT_RADII[ActorClass.PEDESTRIAN]


@dataclass(eq=False)
class _Run:
    """One run's checked inputs, prepared for stepping, and what it recorded."""

    scenario: ConcreteScenario
    d_start: float
    segments: np.ndarray  # per segment: start arc, length, start, direction, heading, end arc
    conflict: tuple | None
    constants: tuple[float, ...]  # unpacked in this order at the top of each block
    marks: tuple[float, ...]  # thresholds that fire an event; _ENDED's order
    speed: float  # at the first step
    n: int = 0  # steps recorded, once it ends before max_duration; 0 until then
    end_reason: str = "timeout"
    events: dict[str, float] = field(default_factory=dict)
    blocks: list[np.ndarray] = field(default_factory=list)  # its (5, steps) slice of each block


def _prepare(scenario: ConcreteScenario | Mapping[str, float], config: SimConfig,
             crossing: np.ndarray, route_hit: tuple | None) -> _Run:
    """Check one run's bindings and plan it; route_hit is the crossing of config.ego_route."""
    if not isinstance(scenario, ConcreteScenario):
        scenario = ConcreteScenario("adhoc#0", "adhoc", scenario, 0)
    bindings, scenario_id = scenario.bindings, scenario.scenario_id

    for name in ("v_max", "t_cross", "d_start"):
        if name not in bindings:
            raise SimulationError(f"{scenario_id}: missing binding {name!r}")
    v_max = float(bindings["v_max"]) * KMH_TO_MPS
    t_cross, d_start = float(bindings["t_cross"]), float(bindings["d_start"])
    route = np.array(config.ego_route, dtype=float)
    if "ego_start_x" in bindings:
        route[0, 0] = float(bindings["ego_start_x"])
    # a zero-length step has no direction to interpolate along, wherever it is
    route = route[np.append(True, (np.diff(route, axis=0) != 0.0).any(axis=1))]
    cum = cumulative_arc(route)
    for bad, message in ((v_max < 0, "v_max must be >= 0"), (t_cross <= 0, "t_cross must be > 0"),
                         (d_start < 0, "d_start must be >= 0"),
                         (cum[-1] <= 0, "ego route has zero length after ego_start_x override")):
        if bad:
            raise SimulationError(f"{scenario_id}: {message}")
    # the first step's contact test, as _step_runs takes it: a run that ends
    # there records one state, which is not a trace
    if math.hypot(route[0, 0] - crossing[0, 0], route[0, 1] - crossing[0, 1]) <= _R_SUM:
        raise SimulationError(f"{scenario_id}: ego starts in contact with the pedestrian")

    seg_dirs = np.diff(route, axis=0)
    dx, dy = seg_dirs[:, 0], seg_dirs[:, 1]
    segments = np.column_stack([cum[:-1], np.hypot(dx, dy), route[:-1], seg_dirs,
                                np.arctan2(dy, dx), np.append(cum[1:-1], math.inf)])

    hit = first_polyline_crossing(route, crossing) if "ego_start_x" in bindings else route_hit
    # without a conflict no passage event fires and no braking window opens
    _, s_conflict, ped_conflict_arc = hit or (None, 0.0, 0.0)
    ego_mark, ped_mark = (s_conflict, ped_conflict_arc) if hit else (math.inf, math.inf)
    ego_clear, ped_clear = ((s_conflict + _R_SUM, ped_conflict_arc + _R_SUM) if hit
                            else (-math.inf, -math.inf))
    return _Run(
        scenario, d_start, segments, hit,
        constants=(v_max, v_max + 0.0, config.street_width / t_cross, s_conflict,
                   ped_conflict_arc, s_conflict - _R_SUM - STOP_MARGIN, ped_clear),
        marks=(max(d_start, _R_SUM) * (1.0 + _HYPOT_SLACK), ego_mark, ped_mark, float(cum[-1]),
               ego_clear),
        speed=v_max if config.ego_start_speed is None else min(config.ego_start_speed, v_max),
    )


def _places(s: np.ndarray, segment: np.ndarray, ped_arc: np.ndarray, ped_start: np.ndarray,
            ped_dir: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ego x, y at route arc s on its segment (one column of _Run.segments per s) and
    pedestrian x, y at crossing arc ped_arc: one formula for the step loop and the trace."""
    seg_arc, seg_len, seg_x, seg_y, seg_dx, seg_dy = segment[:6]
    # s never falls behind the segment's start, so the loop's max(., 0.0) is a no-op
    frac = np.minimum(s - seg_arc, seg_len) / seg_len
    return (seg_x + frac * seg_dx, seg_y + frac * seg_dy,
            ped_start[0] + ped_arc * ped_dir[0], ped_start[1] + ped_arc * ped_dir[1])


def _step_runs(runs: list[_Run], config: SimConfig, ped_start: np.ndarray, ped_dir: np.ndarray,
               ped_len: float) -> Iterator[int]:
    """Step every run in lock-step until each has ended, recording s, v, acceleration,
    pedestrian arc and speed into run.blocks; yield its index once its last block is in.

    Element by element this is the per-run loop's arithmetic: + - * / and
    Python's min and max, which numpy's minimum and maximum match here (a
    -0.0 speed cap is read as 0.0, as the loop's min returns). A branch on a
    distance is settled with math.hypot.
    """
    dt = config.time_step
    n_max = int(round(config.max_duration / dt)) + 1
    comfort_stop, full_stop = 2.0 * config.comfort_decel, 2.0 * config.max_decel

    m, ids = len(runs), np.arange(len(runs))
    const, marks, current = (np.array(list(zip(*rows))) for rows in (
        [r.constants for r in runs], [r.marks for r in runs], [r.segments[0] for r in runs]))
    seg = np.zeros(m, dtype=int)
    s, v, ped_arc = np.zeros(m), np.array([r.speed for r in runs]), np.zeros(m)
    started, braking, escalated = np.zeros(m, bool), np.zeros(m, bool), np.zeros(m, bool)
    block = np.empty((_BLOCK_STEPS, 5, m))

    k = 0
    while m and k < n_max:
        alive = np.ones(m, bool)
        v_max, v_cap, walk, s_conflict, ped_conflict_arc, stop_target, ped_clear = const
        dist_mark, ego_mark, ped_mark, route_end, ego_clear = marks
        seg_next = current[-1]
        first, live = k, m
        while k < min(first + _BLOCK_STEPS, n_max) and live:
            t = k * dt
            row = block[k - first, :, :m]

            for j in (s > seg_next).nonzero()[0]:
                segments, i = runs[ids[j]].segments, seg[j]
                while s[j] > segments[i, -1]:
                    i += 1
                seg[j] = i
                current[:, j] = segments[i]
            ex, ey, px, py = _places(s, current, ped_arc, ped_start, ped_dir)
            row[0], row[1], row[3] = s, v, ped_arc

            ddx, ddy = ex - px, ey - py
            contacts = []
            for j in (np.hypot(ddx, ddy) <= dist_mark).nonzero()[0]:
                run, dist = runs[ids[j]], math.hypot(ddx[j], ddy[j])
                if not started[j] and dist <= run.d_start:
                    started[j] = True
                    run.events["ped_crossing_started"] = t
                    dist_mark[j] = _R_SUM * (1.0 + _HYPOT_SLACK)
                if dist <= _R_SUM:
                    contacts.append(j)
            ped_speed = np.where(started & (ped_arc < ped_len), walk, 0.0)
            row[4] = ped_speed

            # controller: a run keeps braking while the pedestrian walks toward
            # a conflict that neither has cleared
            a = np.where(v < v_max, RESUME_ACCEL, 0.0)
            if config.trigger_gap_time > 0.0:
                window = started & (ped_arc < ped_clear) & (s < ego_clear)
                held = braking = braking & window
                if np.count_nonzero(waiting := window & ~held):
                    t_ego = (s_conflict - s) / np.maximum(v, SPEED_FLOOR)
                    t_ped = (np.maximum(ped_conflict_arc - ped_arc, 0.0)
                             / np.maximum(ped_speed, SPEED_FLOOR))
                    # brake only if a full stop short of the zone is possible;
                    # otherwise clearing the zone quickly is the lesser risk
                    brake = (waiting & (np.abs(t_ego - t_ped) < config.trigger_gap_time)
                             & (s + v * v / full_stop <= stop_target))
                    braking = held | brake
                    for j in brake.nonzero()[0]:
                        runs[ids[j]].events.setdefault("braking_started", t)
                if np.count_nonzero(braking):
                    escalated = (escalated & held) | (s + v * v / comfort_stop > stop_target)
                    a = np.where(braking, np.where(escalated, -config.max_decel,
                                                   -config.comfort_decel), a)
            v_next = np.minimum(np.maximum(v + a * dt, 0.0), v_cap)
            np.divide(v_next - v, dt, out=row[2])

            for name, at, mark in (("ego_passed_conflict", s, ego_mark),
                                   ("ped_passed_conflict", ped_arc, ped_mark)):
                for j in (at >= mark).nonzero()[0]:
                    runs[ids[j]].events[name] = t
                    mark[j] = math.inf
            # a contact ends the run as a collision even where the route ends too
            ends = {**dict.fromkeys((s >= route_end).nonzero()[0], "route_completed"),
                    **dict.fromkeys(contacts, "collision")}
            for j, reason in ends.items():
                run = runs[ids[j]]
                if reason == "collision":
                    run.events["collision"] = t
                run.n, run.end_reason = k + 1, reason
                marks[:, j], alive[j] = _ENDED, False
                live -= 1

            s = s + v * dt
            v = v_next
            ped_arc = np.minimum(ped_arc + ped_speed * dt, ped_len)
            k += 1

        for j, i in enumerate(ids):
            runs[i].blocks.append(block[:(runs[i].n or k) - first, :, j].T.copy())
        yield from ids[~alive].tolist()
        ids, seg, s, v, ped_arc, started, braking, escalated = (
            x[alive] for x in (ids, seg, s, v, ped_arc, started, braking, escalated))
        const, marks, current = const[:, alive], marks[:, alive], current[:, alive]
        m = len(ids)
    yield from ids.tolist()  # still going at max_duration: timed out


def _outcome(run: _Run, dt: float, ped_start: np.ndarray, ped_dir: np.ndarray) -> SimOutcome:
    columns, scenario, run.blocks = np.concatenate(run.blocks, axis=1), run.scenario, []
    n = columns.shape[1]
    s, ego_v, ego_a, ped_arc, ped_v = columns  # to the trace
    at = np.searchsorted(run.segments[:, -1], s)  # as the loop: the first segment ending at s or on
    ego_x, ego_y, ped_x, ped_y = _places(s, run.segments[at].T, ped_arc, ped_start, ped_dir)
    events = run.events
    events["scenario_end"] = (n - 1) * dt

    metadata = {"logical_id": scenario.logical_id, "index": str(scenario.index),
                "end_reason": run.end_reason,
                **{f"binding_{name}": repr(float(x)) for name, x in scenario.bindings.items()},
                **{f"event_{name}": repr(x) for name, x in events.items()}}
    if run.conflict is not None:
        (x, y), ego_arc, other_arc = run.conflict
        metadata.update(zip(("conflict_x", "conflict_y", "conflict_ego_arc", "conflict_other_arc"),
                            (repr(float(value)) for value in (x, y, ego_arc, other_arc))))

    times = np.arange(n) * dt
    ego_track = ActorTrack(EGO_ID, ActorClass.VEHICLE, DEFAULT_RADII[ActorClass.VEHICLE], times,
                           ego_x, ego_y, run.segments[at, 6], ego_v, ego_a)
    ped_track = ActorTrack(PED_ID, ActorClass.PEDESTRIAN, DEFAULT_RADII[ActorClass.PEDESTRIAN],
                           times, ped_x, ped_y, np.full(n, math.atan2(ped_dir[1], ped_dir[0])),
                           ped_v, np.zeros(n))
    trace = Trace(scenario.scenario_id, dt, {EGO_ID: ego_track, PED_ID: ped_track}, metadata)
    # validated tracks are finite: settle the near-minimal distances with math.hypot
    ddx, ddy = ego_x - ped_x, ego_y - ped_y
    dist = np.hypot(ddx, ddy)
    min_distance = min(math.hypot(ddx[i], ddy[i])
                       for i in (dist <= dist.min() * (1.0 + _HYPOT_SLACK)).nonzero()[0])
    return SimOutcome(trace, collided=run.end_reason == "collision", min_distance=min_distance,
                      completed=run.end_reason == "route_completed",
                      end_reason=run.end_reason, events=events)


def simulate(scenario: ConcreteScenario | Mapping[str, float], config: SimConfig) -> SimOutcome:
    """Run one concrete scenario to completion.

    Bindings: v_max in km/h, t_cross in s, d_start in m; optional
    ego_start_x overrides the x coordinate of the first route point.
    The run ends at max_duration, on collision (with the overlapping state
    recorded), or when the ego finishes its route. A bad binding, or an ego
    that starts in contact with the pedestrian, raises SimulationError
    prefixed with the scenario id ("adhoc#0" for a mapping).
    """
    return simulate_batch([scenario], config)[0]


def iter_simulate(scenarios: Iterable[ConcreteScenario | Mapping[str, float]],
                  config: SimConfig) -> Iterator[tuple[int, SimOutcome]]:
    """Simulate concrete scenarios, such as the grid of a logical one, yielding
    (index, outcome) of each run in the block of steps where it ends.

    Every run's bindings are checked before this returns. The runs advance in
    lock-step, as arrays over the runs; a run's recording lives on only in its
    outcome's trace. Every outcome is bit-identical to simulate() of its scenario alone.
    """
    crossing = np.asarray(config.ped_crossing, dtype=float)
    route_hit = first_polyline_crossing(np.array(config.ego_route, dtype=float), crossing)
    runs = [_prepare(scenario, config, crossing, route_hit) for scenario in scenarios]
    ped_len = float(math.dist(config.ped_crossing[0], config.ped_crossing[1]))
    ped_dir = (crossing[1] - crossing[0]) / ped_len
    return ((i, _outcome(runs[i], config.time_step, crossing[0], ped_dir))
            for i in _step_runs(runs, config, crossing[0], ped_dir, ped_len))


def simulate_batch(scenarios: Iterable[ConcreteScenario | Mapping[str, float]],
                   config: SimConfig) -> list[SimOutcome]:
    """The outcomes of iter_simulate, in the order of the scenarios."""
    return [o for _, o in sorted(iter_simulate(scenarios, config), key=lambda item: item[0])]


# ---------------------------------------------------------------------------
# config files


def sim_config_from_dict(data: Mapping) -> SimConfig:
    if not isinstance(data, Mapping):
        raise SimulationError(f"sim config must be an object, got {data!r}")
    floats = ("time_step", "max_duration", "street_width", "comfort_decel", "max_decel",
              "trigger_gap_time")
    routes = ("ego_route", "ped_crossing")
    try:
        fields(data, {*floats, *routes, "ego_start_speed"}, "config", SimulationError)
        kwargs: dict = {key: number(data[key], key) for key in floats if key in data}
        for key in routes:
            if key in data:
                kwargs[key] = tuple((number(x, key), number(y, key)) for x, y in data[key])
        if data.get("ego_start_speed") is not None:
            kwargs["ego_start_speed"] = number(data["ego_start_speed"], "ego_start_speed")
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"malformed sim config: {exc}") from None
    return SimConfig(**kwargs)


def load_sim_config(path: str | Path) -> SimConfig:
    with in_file(path, SimulationError):
        return sim_config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
