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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import SimulationError
from .geometry import cumulative_arc, first_polyline_crossing
from .scenarios import ConcreteScenario, LogicalScenario, iter_concretize
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


def _require_binding(bindings: Mapping[str, float], name: str) -> float:
    if name not in bindings:
        raise SimulationError(f"missing binding {name!r}")
    return float(bindings[name])


def simulate(scenario: ConcreteScenario | Mapping[str, float], config: SimConfig) -> SimOutcome:
    """Run one concrete scenario to completion.

    Bindings: v_max in km/h, t_cross in s, d_start in m; optional
    ego_start_x overrides the x coordinate of the first route point.
    The run ends at max_duration, on collision (with the overlapping state
    recorded), or when the ego finishes its route.
    """
    if isinstance(scenario, ConcreteScenario):
        bindings = scenario.bindings
        scenario_id = scenario.scenario_id
        logical_id = scenario.logical_id
        index = scenario.index
    else:
        bindings = dict(scenario)
        scenario_id, logical_id, index = "adhoc#0", "adhoc", 0

    v_max = _require_binding(bindings, "v_max") * KMH_TO_MPS
    t_cross = _require_binding(bindings, "t_cross")
    d_start = _require_binding(bindings, "d_start")
    if v_max < 0:
        raise SimulationError("v_max must be >= 0")
    if t_cross <= 0:
        raise SimulationError("t_cross must be > 0")
    if d_start < 0:
        raise SimulationError("d_start must be >= 0")

    route = [list(p) for p in config.ego_route]
    if "ego_start_x" in bindings:
        route[0][0] = float(bindings["ego_start_x"])
    route_pts = np.asarray(route, dtype=float)
    cum = cumulative_arc(route_pts)
    route_len = float(cum[-1])
    if route_len <= 0:
        raise SimulationError("ego route has zero length after ego_start_x override")
    seg_dirs = np.diff(route_pts, axis=0)
    seg_lens = np.hypot(seg_dirs[:, 0], seg_dirs[:, 1])
    seg_head = np.arctan2(seg_dirs[:, 1], seg_dirs[:, 0])

    crossing = np.asarray(config.ped_crossing, dtype=float)
    ped_len = float(math.dist(config.ped_crossing[0], config.ped_crossing[1]))
    ped_dir = (crossing[1] - crossing[0]) / ped_len
    ped_heading = float(math.atan2(ped_dir[1], ped_dir[0]))
    ped_walk_speed = config.street_width / t_cross

    hit = first_polyline_crossing(route_pts, crossing)
    if hit is None:
        conflict_pos = None
        s_conflict = None
        ped_conflict_arc = None
    else:
        conflict_pos, s_conflict, ped_conflict_arc = hit

    r_ego = DEFAULT_RADII[ActorClass.VEHICLE]
    r_ped = DEFAULT_RADII[ActorClass.PEDESTRIAN]
    r_sum = r_ego + r_ped

    dt = config.time_step
    n_max = int(round(config.max_duration / dt)) + 1
    ego_x = np.empty(n_max)
    ego_y = np.empty(n_max)
    ego_h = np.empty(n_max)
    ego_v = np.empty(n_max)
    ego_a = np.empty(n_max)
    ped_x = np.empty(n_max)
    ped_y = np.empty(n_max)
    ped_v = np.empty(n_max)

    v = v_max if config.ego_start_speed is None else min(config.ego_start_speed, v_max)
    s = 0.0
    ped_arc = 0.0
    seg_idx = 0
    ped_started = False
    braking = False
    escalated = False
    min_distance = math.inf
    collided = False
    completed = False
    events: dict[str, float] = {}
    stop_target = None
    if s_conflict is not None:
        stop_target = s_conflict - r_sum - STOP_MARGIN

    n = 0
    for k in range(n_max):
        t = k * dt

        # position on route
        while seg_idx < len(seg_lens) - 1 and s > cum[seg_idx + 1]:
            seg_idx += 1
        frac = min(max(s - cum[seg_idx], 0.0), seg_lens[seg_idx]) / seg_lens[seg_idx]
        ex = route_pts[seg_idx, 0] + frac * seg_dirs[seg_idx, 0]
        ey = route_pts[seg_idx, 1] + frac * seg_dirs[seg_idx, 1]
        px = crossing[0, 0] + ped_arc * ped_dir[0]
        py = crossing[0, 1] + ped_arc * ped_dir[1]

        dist = math.hypot(ex - px, ey - py)
        if not ped_started and dist <= d_start:
            ped_started = True
            events.setdefault("ped_crossing_started", t)
        ped_speed = ped_walk_speed if (ped_started and ped_arc < ped_len) else 0.0

        # controller
        ped_cleared = ped_conflict_arc is not None and ped_arc >= ped_conflict_arc + r_sum
        ego_past_zone = s_conflict is not None and s >= s_conflict + r_sum
        if braking and (ped_cleared or ego_past_zone or not ped_started):
            braking = False
            escalated = False
        if braking:
            if not escalated and s + v * v / (2.0 * config.comfort_decel) > stop_target:
                escalated = True
            a = -(config.max_decel if escalated else config.comfort_decel)
        else:
            a = RESUME_ACCEL if v < v_max else 0.0
            if (
                s_conflict is not None
                and ped_started
                and not ped_cleared
                and not ego_past_zone
                and config.trigger_gap_time > 0.0
            ):
                t_ego = (s_conflict - s) / max(v, SPEED_FLOOR)
                t_ped = max(ped_conflict_arc - ped_arc, 0.0) / max(ped_speed, SPEED_FLOOR)
                if abs(t_ego - t_ped) < config.trigger_gap_time:
                    # brake only if a full stop short of the zone is possible;
                    # otherwise clearing the zone quickly is the lesser risk
                    if s + v * v / (2.0 * config.max_decel) <= stop_target:
                        braking = True
                        escalated = s + v * v / (2.0 * config.comfort_decel) > stop_target
                        a = -(config.max_decel if escalated else config.comfort_decel)
                        events.setdefault("braking_started", t)

        v_next = min(max(v + a * dt, 0.0), v_max)

        ego_x[k] = ex
        ego_y[k] = ey
        ego_h[k] = seg_head[seg_idx]
        ego_v[k] = v
        ego_a[k] = (v_next - v) / dt
        ped_x[k] = px
        ped_y[k] = py
        ped_v[k] = ped_speed
        n = k + 1

        if dist < min_distance:
            min_distance = dist
        if s_conflict is not None and s >= s_conflict:
            events.setdefault("ego_passed_conflict", t)
        if ped_conflict_arc is not None and ped_arc >= ped_conflict_arc:
            events.setdefault("ped_passed_conflict", t)
        if dist <= r_sum:
            collided = True
            events.setdefault("collision", t)
            break
        if s >= route_len:
            completed = True
            break

        s += v * dt
        v = v_next
        ped_arc = min(ped_arc + ped_speed * dt, ped_len)

    if collided:
        end_reason = "collision"
    elif completed:
        end_reason = "route_completed"
    else:
        end_reason = "timeout"
    events["scenario_end"] = (n - 1) * dt

    times = np.arange(n) * dt
    metadata = {
        "logical_id": logical_id,
        "index": str(index),
        "end_reason": end_reason,
    }
    for name, value in bindings.items():
        metadata[f"binding_{name}"] = repr(float(value))
    for name, value in events.items():
        metadata[f"event_{name}"] = repr(value)
    if conflict_pos is not None:
        metadata["conflict_x"] = repr(float(conflict_pos[0]))
        metadata["conflict_y"] = repr(float(conflict_pos[1]))
        metadata["conflict_ego_arc"] = repr(float(s_conflict))
        metadata["conflict_other_arc"] = repr(float(ped_conflict_arc))

    ego_track = ActorTrack(
        actor_id=EGO_ID,
        actor_class=ActorClass.VEHICLE,
        radius=r_ego,
        times=times,
        xs=ego_x[:n],
        ys=ego_y[:n],
        headings=ego_h[:n],
        speeds=ego_v[:n],
        accels=ego_a[:n],
    )
    ped_track = ActorTrack(
        actor_id=PED_ID,
        actor_class=ActorClass.PEDESTRIAN,
        radius=r_ped,
        times=times,
        xs=ped_x[:n],
        ys=ped_y[:n],
        headings=np.full(n, ped_heading),
        speeds=ped_v[:n],
        accels=np.zeros(n),
    )
    trace = Trace(
        scenario_id=scenario_id,
        time_step=dt,
        tracks={EGO_ID: ego_track, PED_ID: ped_track},
        metadata=metadata,
    )
    return SimOutcome(
        trace=trace,
        collided=collided,
        min_distance=min_distance,
        completed=completed,
        end_reason=end_reason,
        events=events,
    )


def _simulate_star(args: tuple[ConcreteScenario, SimConfig]) -> SimOutcome:
    return simulate(args[0], args[1])


def simulate_batch(
    logical: LogicalScenario, config: SimConfig, jobs: int = 1
) -> list[SimOutcome]:
    """Simulate every concrete scenario of a logical one, in grid order."""
    scenarios = list(iter_concretize(logical))
    if jobs <= 1 or len(scenarios) < 2:
        return [simulate(c, config) for c in scenarios]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_simulate_star, ((c, config) for c in scenarios), chunksize=16))


# ---------------------------------------------------------------------------
# config files


def sim_config_from_dict(data: Mapping) -> SimConfig:
    if not isinstance(data, Mapping):
        raise SimulationError(f"sim config must be an object, got {data!r}")
    kwargs: dict = {}
    simple = (
        "time_step",
        "max_duration",
        "street_width",
        "comfort_decel",
        "max_decel",
        "trigger_gap_time",
    )
    try:
        for key in simple:
            if key in data:
                kwargs[key] = float(data[key])
        if "ego_route" in data:
            kwargs["ego_route"] = tuple((float(x), float(y)) for x, y in data["ego_route"])
        if "ped_crossing" in data:
            kwargs["ped_crossing"] = tuple((float(x), float(y)) for x, y in data["ped_crossing"])
        if "ego_start_speed" in data:
            raw = data["ego_start_speed"]
            kwargs["ego_start_speed"] = None if raw is None else float(raw)
        unknown = set(data) - set(simple) - {"ego_route", "ped_crossing", "ego_start_speed"}
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"malformed sim config: {exc}") from None
    if unknown:
        raise SimulationError(f"unknown config keys: {sorted(unknown)}")
    return SimConfig(**kwargs)


def load_sim_config(path: str | Path) -> SimConfig:
    try:
        return sim_config_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise SimulationError(f"{path}: invalid JSON ({exc.msg})") from None
    except SimulationError as exc:
        raise SimulationError(f"{path}: {exc}") from None
