"""Metric registry: one place that knows every metric's name, unit,
resolution level, worse direction, and how to compute it.

Compute signatures by level:
  nanoscopic   f(trace, params) -> MetricSeries
  microscopic  f(trace, params) -> ScalarResult
  macroscopic  f(traces, params) -> list[(result_id, ScalarResult)]

params is a flat mapping of actor references and metric options taken from
a quality criterion. register() accepts additional metrics at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import macro, micro, nano
from .errors import MetricError
from .results import EncroachmentZone, MetricSeries, ScalarResult, undefined_scalar
from .trace import Trace

NANOSCOPIC = "nanoscopic"
MICROSCOPIC = "microscopic"
MACROSCOPIC = "macroscopic"
LEVELS = (NANOSCOPIC, MICROSCOPIC, MACROSCOPIC)

WORSE_LOW = "low"  # smaller values are worse (gaps, margins, times to events)
WORSE_HIGH = "high"  # larger values are worse (exposure, effort, drift)


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    level: str
    worse: str
    description: str
    compute: Callable

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise MetricError(f"unknown level {self.level!r}")
        if self.worse not in (WORSE_LOW, WORSE_HIGH):
            raise MetricError(f"unknown worse direction {self.worse!r}")


_REGISTRY: dict[str, MetricSpec] = {}


def register(spec: MetricSpec, replace: bool = False) -> None:
    if spec.name in _REGISTRY and not replace:
        raise MetricError(f"metric {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def get(name: str) -> MetricSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MetricError(f"unknown metric {name!r}") from None


def all_specs() -> list[MetricSpec]:
    return sorted(_REGISTRY.values(), key=lambda s: (s.level, s.name))


def _req(params: Mapping, key: str, metric: str) -> str:
    if key not in params:
        raise MetricError(f"metric {metric!r} needs parameter {key!r}")
    return params[key]


# --- nanoscopic wrappers ---------------------------------------------------


def _euclidean(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.euclidean_distance(
        trace, _req(params, "actor_a", "euclidean_distance"),
        _req(params, "actor_b", "euclidean_distance"),
    )


def _headway(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.headway(trace, _req(params, "ego", "headway"), _req(params, "target", "headway"))


def _ttc(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.ttc(trace, _req(params, "ego", "ttc"), _req(params, "target", "ttc"))


def _wttc(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.wttc(
        trace,
        _req(params, "ego", "wttc"),
        _req(params, "target", "wttc"),
        a_max_ego=params.get("a_max_ego"),
        a_max_target=params.get("a_max_target"),
    )


def _gap_time(trace: Trace, params: Mapping) -> MetricSeries:
    ego = _req(params, "ego", "gap_time")
    target = _req(params, "target", "gap_time")
    return nano.gap_time(trace, ego, target, nano.conflict_point(trace, ego, target))


def _braking_time(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.braking_time(trace, _req(params, "actor", "braking_time"))


def _braking_distance(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.braking_distance(trace, _req(params, "actor", "braking_distance"))


def _traffic_density(trace: Trace, params: Mapping) -> MetricSeries:
    return nano.traffic_density(
        trace, _req(params, "actor", "traffic_density"), float(params.get("radius", 50.0))
    )


# --- microscopic wrappers --------------------------------------------------


def _zone(trace: Trace, actor_a: str, actor_b: str, params: Mapping) -> EncroachmentZone | str:
    """The pair's encroachment zone, or why it has none. Built once per trace,
    ordered pair and inflation, and kept with the trace, so pet and et share it."""
    key = ("encroachment_zone", actor_a, actor_b, float(params.get("inflation", 0.0)))
    if key not in trace.derived:
        try:
            trace.derived[key] = micro.build_encroachment_zone(trace, *key[1:])
        except MetricError as exc:
            trace.derived[key] = str(exc)
    return trace.derived[key]


def _pet(trace: Trace, params: Mapping) -> ScalarResult:
    a = _req(params, "actor_1", "pet")
    b = _req(params, "actor_2", "pet")
    zone = _zone(trace, a, b, params)
    if isinstance(zone, str):
        return undefined_scalar("pet", "s", zone)
    return micro.pet(trace, a, b, zone)


def _et(trace: Trace, params: Mapping) -> ScalarResult:
    actor = _req(params, "actor", "et")
    zone = _zone(trace, actor, _req(params, "other", "et"), params)
    if isinstance(zone, str):
        return undefined_scalar("et", "s", zone)
    return micro.et(trace, actor, zone)


# --- macroscopic wrappers --------------------------------------------------


def _dtw(traces: Sequence[Trace], params: Mapping) -> list[tuple[str, ScalarResult]]:
    if len(traces) < 2:
        raise MetricError("dtw needs a reference trace plus at least one run")
    reference = traces[0]
    report = macro.repeatability_report(
        reference,
        list(traces[1:]),
        actor_ids=params.get("actor_ids"),
        threshold=float(params.get("threshold", 10.0)),
    )
    return [
        (
            f"{e.run_id}/{e.actor_id}",
            ScalarResult(
                metric_name="dtw",
                value=e.dtw_distance,
                unit="m",
                defined=True,
                context={"actor": e.actor_id, "per_step": repr(e.per_step)},
            ),
        )
        for e in report.entries
    ]


def _collision_probability(
    traces: Sequence[Trace], params: Mapping
) -> list[tuple[str, ScalarResult]]:
    value = macro.collision_probability(list(traces))
    return [
        (
            "scenario_set",
            ScalarResult(
                metric_name="collision_probability",
                value=value,
                unit="1",
                defined=True,
                context={"runs": str(len(traces))},
            ),
        )
    ]


for _spec in (
    MetricSpec("euclidean_distance", "m", NANOSCOPIC, WORSE_LOW,
               "center distance between two actors", _euclidean),
    MetricSpec("headway", "m", NANOSCOPIC, WORSE_LOW,
               "bumper gap along the ego heading", _headway),
    MetricSpec("ttc", "s", NANOSCOPIC, WORSE_LOW,
               "time to collision at constant velocities", _ttc),
    MetricSpec("wttc", "s", NANOSCOPIC, WORSE_LOW,
               "worst-case time to collision under bounded acceleration", _wttc),
    MetricSpec("gap_time", "s", NANOSCOPIC, WORSE_LOW,
               "predicted arrival gap at the path crossing", _gap_time),
    MetricSpec("braking_time", "s", NANOSCOPIC, WORSE_HIGH,
               "time to standstill at current deceleration", _braking_time),
    MetricSpec("braking_distance", "m", NANOSCOPIC, WORSE_HIGH,
               "distance to standstill at current deceleration", _braking_distance),
    MetricSpec("traffic_density", "1/m^2", NANOSCOPIC, WORSE_HIGH,
               "actors per area around one actor", _traffic_density),
    MetricSpec("pet", "s", MICROSCOPIC, WORSE_LOW,
               "time between one actor leaving and the other entering the shared zone", _pet),
    MetricSpec("et", "s", MICROSCOPIC, WORSE_HIGH,
               "duration of the first occupancy of the shared zone", _et),
    MetricSpec("dtw", "m", MACROSCOPIC, WORSE_HIGH,
               "warped trajectory distance to a reference run", _dtw),
    MetricSpec("collision_probability", "1", MACROSCOPIC, WORSE_HIGH,
               "fraction of runs with touching actor discs", _collision_probability),
):
    register(_spec)
