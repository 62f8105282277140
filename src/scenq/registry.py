"""Metric registry: one place that knows every metric's name, unit,
resolution level, worse direction, and how to compute it.

Compute signatures by level:
  nanoscopic   f(trace, params) -> MetricSeries
  microscopic  f(trace, params) -> ScalarResult
  macroscopic  f(traces, params) -> list[(result_id, ScalarResult)]

params is a flat mapping of actor references and metric options taken from
a quality criterion. register() accepts additional metrics at runtime;
compute() keeps each per-trace result with its trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import ModuleType
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


def compute(spec: MetricSpec, trace: Trace, params: Mapping) -> MetricSeries | ScalarResult:
    """A per-timestep or per-scenario metric's result on one trace. It is computed
    once per spec and params and kept with the trace, so every criterion and gating
    condition on them shares it; a spec registered in its place computes afresh."""
    key = (spec, json.dumps(params, sort_keys=True, default=repr))
    if key not in trace.derived:
        trace.derived[key] = spec.compute(trace, params)
    return trace.derived[key]


def _req(params: Mapping, key: str, metric: str) -> str:
    if key not in params:
        raise MetricError(f"metric {metric!r} needs parameter {key!r}")
    return params[key]


def _adapter(module: ModuleType, name: str, keys: tuple[str, ...], **options: Callable) -> Callable:
    """The compute of the metric ``name``: ``module.<name>(trace, *actors, **options)``.

    The actors are the params under ``keys``, each one required. Each option is
    made by ``option(trace, actors, params)``; one that makes a ScalarResult
    (the metric is undefined without it) is the result. The kernel is looked up
    on every call, so a rebound module attribute is the one called.
    """
    def compute(trace: Trace, params: Mapping):
        actors = [_req(params, key, name) for key in keys]
        kwargs = {key: option(trace, actors, params) for key, option in options.items()}
        undefined = [v for v in kwargs.values() if isinstance(v, ScalarResult)]
        return undefined[0] if undefined else getattr(module, name)(trace, *actors, **kwargs)
    return compute


def _param(key: str, default=None, kind: Callable = lambda value: value) -> Callable:
    """An option read from the params, ``default`` when absent, passed through ``kind``."""
    return lambda trace, actors, params: kind(params.get(key, default))


def _zone(metric: str, other: str | None = None) -> Callable:
    """The zone option of pet and et: the encroachment zone of the first actor and
    the second (the param ``other`` when given), or the undefined result that says
    why the pair has none. Built once per trace, ordered pair and inflation, and
    kept with the trace, so pet and et share it."""
    def option(trace: Trace, actors: list, params: Mapping) -> EncroachmentZone | ScalarResult:
        second = _req(params, other, metric) if other else actors[1]
        key = ("encroachment_zone", actors[0], second, float(params.get("inflation", 0.0)))
        if key not in trace.derived:
            try:
                trace.derived[key] = micro.build_encroachment_zone(trace, *key[1:])
            except MetricError as exc:
                trace.derived[key] = str(exc)
        zone = trace.derived[key]
        return undefined_scalar(metric, "s", zone) if isinstance(zone, str) else zone
    return option


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
               "center distance between two actors",
               _adapter(nano, "euclidean_distance", ("actor_a", "actor_b"))),
    MetricSpec("headway", "m", NANOSCOPIC, WORSE_LOW,
               "bumper gap along the ego heading", _adapter(nano, "headway", ("ego", "target"))),
    MetricSpec("ttc", "s", NANOSCOPIC, WORSE_LOW,
               "time to collision at constant velocities",
               _adapter(nano, "ttc", ("ego", "target"))),
    MetricSpec("wttc", "s", NANOSCOPIC, WORSE_LOW,
               "worst-case time to collision under bounded acceleration",
               _adapter(nano, "wttc", ("ego", "target"), a_max_ego=_param("a_max_ego"),
                        a_max_target=_param("a_max_target"))),
    MetricSpec("gap_time", "s", NANOSCOPIC, WORSE_LOW,
               "predicted arrival gap at the path crossing",
               _adapter(nano, "gap_time", ("ego", "target"),
                        conflict=lambda trace, actors, _: nano.conflict_point(trace, *actors))),
    MetricSpec("braking_time", "s", NANOSCOPIC, WORSE_HIGH,
               "time to standstill at current deceleration",
               _adapter(nano, "braking_time", ("actor",))),
    MetricSpec("braking_distance", "m", NANOSCOPIC, WORSE_HIGH,
               "distance to standstill at current deceleration",
               _adapter(nano, "braking_distance", ("actor",))),
    MetricSpec("traffic_density", "1/m^2", NANOSCOPIC, WORSE_HIGH,
               "actors per area around one actor",
               _adapter(nano, "traffic_density", ("actor",),
                        radius=_param("radius", 50.0, float))),
    MetricSpec("pet", "s", MICROSCOPIC, WORSE_LOW,
               "time between one actor leaving and the other entering the shared zone",
               _adapter(micro, "pet", ("actor_1", "actor_2"), zone=_zone("pet"))),
    MetricSpec("et", "s", MICROSCOPIC, WORSE_HIGH,
               "duration of the first occupancy of the shared zone",
               _adapter(micro, "et", ("actor",), zone=_zone("et", "other"))),
    MetricSpec("dtw", "m", MACROSCOPIC, WORSE_HIGH,
               "warped trajectory distance to a reference run", _dtw),
    MetricSpec("collision_probability", "1", MACROSCOPIC, WORSE_HIGH,
               "fraction of runs with touching actor discs", _collision_probability),
):
    register(_spec)
