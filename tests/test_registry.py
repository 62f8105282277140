from dataclasses import replace

import numpy as np
import pytest

from scenq import MetricError, Trace, micro, registry
from scenq.registry import MetricSpec

EXPECTED = {
    "euclidean_distance": ("nanoscopic", "low", "m"),
    "headway": ("nanoscopic", "low", "m"),
    "ttc": ("nanoscopic", "low", "s"),
    "wttc": ("nanoscopic", "low", "s"),
    "gap_time": ("nanoscopic", "low", "s"),
    "braking_time": ("nanoscopic", "high", "s"),
    "braking_distance": ("nanoscopic", "high", "m"),
    "traffic_density": ("nanoscopic", "high", "1/m^2"),
    "pet": ("microscopic", "low", "s"),
    "et": ("microscopic", "high", "s"),
    "dtw": ("macroscopic", "high", "m"),
    "collision_probability": ("macroscopic", "high", "1"),
}


def test_every_builtin_metric_registered():
    names = {s.name for s in registry.all_specs()}
    assert names == set(EXPECTED)
    for name, (level, worse, unit) in EXPECTED.items():
        spec = registry.get(name)
        assert spec.level == level, name
        assert spec.worse == worse, name
        assert spec.unit == unit, name
        assert spec.description


def test_levels_partition():
    by_level = {}
    for spec in registry.all_specs():
        by_level.setdefault(spec.level, []).append(spec.name)
    assert len(by_level["nanoscopic"]) == 8
    assert len(by_level["microscopic"]) == 2
    assert len(by_level["macroscopic"]) == 2


def test_unknown_metric_rejected():
    assert not registry.is_registered("nope")
    with pytest.raises(MetricError):
        registry.get("nope")


def test_register_guards_duplicates():
    spec = MetricSpec(
        name="test_only_metric", unit="m", level="nanoscopic", worse="low",
        description="placeholder", compute=lambda trace, params: None,
    )
    registry.register(spec)
    try:
        assert registry.is_registered("test_only_metric")
        with pytest.raises(MetricError):
            registry.register(spec)
        registry.register(spec, replace=True)
    finally:
        registry._REGISTRY.pop("test_only_metric", None)


def test_spec_validation():
    with pytest.raises(MetricError):
        MetricSpec("x", "m", "mesoscopic", "low", "", lambda: None)
    with pytest.raises(MetricError):
        MetricSpec("x", "m", "nanoscopic", "sideways", "", lambda: None)


#: Every required param of each built-in per-trace metric, with a value that works.
REQUIRED_PARAMS = {
    "euclidean_distance": {"actor_a": "ego", "actor_b": "pedestrian"},
    "headway": {"ego": "ego", "target": "pedestrian"},
    "ttc": {"ego": "ego", "target": "pedestrian"},
    "wttc": {"ego": "ego", "target": "pedestrian"},
    "gap_time": {"ego": "ego", "target": "pedestrian"},
    "braking_time": {"actor": "ego"},
    "braking_distance": {"actor": "ego"},
    "traffic_density": {"actor": "ego"},
    "pet": {"actor_1": "ego", "actor_2": "pedestrian"},
    "et": {"actor": "ego", "other": "pedestrian"},
}


def test_missing_params_reported(reference_outcome):
    trace = reference_outcome.trace
    per_trace = [s.name for s in registry.all_specs() if s.level != registry.MACROSCOPIC]
    assert sorted(REQUIRED_PARAMS) == sorted(per_trace)
    for metric, required in REQUIRED_PARAMS.items():
        registry.get(metric).compute(trace, required)  # all of them are enough
        for key in required:
            params = {k: v for k, v in required.items() if k != key}
            with pytest.raises(MetricError) as exc:
                registry.get(metric).compute(trace, params)
            assert str(exc.value) == f"metric {metric!r} needs parameter {key!r}"


def test_gap_time_conflict_fallbacks(reference_outcome):
    trace = reference_outcome.trace
    spec = registry.get("gap_time")
    params = {"ego": "ego", "target": "pedestrian"}
    from_metadata = spec.compute(trace, params)
    assert from_metadata.defined.any()
    # stripping the metadata forces the traveled-path fallback
    from scenq import Trace

    bare = Trace(trace.scenario_id, trace.time_step, dict(trace.tracks), {})
    from_paths = spec.compute(bare, params)
    assert from_paths.defined.any()
    # both routes agree while the pedestrian is under way; the traveled
    # path cuts the route corner by a fraction of a step, hence the slack
    both = from_metadata.defined & from_paths.defined
    assert both.any()
    assert np.allclose(
        from_metadata.values[both], from_paths.values[both], atol=0.05
    )


def test_gap_time_is_symmetric_in_actor_order(reference_outcome):
    # the recorded planned crossing is oriented to the actors asked for,
    # so swapping them changes nothing, with or without that metadata
    from scenq import Trace

    trace = reference_outcome.trace
    bare = Trace(trace.scenario_id, trace.time_step, dict(trace.tracks), {})
    spec = registry.get("gap_time")
    for t in (trace, bare):
        forward = spec.compute(t, {"ego": "ego", "target": "pedestrian"})
        backward = spec.compute(t, {"ego": "pedestrian", "target": "ego"})
        assert forward.defined.any()
        assert np.array_equal(forward.defined, backward.defined)
        assert np.array_equal(forward.values, backward.values)


def test_gap_time_without_any_crossing_is_all_undefined():
    from scenq import ActorClass, ActorTrack, Trace

    n, dt = 5, 0.1
    times = np.arange(n) * dt

    def straight(actor_id, y):
        return ActorTrack(actor_id, ActorClass.VEHICLE, 1.0, times,
                          xs=np.arange(n, dtype=float), ys=np.full(n, y),
                          headings=np.zeros(n), speeds=np.ones(n),
                          accels=np.zeros(n))

    trace = Trace("p", dt, {"a": straight("a", 0.0), "b": straight("b", 9.0)})
    series = registry.get("gap_time").compute(trace, {"ego": "a", "target": "b"})
    assert not series.defined.any()


def test_pet_wrapper_surfaces_zone_failure(reference_outcome):
    trace = reference_outcome.trace
    result = registry.get("pet").compute(
        trace, {"actor_1": "ego", "actor_2": "ego"}
    )
    assert not result.defined
    assert "reason" in result.context


def test_pet_and_et_share_one_zone_per_trace_pair_and_inflation(reference_outcome, monkeypatch):
    builds = []
    build = micro.build_encroachment_zone
    monkeypatch.setattr(micro, "build_encroachment_zone",
                        lambda *args: builds.append(args[1:]) or build(*args))
    trace = replace(reference_outcome.trace)  # a trace of its own, with nothing kept yet
    pair = {"actor_1": "ego", "actor_2": "pedestrian"}
    pet = registry.get("pet").compute(trace, pair)
    et = registry.get("et").compute(trace, {"actor": "ego", "other": "pedestrian"})
    assert builds == [("ego", "pedestrian", 0.0)]
    zone = build(trace, "ego", "pedestrian")
    assert pet == micro.pet(trace, "ego", "pedestrian", zone) and pet.defined
    assert et == micro.et(trace, "ego", zone) and et.defined
    # another inflation or actor order is another zone; each is built once
    for _ in range(2):
        registry.get("pet").compute(trace, {**pair, "inflation": 0.5})
        registry.get("et").compute(trace, {"actor": "pedestrian", "other": "ego"})
        registry.get("pet").compute(trace, {"actor_1": "ego", "actor_2": "ego"})
    assert builds[1:] == [("ego", "pedestrian", 0.5), ("pedestrian", "ego", 0.0),
                          ("ego", "ego", 0.0)]
    # a failed build is kept too, and its reason given each time
    failed = registry.get("pet").compute(trace, {"actor_1": "ego", "actor_2": "ego"})
    assert not failed.defined
    assert failed.context["reason"] == "paths are parallel at the crossing"
    assert len(builds) == 4
    # the zones live with the trace: an equal trace builds its own
    registry.get("et").compute(replace(trace), {"actor": "ego", "other": "pedestrian"})
    assert len(builds) == 5


def test_dtw_rejects_nan_threshold(reference_outcome):
    ref = reference_outcome.trace
    traces = [ref, Trace("rerun", ref.time_step, dict(ref.tracks))]
    with pytest.raises(MetricError, match="threshold must be >= 0, got nan"):
        registry.get("dtw").compute(traces, {"threshold": float("nan")})
    results = registry.get("dtw").compute(traces, {"threshold": float("inf")})
    assert {r.value for _, r in results} == {0.0}
