"""Result containers shared by all metric levels.

Per-timestep metrics produce a MetricSeries aligned with the trace grid;
per-scenario and per-set metrics produce ScalarResults. Every result
carries an explicit ``defined`` flag instead of NaN so that undefined
samples survive serialization and aggregation unambiguously.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import MetricError
from .geometry import polygon_area
from .trace import FloatTexts


@dataclass(frozen=True)
class MetricResult:
    """One metric sample.

    ``value`` is only meaningful when ``defined`` is True; undefined samples
    keep value 0.0 so that no NaN ever leaks into arithmetic or files.
    """

    time: float
    value: float
    unit: str
    defined: bool = True

    def __post_init__(self) -> None:
        if self.defined and not np.isfinite(self.value):
            raise MetricError("defined metric result must be finite")


@dataclass(frozen=True)
class MetricSeries:
    """Time-aligned metric samples for one actor or actor pair. Metric kernels
    pass raw values with the mask; this class alone sets undefined ones to 0.0."""

    metric_name: str
    actor_ids: tuple[str, ...]
    unit: str
    times: np.ndarray
    values: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        defined = np.asarray(self.defined, dtype=bool)
        if times.ndim != 1 or times.shape != values.shape or times.shape != defined.shape:
            raise MetricError("series arrays must be 1-D and equally long")
        if times.size == 0:
            raise MetricError("series must contain at least one sample")
        if not np.all(np.diff(times) > 0):
            raise MetricError("series times must be strictly increasing")
        if not np.all(np.isfinite(times)):
            raise MetricError("series times must be finite")
        if np.any(defined & ~np.isfinite(values)):
            raise MetricError("defined samples must be finite")
        values = values.copy()
        values[~defined] = 0.0
        for arr in (times, values, defined):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)
        object.__setattr__(self, "actor_ids", tuple(self.actor_ids))

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def defined_fraction(self) -> float:
        return float(np.count_nonzero(self.defined)) / len(self)


@dataclass(frozen=True)
class ScalarResult:
    """One metric value per scenario or scenario set."""

    metric_name: str
    value: float
    unit: str
    defined: bool = True
    context: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.defined and not np.isfinite(self.value):
            raise MetricError("defined scalar result must be finite")
        object.__setattr__(self, "context", dict(self.context))


def undefined_scalar(metric_name: str, unit: str, reason: str, **context: str) -> ScalarResult:
    ctx = {"reason": reason}
    ctx.update(context)
    return ScalarResult(metric_name=metric_name, value=0.0, unit=unit, defined=False, context=ctx)


@dataclass(frozen=True)
class ConflictPoint:
    """Crossing of two actor paths, addressed by arc length on each."""

    position: tuple[float, float]
    ego_arc_length: float
    other_arc_length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        if self.ego_arc_length < 0 or self.other_arc_length < 0:
            raise MetricError("conflict arc lengths must be non-negative")


@dataclass(frozen=True)
class EncroachmentZone:
    """Convex polygon where two actor paths overlap, inflated by actor size."""

    polygon: np.ndarray
    derived_from: tuple[str, str]

    def __post_init__(self) -> None:
        poly = np.asarray(self.polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
            raise MetricError("zone polygon needs at least 3 (x, y) vertices")
        if not np.all(np.isfinite(poly)):
            raise MetricError("zone polygon must be finite")
        if polygon_area(poly) <= 0.0:
            raise MetricError("zone polygon must have positive area")
        poly = poly.copy()
        poly.flags.writeable = False
        object.__setattr__(self, "polygon", poly)
        object.__setattr__(self, "derived_from", tuple(self.derived_from))


@dataclass(frozen=True)
class OccupancyInterval:
    """Maximal interval during which an actor's footprint touches a zone."""

    actor_id: str
    entry_time: float
    exit_time: float

    def __post_init__(self) -> None:
        if not self.exit_time > self.entry_time:
            raise MetricError("occupancy interval must have positive width")

    @property
    def duration(self) -> float:
        return self.exit_time - self.entry_time


# ---------------------------------------------------------------------------
# serialization


def safe_name(name: str) -> str:
    """The file-name stem of a scenario or criterion id: '#' and '/' become '_'."""
    return name.replace("#", "_").replace("/", "_")


def write_series(series: MetricSeries, path: str | Path, parameters: Mapping | None = None) -> None:
    """Write a metric series as CSV plus its JSON sidecar ``<path>.meta.json``.

    Undefined samples get an empty value field; NaN and inf are never
    written. The sidecar is ``write_series_meta``'s.
    """
    write_series_batch([(series, path)], FloatTexts())
    write_series_meta(series, f"{path}.meta.json", parameters)


def write_series_meta(series: MetricSeries, path: str | Path,
                      parameters: Mapping | None = None) -> None:
    """Write a series' JSON sidecar: metric name, unit, actor ids and optional free-form
    parameters."""
    sidecar = {"metric_name": series.metric_name, "unit": series.unit,
               "actor_ids": list(series.actor_ids), "parameters": dict(parameters or {})}
    Path(path).write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def write_series_batch(files: Sequence[tuple[MetricSeries, str | Path]],
                       float_texts: FloatTexts) -> None:
    """Write each (series, path) of one trace as ``write_series`` writes its CSV, without a
    sidecar. The series share one call of ``float_texts``, which holds one call's texts at a
    time; pass one across the traces to keep the last trace's texts for the next. A series
    listed twice is formatted once. ``files`` must not be empty."""
    distinct = list({id(series): series for series, _ in files}.values())  # all alive
    columns = [c for s in distinct for c in (s.times, s.values[s.defined])]
    texts, inverse = float_texts(np.concatenate(columns))
    pieces = np.split(inverse, np.cumsum([len(c) for c in columns]))
    for s, times_at, values_at in zip(distinct, pieces[0::2], pieces[1::2]):
        rows = np.full((len(s), 4), "", dtype=object)  # time, ",", value, flag and "\n"
        rows[:, 0], rows[:, 1], rows[s.defined, 2] = texts[times_at], ",", texts[values_at]
        rows[:, 3] = np.array([",false\n", ",true\n"], dtype=object)[s.defined.view(np.uint8)]
        text = "time_s,value,defined\n" + "".join(rows.ravel().tolist())
        for path in (path for series, path in files if series is s):
            Path(path).write_text(text, encoding="utf-8")
