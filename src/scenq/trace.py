"""Multi-actor trajectory traces: data model, file formats, validation.

A trace holds one track per actor, each track a time-ordered series of
kinematic states sampled from a drive or a simulation run. Two on-disk
layouts are supported, a long-format CSV and JSON lines, both carrying one
actor state per row with the columns

    time_s, actor_id, actor_class, x_m, y_m, heading_rad, speed_mps, accel_mps2

The acceleration column may be omitted, in which case it is derived by
central differences of speed and the trace metadata records that. A trace
file may be accompanied by a ``<name>.meta.json`` sidecar holding the
scenario id, the nominal time step and free-form metadata.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import MetricError, TraceError, TraceParseError
from .geometry import cumulative_arc, normalize_angles

CSV_COLUMNS = (
    "time_s",
    "actor_id",
    "actor_class",
    "x_m",
    "y_m",
    "heading_rad",
    "speed_mps",
    "accel_mps2",
)

#: Tolerated deviation from the nominal time step before a sampling warning.
SAMPLING_TOLERANCE = 0.1
#: Factor on the nominal time step from which a hole counts as a gap.
GAP_FACTOR = 2.0


class TraceFormat(str, Enum):
    """Supported trace serialization formats."""

    CSV = "csv"
    JSONL = "jsonl"


class ActorClass(str, Enum):
    """Actor category, fixing the default bounding-circle radius."""

    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    OTHER = "other"


DEFAULT_RADII = {
    ActorClass.VEHICLE: 1.0,
    ActorClass.PEDESTRIAN: 0.3,
    ActorClass.OTHER: 0.5,
}


@dataclass(frozen=True)
class ActorTrack:
    """Time-ordered state samples of a single actor.

    The per-field arrays all share one length of at least two samples and
    are immutable after construction. Times must be strictly increasing.

    Attributes:
        actor_id: Unique actor name within the trace.
        actor_class: Actor category.
        radius: Bounding-circle radius in meters.
        times: Sample times, strictly increasing, seconds.
        xs: East coordinates, meters.
        ys: North coordinates, meters.
        headings: Orientations, radians in (-pi, pi].
        speeds: Scalar speeds, meters per second, all non-negative.
        accels: Signed longitudinal accelerations, m/s^2.
    """

    actor_id: str
    actor_class: ActorClass
    radius: float
    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray

    def __post_init__(self) -> None:
        if not self.actor_id:
            raise TraceError("actor_id must be non-empty")
        if not isinstance(self.actor_class, ActorClass):
            object.__setattr__(self, "actor_class", ActorClass(self.actor_class))
        if not (self.radius > 0.0):
            raise TraceError(f"actor {self.actor_id!r}: radius must be positive")
        for name in ("times", "xs", "ys", "headings", "speeds", "accels"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = len(self.times)
        if n < 2:
            raise TraceError(f"actor {self.actor_id!r}: needs at least 2 states")
        for name in ("xs", "ys", "headings", "speeds", "accels"):
            if len(getattr(self, name)) != n:
                raise TraceError(f"actor {self.actor_id!r}: column {name} length mismatch")
            if not np.all(np.isfinite(getattr(self, name))):
                raise TraceError(f"actor {self.actor_id!r}: non-finite value in {name}")
        if not np.all(np.isfinite(self.times)):
            raise TraceError(f"actor {self.actor_id!r}: non-finite time")
        if np.any(np.diff(self.times) <= 0.0):
            raise TraceError(f"actor {self.actor_id!r}: times must be strictly increasing")
        if np.any(self.speeds < 0.0):
            raise TraceError(f"actor {self.actor_id!r}: negative speed")

    @property
    def first_time(self) -> float:
        return float(self.times[0])

    @property
    def last_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    @cached_property
    def points(self) -> np.ndarray:
        """Traveled path vertices as an (N, 2) array."""
        pts = np.column_stack([self.xs, self.ys])
        pts.setflags(write=False)
        return pts

    @cached_property
    def arc_lengths(self) -> np.ndarray:
        """Cumulative traveled distance per sample."""
        arcs = cumulative_arc(self.points)
        arcs.setflags(write=False)
        return arcs


@dataclass(frozen=True)
class Trace:
    """A set of actor tracks recorded against one shared clock.

    Attributes:
        scenario_id: Identifier of the scenario the trace belongs to.
        time_step: Nominal sampling interval in seconds.
        tracks: Actor tracks keyed by actor id.
        metadata: Free-form string-to-string annotations.
    """

    scenario_id: str
    time_step: float
    tracks: Mapping[str, ActorTrack]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenario_id:
            raise TraceError("scenario_id must be non-empty")
        if not (self.time_step > 0.0):
            raise TraceError("time_step must be positive")
        if not self.tracks:
            raise TraceError("trace has no tracks")
        for actor_id, track in self.tracks.items():
            if actor_id != track.actor_id:
                raise TraceError(f"track key {actor_id!r} != actor_id {track.actor_id!r}")
        object.__setattr__(self, "tracks", dict(self.tracks))
        object.__setattr__(self, "metadata", dict(self.metadata))
        start, end = self.overlap()
        if not (end - start > 0.0):
            raise TraceError("tracks share no overlap interval of positive length")

    def overlap(self) -> tuple[float, float]:
        """Common time interval covered by every track."""
        start = max(t.first_time for t in self.tracks.values())
        end = min(t.last_time for t in self.tracks.values())
        return start, end

    def actor_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.tracks))

    def track(self, actor_id: str) -> ActorTrack:
        try:
            return self.tracks[actor_id]
        except KeyError:
            raise TraceError(f"unknown actor {actor_id!r}") from None


@dataclass(frozen=True)
class ValidationIssue:
    """One finding from trace validation.

    ``severity`` is ``"error"`` or ``"warning"``; ``code`` is a stable,
    machine-matchable category name.
    """

    severity: str
    code: str
    message: str
    time: float | None = None
    actor_id: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Validation outcome. Warnings flag suspicious but usable data, so a
    trace is ok as long as no issue has error severity."""

    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")


# ---------------------------------------------------------------------------
# interpolation


def common_grid(trace: Trace, actor_ids: tuple[str, ...]) -> np.ndarray:
    """Sample times shared by the given actors, on the trace grid.

    When all involved tracks carry identical time arrays those times are
    reused verbatim, so metric samples line up exactly with recorded rows.
    """
    tracks = [trace.track(a) for a in actor_ids]
    first = tracks[0].times
    if all(np.array_equal(first, tr.times) for tr in tracks[1:]):
        return first
    t0 = max(tr.first_time for tr in tracks)
    t1 = min(tr.last_time for tr in tracks)
    if t1 < t0:
        raise MetricError(f"actors {actor_ids} share no time overlap")
    count = int(math.floor((t1 - t0) / trace.time_step + 1e-9)) + 1
    return t0 + np.arange(count) * trace.time_step


def sample_track(track: ActorTrack, times: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized linear interpolation of a track onto a time grid.

    Headings are unwrapped before interpolation so each step follows the
    shortest arc, then normalized back into (-pi, pi].
    """
    times = np.asarray(times, dtype=float)
    if len(times) and (times[0] < track.times[0] - 1e-12 or times[-1] > track.times[-1] + 1e-12):
        raise TraceError(f"sample grid outside the span of {track.actor_id!r}")
    unwrapped = np.unwrap(track.headings)
    return {
        "x": np.interp(times, track.times, track.xs),
        "y": np.interp(times, track.times, track.ys),
        "heading": normalize_angles(np.interp(times, track.times, unwrapped)),
        "speed": np.interp(times, track.times, track.speeds),
        "accel": np.interp(times, track.times, track.accels),
        "arc": np.interp(times, track.times, track.arc_lengths),
    }


def resample(trace: Trace, dt: float) -> Trace:
    """Resample every track onto a shared uniform grid over the overlap.

    The grid starts at the overlap start and steps by ``dt``; the last grid
    point is the largest one not beyond the overlap end (the end itself is
    included when it falls on the grid). Grid points that coincide with
    original samples reproduce them exactly up to float rounding.

    Args:
        trace: Input trace.
        dt: New sampling interval in seconds.

    Returns:
        A new trace with ``time_step == dt`` and all tracks aligned.

    Raises:
        TraceError: If ``dt`` is not positive or exceeds the overlap length.
    """
    if not (dt > 0.0):
        raise TraceError("dt must be positive")
    start, end = trace.overlap()
    span = end - start
    if dt > span:
        raise TraceError(f"dt {dt} exceeds overlap length {span}")
    count = int(math.floor(span / dt + 1e-9)) + 1
    times = start + np.arange(count) * dt
    tracks = {}
    for actor_id, track in trace.tracks.items():
        cols = sample_track(track, times)
        tracks[actor_id] = ActorTrack(
            actor_id=actor_id,
            actor_class=track.actor_class,
            radius=track.radius,
            times=times.copy(),
            xs=cols["x"],
            ys=cols["y"],
            headings=cols["heading"],
            speeds=np.maximum(cols["speed"], 0.0),
            accels=cols["accel"],
        )
    return Trace(
        scenario_id=trace.scenario_id,
        time_step=dt,
        tracks=tracks,
        metadata=dict(trace.metadata),
    )


# ---------------------------------------------------------------------------
# validation


def first_contact_time(trace: Trace) -> float | None:
    """Earliest time any two actor circles touch or overlap, None when none do."""
    ids = trace.actor_ids()
    earliest: float | None = None
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            starts = _first_contact_times(trace, ids[i], ids[j])
            if starts and (earliest is None or starts[0] < earliest):
                earliest = starts[0]
    return earliest


def _first_contact_times(trace: Trace, a_id: str, b_id: str) -> list[float]:
    """Start times of contiguous episodes where two circles touch or overlap,
    sampled on the pair's common grid."""
    a, b = trace.track(a_id), trace.track(b_id)
    times = common_grid(trace, (a_id, b_id))
    sa = sample_track(a, times)
    sb = sample_track(b, times)
    dist = np.hypot(sa["x"] - sb["x"], sa["y"] - sb["y"])
    touching = np.concatenate([[False], dist <= (a.radius + b.radius)])
    return times[np.flatnonzero(touching[1:] & ~touching[:-1])].tolist()


def validate_trace(trace: Trace) -> ValidationReport:
    """Check sampling uniformity, actor availability and actor contact.

    Issues raised:
        * ``sampling`` (warning): a step deviates from the nominal time step
          by more than 10 percent but is not a hole.
        * ``actor_availability`` (error): missing samples, a step of at
          least twice the nominal time step between first and last time.
        * ``collision`` (warning, informational): the bounding circles of
          two actors touch or overlap; one issue per contiguous contact episode.

    Returns:
        A report whose issue list is empty exactly when the trace passes.
    """
    issues: list[ValidationIssue] = []
    nominal = trace.time_step
    for actor_id in trace.actor_ids():
        track = trace.tracks[actor_id]
        steps = np.diff(track.times)
        for i, step in enumerate(steps):
            if step >= GAP_FACTOR * nominal - 1e-9:
                issues.append(
                    ValidationIssue(
                        severity="error",
                        code="actor_availability",
                        message=(
                            f"actor {actor_id!r}: {step:.6g} s hole after t={track.times[i]:.6g} s "
                            f"(nominal step {nominal:.6g} s)"
                        ),
                        time=float(track.times[i]),
                        actor_id=actor_id,
                    )
                )
            elif abs(step - nominal) > SAMPLING_TOLERANCE * nominal:
                issues.append(
                    ValidationIssue(
                        severity="warning",
                        code="sampling",
                        message=(
                            f"actor {actor_id!r}: step {step:.6g} s at t={track.times[i]:.6g} s "
                            f"deviates from nominal {nominal:.6g} s by more than 10%"
                        ),
                        time=float(track.times[i]),
                        actor_id=actor_id,
                    )
                )
    ids = trace.actor_ids()
    for i, a_id in enumerate(ids):
        for b_id in ids[i + 1 :]:
            for t in _first_contact_times(trace, a_id, b_id):
                issues.append(
                    ValidationIssue(
                        severity="warning",
                        code="collision",
                        message=f"actors {a_id!r} and {b_id!r} overlap at t={t:.6g} s",
                        time=t,
                        actor_id=a_id,
                    )
                )
    return ValidationReport(issues=tuple(issues))


# ---------------------------------------------------------------------------
# parsing and serialization


def _central_diff(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Central differences with one-sided stencils at the ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    out[0] = (values[1] - values[0]) / (times[1] - times[0])
    out[-1] = (values[-1] - values[-2]) / (times[-1] - times[-2])
    return out


def _rows_to_trace(
    rows: Iterable[tuple[int, dict]],
    *,
    scenario_id: str,
    time_step: float | None,
    metadata: Mapping[str, str] | None,
    has_accel_column: bool,
) -> Trace:
    per_actor: dict[str, dict[str, list[float]]] = {}
    classes: dict[str, str] = {}
    lines: dict[str, int] = {}
    order: list[str] = []
    for line_no, row in rows:
        actor_id = str(row["actor_id"])
        if actor_id not in per_actor:
            per_actor[actor_id] = {k: [] for k in ("t", "x", "y", "h", "v", "a")}
            classes[actor_id] = str(row["actor_class"])
            order.append(actor_id)
        elif classes[actor_id] != str(row["actor_class"]):
            raise TraceParseError(
                f"line {line_no}: actor {actor_id!r} changes class",
                line=line_no,
                actor_id=actor_id,
            )
        cols = per_actor[actor_id]
        try:
            t = float(row["time_s"])
            x = float(row["x_m"])
            y = float(row["y_m"])
            h = float(row["heading_rad"])
            v = float(row["speed_mps"])
            a = float(row["accel_mps2"]) if has_accel_column else math.nan
        except (TypeError, ValueError) as exc:
            raise TraceParseError(
                f"line {line_no}: non-numeric value ({exc})", line=line_no, actor_id=actor_id
            ) from None
        if cols["t"]:
            previous = cols["t"][-1]
            if t == previous:
                raise TraceParseError(
                    f"line {line_no}: duplicate timestamp {t} for actor {actor_id!r}",
                    line=line_no,
                    actor_id=actor_id,
                )
            if t < previous:
                raise TraceParseError(
                    f"line {line_no}: non-monotonic time for actor {actor_id!r} "
                    f"({t} after {previous})",
                    line=line_no,
                    actor_id=actor_id,
                )
        cols["t"].append(t)
        cols["x"].append(x)
        cols["y"].append(y)
        cols["h"].append(h)
        cols["v"].append(v)
        cols["a"].append(a)
        lines[actor_id] = line_no
    if not per_actor:
        raise TraceParseError("no data rows")
    meta = dict(metadata or {})
    derived: list[str] = []
    tracks: dict[str, ActorTrack] = {}
    for actor_id in order:
        cols = per_actor[actor_id]
        if len(cols["t"]) < 2:
            raise TraceParseError(
                f"actor {actor_id!r} has fewer than 2 states", actor_id=actor_id
            )
        try:
            actor_class = ActorClass(classes[actor_id])
        except ValueError:
            raise TraceParseError(
                f"actor {actor_id!r}: unknown actor_class {classes[actor_id]!r}",
                actor_id=actor_id,
            ) from None
        times = np.array(cols["t"])
        speeds = np.array(cols["v"])
        if has_accel_column:
            accels = np.array(cols["a"])
        else:
            accels = _central_diff(times, speeds)
            derived.append(actor_id)
        try:
            tracks[actor_id] = ActorTrack(
                actor_id=actor_id,
                actor_class=actor_class,
                radius=DEFAULT_RADII[actor_class],
                times=times,
                xs=np.array(cols["x"]),
                ys=np.array(cols["y"]),
                headings=normalize_angles(np.array(cols["h"])),
                speeds=speeds,
                accels=accels,
            )
        except TraceError as exc:
            raise TraceParseError(str(exc), actor_id=actor_id) from None
    if derived:
        meta["accel_derived"] = ",".join(derived)
    if time_step is None:
        diffs = np.concatenate([np.diff(t.times) for t in tracks.values()])
        time_step = float(np.median(diffs))
    return Trace(scenario_id=scenario_id, time_step=time_step, tracks=tracks, metadata=meta)


def _as_text(source: str | bytes | IO) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def load_trace(
    source: str | bytes | IO,
    fmt: TraceFormat | str = TraceFormat.CSV,
    *,
    scenario_id: str = "trace",
    time_step: float | None = None,
    metadata: Mapping[str, str] | None = None,
) -> Trace:
    """Parse a trace from CSV or JSONL content.

    Args:
        source: Text, bytes or a file object holding the serialized trace.
        fmt: Serialization format of ``source``.
        scenario_id: Scenario id to stamp onto the trace.
        time_step: Nominal sampling interval; inferred as the median step
            when omitted.
        metadata: Extra annotations merged into the trace metadata.

    Returns:
        The parsed trace, tracks time-sorted per actor.

    Raises:
        TraceParseError: On malformed rows, duplicate or non-monotonic
            timestamps, unknown actor classes or fewer than 2 states.
    """
    fmt = TraceFormat(fmt)
    text = _as_text(source)
    if fmt is TraceFormat.CSV:
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames is None:
            raise TraceParseError("empty CSV input")
        names = [n.strip() for n in reader.fieldnames]
        reader.fieldnames = names
        required = [c for c in CSV_COLUMNS if c != "accel_mps2"]
        missing = [c for c in required if c not in names]
        if missing:
            raise TraceParseError(f"missing CSV columns: {', '.join(missing)}")
        has_accel = "accel_mps2" in names
        rows = ((i, row) for i, row in enumerate(reader, start=2))
        return _rows_to_trace(
            rows,
            scenario_id=scenario_id,
            time_step=time_step,
            metadata=metadata,
            has_accel_column=has_accel,
        )
    records: list[tuple[int, dict]] = []
    has_accel = True
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"line {i}: invalid JSON ({exc.msg})", line=i) from None
        if not isinstance(record, dict):
            raise TraceParseError(f"line {i}: row is not an object", line=i)
        missing = [c for c in CSV_COLUMNS if c != "accel_mps2" and c not in record]
        if missing:
            raise TraceParseError(
                f"line {i}: missing keys: {', '.join(missing)}", line=i
            )
        if "accel_mps2" not in record:
            has_accel = False
        records.append((i, record))
    if not has_accel:
        for _, record in records:
            record.pop("accel_mps2", None)
    return _rows_to_trace(
        records,
        scenario_id=scenario_id,
        time_step=time_step,
        metadata=metadata,
        has_accel_column=has_accel,
    )


def _iter_rows(trace: Trace):
    """Rows in time-major order with actor id as tie breaker."""
    heads = []
    for actor_id in trace.actor_ids():
        track = trace.tracks[actor_id]
        for i in range(len(track)):
            heads.append((float(track.times[i]), actor_id, i, track))
    heads.sort(key=lambda item: (item[0], item[1]))
    for t, actor_id, i, track in heads:
        yield {
            "time_s": t,
            "actor_id": actor_id,
            "actor_class": track.actor_class.value,
            "x_m": float(track.xs[i]),
            "y_m": float(track.ys[i]),
            "heading_rad": float(track.headings[i]),
            "speed_mps": float(track.speeds[i]),
            "accel_mps2": float(track.accels[i]),
        }


def write_trace(trace: Trace, fmt: TraceFormat | str = TraceFormat.CSV) -> str:
    """Serialize a trace to CSV or JSONL text.

    Floats are written with ``repr`` so a load/serialize/load round trip
    reproduces every field bit for bit.
    """
    fmt = TraceFormat(fmt)
    if fmt is TraceFormat.CSV:
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in _iter_rows(trace):
            out.write(
                f"{row['time_s']!r},{row['actor_id']},{row['actor_class']},"
                f"{row['x_m']!r},{row['y_m']!r},{row['heading_rad']!r},"
                f"{row['speed_mps']!r},{row['accel_mps2']!r}\n"
            )
        return out.getvalue()
    lines = [json.dumps(row, ensure_ascii=False) for row in _iter_rows(trace)]
    return "\n".join(lines) + "\n"


def save_trace(trace: Trace, path: str | Path, fmt: TraceFormat | str | None = None) -> Path:
    """Write a trace file plus its ``.meta.json`` sidecar.

    The format is taken from the file suffix when not given explicitly.
    Returns the path written.
    """
    path = Path(path)
    if fmt is None:
        fmt = TraceFormat.JSONL if path.suffix == ".jsonl" else TraceFormat.CSV
    fmt = TraceFormat(fmt)
    path.write_text(write_trace(trace, fmt), encoding="utf-8")
    sidecar = {
        "scenario_id": trace.scenario_id,
        "time_step": trace.time_step,
        "metadata": dict(trace.metadata),
    }
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_trace_file(path: str | Path) -> Trace:
    """Load a trace file, honoring a ``.meta.json`` sidecar when present.

    A TraceParseError names the trace or sidecar file it comes from.
    """
    path = Path(path)
    fmt = TraceFormat.JSONL if path.suffix == ".jsonl" else TraceFormat.CSV
    scenario_id = path.stem
    time_step = None
    metadata: dict[str, str] = {}
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        try:
            info = json.loads(sidecar.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"{sidecar}: invalid JSON ({exc.msg})") from None
        if not isinstance(info, dict) or not isinstance(info.get("metadata", {}), dict):
            raise TraceParseError(f"{sidecar}: expected an object with an object 'metadata'")
        scenario_id = info.get("scenario_id", scenario_id)
        time_step = info.get("time_step")
        metadata = {str(k): str(v) for k, v in info.get("metadata", {}).items()}
    try:
        return load_trace(
            path.read_text(encoding="utf-8"),
            fmt,
            scenario_id=scenario_id,
            time_step=time_step,
            metadata=metadata,
        )
    except TraceParseError as exc:
        raise TraceParseError(f"{path}: {exc}", line=exc.line, actor_id=exc.actor_id) from None
