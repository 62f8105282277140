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

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import MetricError, TraceError, TraceParseError
from .geometry import cumulative_arc, normalize_angles

#: Numeric columns in the order the codec holds them; accel_mps2 may be absent.
_NUMERIC_COLUMNS = ("time_s", "x_m", "y_m", "heading_rad", "speed_mps", "accel_mps2")
CSV_COLUMNS = ("time_s", "actor_id", "actor_class", *_NUMERIC_COLUMNS[1:])

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
        if self.actor_id.splitlines() != [self.actor_id]:
            raise TraceError(f"actor_id {self.actor_id!r} must not contain a line break")
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

    @cached_property
    def sampled_headings(self) -> np.ndarray:
        """Headings as ``sample_track`` gives them on the track's own times."""
        headings = normalize_angles(np.unwrap(self.headings))
        headings.setflags(write=False)
        return headings


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
    #: Values derived from the tracks, kept with the trace: metric results and encroachment zones.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    """Sample times shared by the given actors: every time any of them recorded
    within the span all of them cover. When all involved tracks carry identical
    time arrays that array itself is returned, so samples line up with recorded rows.
    """
    tracks = [trace.track(a) for a in actor_ids]
    first = tracks[0].times
    if all(np.array_equal(first, tr.times) for tr in tracks[1:]):
        return first
    t0 = max(tr.first_time for tr in tracks)
    t1 = min(tr.last_time for tr in tracks)
    if t1 < t0:
        raise MetricError(f"actors {actor_ids} share no time overlap")
    times = np.unique(np.concatenate([tr.times for tr in tracks]))
    return times[(times >= t0) & (times <= t1)]


def sample_track(track: ActorTrack, times: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized linear interpolation of a track onto a time grid.

    Headings are unwrapped before interpolation so each step follows the
    shortest arc, then normalized back into (-pi, pi]. On the track's own times
    its read-only columns are returned: ``np.interp`` gives ``fp[j]`` at ``xp[j]``.
    """
    times = np.asarray(times, dtype=float)
    if np.array_equal(times, track.times):
        return {"x": track.xs, "y": track.ys, "heading": track.sampled_headings,
                "speed": track.speeds, "accel": track.accels, "arc": track.arc_lengths}
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


def sample_pair(trace: Trace, a: str, b: str) -> tuple[np.ndarray, dict, dict]:
    """The common grid of two actors and the samples of each on it."""
    times = common_grid(trace, (a, b))
    return times, sample_track(trace.track(a), times), sample_track(trace.track(b), times)


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
    times, sa, sb = sample_pair(trace, a_id, b_id)
    dist = np.hypot(sa["x"] - sb["x"], sa["y"] - sb["y"])
    r_sum = trace.track(a_id).radius + trace.track(b_id).radius
    touching = np.concatenate([[False], dist <= r_sum])
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


#: The CSV dialect: comma-separated, '"' quotes a field ('""' is a literal quote), no comments.
_CSV_DIALECT = {"delimiter": ",", "quotechar": '"', "comments": None}
#: Rows formatted per block when writing.
_WRITE_BLOCK = 1024
#: What a reader returns: line numbers, actor ids, actor classes and numeric columns per row.
_Rows = tuple[Sequence[int], list[str], np.ndarray, np.ndarray]


def _split_csv_line(line: str) -> list[str]:
    """Unquoted fields of one non-blank CSV line."""
    return np.loadtxt([line], dtype=object, ndmin=1, **_CSV_DIALECT).tolist()


def _group_rows(
    line_nos: Sequence[int], ids: list[str], classes: np.ndarray, times: np.ndarray
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Group rows by actor in order of first appearance: the actor ids, the
    stable permutation that groups the rows, and the row count per actor.

    Raises for the earliest offending row: a class other than the actor's
    first, or a time not after its previous one (on one row, the class)."""
    rank: dict[str, int] = {}
    codes = np.array([rank.setdefault(actor_id, len(rank)) for actor_id in ids])
    _, first = np.unique(codes, return_index=True)
    class_rows = np.flatnonzero(classes != classes[first[codes]])
    order = np.argsort(codes, kind="stable")
    grouped, t = codes[order], times[order]
    # steps[j] marks the pair of rows order[j], order[j + 1] of one actor
    steps = np.flatnonzero((grouped[1:] == grouped[:-1]) & (t[1:] <= t[:-1]))
    step = steps[np.argmin(order[steps + 1])] if steps.size else None
    if class_rows.size and (step is None or class_rows[0] <= order[step + 1]):
        k, problem = class_rows[0], f"actor {ids[class_rows[0]]!r} changes class"
    elif step is not None:
        k = order[step + 1]
        now, previous = float(times[k]), float(times[order[step]])
        if now == previous:
            problem = f"duplicate timestamp {now} for actor {ids[k]!r}"
        else:
            problem = f"non-monotonic time for actor {ids[k]!r} ({now} after {previous})"
    else:
        return list(rank), order, np.bincount(codes)
    raise TraceParseError(f"line {line_nos[k]}: {problem}", line=line_nos[k], actor_id=ids[k])


def _record_columns(line_nos: Sequence[int], records: list[dict], keys: tuple[str, ...]) -> _Rows:
    """Columns of rows held as dicts (a missing field reads None), numbers
    converted row by row with ``float``. At the first value ``float``
    rejects, the rows up to it are checked first: a class change on or
    before that row, or a bad time before it, is the error reported."""
    ids = [str(r.get("actor_id")) for r in records]
    classes = np.array([str(r.get("actor_class")) for r in records], dtype=object)
    values: list[list[float]] = []
    for k, record in enumerate(records):
        try:
            values.append([float(record.get(key)) for key in keys])
        except (TypeError, ValueError) as exc:
            times = np.array([v[0] for v in values] + [math.nan])
            _group_rows(line_nos[: k + 1], ids[: k + 1], classes[: k + 1], times)
            raise TraceParseError(
                f"line {line_nos[k]}: non-numeric value ({exc})", line=line_nos[k], actor_id=ids[k]
            ) from None
    return line_nos, ids, classes, np.array(values)


def _read_csv(text: str) -> _Rows:
    """Line numbers, actor ids, actor classes and numeric columns of CSV rows."""
    lines = text.splitlines()
    if not lines:
        raise TraceParseError("empty CSV input")
    names = [name.strip() for name in _split_csv_line(lines[0])] if lines[0].strip() else []
    index = {name: i for i, name in enumerate(names)}
    missing = [c for c in CSV_COLUMNS if c != "accel_mps2" and c not in index]
    if missing:
        raise TraceParseError(f"missing CSV columns: {', '.join(missing)}")
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise TraceParseError("no data rows")
    # a range, no int object per row, unless blank lines were skipped
    line_nos = range(2, len(lines) + 1) if len(rows) == len(lines) - 1 else [
        i for i, line in enumerate(lines, start=1) if i > 1 and line.strip()]
    keys = tuple(c for c in _NUMERIC_COLUMNS if c in index)
    try:
        values = np.loadtxt(rows, usecols=[index[c] for c in keys], ndmin=2, **_CSV_DIALECT)
        # loadtxt reads no field past its usecols: reading the last column rejects a short
        # row, and with none short, the comma count rules out a long one (and a quoted comma)
        last = [len(names) - 1] if len(names) > len(keys) + 2 else []  # not read otherwise
        labels = np.loadtxt(rows, dtype=object, ndmin=2, **_CSV_DIALECT,
                            usecols=(index["actor_id"], index["actor_class"], *last))
        commas = text.count(",") - lines[0].count(",")
        if len(values) == len(labels) == len(rows) and commas == (len(names) - 1) * len(rows):
            return line_nos, labels[:, 0].tolist(), labels[:, 1], values  # no quote joined lines
    except ValueError:
        pass
    # error path: each line on its own; float() finds the first bad value, and the
    # first row of the wrong width is reported once the rows before it pass
    fields = [_split_csv_line(line) for line in rows]
    k = next((k for k, row in enumerate(fields) if len(row) != len(names)), len(rows))
    parsed = _record_columns(line_nos[:k], [dict(zip(names, row)) for row in fields[:k]], keys)
    if k == len(rows):
        return parsed
    if k:
        _group_rows(*parsed[:3], parsed[3][:, 0])
    raise TraceParseError(
        f"line {line_nos[k]}: {len(fields[k])} fields, header has {len(names)}",
        line=line_nos[k], actor_id=dict(zip(names, fields[k])).get("actor_id"),
    )


def _read_jsonl(text: str) -> _Rows:
    """Line numbers, actor ids, actor classes and numeric columns of JSONL rows. A line
    that is not an object with every required key is reported once the rows before pass."""
    line_nos: list[int] = []
    records: list[dict] = []
    problem = actor = None
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problem = f"invalid JSON ({exc.msg})"
            break
        if not isinstance(record, dict):
            problem = "row is not an object"
            break
        missing = [c for c in CSV_COLUMNS if c != "accel_mps2" and c not in record]
        if missing:
            problem = f"missing keys: {', '.join(missing)}"
            actor = str(record["actor_id"]) if "actor_id" in record else None
            break
        line_nos.append(i)
        records.append(record)
    if not records and problem is None:
        raise TraceParseError("no data rows")
    has_accel = all("accel_mps2" in r for r in records)
    keys = _NUMERIC_COLUMNS if has_accel else _NUMERIC_COLUMNS[:-1]
    rows = _record_columns(line_nos, records, keys)
    if problem is None:
        return rows
    if records:
        _group_rows(*rows[:3], rows[3][:, 0])
    raise TraceParseError(f"line {i}: {problem}", line=i, actor_id=actor)


def _assemble(
    line_nos: Sequence[int], ids: list[str], classes: np.ndarray, values: np.ndarray, *,
    scenario_id: str, time_step: float | None, metadata: Mapping[str, str] | None,
) -> Trace:
    """Build a trace from per-row columns in file order.

    ``values`` has one row per input row: time, x, y, heading, speed and,
    when the input carries it, acceleration.
    """
    actors, order, counts = _group_rows(line_nos, ids, classes, values[:, 0])
    columns = values[order].T.copy()  # one contiguous row per field, grouped by actor
    ends = np.cumsum(counts)
    meta = dict(metadata or {})
    derived: list[str] = []
    tracks: dict[str, ActorTrack] = {}
    for actor_id, start, end in zip(actors, (ends - counts).tolist(), ends.tolist()):
        if end - start < 2:
            raise TraceParseError(f"actor {actor_id!r} has fewer than 2 states", actor_id=actor_id)
        name = classes[order[start]]
        try:
            actor_class = ActorClass(name)
        except ValueError:
            raise TraceParseError(
                f"actor {actor_id!r}: unknown actor_class {name!r}", actor_id=actor_id
            ) from None
        times, xs, ys, headings, speeds = columns[:5, start:end]
        if len(columns) == len(_NUMERIC_COLUMNS):
            accels = columns[5, start:end]
        else:
            accels = _central_diff(times, speeds)
            derived.append(actor_id)
        try:
            tracks[actor_id] = ActorTrack(
                actor_id, actor_class, DEFAULT_RADII[actor_class],
                times, xs, ys, normalize_angles(headings), speeds, accels,
            )
        except TraceError as exc:
            raise TraceParseError(str(exc), actor_id=actor_id) from None
    if derived:
        meta["accel_derived"] = ",".join(derived)
    if time_step is None:
        diffs = np.concatenate([np.diff(t.times) for t in tracks.values()])
        time_step = float(np.median(diffs))
    return Trace(scenario_id=scenario_id, time_step=time_step, tracks=tracks, metadata=meta)


def load_trace(
    source: str | bytes | IO,
    fmt: TraceFormat | str = TraceFormat.CSV,
    *,
    scenario_id: str = "trace",
    time_step: float | None = None,
    metadata: Mapping[str, str] | None = None,
) -> Trace:
    """Parse a trace from CSV or JSONL content.

    Blank lines are skipped; error line numbers count them.

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
    text = source if isinstance(source, (str, bytes)) else source.read()
    text = text.decode("utf-8") if isinstance(text, bytes) else text
    columns = _read_csv(text) if fmt is TraceFormat.CSV else _read_jsonl(text)
    return _assemble(*columns, scenario_id=scenario_id, time_step=time_step, metadata=metadata)


def _csv_field(text: str) -> str:
    """A CSV field, quoted when it holds the delimiter or the quote character."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace(trace: Trace, fmt: TraceFormat | str = TraceFormat.CSV) -> str:
    """Serialize a trace to CSV or JSONL text.

    Rows are in time order, ties broken by actor id. Floats are written
    with ``repr`` so a load/serialize/load round trip reproduces every
    field bit for bit. ``repr`` runs once per distinct bit pattern of the
    trace; the bytes are those a per-value ``repr`` writes.
    """
    return next(write_traces([trace], fmt))


def write_traces(
    traces: Iterable[Trace], fmt: TraceFormat | str = TraceFormat.CSV
) -> Iterator[str]:
    """The text ``write_trace`` gives each trace, one trace at a time. A trace calls
    ``repr`` only for the bit patterns that the trace before it did not hold."""
    fmt = TraceFormat(fmt)
    float_texts = FloatTexts()
    for trace in traces:
        yield _format_trace(trace, fmt, float_texts)  # unbound, so freed once the caller drops it


class FloatTexts:
    """``repr`` of float64 arrays, once per distinct bit pattern of a call and only for
    patterns the previous call did not hold; it keeps no patterns but the last call's."""

    def __init__(self) -> None:
        # bits 0 are 0.0; never empty, so every pattern has a neighbour to compare with
        self.patterns, self.texts = np.zeros(1, dtype=np.uint64), np.array(["0.0"], dtype=object)

    def __call__(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Texts of the bit patterns of (non-empty) ``values``, and each value's text index."""
        # keyed by bits, not by value: float unique merges -0.0 and 0.0, whose reprs differ
        patterns, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        at = np.minimum(np.searchsorted(self.patterns, patterns), len(self.patterns) - 1)
        texts, fresh = self.texts[at], self.patterns[at] != patterns
        texts[fresh] = [repr(v) for v in patterns[fresh].view(np.float64).tolist()]
        self.patterns, self.texts = patterns, texts
        return texts, inverse.reshape(values.shape)  # flat before numpy 2


def _format_trace(trace: Trace, fmt: TraceFormat, float_texts: FloatTexts) -> str:
    """One trace's text, its floats formatted by ``float_texts``."""
    tracks = [trace.tracks[actor_id] for actor_id in trace.actor_ids()]
    rank = np.repeat(np.arange(len(tracks)), [len(track) for track in tracks])
    fields = ("times", "xs", "ys", "headings", "speeds", "accels")
    columns = np.array([np.concatenate([getattr(tr, f) for tr in tracks]) for f in fields])
    order = np.lexsort((rank, columns[0]))
    texts, inverse = float_texts(columns)
    as_csv = fmt is TraceFormat.CSV
    if as_csv:
        heads = [f",{_csv_field(tr.actor_id)},{tr.actor_class.value}," for tr in tracks]
    else:
        labels = ({"actor_id": tr.actor_id, "actor_class": tr.actor_class.value} for tr in tracks)
        heads = [f', {json.dumps(d, ensure_ascii=False)[1:-1]}, "x_m": ' for d in labels]
    chunks = [",".join(CSV_COLUMNS) + "\n"] if as_csv else []
    # a block at a time, so the float lists and row strings alive at once stay small
    for block in np.split(order, range(_WRITE_BLOCK, len(order), _WRITE_BLOCK)):
        times, *values = texts[inverse[:, block]].tolist()
        rows = zip(times, [heads[r] for r in rank[block].tolist()], *values)
        if as_csv:
            text = "".join(f"{t}{head}{x},{y},{h},{v},{a}\n" for t, head, x, y, h, v, a in rows)
        else:
            text = "".join(
                f'{{"time_s": {t}{head}{x}, "y_m": {y}, "heading_rad": {h}, '
                f'"speed_mps": {v}, "accel_mps2": {a}}}\n'
                for t, head, x, y, h, v, a in rows
            )
        chunks.append(text)
    return "".join(chunks)


def save_trace(trace: Trace, path: str | Path, fmt: TraceFormat | str | None = None) -> Path:
    """Write a trace file plus its ``.meta.json`` sidecar.

    The format is taken from the file suffix when not given explicitly.
    Returns the path written.
    """
    path = Path(path)
    if fmt is None:
        fmt = TraceFormat.JSONL if path.suffix == ".jsonl" else TraceFormat.CSV
    save_traces([trace], [path], fmt)
    return path


def save_traces(
    traces: Sequence[Trace], paths: Sequence[str | Path], fmt: TraceFormat | str
) -> None:
    """Write each trace to its path, with its sidecar, as ``save_trace``
    does; the texts come from one ``write_traces`` batch."""
    texts = write_traces(traces, fmt)
    for trace, path in zip(traces, map(Path, paths), strict=True):
        path.write_text(next(texts), encoding="utf-8")
        sidecar = {"scenario_id": trace.scenario_id, "time_step": trace.time_step,
                   "metadata": dict(trace.metadata)}
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


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
        if not isinstance(scenario_id, str) or not scenario_id:
            raise TraceParseError(f"{sidecar}: 'scenario_id' must be a non-empty string")
        # json gives int, float or bool for a number; a bool is not a time step
        if time_step is not None and (type(time_step) not in (int, float)
                                      or not 0.0 < time_step < math.inf):
            raise TraceParseError(f"{sidecar}: 'time_step' must be a positive finite number")
        metadata = {str(k): str(v) for k, v in info.get("metadata", {}).items()}
    try:
        return load_trace(path.read_text(encoding="utf-8"), fmt, scenario_id=scenario_id,
                          time_step=time_step, metadata=metadata)
    except TraceParseError as exc:
        raise TraceParseError(f"{path}: {exc}", line=exc.line, actor_id=exc.actor_id) from None
