"""Multi-actor trajectory traces: data model, CSV file format, validation.

A trace holds one track per actor, each track a time-ordered series of
kinematic states sampled from a drive or a simulation run. On disk a trace
is a long-format CSV file with one actor state per row and the columns

    time_s, actor_id, actor_class, x_m, y_m, heading_rad, speed_mps, accel_mps2

The acceleration column may be omitted, in which case it is derived by
central differences of speed and the trace metadata records that. A trace
file may be accompanied by a ``<name>.meta.json`` sidecar holding the
scenario id, the nominal time step and free-form metadata. ``save_trace``
also writes a ``<name>.csv.npy`` companion holding the numeric columns, which
``load_trace_file`` reads in place of the CSV text while the CSV is the one
the sidecar's ``columns`` key describes.
"""

from __future__ import annotations

import json
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import chain, combinations
from pathlib import Path
from typing import Any, Iterator, Mapping, TextIO

import numpy as np

from .errors import TraceError, TraceParseError, fields, in_file, number
from .geometry import cumulative_arc, normalize_angles

#: Numeric columns in the order the codec holds them; accel_mps2 may be absent.
_NUMERIC_COLUMNS = ("time_s", "x_m", "y_m", "heading_rad", "speed_mps", "accel_mps2")
CSV_COLUMNS = ("time_s", "actor_id", "actor_class", *_NUMERIC_COLUMNS[1:])

#: Tolerated deviation from the nominal time step before a sampling warning.
SAMPLING_TOLERANCE = 0.1
#: Factor on the nominal time step from which a hole counts as a gap.
GAP_FACTOR = 2.0


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


def _contacts(trace: Trace) -> Iterator[tuple[float, str, str]]:
    """Start time and actor ids ``(t, a, b)`` of each contiguous episode in which
    the circles of actors a < b touch or overlap, sampled on the pair's common
    grid; pairs in actor-id order, each pair's episodes in time order."""
    for a, b in combinations(trace.actor_ids(), 2):
        times, sa, sb = sample_pair(trace, a, b)
        touching = np.hypot(sa["x"] - sb["x"], sa["y"] - sb["y"]) <= (
            trace.tracks[a].radius + trace.tracks[b].radius)
        starts = touching & ~np.concatenate([[False], touching[:-1]])
        yield from ((t, a, b) for t in times[starts].tolist())


def first_contact_time(trace: Trace) -> float | None:
    """Earliest time any two actor circles touch or overlap, None when none do."""
    return min((t for t, _, _ in _contacts(trace)), default=None)


def validate_trace(trace: Trace) -> ValidationReport:
    """Check sampling uniformity, actor availability and actor contact.

    Issues raised, per actor in actor-id order and in time order:
        * ``sampling`` (warning): a step deviates from the nominal time step
          by more than 10 percent but is not a hole.
        * ``actor_availability`` (error): missing samples, a step of at
          least twice the nominal time step between first and last time.
        * ``collision`` (warning, informational, after the others): the bounding
          circles of two actors touch or overlap; one issue per contact episode.

    Returns:
        A report whose issue list is empty exactly when the trace passes.
    """
    issues: list[ValidationIssue] = []
    nominal = trace.time_step
    for actor_id in trace.actor_ids():
        times = trace.tracks[actor_id].times
        steps = np.diff(times)
        holes = steps >= GAP_FACTOR * nominal - 1e-9
        jitter = np.abs(steps - nominal) > SAMPLING_TOLERANCE * nominal
        for i in np.flatnonzero(holes | jitter).tolist():
            step, t = float(steps[i]), float(times[i])
            if holes[i]:
                severity, code = "error", "actor_availability"
                detail = f"{step:.6g} s hole after t={t:.6g} s (nominal step {nominal:.6g} s)"
            else:
                severity, code = "warning", "sampling"
                detail = (f"step {step:.6g} s at t={t:.6g} s deviates from nominal "
                          f"{nominal:.6g} s by more than 10%")
            issues.append(ValidationIssue(severity, code, f"actor {actor_id!r}: {detail}", t,
                                          actor_id))
    for t, a, b in _contacts(trace):
        issues.append(ValidationIssue("warning", "collision",
                                      f"actors {a!r} and {b!r} overlap at t={t:.6g} s", t, a))
    return ValidationReport(issues=tuple(issues))


# ---------------------------------------------------------------------------
# parsing and serialization


#: The CSV dialect: comma-separated, '"' quotes a field ('""' is a literal quote), no comments.
_CSV_DIALECT = {"delimiter": ",", "quotechar": '"', "comments": None}
#: Rows formatted per block when writing.
_WRITE_BLOCK = 1024
#: Characters read at a time, then up to the next line end; each block is parsed on its own.
_READ_BLOCK = 1 << 16
#: Bytes read at a time when a trace file's CRC-32 is checked against its sidecar.
_CRC_BLOCK = 1 << 16
#: The ActorTrack fields of _NUMERIC_COLUMNS, in that order.
_TRACK_FIELDS = ("times", "xs", "ys", "headings", "speeds", "accels")


def _split_csv_line(line: str) -> list[str]:
    """Unquoted fields of one non-blank CSV line."""
    return np.loadtxt([line], dtype=object, ndmin=1, **_CSV_DIALECT).tolist()


def _is_number(cell: str) -> bool:
    """Whether loadtxt reads a CSV field holding ``cell`` as a float. The field is always
    quoted: an empty cell unquoted would be a blank line, which loadtxt skips."""
    try:
        np.loadtxt(['"' + cell.replace('"', '""') + '"'], dtype=float, **_CSV_DIALECT)
    except ValueError:
        return False
    return True


def _read_csv(stream: TextIO) -> tuple[list[str], list[str], list[np.ndarray], bool]:
    """Read CSV text from ``stream``, opened with ``newline=""``, a block at a time: the actor
    ids in order of first appearance, each actor's class and _NUMERIC_COLUMNS (rows in file
    order), and whether accel_mps2 is derived, as central differences of speed. Raises for the
    earliest bad row, on one row for the first of: an empty actor id or a class other than the
    actor's first, a time not after the actor's previous one, a row loadtxt rejects (the wrong
    width, or no number), a non-finite value, a negative speed, a non-finite derived
    acceleration."""
    lines = stream.readline().removeprefix("\ufeff").splitlines()
    if not lines:
        raise TraceParseError("empty CSV input")
    names = [name.strip() for name in _split_csv_line(lines[0])] if lines[0].strip() else []
    index = {name: i for i, name in enumerate(names)}
    missing = [c for c in CSV_COLUMNS if c != "accel_mps2" and c not in index]
    if missing:
        raise TraceParseError(f"missing CSV columns: {', '.join(missing)}")
    numeric = [index[c] for c in _NUMERIC_COLUMNS if c in index]
    # one field per header column, named by position, so a repeated name reads its last column
    dtype = np.dtype([(f"f{i}", float if i in numeric else object) for i in range(len(names))])
    parse = partial(np.loadtxt, dtype=dtype, ndmin=1, **_CSV_DIALECT)
    rank: dict[str, int] = {}
    firsts: list[str] = []  # each actor's first class, by actor code
    codes, values = [], []  # actor codes and numeric columns, per block
    # bad rows (row, rank, problem, actor): the earliest is raised, on one row the lowest rank
    found: list[tuple[int, int, str, str | None]] = []

    def read_block(rows: list[str], n: int) -> None:
        """Read a block's rows, ``n`` rows after the first, up to the first that loadtxt rejects,
        which goes to ``found``; one holding a value that is no number is kept, as NaN values."""
        try:
            table = parse(rows)
            if len(table) < len(rows):  # a quote left open joined lines
                raise ValueError
        except ValueError:  # error path: line by line, up to the first that loadtxt rejects
            tables = [np.empty(0, dtype)]
            for line in rows:
                try:
                    tables.append(parse([line]))
                except ValueError:
                    break
            k = len(tables) - 1
            if k < len(rows):
                cells = _split_csv_line(rows[k])
                actor = cells[index["actor_id"]] if index["actor_id"] < len(cells) else None
                if len(cells) != len(names):
                    found.append((n + k, 2, f"{len(cells)} fields, header has {len(names)}", actor))
                else:
                    cell = next(cells[i] for i in numeric if not _is_number(cells[i]))
                    found.append((n + k, 2, f"non-numeric value (could not convert string to "
                                            f"float: {cell!r})", actor))
                    tables.append(np.array([tuple(math.nan if i in numeric else c
                                                  for i, c in enumerate(cells))], dtype))
            table = np.concatenate(tables)
        ids, classes = table[f"f{index['actor_id']}"].tolist(), table[f"f{index['actor_class']}"]
        if "" in ids:
            found.append((n + ids.index(""), 0, "empty actor_id", ""))
        block = np.array([rank.setdefault(actor_id, len(rank)) for actor_id in ids], dtype=int)
        new = np.flatnonzero(block >= len(firsts))
        firsts.extend(classes[new[np.unique(block[new], return_index=True)[1]]].tolist())
        if (changed := np.flatnonzero(classes != np.array(firsts, dtype=object)[block])).size:
            k = int(changed[0])
            found.append((n + k, 0, f"actor {ids[k]!r} changes class", ids[k]))
        codes.append(block)
        values.append(np.array([table[f"f{i}"] for i in numeric]))

    blanks, n = [], 0  # the number of rows before each blank line, to number lines; rows read
    blocks = iter(lambda: (stream.read(_READ_BLOCK) + stream.readline()).splitlines(), [])
    for lines in chain([lines[1:]], blocks):
        rows = [line for line in lines if line.strip()]
        if len(rows) < len(lines):
            blank = [i for i, line in enumerate(lines) if not line.strip()]
            blanks += [n + i - j for j, i in enumerate(blank)]
        if rows:
            read_block(rows, n)
        n += len(rows)
        del lines, rows  # before the next block is read
        if found:  # no row after a bad row can come first
            break
    if not codes:
        raise TraceParseError("no data rows")
    actors, codes, values = list(rank), np.concatenate(codes), np.concatenate(values, axis=1)
    if (nonfinite := np.flatnonzero(~np.isfinite(values).all(axis=0))).size:
        k, j = int(nonfinite[0]), int(np.argmin(np.isfinite(values[:, nonfinite[0]])))
        found.append((k, 3, f"non-finite {_NUMERIC_COLUMNS[j]} ({values[j, k]})", actors[codes[k]]))
    if (negative := np.flatnonzero(values[4] < 0.0)).size:  # speed_mps
        k = int(negative[0])
        found.append((k, 4, f"negative speed_mps ({values[4, k]})", actors[codes[k]]))
    order = np.argsort(codes, kind="stable")
    grouped, columns = codes[order], np.take(values, order, axis=1)
    # steps[j] marks the pair of rows order[j], order[j + 1] of one actor
    steps = np.flatnonzero((grouped[1:] == grouped[:-1]) & (columns[0, 1:] <= columns[0, :-1]))
    if steps.size:
        step = steps[np.argmin(order[steps + 1])]
        k, actor_id = int(order[step + 1]), actors[codes[order[step + 1]]]
        now, previous = float(values[0, k]), float(values[0, order[step]])
        if now == previous:
            problem = f"duplicate timestamp {now} for actor {actor_id!r}"
        else:
            problem = f"non-monotonic time for actor {actor_id!r} ({now} after {previous})"
        found.append((k, 1, problem, actor_id))
    ends = np.cumsum(counts := np.bincount(codes))
    if derived := len(columns) < len(_NUMERIC_COLUMNS):  # one-sided at an actor's first, last row
        at = np.arange(len(order))
        lo, hi = np.maximum(at - 1, (ends - counts)[grouped]), np.minimum(at + 1, ends[grouped] - 1)
        with np.errstate(all="ignore"):  # a bad value is reported on the later row, hi
            accels = (columns[4, hi] - columns[4, lo]) / (columns[0, hi] - columns[0, lo])
        # an actor's one row has no difference: it has fewer than 2 states
        if (bad := np.flatnonzero(~np.isfinite(accels) & (lo < hi))).size:
            j = bad[np.argmin(order[hi[bad]])]
            k = int(order[hi[j]])
            found.append((k, 5, f"non-finite derived accel_mps2 ({accels[j]})", actors[codes[k]]))
        columns = np.vstack([columns, accels])
    if found:
        k, _, problem, actor_id = min(found)
        line = k + 2 + bisect_right(blanks, k)  # the header is line 1
        raise TraceParseError(f"line {line}: {problem}", line=line, actor_id=actor_id)
    return actors, firsts, np.split(columns, ends[:-1], axis=1), derived


def _load(stream: TextIO, scenario_id: str, time_step: float | None,
          metadata: Mapping[str, str]) -> Trace:
    """The trace that ``stream`` holds; a ``time_step`` of None is the median step."""
    try:
        parsed = _read_csv(stream)
    except TraceParseError:
        while stream.read(_READ_BLOCK):  # invalid UTF-8 anywhere in a file comes before a bad row
            pass
        raise
    return _build(scenario_id, time_step, metadata, *parsed)


def _build(scenario_id: str, time_step: float | None, metadata: Mapping[str, str],
           actors: list[str], classes: list[str], columns: list[np.ndarray],
           derived: bool) -> Trace:
    """The trace of per-actor columns as ``_read_csv`` returns them; a ``time_step`` of None is
    the median step."""
    meta = dict(metadata)
    tracks: dict[str, ActorTrack] = {}
    for actor_id, name, series in zip(actors, classes, columns):
        if series.shape[1] < 2:
            raise TraceParseError(f"actor {actor_id!r} has fewer than 2 states", actor_id=actor_id)
        try:
            actor_class = ActorClass(name)
        except ValueError:
            raise TraceParseError(
                f"actor {actor_id!r}: unknown actor_class {name!r}", actor_id=actor_id
            ) from None
        times, xs, ys, headings, speeds, accels = series
        tracks[actor_id] = ActorTrack(actor_id, actor_class, DEFAULT_RADII[actor_class],
                                      times, xs, ys, normalize_angles(headings), speeds, accels)
    if derived:
        meta["accel_derived"] = ",".join(actors)
    if time_step is None:
        diffs = np.concatenate([np.diff(t.times) for t in tracks.values()])
        time_step = float(np.median(diffs))
    return Trace(scenario_id=scenario_id, time_step=time_step, tracks=tracks, metadata=meta)


def _csv_field(text: str) -> str:
    """A CSV field, quoted when it holds the delimiter or the quote character."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace(trace: Trace, fmt: str = "csv") -> str:
    """Serialize a trace to CSV text. ``fmt`` accepts only ``"csv"``; it stays while the
    benchmark passes it.

    Rows are in time order, ties broken by actor id. Floats are written
    with ``repr`` so a load/serialize/load round trip reproduces every
    field bit for bit. ``repr`` runs once per distinct bit pattern of the
    trace; the bytes are those a per-value ``repr`` writes.
    """
    if fmt != "csv":
        raise ValueError(f"unknown trace format {fmt!r}: traces are CSV")
    return "".join(_format_trace(*_columns(trace), FloatTexts()))


class FloatTexts:
    """``repr`` of float64 arrays, once per distinct bit pattern of a call and only for
    patterns the previous call did not hold; it keeps no patterns but the last call's."""

    def __init__(self) -> None:
        # bits 0 are 0.0; never empty, so every pattern has a neighbour to compare with
        self.patterns, self.texts = np.zeros(1, dtype=np.uint64), np.array(["0.0"], dtype=object)

    def __call__(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Texts of the bit patterns of (non-empty) ``values``, and each value's text index."""
        # keyed by bits, not by value: float unique merges -0.0 and 0.0, whose reprs differ
        bits = values.view(np.uint64)
        patterns = np.sort(bits, axis=None)
        patterns = patterns[np.append(True, patterns[1:] != patterns[:-1])]
        at = np.minimum(np.searchsorted(self.patterns, patterns), len(self.patterns) - 1)
        texts, fresh = self.texts[at], self.patterns[at] != patterns
        texts[fresh] = [repr(v) for v in patterns[fresh].view(np.float64).tolist()]
        self.patterns, self.texts = patterns, texts
        return texts, np.searchsorted(patterns, bits)


def _columns(trace: Trace) -> tuple[list[ActorTrack], np.ndarray]:
    """The trace's tracks in actor-id order, and their _NUMERIC_COLUMNS as one float64
    (6, rows) array, track after track."""
    tracks = [trace.tracks[actor_id] for actor_id in trace.actor_ids()]
    return tracks, np.array([np.concatenate([getattr(tr, a) for tr in tracks])
                             for a in _TRACK_FIELDS])


def _format_trace(tracks: list[ActorTrack], columns: np.ndarray,
                  float_texts: FloatTexts) -> Iterator[str]:
    """The CSV text of ``_columns``'s result, the header and then a block of rows at a time,
    its floats formatted by ``float_texts``."""
    rank = np.repeat(np.arange(len(tracks)), [len(track) for track in tracks])
    order = np.lexsort((rank, columns[0]))
    texts, inverse = float_texts(columns)
    heads = [f",{_csv_field(tr.actor_id)},{tr.actor_class.value}," for tr in tracks]
    yield ",".join(CSV_COLUMNS) + "\n"
    # a block at a time, so the float lists and row strings alive at once stay small
    for block in np.split(order, range(_WRITE_BLOCK, len(order), _WRITE_BLOCK)):
        times, *values = texts[inverse[:, block]].tolist()
        rows = zip(times, [heads[r] for r in rank[block].tolist()], *values)
        yield "".join(f"{t}{head}{x},{y},{h},{v},{a}\n" for t, head, x, y, h, v, a in rows)


def _companion(path: Path) -> Path:
    """The ``.npy`` file that holds the numeric columns of the trace file ``path``."""
    return path.with_suffix(path.suffix + ".npy")


def save_trace(trace: Trace, path: str | Path, float_texts: FloatTexts | None = None) -> Path:
    """Write a trace's CSV file, its ``.npy`` companion and its ``.meta.json`` sidecar;
    returns the path of the CSV. The CSV is written a block of rows at a time, never held as
    one text. Traces written with one shared ``float_texts`` call ``repr`` only for the bit
    patterns that the trace written before did not hold.

    The companion holds ``_columns``'s array. The sidecar, written last, describes it under
    ``columns``: the CSV's CRC-32 and size in bytes, and each track's actor id, class and
    rows. A save cut short before the sidecar leaves the old one, whose digest then does not
    match the new CSV.
    """
    path = Path(path)
    tracks, columns = _columns(trace)
    crc, size = 0, 0
    with path.open("wb") as file:
        for text in _format_trace(tracks, columns, float_texts or FloatTexts()):
            block = text.encode("utf-8")
            crc, size = zlib.crc32(block, crc), size + len(block)
            file.write(block)
    np.save(_companion(path), columns, allow_pickle=False)
    sidecar = {"scenario_id": trace.scenario_id, "time_step": trace.time_step,
               "metadata": dict(trace.metadata),
               "columns": {"crc32": crc, "bytes": size, "tracks": [
                   [tr.actor_id, tr.actor_class.value, len(tr)] for tr in tracks]}}
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0  # not a bool


def _load_saved(path: Path, columns: Any, scenario_id: str, time_step: float | None,
                metadata: Mapping[str, str]) -> Trace | None:
    """The trace that ``path``'s companion holds, when ``columns``, the sidecar's key,
    describes it and ``path`` is the CSV it was saved with: as many bytes, the same CRC-32.
    It equals the trace that parsing ``path`` gives, with its tracks in order of first
    appearance in the file. None when anything differs, or the companion's arrays do not
    make a trace: then the CSV is parsed."""
    tracks = columns.get("tracks") if isinstance(columns, dict) else None
    if not (isinstance(tracks, list) and tracks and columns.keys() == {"crc32", "bytes", "tracks"}
            and _is_count(columns["crc32"]) and _is_count(columns["bytes"])
            and all(isinstance(t, list) and len(t) == 3 and isinstance(t[0], str)
                    and isinstance(t[1], str) and _is_count(t[2]) and t[2] > 0 for t in tracks)
            and len({t[0] for t in tracks}) == len(tracks)):
        return None
    ids, classes, rows = zip(*tracks)
    try:
        if path.stat().st_size != columns["bytes"]:
            return None
        crc = 0
        with path.open("rb") as file:
            for block in iter(partial(file.read, _CRC_BLOCK), b""):
                crc = zlib.crc32(block, crc)
        if crc != columns["crc32"]:
            return None
        array = np.load(_companion(path), allow_pickle=False)
    except (OSError, ValueError, EOFError):  # missing, truncated, or holding objects
        return None
    if not (isinstance(array, np.ndarray) and array.dtype == np.dtype("<f8")
            and array.shape == (len(_NUMERIC_COLUMNS), sum(rows))):
        return None
    series = np.split(array, np.cumsum(rows)[:-1], axis=1)
    # the CSV's rows are in time order, ties in actor-id order
    order = sorted(range(len(ids)), key=lambda i: (series[i][0, 0], ids[i]))
    try:
        return _build(scenario_id, time_step, metadata, [ids[i] for i in order],
                      [classes[i] for i in order], [series[i] for i in order], False)
    except TraceError:
        return None


def load_trace_file(path: str | Path) -> Trace:
    """Load a trace file, honoring a ``.meta.json`` sidecar when present; without one the
    scenario id is the file's stem and the time step the median step. Blank lines are skipped
    and one leading byte order mark is dropped. A TraceError names the trace or sidecar file
    it comes from; a TraceParseError for a bad row (see ``_read_csv``) gives its line, blank
    lines counted, and its actor; one for an unknown actor class or too few states its actor.
    A trace written by ``save_trace`` is read from its companion while the CSV is unchanged
    (see ``_load_saved``), with the same result.
    """
    path = Path(path)
    scenario_id = path.stem
    time_step = None
    metadata: dict[str, str] = {}
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        with in_file(sidecar, TraceParseError):
            info = json.loads(sidecar.read_text(encoding="utf-8"))
            if not isinstance(info, dict) or not isinstance(info.get("metadata", {}), dict):
                raise TraceParseError("expected an object with an object 'metadata'")
            fields(info, {"scenario_id", "time_step", "metadata", "columns"}, "sidecar",
                   TraceParseError)
            scenario_id = info.get("scenario_id", scenario_id)
            time_step = info.get("time_step")
            if not isinstance(scenario_id, str) or not scenario_id:
                raise TraceParseError("'scenario_id' must be a non-empty string")
            try:  # number() turns away a bool, a string and an int too large for a double
                if time_step is not None and not (time_step := number(time_step, "")) > 0:
                    raise ValueError
            except ValueError:
                raise TraceParseError("'time_step' must be a positive finite number") from None
        metadata = {str(k): str(v) for k, v in info.get("metadata", {}).items()}
        saved = "columns" in info and _load_saved(path, info["columns"], scenario_id, time_step,
                                                  metadata)
        if saved:
            return saved
    with in_file(path, TraceError), path.open(encoding="utf-8", newline="") as file:
        try:
            return _load(file, scenario_id, time_step, metadata)
        except UnicodeDecodeError as exc:  # the bytes it decoded end where the buffer stands
            exc.start += file.buffer.tell() - len(exc.object)
            raise
