"""Scenario-set metrics: trajectory repeatability, collision frequency,
grid coverage, and sweep discontinuity detection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MetricError, ScenarioError
from .scenarios import ConcreteScenario, LogicalScenario, grid_size
from .results import ScalarResult
from .trace import ActorTrack, Trace


_SLAB_DIAGONALS, _SLAB_CELLS = 48, 12288  # per dtw slab: diagonals, cells of its blocks
_DTW_RUNS = 4  # runs whose pairs one dtw kernel call fills side by side


def dtw(track_a: ActorTrack, track_b: ActorTrack) -> float:
    """Dynamic time warping distance between two position tracks.

    Classic unconstrained formulation: monotone warp paths from the first
    to the last sample pair, per-step cost the Euclidean distance between
    the warped (x, y) positions, total cost minimized. Exact: no window,
    no cap on the value. Symmetric in its arguments.

    Pruned after Silva & Batista (SDM 2016): UB is the cost of the cheaper
    of two valid paths, the index-proportional staircase and the path that
    pairs samples by distance travelled, each summed in path order as the
    recurrence sums it, so the distance is at most UB in floating point
    too. Early abandoning, by contrast, stops once a bound is exceeded and
    returns something other than the distance; here nothing is capped or
    replaced. Memory is O(n + m).
    """
    return _dtw_pairs(track_a.points, [track_b.points])[0]


def _dtw_pairs(a: np.ndarray, bs: Sequence[np.ndarray]) -> list[float]:
    """The dtw distance of the (n, 2) points a to each of bs, all pairs in lock-step.

    Row j and column i of a pair's matrix are b[j] and a[i]. Each pair's UB
    is ``_warp_bound``'s, with the arc lengths of a computed once. The
    anti-diagonals k = i + j are filled in slabs of up to 48, each over one
    fixed row window [L, H] per pair: L is the first row of the pair's last
    two diagonals whose value is at most its UB, and H the last such row
    plus the slab's height, at most m - 1. The window holds every row that
    can be live on each diagonal of the slab: a cell whose true value is at
    most UB has a predecessor no dearer, so the lowest live row never falls
    below the smaller of the two previous diagonals' lowest, and the
    highest grows by at most one per diagonal. Every other cell reads +inf
    (row L - 1, or a column off the matrix, where a is padded with +inf on
    both sides; the tracks are finite, so never NaN) or a value at or above
    its true value. So each cell whose true value is at most UB gets the
    same operands in the same order as in the full matrix: the result is
    bit-identical to the full recurrence's, whatever the slab heights (and
    to the transposed one's, as min and hypot ignore their operands' order
    and signs), while the work follows the band of cells that a path no
    dearer than UB can reach, not n * m.

    Per slab, one (height + 2, sum(W + 1)) block holds every pair's window
    side by side in W + 1 columns: the last two diagonals in its first two
    rows, below them the slab's distances, which each diagonal turns into
    values in place, and row L - 1 (+inf) in its first column. A cell reads
    only its own column and the one to its left, so that column parts the
    pairs, and it stays +inf. The distances come from one view of the
    padded, reversed a for all pairs (column k - j of row j is then a
    forward index); a diagonal of all pairs costs three ufunc calls on
    joined rows. The height is common, so a pair ends at the end of a slab;
    it shrinks as the bands widen, keeping height x sum(W) within 12,288
    cells.
    """
    n, tallest = len(a), max(len(b) for b in bs)
    ax, ay = a[:, 0], a[:, 1]
    # windows of the reversed a, as long as the longest row window; +inf off the matrix
    front, back = np.full(_SLAB_DIAGONALS + 1, np.inf), np.full(tallest, np.inf)
    rx, ry = (sliding_window_view(np.concatenate((front, x[::-1], back)), tallest)
              for x in (ax, ay))
    result, pairs = [0.0] * len(bs), []
    arc_a = _arc_length(a)
    for p, b in enumerate(bs):
        m, ub = len(b), _warp_bound(a, b, arc_a)
        # diagonals k0 - 1 and k0 over rows lo - 1 .. hi; column 0 (row lo - 1) is +inf
        tail = np.array([[np.inf, np.inf], [np.inf, np.hypot(ax[0] - b[0, 0], ay[0] - b[0, 1])]])
        pairs.append([p, m, ub, b[:, 0], b[:, 1], tail, 0])
    k0 = 0
    while pairs:
        rows = []  # per pair, its first and last row at most UB on the last two diagonals
        for _, _, ub, _, _, tail, lo in pairs:
            live = np.flatnonzero(np.minimum(tail[0], tail[1]) <= ub)
            rows.append((lo - 1 + int(live[0]), lo - 1 + int(live[-1])))
        height = min(_SLAB_DIAGONALS, n + min(pair[1] for pair in pairs) - 2 - k0,
                     max(1, _SLAB_CELLS // sum(last - first + 1 + _SLAB_DIAGONALS
                                               for first, last in rows)))
        widths = [min(last + height, pair[1] - 1) - first + 1
                  for pair, (first, last) in zip(pairs, rows)]
        vals = np.full((height + 2, sum(widths) + len(widths)), np.inf)
        col = 0
        for pair, (first, last), width in zip(pairs, rows, widths):
            _, _, _, bx, by, tail, lo = pair
            # row first of diagonal k0 + 1 + t reads the reversed a at stop - 1 - t
            stop = _SLAB_DIAGONALS + n - k0 + first
            block = vals[2:, col + 1:col + 1 + width]
            np.subtract(bx[first:first + width], rx[stop - height:stop, :width][::-1], out=block)
            np.hypot(block, by[first:first + width] - ry[stop - height:stop, :width][::-1],
                     out=block)
            vals[:2, col + 1:col + last - first + 2] = tail[:, first - lo + 1:last - lo + 2]
            pair[-2:] = vals[-2:, col:col + width + 1], first
            col += width + 1
        up, left = vals[:, :-1], vals[:, 1:]
        best = np.empty(vals.shape[1] - 1)
        for up1, left1, up2, out in zip(up[1:], left[1:], up, left[2:]):
            np.minimum(up1, left1, out=best)
            np.minimum(best, up2, out=best)
            np.add(out, best, out=out)
        k0 += height
        for p, m, _, _, _, tail, lo in pairs:
            if n + m - 2 == k0:
                result[p] = float(tail[1, m - lo])
        pairs = [pair for pair in pairs if n + pair[1] - 2 > k0]
    return result


def _warp_bound(a: np.ndarray, b: np.ndarray, arc_a: np.ndarray) -> float:
    """UB of the points a and b, whose arc lengths are arc_a: the cost of the cheaper
    of two warp paths, the index-proportional staircase and the arc-length path."""
    staircase = (np.linspace(0, count - 1, max(len(a), len(b))).round().astype(np.intp)
                 for count in (len(a), len(b)))
    return min(_path_cost(a, b, *path) for path in (staircase, _arc_path(arc_a, _arc_length(b))))


def _arc_length(points: np.ndarray) -> np.ndarray:
    """The distance travelled along the (n, 2) points up to each of them, from 0."""
    return np.concatenate(([0.0], np.cumsum(np.hypot(*np.diff(points, axis=0).T))))


def _arc_path(arc_a: np.ndarray, arc_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A warp path (i, j) of two tracks from their arc lengths: (0, 0) to (n - 1, m - 1).

    Each sample of the longer track is paired with the sample of the shorter
    one nearest in distance travelled (the lower on a tie), and the first and
    last pairs are pinned to the ends. Both arcs are sorted, so the pairing
    is monotone. A jump of the shorter track's index between neighboring pairs
    is filled with unit steps, one per sample skipped, the longer track's index
    moving on at the rounded midpoint; so every step is (1, 0), (0, 1) or (1, 1).
    """
    long, short = (arc_a, arc_b) if len(arc_a) >= len(arc_b) else (arc_b, arc_a)
    above = np.searchsorted(short, long).clip(1, len(short) - 1)
    near = above - (long - short[above - 1] <= short[above] - long)
    near[0], near[-1] = 0, len(short) - 1
    count = np.maximum(np.diff(near), 1)  # unit steps to the next pair: the Chebyshev distance
    seg = np.repeat(np.arange(len(long) - 1), count)
    step = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    along = np.append(np.rint(seg + step / count[seg]).astype(np.intp), len(long) - 1)
    across = np.append(near[seg] + step, near[-1])
    return (along, across) if long is arc_a else (across, along)


def _path_cost(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> float:
    """The cost of the warp path (i, j) of the points a and b, summed in path order as
    the recurrence sums it, so no distance along that path is dearer in floating point."""
    return float(np.cumsum(np.hypot(a[i, 0] - b[j, 0], a[i, 1] - b[j, 1]))[-1])


@dataclass(frozen=True)
class RepeatabilityEntry:
    run_id: str
    actor_id: str
    dtw_distance: float
    per_step: float
    within_threshold: bool


@dataclass(frozen=True)
class RepeatabilityReport:
    reference_id: str
    threshold: float
    entries: tuple[RepeatabilityEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def all_within(self) -> bool:
        return all(e.within_threshold for e in self.entries)

    def drifting(self) -> list[RepeatabilityEntry]:
        return [e for e in self.entries if not e.within_threshold]


def repeatability_report(
    reference: Trace,
    runs: Iterable[Trace],
    actor_ids: Sequence[str] | None = None,
    threshold: float = 10.0,
) -> RepeatabilityReport:
    """Compare repeated runs, any iterable of traces, against a reference trace, per actor.

    Each entry carries the dtw distance, that distance divided by the
    reference track's sample count, and whether it stays at or below the
    threshold; entries come run by run, in the runs' order. The reference
    itself is skipped if present among the runs; an actor listed twice is
    an error, not a second set of entries. The runs are read one at a time,
    and each actor's pairs of up to 4 runs are filled in one kernel call.
    """
    if not threshold >= 0:  # also rejects NaN
        raise MetricError(f"threshold must be >= 0, got {threshold!r}")
    ids = tuple(actor_ids) if actor_ids is not None else tuple(reference.actor_ids())
    for pos, actor in enumerate(ids):
        if actor in ids[:pos]:
            raise MetricError(f"actor {actor!r} is listed twice")
        if actor not in reference.tracks:
            raise MetricError(f"actor {actor!r} missing from the reference trace")

    def compared(run: Trace) -> tuple[str, list[np.ndarray]]:
        for actor in ids:
            if actor not in run.tracks:
                raise MetricError(f"actor {actor!r} missing from run {run.scenario_id!r}")
        return run.scenario_id, [run.track(actor).points for actor in ids]

    # each run is checked as it arrives, and only its compared points are kept
    pending = (compared(run) for run in runs if run is not reference)
    entries: list[RepeatabilityEntry] = []
    while chunk := list(itertools.islice(pending, _DTW_RUNS)):
        distances = [_dtw_pairs(reference.track(actor).points, [points[col] for _, points in chunk])
                     for col, actor in enumerate(ids)]
        entries += [RepeatabilityEntry(run_id=run_id, actor_id=actor, dtw_distance=d,
                                       per_step=d / len(reference.track(actor)),
                                       within_threshold=d <= threshold)
                    for (run_id, _), row in zip(chunk, zip(*distances))
                    for actor, d in zip(ids, row)]
        del chunk  # its points go before the next chunk's runs load
    return RepeatabilityReport(
        reference_id=reference.scenario_id, threshold=threshold, entries=entries
    )


def collision_probability(first_contacts: Sequence[float | None]) -> float:
    """Fraction of runs in which two actor discs touched or overlapped, from each run's
    ``trace.first_contact_time``: None where the run had no contact."""
    times = np.array(first_contacts, dtype=float)  # None is NaN; a Trace raises TypeError
    if not times.size:
        raise MetricError("collision probability needs at least one trace")
    return float(np.count_nonzero(~np.isnan(times))) / times.size


@dataclass(frozen=True)
class CoverageResult:
    overall: float
    per_parameter: Mapping[str, float]
    grid_cells: int
    executed_cells: int
    missing: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_parameter", dict(self.per_parameter))
        object.__setattr__(self, "missing", tuple(self.missing))


def parameter_coverage(
    logical: LogicalScenario,
    executed: Sequence[ConcreteScenario | Mapping[str, float]],
    max_missing: int = 20,
) -> CoverageResult:
    """How much of a logical scenario's grid a set of runs touched.

    overall is the fraction of distinct grid cells hit; per_parameter the
    fraction of each parameter's values hit by any run. A binding off the
    declared grid is an error. Duplicates count once, so the result does
    not depend on run order or multiplicity.
    """
    params = logical.parameters
    seen: set[tuple[int, ...]] = set()
    seen_per_param: list[set[int]] = [set() for _ in params]
    for item in executed:
        bindings = item.bindings if isinstance(item, ConcreteScenario) else item
        cell = []
        for pos, p in enumerate(params):
            if p.name not in bindings:
                raise ScenarioError(f"executed scenario lacks binding {p.name!r}")
            value = float(bindings[p.name])
            if not p.contains(value):
                raise ScenarioError(
                    f"binding {p.name}={value} off the grid "
                    f"[{p.minimum}, {p.maximum}] step {p.step}"
                )
            idx = p.index_of(value)
            cell.append(idx)
            seen_per_param[pos].add(idx)
        seen.add(tuple(cell))
    total = grid_size(logical)
    missing: list[dict] = []
    if len(seen) < total and params:
        grids = [p.values() for p in params]
        for cell in itertools.product(*(range(p.count) for p in params)):
            if cell not in seen:
                missing.append({p.name: grid[i] for p, grid, i in zip(params, grids, cell)})
                if len(missing) >= max_missing:
                    break
    per_parameter = {
        p.name: len(seen_per_param[pos]) / p.count for pos, p in enumerate(params)
    }
    return CoverageResult(
        overall=len(seen) / total,
        per_parameter=per_parameter,
        grid_cells=total,
        executed_cells=len(seen),
        missing=missing,
    )


@dataclass(frozen=True)
class GapFinding:
    """One suspicious step between neighboring sweep points.

    kind is "jump" for an outsized change between two defined results
    (metric_jump holds the absolute change) and "definedness" when the
    metric switches between defined and undefined (metric_jump is None).
    """

    parameter: str
    left_value: float
    right_value: float
    metric_jump: float | None
    kind: str


def detect_result_gaps(
    sweep: Sequence[tuple[float, ScalarResult]],
    gap_factor: float = 5.0,
    parameter: str = "",
) -> list[GapFinding]:
    """Flag neighboring sweep points whose results differ suspiciously.

    A pair of consecutive defined results is flagged when the absolute
    change exceeds gap_factor times the median absolute change over all
    consecutive defined pairs. Any switch between defined and undefined is
    always flagged. Needs at least 3 defined points to form a baseline.
    """
    if not gap_factor > 1.0:
        raise MetricError("gap_factor must be > 1")
    if any(b <= a for (a, _), (b, _) in zip(sweep, sweep[1:])):
        raise MetricError("sweep points must be sorted by strictly increasing parameter value")
    defined = [(v, r.value) for v, r in sweep if r.defined]
    if len(defined) < 3:
        raise MetricError("gap detection needs at least 3 defined sweep points")
    findings = [GapFinding(parameter, v0, v1, None, "definedness")
                for (v0, r0), (v1, r1) in zip(sweep, sweep[1:]) if r0.defined != r1.defined]
    # the median step, as np.median takes it; np.median would import numpy.ma, about 2 MB
    deltas = sorted(abs(b[1] - a[1]) for a, b in zip(defined, defined[1:]))
    half = len(deltas) // 2
    baseline = deltas[half] if len(deltas) % 2 else (deltas[half - 1] + deltas[half]) / 2
    findings += [GapFinding(parameter, v0, v1, abs(x1 - x0), "jump")
                 for (v0, x0), (v1, x1) in zip(defined, defined[1:])
                 if abs(x1 - x0) > gap_factor * baseline]
    findings.sort(key=lambda f: (f.left_value, f.kind))
    return findings
