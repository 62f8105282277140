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


_SLAB_DIAGONALS, _SLAB_CELLS = 48, 12288  # per dtw slab: diagonals, cells of a block


def dtw(track_a: ActorTrack, track_b: ActorTrack) -> float:
    """Dynamic time warping distance between two position tracks.

    Classic unconstrained formulation: monotone warp paths from the first
    to the last sample pair, per-step cost the Euclidean distance between
    the warped (x, y) positions, total cost minimized. Exact: no window,
    no cap on the value. Symmetric in its arguments.

    Pruned after Silva & Batista (SDM 2016): UB is the cost of one valid
    path, the index-proportional staircase, summed in path order as the
    recurrence sums it, so the distance is at most UB in floating point
    too. Early abandoning, by contrast, stops once a bound is exceeded and
    returns something other than the distance; here nothing is capped or
    replaced.

    The anti-diagonals k = i + j are filled in slabs of up to 48, each
    over one fixed row window [L, H]: L is the first row of the last two
    diagonals whose value is at most UB, and H the last such row plus the
    slab's height, at most n - 1. The window holds every row that can be
    live on each diagonal of the slab: a cell whose true value is at most
    UB has a predecessor no dearer, so the lowest live row never falls
    below the smaller of the two previous diagonals' lowest, and the
    highest grows by at most one per diagonal. Every other cell reads
    +inf (row L - 1, or a column off the matrix, where b is padded with
    +inf on both sides; the tracks are finite, so never NaN) or a value
    at or above its true value. So each cell whose true value is at most
    UB gets the same operands in the same order as in the full matrix:
    the result is bit-identical to the full recurrence's, while the work
    follows the band of cells that a path no dearer than UB can reach,
    not n * m.

    Per slab, a view of the padded, reversed b (column k - i of row i is
    then a forward index) gives the distances of all its diagonals as one
    (height, W) block, and one (height + 2, W + 1) block holds the values,
    the last two diagonals in its first two rows and row L - 1 in column 0.
    A diagonal then costs three ufunc calls on row views; the window is
    trimmed only at the end of a slab. The height shrinks as the band
    widens, keeping height x W within 12,288 cells: memory is O(n + m).
    """
    a, b = track_a.points, track_b.points
    n, m = len(a), len(b)
    ax, ay = a[:, 0].copy(), a[:, 1].copy()
    path_i, path_j = (np.linspace(0, count - 1, max(n, m)).round().astype(np.intp)
                      for count in (n, m))
    ub = float(np.cumsum(np.hypot(ax[path_i] - b[path_j, 0], ay[path_i] - b[path_j, 1]))[-1])

    # windows of n values from each index of the reversed b; +inf off the matrix
    front, back = np.full(_SLAB_DIAGONALS + 1, np.inf), np.full(n, np.inf)
    rx, ry = (sliding_window_view(np.concatenate((front, b[::-1, c], back)), n) for c in (0, 1))
    # diagonals k0 - 1 and k0 over rows lo - 1 .. hi; column 0 (row lo - 1) is +inf
    tail = np.array([[np.inf, np.inf], [np.inf, np.hypot(ax[0] - b[0, 0], ay[0] - b[0, 1])]])
    k0, lo = 0, 0
    while k0 < n + m - 2:
        live = np.flatnonzero(np.minimum(tail[0], tail[1]) <= ub)
        first, last = lo - 1 + int(live[0]), lo - 1 + int(live[-1])
        height = min(_SLAB_DIAGONALS, n + m - 2 - k0,
                     max(1, _SLAB_CELLS // (last - first + 1 + _SLAB_DIAGONALS)))
        hi = min(last + height, n - 1)
        width = hi - first + 1
        # row first of diagonal k0 + 1 + t reads padded, reversed b at stop - 1 - t
        stop = _SLAB_DIAGONALS + m - k0 + first
        dist = ax[first:hi + 1] - rx[stop - height:stop, :width][::-1]
        np.hypot(dist, ay[first:hi + 1] - ry[stop - height:stop, :width][::-1], out=dist)
        vals = np.full((height + 2, width + 1), np.inf)
        vals[:2, 1:last - first + 2] = tail[:, first - lo + 1:last - lo + 2]
        up, left = vals[:, :-1], vals[:, 1:]
        best = np.empty(width)
        for up1, left1, up2, d, out in zip(up[1:], left[1:], up, dist, left[2:]):
            np.minimum(up1, left1, out=best)
            np.minimum(best, up2, out=best)
            np.add(d, best, out=out)
        tail, k0, lo = vals[-2:], k0 + height, first
    return float(tail[1, n - lo])


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
    threshold. The reference itself is skipped if present among the runs;
    an actor listed twice is an error, not a second set of entries.
    """
    if not threshold >= 0:  # also rejects NaN
        raise MetricError(f"threshold must be >= 0, got {threshold!r}")
    ids = tuple(actor_ids) if actor_ids is not None else tuple(reference.actor_ids())
    for pos, actor in enumerate(ids):
        if actor in ids[:pos]:
            raise MetricError(f"actor {actor!r} is listed twice")
        if actor not in reference.tracks:
            raise MetricError(f"actor {actor!r} missing from the reference trace")
    entries: list[RepeatabilityEntry] = []
    for run in runs:
        if run is reference:
            continue
        for actor in ids:
            if actor not in run.tracks:
                raise MetricError(
                    f"actor {actor!r} missing from run {run.scenario_id!r}"
                )
            d = dtw(reference.track(actor), run.track(actor))
            entries.append(
                RepeatabilityEntry(
                    run_id=run.scenario_id,
                    actor_id=actor,
                    dtw_distance=d,
                    per_step=d / len(reference.track(actor)),
                    within_threshold=d <= threshold,
                )
            )
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
