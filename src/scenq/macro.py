"""Scenario-set metrics: trajectory repeatability, collision frequency,
grid coverage, and sweep discontinuity detection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import MetricError, ScenarioError
from .scenarios import ConcreteScenario, LogicalScenario, grid_size
from .results import ScalarResult
from .trace import ActorTrack, Trace, first_contact_time


def dtw(track_a: ActorTrack, track_b: ActorTrack) -> float:
    """Dynamic time warping distance between two position tracks.

    Classic unconstrained formulation: monotone warp paths from the first
    to the last sample pair, per-step cost the Euclidean distance between
    the warped (x, y) positions, total cost minimized. Exact: no window,
    no cap on the value. Symmetric in its arguments.

    Pruned after Silva & Batista (SDM 2016): UB is the cost of one valid
    path, the index-proportional staircase, summed in path order as the
    recurrence sums it, so the distance is at most UB in floating point
    too. Only cells that a live cell of the two previous anti-diagonals
    can lead to are filled, and a diagonal's ends are trimmed while their
    value exceeds UB. A cell whose true value is at most UB keeps its
    cheapest predecessor live, so it gets the same operands in the same
    order as in the full matrix, and no other cell reads below its true
    value: the result is bit-identical to the full recurrence's, while the
    work is proportional to the band of cells that a path no dearer than
    UB can reach, not to n * m. Early abandoning, by contrast, stops once
    a bound is exceeded and returns something other than the distance;
    here nothing is capped or replaced.

    Three rolling buffers indexed by row i + 1 hold diagonals k - 2,
    k - 1 and k, so memory is O(n + m) for n x m samples; every entry
    outside a diagonal's filled rows is +inf, index 0 (row -1) always.
    Against a reversed copy of b, the columns k - i of a diagonal form a
    forward slice, so its distances come from contiguous slices too.
    """
    a = track_a.points
    b = track_b.points
    n, m = len(a), len(b)
    ax, ay = a[:, 0].copy(), a[:, 1].copy()
    rx, ry = b[::-1, 0].copy(), b[::-1, 1].copy()
    path_i, path_j = (np.linspace(0, count - 1, max(n, m)).round().astype(np.intp)
                      for count in (n, m))
    ub = float(np.cumsum(np.hypot(ax[path_i] - b[path_j, 0], ay[path_i] - b[path_j, 1]))[-1])

    prev2, prev1, cur = np.full(n + 1, np.inf), np.full(n + 1, np.inf), np.full(n + 1, np.inf)
    cur[1] = np.hypot(ax[0] - rx[m - 1], ay[0] - ry[m - 1])  # diagonal 0: cell (0, 0)
    # live rows [l, h] of diagonals k - 2 and k - 1 (empty as [n, -1]), and
    # the filled slice of each buffer, reset to +inf before it is refilled
    l2, h2, l1, h1, lo, hi = n, -1, n, -1, 0, 0
    filled2, filled1, filled = slice(0), slice(0), slice(1, 2)
    for k in range(1, n + m - 1):
        prev2, prev1, cur = prev1, cur, prev2
        filled2, filled1, filled = filled1, filled, filled2
        cur[filled] = np.inf
        l2, h2, l1, h1 = l1, h1, lo, hi
        lo = max(min(l1, l2 + 1), k - m + 1)
        hi = min(max(h1, h2) + 1, n - 1)
        if lo > hi:
            lo, hi, filled = n, -1, slice(0)
            continue
        rows, filled = slice(lo, hi + 1), slice(lo + 1, hi + 2)
        cols = slice(lo + m - 1 - k, hi + m - k)  # columns k - hi .. k - lo, reversed
        d = np.hypot(ax[rows] - rx[cols], ay[rows] - ry[cols])
        best = np.minimum(prev1[rows], prev1[filled])
        np.minimum(best, prev2[rows], out=best)
        np.add(d, best, out=cur[filled])
        while lo <= hi and cur[lo + 1] > ub:
            lo += 1
        while hi >= lo and cur[hi + 1] > ub:
            hi -= 1
        if lo > hi:
            lo, hi = n, -1
    return float(cur[n])


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
    runs: Sequence[Trace],
    actor_ids: Sequence[str] | None = None,
    threshold: float = 10.0,
) -> RepeatabilityReport:
    """Compare repeated runs against a reference trace, per actor.

    Each entry carries the dtw distance, that distance divided by the
    reference track's sample count, and whether it stays at or below the
    threshold. The reference itself is skipped if present among the runs.
    """
    if not threshold >= 0:  # also rejects NaN
        raise MetricError(f"threshold must be >= 0, got {threshold!r}")
    ids = tuple(actor_ids) if actor_ids is not None else tuple(reference.actor_ids())
    for actor in ids:
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


def collision_probability(traces: Sequence[Trace]) -> float:
    """Fraction of traces in which two actor discs touched or overlapped."""
    if not traces:
        raise MetricError("collision probability needs at least one trace")
    return sum(first_contact_time(trace) is not None for trace in traces) / len(traces)


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
    counts = [p.count for p in params]
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
        for flat in range(total):
            rem = flat
            cell = [0] * len(params)
            for pos in range(len(params) - 1, -1, -1):
                rem, cell[pos] = divmod(rem, counts[pos])
            if tuple(cell) not in seen:
                missing.append({p.name: grids[pos][cell[pos]] for pos, p in enumerate(params)})
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
    values = [float(v) for v, _ in sweep]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise MetricError("sweep points must be sorted by strictly increasing parameter value")
    defined = [(v, r.value) for v, r in sweep if r.defined]
    if len(defined) < 3:
        raise MetricError("gap detection needs at least 3 defined sweep points")
    findings: list[GapFinding] = []
    for (v0, r0), (v1, r1) in zip(sweep, sweep[1:]):
        if r0.defined != r1.defined:
            findings.append(
                GapFinding(
                    parameter=parameter,
                    left_value=v0,
                    right_value=v1,
                    metric_jump=None,
                    kind="definedness",
                )
            )
    deltas = [abs(b[1] - a[1]) for a, b in zip(defined, defined[1:])]
    baseline = float(np.median(deltas))
    for (v0, x0), (v1, x1) in zip(defined, defined[1:]):
        jump = abs(x1 - x0)
        if jump > gap_factor * baseline:
            findings.append(
                GapFinding(
                    parameter=parameter,
                    left_value=v0,
                    right_value=v1,
                    metric_jump=jump,
                    kind="jump",
                )
            )
    findings.sort(key=lambda f: (f.left_value, f.kind))
    return findings
