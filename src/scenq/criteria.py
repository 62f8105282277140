"""Quality criteria: conditions, application periods, verdicts.

A criterion ties a registered metric to either a threshold or a scoring
scale and restricts evaluation to application periods derived from a start
condition plus a stop rule. Comparisons are expressed as signed margins
(positive = satisfied, scaled with the data), which makes verdicts
invariant under positive rescaling of metric and bound together and lets
interval edges be placed by linear interpolation between samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import registry
from .errors import CriterionError, UnitMismatchError
from .micro import in_periods, margin_runs
from .nano import conflict_point
from .results import MetricResult, MetricSeries, ScalarResult
from .trace import Trace, common_grid, first_contact_time, sample_track

COMPARATORS = ("<", "<=", ">", ">=", "=")
_COMPARATOR_ALIASES = {"==": "=", "<=": "<=", ">=": ">="}

_SIGNAL_UNITS = {"speed": "m/s", "acceleration": "m/s^2", "distance_between": "m", "time": "s"}
SIGNALS = (*_SIGNAL_UNITS, "metric_value")

PERSPECTIVES = ("simulation", "sut", "scenario")

EQ_RELATIVE_TOL = 1e-9

STOP_ON_CONDITION = "condition_no_longer_fulfilled"
STOP_ELAPSED = "elapsed"
STOP_EVENT = "event"
EVENTS = ("actor_passed_conflict", "collision", "scenario_end")


def normalize_comparator(raw: str) -> str:
    comp = _COMPARATOR_ALIASES.get(raw, raw)
    if comp not in COMPARATORS:
        raise CriterionError(f"unknown comparator {raw!r}")
    return comp


def comparison_margin(comparator: str, value, bound: float):
    """Signed satisfaction margin, positive where the comparison holds.

    Scales linearly with (value, bound), so rescaling both by the same
    positive factor never changes a verdict. Equality is satisfied within
    a relative tolerance of the bound.
    """
    if comparator in ("<", "<="):
        return bound - value
    if comparator in (">", ">="):
        return value - bound
    return EQ_RELATIVE_TOL * abs(bound) - np.abs(value - bound)


def margin_holds(comparator: str, margin) -> np.ndarray | bool:
    if comparator in ("<", ">"):
        return margin > 0.0
    return margin >= 0.0


@dataclass(frozen=True)
class ConditionNode:
    """One node of a condition tree.

    op "leaf" compares a signal against a bound; op "all" / "any" combine
    at least two children conjunctively / disjunctively.
    """

    op: str = "leaf"
    signal: str | None = None
    actor: str | None = None
    actor_b: str | None = None
    metric: str | None = None
    metric_params: Mapping = field(default_factory=dict)
    comparator: str | None = None
    bound: float = 0.0
    unit: str = ""
    children: tuple["ConditionNode", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.metric_params, Mapping):
            raise CriterionError("condition params must be an object")
        object.__setattr__(self, "metric_params", dict(self.metric_params))
        object.__setattr__(self, "children", tuple(self.children))
        if self.op == "leaf":
            if self.signal not in SIGNALS:
                raise CriterionError(f"unknown signal {self.signal!r}")
            object.__setattr__(self, "comparator", normalize_comparator(self.comparator or ""))
            if self.signal == "metric_value" and not self.metric:
                raise CriterionError("metric_value condition needs a metric name")
            if self.signal in ("speed", "acceleration") and not self.actor:
                raise CriterionError(f"{self.signal} condition needs an actor")
            if self.signal == "distance_between" and not (self.actor and self.actor_b):
                raise CriterionError("distance_between condition needs two actors")
        elif self.op in ("all", "any"):
            if len(self.children) < 2:
                raise CriterionError(f"{self.op} node needs at least 2 children")
        else:
            raise CriterionError(f"unknown condition op {self.op!r}")

    def referenced_actors(self) -> set[str]:
        actors: set[str] = set()
        if self.op == "leaf":
            for a in (self.actor, self.actor_b):
                if a:
                    actors.add(a)
            for key in ("actor", "actor_a", "actor_b", "ego", "target", "actor_1", "actor_2", "other"):
                value = self.metric_params.get(key)
                if isinstance(value, str):
                    actors.add(value)
        for child in self.children:
            actors |= child.referenced_actors()
        return actors


def condition(signal: str, comparator: str, bound: float, unit: str = "", **refs) -> ConditionNode:
    """Shorthand leaf constructor."""
    return ConditionNode(
        op="leaf",
        signal=signal,
        comparator=comparator,
        bound=bound,
        unit=unit,
        actor=refs.get("actor"),
        actor_b=refs.get("actor_b"),
        metric=refs.get("metric"),
        metric_params=refs.get("metric_params", {}),
    )


def _check_unit(declared: str, actual: str, where: str) -> None:
    if declared and actual and declared != actual:
        raise UnitMismatchError(f"{where}: unit {declared!r} does not match {actual!r}")


def _leaf_samples(node: ConditionNode, trace: Trace, grid: np.ndarray) -> np.ndarray:
    if node.signal in _SIGNAL_UNITS:
        _check_unit(node.unit, _SIGNAL_UNITS[node.signal], f"{node.signal} condition")
    if node.signal == "time":
        return grid
    if node.signal == "speed":
        return sample_track(trace.track(node.actor), grid)["speed"]
    if node.signal == "acceleration":
        return sample_track(trace.track(node.actor), grid)["accel"]
    if node.signal == "distance_between":
        a = sample_track(trace.track(node.actor), grid)
        b = sample_track(trace.track(node.actor_b), grid)
        return np.hypot(b["x"] - a["x"], b["y"] - a["y"])
    # metric_value
    spec = registry.get(node.metric)
    if spec.level != registry.NANOSCOPIC:
        raise CriterionError(
            f"condition on {node.metric!r}: only per-timestep metrics can gate a period"
        )
    _check_unit(node.unit, spec.unit, f"condition on {node.metric!r}")
    series = registry.compute(spec, trace, node.metric_params)
    values = np.interp(grid, series.times, series.values)
    defined = np.interp(grid, series.times, series.defined.astype(float)) >= 1.0
    values[~defined] = np.nan
    return values


def _margins_and_holds(
    node: ConditionNode, trace: Trace, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Margin and boolean hold arrays over the grid for a condition tree.

    Samples where an underlying metric is undefined never hold and get a
    -inf margin so interpolation snaps edges to the sample boundary.
    """
    if node.op == "leaf":
        samples = _leaf_samples(node, trace, grid)
        margin = comparison_margin(node.comparator, samples, node.bound)
        bad = ~np.isfinite(samples)
        margin = np.where(bad, -math.inf, margin)
        holds = np.asarray(margin_holds(node.comparator, margin)) & ~bad
        return margin, holds
    margins, holds = zip(*(_margins_and_holds(c, trace, grid) for c in node.children))
    stacked = np.vstack(margins)
    held = np.vstack(holds)
    if node.op == "all":
        return stacked.min(axis=0), held.all(axis=0)
    return stacked.max(axis=0), held.any(axis=0)


@dataclass(frozen=True)
class StopRule:
    """How an application period ends once started."""

    kind: str = STOP_ON_CONDITION
    duration: float | None = None
    event: str | None = None
    actor: str | None = None

    def __post_init__(self) -> None:
        if self.kind == STOP_ELAPSED:
            if self.duration is None or not self.duration > 0:
                raise CriterionError("elapsed stop rule needs a duration > 0")
        elif self.kind == STOP_EVENT:
            if self.event not in EVENTS:
                raise CriterionError(f"unknown event {self.event!r}, expected one of {EVENTS}")
            if self.event == "actor_passed_conflict" and not self.actor:
                raise CriterionError("actor_passed_conflict stop rule needs an actor")
        elif self.kind != STOP_ON_CONDITION:
            raise CriterionError(f"unknown stop rule {self.kind!r}")


@dataclass(frozen=True)
class ApplicationPeriod:
    start_condition: ConditionNode
    stop: StopRule = field(default_factory=StopRule)


def always_active() -> ApplicationPeriod:
    return ApplicationPeriod(start_condition=condition("time", ">=", 0.0, unit="s"))


def _event_time(trace: Trace, rule: StopRule) -> float | None:
    if rule.event == "scenario_end":
        start, end = trace.overlap()
        return end
    if rule.event == "collision":
        return first_contact_time(trace)
    # actor_passed_conflict
    ids = trace.actor_ids()
    if rule.actor not in ids:
        raise CriterionError(f"stop rule actor {rule.actor!r} not in trace")
    others = [a for a in ids if a != rule.actor]
    if len(others) != 1:
        raise CriterionError("actor_passed_conflict needs a trace with exactly 2 actors")
    conflict = conflict_point(trace, rule.actor, others[0])
    if conflict is None:
        return None
    track = trace.track(rule.actor)
    passed = track.arc_lengths >= conflict.ego_arc_length
    if not passed.any():
        return None
    return float(track.times[int(np.argmax(passed))])


def active_intervals(period: ApplicationPeriod, trace: Trace) -> list[tuple[float, float]]:
    """Maximal disjoint intervals where the period applies, sorted.

    A period opens at a rising edge of the start condition (edge times
    interpolated between samples by margin_runs) and closes per the stop
    rule. After an elapsed or event stop, the next period needs a fresh
    rising edge after the stop time. A gating metric's series is the one kept
    with the trace (registry.compute).
    """
    actors = period.start_condition.referenced_actors()
    if period.stop.actor:
        actors.add(period.stop.actor)
    grid_actors = tuple(sorted(actors)) if actors else tuple(trace.actor_ids())
    grid = common_grid(trace, grid_actors)
    margins, holds = _margins_and_holds(period.start_condition, trace, grid)

    event_at: float | None = None
    if period.stop.kind == STOP_EVENT:
        event_at = _event_time(trace, period.stop)

    end_of_grid = float(grid[-1])
    starts, run_stops = margin_runs(grid, margins, holds)
    intervals: list[tuple[float, float]] = []
    guard = -math.inf  # a new period may only open at or after the last stop
    for start, run_stop in zip(starts.tolist(), run_stops.tolist()):
        if start < guard:
            continue
        if period.stop.kind == STOP_ELAPSED:
            stop = min(start + period.stop.duration, end_of_grid)
        elif period.stop.kind == STOP_EVENT:
            stop = event_at if event_at is not None and event_at >= start else end_of_grid
        else:
            stop = run_stop
        if stop > start:
            intervals.append((start, stop))
        guard = max(guard, stop)
    return intervals


@dataclass(frozen=True)
class Threshold:
    comparator: str
    value: float
    unit: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "comparator", normalize_comparator(self.comparator))


@dataclass(frozen=True)
class Scale:
    """Ordered score breakpoints: the score of a value is the one attached
    to the largest bound not exceeding it; below the first bound it is 0."""

    breakpoints: tuple[tuple[float, float], ...]
    unit: str = ""

    def __post_init__(self) -> None:
        pts = tuple((float(b), float(s)) for b, s in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if not pts:
            raise CriterionError("scale needs at least one breakpoint")
        bounds = [b for b, _ in pts]
        if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise CriterionError("scale breakpoints must be strictly increasing")

    def score(self, value: float) -> float:
        result = 0.0
        for bound, score in self.breakpoints:
            if value >= bound:
                result = score
            else:
                break
        return result


@dataclass(frozen=True)
class QualityCriterion:
    criterion_id: str
    metric_name: str
    evaluation: Threshold | Scale
    application_period: ApplicationPeriod = field(default_factory=always_active)
    metric_params: Mapping = field(default_factory=dict)
    perspective: str = "sut"

    def __post_init__(self) -> None:
        if not self.criterion_id:
            raise CriterionError("criterion_id must be non-empty")
        if not registry.is_registered(self.metric_name):
            raise CriterionError(f"criterion on unknown metric {self.metric_name!r}")
        if self.perspective not in PERSPECTIVES:
            raise CriterionError(
                f"unknown perspective {self.perspective!r}, expected one of {PERSPECTIVES}"
            )
        if not isinstance(self.metric_params, Mapping):
            raise CriterionError(f"criterion {self.criterion_id!r}: params must be an object")
        object.__setattr__(self, "metric_params", dict(self.metric_params))

    @property
    def level(self) -> str:
        return registry.get(self.metric_name).level


@dataclass(frozen=True)
class Verdict:
    criterion_id: str
    outcome: str  # pass | fail | score | not_applicable
    scenario_id: str = ""
    score: float | None = None
    evaluated_intervals: tuple[tuple[float, float], ...] = ()
    worst_result: MetricResult | None = None
    #: The metric result judged; kept for plot data, not compared or serialized.
    result: MetricSeries | ScalarResult | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.outcome not in ("pass", "fail", "score", "not_applicable"):
            raise CriterionError(f"unknown outcome {self.outcome!r}")
        object.__setattr__(
            self, "evaluated_intervals", tuple(tuple(i) for i in self.evaluated_intervals)
        )


def evaluate_criterion(
    criterion: QualityCriterion,
    result: MetricSeries | ScalarResult,
    trace: Trace | None = None,
) -> Verdict:
    """Judge one metric result against one criterion.

    Series results are checked sample by sample inside the active
    application periods: a threshold passes only if every defined sample
    satisfies it, and the worst (smallest margin) sample is reported.
    A scalar result is judged as a one-sample series at the start of the
    first active period (at 0.0 without a trace, where no period gates
    it). Without any defined result inside an active period the verdict
    is not_applicable.
    """
    spec = registry.get(criterion.metric_name)
    _check_unit(criterion.evaluation.unit, result.unit, f"criterion {criterion.criterion_id!r}")
    if isinstance(result, MetricSeries) and result.metric_name != criterion.metric_name:
        raise CriterionError(
            f"criterion {criterion.criterion_id!r} on {criterion.metric_name!r} "
            f"got a {result.metric_name!r} series"
        )
    if trace is None and isinstance(result, MetricSeries):
        raise CriterionError("evaluating a series requires its trace")

    verdict = Verdict(
        criterion.criterion_id, "not_applicable", trace.scenario_id if trace is not None else "",
        result=result,
    )
    intervals = active_intervals(criterion.application_period, trace) if trace else []
    if isinstance(result, ScalarResult):
        times = np.array([intervals[0][0] if intervals else 0.0])
        values = np.array([result.value], dtype=float)
        mask = np.array([result.defined])
    else:
        times, values, mask = result.times, result.values, result.defined
    if trace is not None:
        if not intervals:
            return verdict
        mask = mask & in_periods(times, intervals)
    verdict = replace(verdict, evaluated_intervals=intervals)
    if not mask.any():
        return verdict
    times, values = times[mask], values[mask]

    evaluation = criterion.evaluation
    if isinstance(evaluation, Scale):
        worst = int(np.argmin(values) if spec.worse == registry.WORSE_LOW else np.argmax(values))
        verdict = replace(verdict, outcome="score", score=evaluation.score(float(values[worst])))
    else:
        margins = comparison_margin(evaluation.comparator, values, evaluation.value)
        worst = int(np.argmin(margins))
        passed = bool(np.all(margin_holds(evaluation.comparator, margins)))
        verdict = replace(verdict, outcome="pass" if passed else "fail")
    return replace(verdict, worst_result=MetricResult(
        time=float(times[worst]), value=float(values[worst]), unit=result.unit, defined=True,
    ))


@dataclass(frozen=True)
class CellSummary:
    perspective: str
    level: str
    passes: int
    fails: int
    scores: int
    not_applicable: int

    @property
    def pass_rate(self) -> float | None:
        judged = self.passes + self.fails
        return self.passes / judged if judged else None


@dataclass(frozen=True)
class EvaluationReport:
    verdicts: tuple[Verdict, ...]
    cells: tuple[CellSummary, ...]

    @property
    def any_fail(self) -> bool:
        return any(v.outcome == "fail" for v in self.verdicts)


def evaluate_suite(
    criteria: Sequence[QualityCriterion],
    traces: Trace | Sequence[Trace],
    perspective: str | None = None,
    level: str | None = None,
) -> EvaluationReport:
    """Evaluate criteria over one or many traces.

    Per-timestep and per-scenario criteria produce one verdict per trace;
    set-level criteria produce verdicts over the whole trace list (their
    application periods are not time-gated). perspective and level filter
    which criteria run. Verdict order follows criterion order, then trace
    order, so identical inputs give identical reports. Criteria and
    application period conditions on the same metric and params share one
    result per trace, kept with the trace (one per list at set level).
    """
    if isinstance(traces, Trace):
        traces = [traces]
    traces = list(traces)
    if not traces:
        raise CriterionError("evaluation needs at least one trace")
    if level is not None and level not in registry.LEVELS:
        raise CriterionError(f"unknown level {level!r}")
    if perspective is not None and perspective not in PERSPECTIVES:
        raise CriterionError(f"unknown perspective {perspective!r}")

    set_results: dict[tuple[str, str], list] = {}  # set-level results by metric and params
    verdicts: list[Verdict] = []
    cell_keys: dict[tuple[str, str], list[Verdict]] = {}
    for criterion in criteria:
        if perspective is not None and criterion.perspective != perspective:
            continue
        spec = registry.get(criterion.metric_name)
        if level is not None and spec.level != level:
            continue
        produced: list[Verdict] = []
        params = criterion.metric_params
        if spec.level == registry.MACROSCOPIC:
            key = (spec.name, json.dumps(params, sort_keys=True, default=repr))
            if key not in set_results:
                set_results[key] = spec.compute(traces, params)
            for result_id, scalar in set_results[key]:
                verdict = evaluate_criterion(criterion, scalar, trace=None)
                produced.append(replace(verdict, scenario_id=result_id))
        else:
            for trace in traces:
                result = registry.compute(spec, trace, params)
                produced.append(evaluate_criterion(criterion, result, trace))
        verdicts.extend(produced)
        cell_keys.setdefault((criterion.perspective, spec.level), []).extend(produced)

    cells = []
    for (persp, lvl), cell_verdicts in sorted(cell_keys.items()):
        cells.append(
            CellSummary(
                perspective=persp,
                level=lvl,
                passes=sum(v.outcome == "pass" for v in cell_verdicts),
                fails=sum(v.outcome == "fail" for v in cell_verdicts),
                scores=sum(v.outcome == "score" for v in cell_verdicts),
                not_applicable=sum(v.outcome == "not_applicable" for v in cell_verdicts),
            )
        )
    return EvaluationReport(verdicts=tuple(verdicts), cells=tuple(cells))


# ---------------------------------------------------------------------------
# suite files


def _condition_from_dict(data: Mapping) -> ConditionNode:
    if "all" in data:
        return ConditionNode(op="all", children=tuple(_condition_from_dict(c) for c in data["all"]))
    if "any" in data:
        return ConditionNode(op="any", children=tuple(_condition_from_dict(c) for c in data["any"]))
    try:
        return ConditionNode(
            op="leaf",
            signal=data["signal"],
            actor=data.get("actor"),
            actor_b=data.get("actor_b"),
            metric=data.get("metric"),
            metric_params=data.get("params", {}),
            comparator=data["comparator"],
            bound=float(data["bound"]),
            unit=str(data.get("unit", "")),
        )
    except KeyError as exc:
        raise CriterionError(f"condition missing key {exc.args[0]!r}") from None


def _stop_from_dict(data: Mapping | None) -> StopRule:
    if not data:
        return StopRule()
    if not isinstance(data, Mapping):
        raise TypeError(f"stop must be an object, got {data!r}")
    kind = data.get("kind", STOP_ON_CONDITION)
    return StopRule(
        kind=kind,
        duration=float(data["duration"]) if "duration" in data else None,
        event=data.get("event"),
        actor=data.get("actor"),
    )


def _criterion_from_dict(data: Mapping) -> QualityCriterion:
    if not isinstance(data, Mapping):
        raise CriterionError(f"criterion must be an object, got {data!r}")
    try:
        if ("threshold" in data) == ("scale" in data):
            raise CriterionError(
                f"criterion {data.get('criterion_id')!r} needs exactly one of threshold or scale"
            )
        if "threshold" in data:
            t = data["threshold"]
            evaluation: Threshold | Scale = Threshold(
                comparator=t["comparator"], value=float(t["value"]), unit=str(t.get("unit", ""))
            )
        else:
            s = data["scale"]
            evaluation = Scale(
                breakpoints=tuple((float(b), float(v)) for b, v in s["breakpoints"]),
                unit=str(s.get("unit", "")),
            )
        if "application_period" in data:
            p = data["application_period"]
            period = ApplicationPeriod(
                start_condition=_condition_from_dict(p["start_condition"]),
                stop=_stop_from_dict(p.get("stop")),
            )
        else:
            period = always_active()
        return QualityCriterion(
            criterion_id=str(data["criterion_id"]),
            metric_name=str(data["metric"]),
            evaluation=evaluation,
            application_period=period,
            metric_params=data.get("params", {}),
            perspective=str(data.get("perspective", "sut")),
        )
    except KeyError as exc:
        raise CriterionError(f"criterion missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise CriterionError(f"malformed criterion {data.get('criterion_id')!r}: {exc}") from None


def load_criteria(path: str | Path) -> list[QualityCriterion]:
    """Read a criteria suite JSON file ({"criteria": [...]} or a bare list)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CriterionError(f"{path}: invalid JSON ({exc.msg})") from None
    items = data.get("criteria") if isinstance(data, Mapping) else data
    if not isinstance(items, list) or not items:
        raise CriterionError(f"{path}: expected a non-empty 'criteria' list")
    try:
        criteria = [_criterion_from_dict(item) for item in items]
    except CriterionError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    seen: set[str] = set()
    for criterion in criteria:  # ids name plot-data files, so they must be unique
        if criterion.criterion_id in seen:
            raise CriterionError(f"{path}: criterion_id {criterion.criterion_id!r} is repeated")
        seen.add(criterion.criterion_id)
    return criteria
