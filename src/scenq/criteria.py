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
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import registry
from .errors import CriterionError, MetricError, UnitMismatchError, fields, in_file, number
from .macro import detect_result_gaps
from .micro import in_periods, margin_runs
from .nano import conflict_point
from .results import MetricResult, MetricSeries, ScalarResult, safe_name
from .trace import Trace, common_grid, first_contact_time, sample_track

COMPARATORS = ("<", "<=", ">", ">=", "=")
_COMPARATOR_ALIASES = {"==": "=", "<=": "<=", ">=": ">="}

_SIGNAL_UNITS = {"speed": "m/s", "acceleration": "m/s^2", "distance_between": "m", "time": "s"}
SIGNALS = (*_SIGNAL_UNITS, "metric_value")

PERSPECTIVES = ("simulation", "sut", "scenario")

OUTCOMES = ("pass", "fail", "score", "not_applicable")

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
            if self.signal == "metric_value" and not registry.is_registered(self.metric):
                raise CriterionError(f"condition on unknown metric {self.metric!r}")
            if self.signal in ("speed", "acceleration") and not self.actor:
                raise CriterionError(f"{self.signal} condition needs an actor")
            if self.signal == "distance_between" and not (self.actor and self.actor_b):
                raise CriterionError("distance_between condition needs two actors")
            _check_leaf(self)
        elif self.op in ("all", "any"):
            if len(self.children) < 2:
                raise CriterionError(f"{self.op} node needs at least 2 children")
        else:
            raise CriterionError(f"unknown condition op {self.op!r}")

    def referenced_actors(self) -> set[str]:
        actors = {a for a in (self.actor, self.actor_b) if a}
        if self.signal == "metric_value":
            actors |= _param_actors(self.metric, self.metric_params)
        for child in self.children:
            actors |= child.referenced_actors()
        return actors


def _param_actors(metric: str, params: Mapping) -> set[str]:
    """The actors that a metric's params name."""
    return {params[k] for k in registry.get(metric).actors if k in params}


def condition(signal: str, comparator: str, bound: float, unit: str = "", **refs) -> ConditionNode:
    """Shorthand leaf constructor; refs are the other ConditionNode fields."""
    return ConditionNode(signal=signal, comparator=comparator, bound=bound, unit=unit, **refs)


def _check_unit(declared: str, actual: str, where: str) -> None:
    if declared and actual and declared != actual:
        raise UnitMismatchError(f"{where}: unit {declared!r} does not match {actual!r}")


def _check_leaf(node: ConditionNode) -> None:
    """Raise for a leaf unit other than its signal's or gating metric's, or a gating
    metric that is not per-timestep."""
    if node.signal != "metric_value":
        _check_unit(node.unit, _SIGNAL_UNITS[node.signal], f"{node.signal} condition")
        return
    spec, where = registry.get(node.metric), f"condition on {node.metric!r}"
    if spec.level != registry.NANOSCOPIC:
        raise CriterionError(f"{where}: only per-timestep metrics can gate a period")
    _check_unit(node.unit, spec.unit, where)


def _leaf_samples(node: ConditionNode, trace: Trace, grid: np.ndarray) -> np.ndarray:
    """The leaf's signal on the grid, NaN where undefined: for a gating metric, where
    its series is undefined and outside the span its series covers."""
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
    series = registry.compute(registry.get(node.metric), trace, node.metric_params)
    values = np.interp(grid, series.times, series.values)
    defined = np.interp(grid, series.times, series.defined.astype(float), left=0, right=0) >= 1
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

    @property
    def actors(self) -> set[str]:
        """The actors the start condition and the stop rule name."""
        return self.start_condition.referenced_actors() | ({self.stop.actor} - {None})


def always_active() -> ApplicationPeriod:
    return ApplicationPeriod(start_condition=condition("time", ">=", 0.0, unit="s"))


def _event_time(trace: Trace, rule: StopRule) -> float | None:
    if rule.event == "scenario_end":
        start, end = trace.overlap()
        return end
    if rule.event == "collision":
        return first_contact_time(trace)
    # actor_passed_conflict
    others = [a for a in trace.actor_ids() if a != rule.actor]
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
    actors = period.actors
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
        return next((score for bound, score in reversed(self.breakpoints) if value >= bound), 0.0)


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
        _check_unit(self.evaluation.unit, registry.get(self.metric_name).unit,
                    f"criterion {self.criterion_id!r}")

    @property
    def level(self) -> str:
        return registry.get(self.metric_name).level

    @property
    def actors(self) -> set[str]:
        """The actors a trace must hold to be judged on a per-trace criterion: those the
        metric params and the application period name."""
        return _param_actors(self.metric_name, self.metric_params) | self.application_period.actors


@dataclass(frozen=True)
class Verdict:
    criterion_id: str
    outcome: str  # pass | fail | score | not_applicable
    scenario_id: str = ""
    score: float | None = None
    evaluated_intervals: tuple[tuple[float, float], ...] = ()
    worst_result: MetricResult | None = None

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
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

    intervals = active_intervals(criterion.application_period, trace) if trace else []
    if isinstance(result, ScalarResult):
        times = np.array([intervals[0][0] if intervals else 0.0])
        values = np.array([result.value], dtype=float)
        mask = np.array([result.defined])
    else:
        times, values, mask = result.times, result.values, result.defined
    if trace is not None:
        mask = mask & in_periods(times, intervals)
    outcome, score, worst = "not_applicable", None, None
    if mask.any():
        times, values = times[mask], values[mask]
        evaluation = criterion.evaluation
        if isinstance(evaluation, Scale):
            i = int(np.argmin(values) if spec.worse == registry.WORSE_LOW else np.argmax(values))
            outcome, score = "score", evaluation.score(float(values[i]))
        else:
            margins = comparison_margin(evaluation.comparator, values, evaluation.value)
            i = int(np.argmin(margins))
            outcome = "pass" if np.all(margin_holds(evaluation.comparator, margins)) else "fail"
        worst = MetricResult(time=float(times[i]), value=float(values[i]), unit=result.unit,
                             defined=True)
    scenario_id = trace.scenario_id if trace is not None else ""
    return Verdict(criterion.criterion_id, outcome, scenario_id, score, intervals, worst)


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
    #: per-trace criterion id -> varied binding -> {"lines", "skipped", "findings"}
    gap_findings: Mapping[str, dict] = field(default_factory=dict)

    @property
    def any_fail(self) -> bool:
        return any(v.outcome == "fail" for v in self.verdicts)


def evaluate_suite(
    criteria: Sequence[QualityCriterion],
    traces: Iterable[Trace],
) -> EvaluationReport:
    """Evaluate criteria over any iterable of traces, walked once.

    Each trace is judged on every per-timestep and per-scenario criterion, one
    verdict each, before the next is taken, so the caller may let it go then.
    Set-level criteria are judged once the traces are done, over what their
    metrics kept of each (see the registry), not time-gated. Every criterion given
    runs: to judge one perspective or level, pass only its criteria. Verdict order
    follows criterion order, then trace order. Criteria and application period
    conditions on the same metric and params share one result per trace, kept with
    the trace (one per set at set level). A criterion naming an actor that a trace
    lacks raises ``<scenario id>: criterion '<id>': unknown actor '<actor>'``. Each
    per-trace criterion's worst values are also checked for gaps along the grid lines of
    the traces' recorded bindings (``gap_findings``, see ``_grid_gaps``).
    """
    specs = [registry.get(c.metric_name) for c in criteria]
    keys = [(spec.name, json.dumps(c.metric_params, sort_keys=True, default=repr))
            for c, spec in zip(criteria, specs)]
    verdicts: list[list[Verdict]] = [[] for _ in criteria]  # per criterion, in trace order
    per_trace = [(c, spec, c.actors, produced) for c, spec, produced in
                 zip(criteria, specs, verdicts) if spec.level != registry.MACROSCOPIC]
    # per set-level metric and params: its spec, params and what it keeps of each trace
    kept = {key: (spec, c.metric_params, []) for c, spec, key in zip(criteria, specs, keys)
            if spec.level == registry.MACROSCOPIC}
    lines: dict[tuple, list] = {}  # grid line -> (varied binding's value, trace index) per trace
    count = 0
    for count, trace in enumerate(traces, 1):
        for line, value in _grid_place(trace):
            lines.setdefault(line, []).append((value, count - 1))
        for criterion, spec, actors, produced in per_trace:
            if absent := sorted(actors - trace.tracks.keys()):
                raise CriterionError(f"{trace.scenario_id}: criterion {criterion.criterion_id!r}: "
                                     f"unknown actor {absent[0]!r}")
            result = registry.compute(spec, trace, criterion.metric_params)
            produced.append(evaluate_criterion(criterion, result, trace))
        for spec, params, items in kept.values():
            items.append(spec.keep(trace, params) if spec.keep else trace)
    if not count:
        raise CriterionError("evaluation needs at least one trace")
    gaps = {c.criterion_id: _grid_gaps(lines, produced) for c, _, _, produced in per_trace}
    set_results = {key: spec.compute(items, params) for key, (spec, params, items) in kept.items()}
    counts: dict[tuple[str, str], Counter] = {}
    for criterion, spec, key, produced in zip(criteria, specs, keys, verdicts):
        produced.extend(replace(evaluate_criterion(criterion, scalar), scenario_id=result_id)
                        for result_id, scalar in set_results.get(key, ()))
        counts.setdefault((criterion.perspective, spec.level), Counter()).update(
            v.outcome for v in produced)
    cells = tuple(CellSummary(persp, lvl, *(c[o] for o in OUTCOMES))
                  for (persp, lvl), c in sorted(counts.items()))
    return EvaluationReport(tuple(v for produced in verdicts for v in produced), cells, gaps)


def _grid_place(trace: Trace) -> list[tuple[tuple, float]]:
    """Each grid line a simulated trace lies on, as (varied binding, logical scenario id, held
    bindings), with its value of the varied binding: read from its ``logical_id`` and
    ``binding_<name>`` metadata. No line when a binding is not a finite number."""
    try:
        bindings = {k.removeprefix("binding_"): number(float(v), k)
                    for k, v in sorted(trace.metadata.items()) if k.startswith("binding_")}
    except ValueError:
        return []
    logical_id = trace.metadata.get("logical_id", "")
    return [((name, logical_id, tuple((k, v) for k, v in bindings.items() if k != name)), value)
            for name, value in bindings.items()]


_UNDEFINED = MetricResult(0.0, 0.0, "", defined=False)


def _grid_gaps(lines: Mapping[tuple, list], verdicts: Sequence[Verdict]) -> dict[str, dict]:
    """Gap findings of one criterion's worst values (macro.detect_result_gaps, factor 5)
    along each grid line: the traces of one logical scenario whose bindings differ in one
    binding only, which takes at least two values along it. A line that detection declines
    (fewer than 3 defined points, a repeated value) is counted as skipped. Sorted, so trace
    order does not matter."""
    found: dict[str, dict] = {}
    for (name, logical_id, held), points in sorted(lines.items()):
        if len({value for value, _ in points}) > 1:  # the binding varies along the line
            axis = found.setdefault(name, {"lines": 0, "skipped": 0, "findings": []})
            try:
                gaps = detect_result_gaps([(value, verdicts[i].worst_result or _UNDEFINED)
                                           for value, i in sorted(points)], parameter=name)
                axis["findings"] += [{**asdict(g), "held": dict(held), "logical_id": logical_id}
                                     for g in gaps]
                axis["lines"] += 1
            except MetricError:
                axis["skipped"] += 1
    return found


# ---------------------------------------------------------------------------
# suite files


_LEAF_KEYS = {"signal", "actor", "actor_b", "metric", "params", "comparator", "bound", "unit"}
_CRITERION_KEYS = {"criterion_id", "metric", "threshold", "scale", "application_period", "params",
                   "perspective"}


def _check_params(metric: str, params: Mapping) -> None:
    """Raise for a param the metric does not read or a missing actor param (CriterionError),
    or one that breaks the input rule of its key (ValueError); a metric declaring none takes any."""
    rules = registry.get(metric).params
    if rules is not None:
        for key, value in fields(params, set(rules), f"{metric} params", CriterionError).items():
            rules[key](value, f"{metric} param {key!r}")
        missing = [k for k in registry.get(metric).actors if k not in params]
        if missing:
            raise CriterionError(f"metric {metric!r} needs parameter {missing[0]!r}")


def _condition_from_dict(data: Mapping) -> ConditionNode:
    data = fields(data, _LEAF_KEYS | {"all", "any"}, "condition", CriterionError)
    for op in ("all", "any"):
        if op in data:
            children = fields(data, {op}, "condition", CriterionError)[op]
            return ConditionNode(op=op, children=tuple(_condition_from_dict(c) for c in children))
    try:
        node = ConditionNode(
            op="leaf",
            signal=data["signal"],
            actor=data.get("actor"),
            actor_b=data.get("actor_b"),
            metric=data.get("metric"),
            metric_params=data.get("params", {}),
            comparator=data["comparator"],
            bound=number(data["bound"], "condition bound"),
            unit=str(data.get("unit", "")),
        )
    except KeyError as exc:
        raise CriterionError(f"condition missing key {exc.args[0]!r}") from None
    if node.signal == "metric_value":
        _check_params(node.metric, node.metric_params)
    return node


def _stop_from_dict(data: Mapping | None) -> StopRule:
    if not data:
        return StopRule()
    data = fields(data, {"kind", "duration", "event", "actor"}, "stop", CriterionError)
    return StopRule(
        kind=data.get("kind", STOP_ON_CONDITION),
        duration=number(data["duration"], "stop duration") if "duration" in data else None,
        event=data.get("event"),
        actor=data.get("actor"),
    )


def _criterion_from_dict(data: Mapping) -> QualityCriterion:
    if not isinstance(data, Mapping):
        raise CriterionError(f"criterion must be an object, got {data!r}")
    try:
        fields(data, _CRITERION_KEYS, "criterion", CriterionError)
        if ("threshold" in data) == ("scale" in data):
            raise CriterionError(
                f"criterion {data.get('criterion_id')!r} needs exactly one of threshold or scale"
            )
        if "threshold" in data:
            t = fields(data["threshold"], {"comparator", "value", "unit"}, "threshold",
                       CriterionError)
            evaluation: Threshold | Scale = Threshold(
                comparator=t["comparator"], value=number(t["value"], "threshold value"),
                unit=str(t.get("unit", "")),
            )
        else:
            s = fields(data["scale"], {"breakpoints", "unit"}, "scale", CriterionError)
            evaluation = Scale(
                breakpoints=tuple((number(b, "breakpoint bound"), number(v, "breakpoint score"))
                                  for b, v in s["breakpoints"]),
                unit=str(s.get("unit", "")),
            )
        if "application_period" in data:
            p = fields(data["application_period"], {"start_condition", "stop"},
                       "application_period", CriterionError)
            period = ApplicationPeriod(
                start_condition=_condition_from_dict(p["start_condition"]),
                stop=_stop_from_dict(p.get("stop")),
            )
        else:
            period = always_active()
        criterion = QualityCriterion(
            criterion_id=str(data["criterion_id"]),
            metric_name=str(data["metric"]),
            evaluation=evaluation,
            application_period=period,
            metric_params=data.get("params", {}),
            perspective=str(data.get("perspective", "sut")),
        )
        _check_params(criterion.metric_name, criterion.metric_params)
        return criterion
    except KeyError as exc:
        raise CriterionError(f"criterion missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise CriterionError(f"malformed criterion {data.get('criterion_id')!r}: {exc}") from None


def load_criteria(path: str | Path) -> list[QualityCriterion]:
    """Read a criteria suite JSON file ({"criteria": [...]} or a bare list)."""
    with in_file(path, CriterionError):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        items = data.get("criteria") if isinstance(data, Mapping) else data
        if not isinstance(items, list) or not items:
            raise CriterionError("expected a non-empty 'criteria' list")
        if items is not data:
            fields(data, {"criteria"}, "criteria file", CriterionError)
        criteria = [_criterion_from_dict(item) for item in items]
        named: dict[str, str] = {}  # ids name plot-data files, so no two may name the same
        for cid in (criterion.criterion_id for criterion in criteria):
            if (first := named.get(safe_name(cid))) is not None:
                raise CriterionError(f"criterion_id {cid!r} is repeated" if first == cid
                                     else f"criterion ids {first!r} and {cid!r} name one plot file")
            named[safe_name(cid)] = cid
    return criteria
