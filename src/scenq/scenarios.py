"""Logical scenarios and their expansion into concrete parameter grids.

A logical scenario declares named parameter ranges (min, max, step) plus
fixed values; concretization enumerates the full Cartesian grid into
concrete scenarios with every parameter bound. Grid values are computed by
index multiplication (min + i*step), never by repeated addition, so the
enumeration is bit-reproducible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import ScenarioError


def _snap_tolerance(maximum: float) -> float:
    return 1e-9 * max(1.0, abs(maximum))


@dataclass(frozen=True)
class ParameterRange:
    """Inclusive numeric range with a fixed step.

    Attributes:
        name: Parameter name, unique within a logical scenario.
        minimum: First grid value.
        maximum: Last grid value; (maximum - minimum) must be an integer
            multiple of step within 1e-9 relative tolerance.
        step: Grid spacing, > 0.
        unit: Unit label carried as an opaque string for reporting.
    """

    name: str
    minimum: float
    maximum: float
    step: float
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("parameter name must be non-empty")
        if not (self.step > 0.0):
            raise ScenarioError(f"parameter {self.name!r}: step must be > 0")
        if self.minimum > self.maximum:
            raise ScenarioError(f"parameter {self.name!r}: min > max")
        ratio = (self.maximum - self.minimum) / self.step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ScenarioError(
                f"parameter {self.name!r}: span {self.maximum - self.minimum} "
                f"is not an integer multiple of step {self.step}"
            )

    @property
    def count(self) -> int:
        return int(round((self.maximum - self.minimum) / self.step)) + 1

    def values(self) -> list[float]:
        """All grid values, endpoints inclusive, snapped exactly to maximum."""
        vals = [self.minimum + i * self.step for i in range(self.count)]
        if abs(vals[-1] - self.maximum) <= _snap_tolerance(self.maximum):
            vals[-1] = self.maximum
        return vals

    def contains(self, value: float) -> bool:
        """True if value lies on the grid within the snap tolerance."""
        tol = _snap_tolerance(self.maximum)
        if value < self.minimum - tol or value > self.maximum + tol:
            return False
        i = round((value - self.minimum) / self.step)
        return abs(value - (self.minimum + i * self.step)) <= tol

    def index_of(self, value: float) -> int:
        if not self.contains(value):
            raise ScenarioError(f"value {value} off the grid of parameter {self.name!r}")
        return int(round((value - self.minimum) / self.step))


@dataclass(frozen=True)
class LogicalScenario:
    """A parameterized scenario family.

    Attributes:
        scenario_id: Identifier, used as the prefix of concrete ids.
        description: Free-text account of what happens in the scenario.
        parameters: Declared ranges; the last-declared one varies fastest
            during enumeration.
        fixed: Constant bindings merged into every concrete scenario.
    """

    scenario_id: str
    description: str = ""
    parameters: Sequence[ParameterRange] = ()
    fixed: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenario_id:
            raise ScenarioError("scenario_id must be non-empty")
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "fixed", dict(self.fixed))
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ScenarioError("duplicate parameter names")
        clash = set(names) & set(self.fixed)
        if clash:
            raise ScenarioError(f"parameters also listed as fixed: {sorted(clash)}")


@dataclass(frozen=True)
class ConcreteScenario:
    """One fully bound scenario from a logical scenario's grid.

    Attributes:
        scenario_id: ``<logical_id>#<index>``.
        logical_id: Parent logical scenario id.
        bindings: Every parameter name plus every fixed key, bound to a value.
        index: Position in grid enumeration order, 0-based.
    """

    scenario_id: str
    logical_id: str
    bindings: Mapping[str, float]
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bindings", dict(self.bindings))
        if self.index < 0:
            raise ScenarioError("index must be non-negative")


def grid_size(logical: LogicalScenario) -> int:
    """Number of concrete scenarios, without materializing them."""
    n = 1
    for p in logical.parameters:
        n *= p.count
    return n


def iter_concretize(logical: LogicalScenario) -> Iterator[ConcreteScenario]:
    """Lazily enumerate the grid; last-declared parameter varies fastest."""
    names = [p.name for p in reversed(logical.parameters)]
    cells = itertools.product(*(p.values() for p in logical.parameters))
    for index, values in enumerate(cells):
        bindings = dict(logical.fixed)
        bindings.update(zip(names, reversed(values)))  # files keep this key order
        yield ConcreteScenario(
            scenario_id=f"{logical.scenario_id}#{index}",
            logical_id=logical.scenario_id,
            bindings=bindings,
            index=index,
        )


def concretize(logical: LogicalScenario) -> list[ConcreteScenario]:
    """Expand a logical scenario into its full ordered grid.

    With an empty parameter list the result is a single concrete scenario
    holding only the fixed bindings.
    """
    return list(iter_concretize(logical))


# ---------------------------------------------------------------------------
# files


_SCENARIO_KEYS = {"scenario_id", "description", "parameters", "fixed"}
_PARAMETER_KEYS = {"name", "min", "max", "step", "unit"}


def logical_from_dict(data: Mapping) -> LogicalScenario:
    if not isinstance(data, Mapping):
        raise ScenarioError(f"logical scenario must be an object, got {data!r}")
    try:
        extra = set(data) - _SCENARIO_KEYS
        if extra:
            raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
        for p in data.get("parameters", []):
            bad = set(p) - _PARAMETER_KEYS
            if bad:
                raise ScenarioError(f"unknown parameter keys: {sorted(bad)}")
        parameters = tuple(
            ParameterRange(
                name=str(p["name"]),
                minimum=float(p["min"]),
                maximum=float(p["max"]),
                step=float(p["step"]),
                unit=str(p.get("unit", "")),
            )
            for p in data.get("parameters", [])
        )
        return LogicalScenario(
            scenario_id=str(data["scenario_id"]),
            description=str(data.get("description", "")),
            parameters=parameters,
            fixed={str(k): float(v) for k, v in data.get("fixed", {}).items()},
        )
    except KeyError as exc:
        raise ScenarioError(f"logical scenario file missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed logical scenario: {exc}") from None


def load_logical_scenario(path: str | Path) -> LogicalScenario:
    """Read a logical scenario JSON file."""
    try:
        return logical_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc.msg})") from None
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def write_concrete_set(scenarios: Sequence[ConcreteScenario], path: str | Path) -> None:
    """Emit a concrete scenario set as JSONL, one binding object per line."""
    lines = [
        json.dumps(
            {
                "scenario_id": s.scenario_id,
                "logical_id": s.logical_id,
                "index": s.index,
                "bindings": dict(s.bindings),
            }
        )
        for s in scenarios
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
