"""Exception types raised across the package, and the rules input files are read by."""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping


class ScenqError(Exception):
    """Base class for all errors raised by this package."""


class TraceError(ScenqError):
    """Invalid trace content or an operation outside a trace's domain."""


class TraceParseError(TraceError):
    """Malformed trace input.

    Attributes:
        line: 1-based line number of the offending row, when known.
        actor_id: Actor the offending row belongs to, when known.
    """

    def __init__(self, message: str, *, line: int | None = None, actor_id: str | None = None):
        super().__init__(message)
        self.line = line
        self.actor_id = actor_id


class ScenarioError(ScenqError):
    """Invalid parameter range, logical scenario, or off-grid binding."""


class SimulationError(ScenqError):
    """Invalid simulator configuration or missing scenario bindings."""


class MetricError(ScenqError):
    """A metric cannot be computed from the given inputs."""


class CriterionError(ScenqError):
    """Invalid criterion definition or criterion/metric mismatch."""


class UnitMismatchError(CriterionError):
    """Criterion bound unit does not match the metric unit."""


@contextmanager
def in_file(path: str | Path, error: type[ScenqError]) -> Iterator[None]:
    """Name ``path`` in each ``error`` raised in the block: ``<path>: <message>``.

    The exception keeps its type and attributes. Invalid JSON or UTF-8 read
    in the block raises ``error`` as ``<path>: invalid JSON (<reason>)`` or
    ``<path>: not UTF-8 text (<reason> at byte <offset>)``.
    """
    try:
        yield
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc.msg})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except error as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def fields(data: Any, known: set[str], what: str, error: type[ScenqError]) -> Mapping:
    """``data``, checked to be an object (else TypeError) with known keys (else ``error``)."""
    if not isinstance(data, Mapping):
        raise TypeError(f"{what} must be an object, got {data!r}")
    unknown = set(data) - known
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    return data


def number(value: Any, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (no bool); else ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # exact for any int, so also one too large
            return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")
