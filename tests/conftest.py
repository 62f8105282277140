"""Shared fixtures.

The simulation batches are expensive, so anything derived from them is
session scoped and computed once. Acceptance tests report one summary
line each; the lines are replayed in a terminal section at the end of
the run so they stay visible without -s.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from scenq import (
    LogicalScenario,
    SimConfig,
    SimOutcome,
    concretize,
    load_logical_scenario,
    load_sim_config,
    simulate,
    simulate_batch,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "scenq" / "data"

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def record_acceptance():
    def record(ok: bool, label: str, detail: str = "") -> bool:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {label}" + (f"  ({detail})" if detail else "")
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def intersection_logical() -> LogicalScenario:
    return load_logical_scenario(DATA / "intersection_scenario.json")


@pytest.fixture(scope="session")
def intersection_config() -> SimConfig:
    return load_sim_config(DATA / "intersection_config.json")


@pytest.fixture(scope="session")
def sweep_logical() -> LogicalScenario:
    return load_logical_scenario(DATA / "sweep_scenario.json")


@pytest.fixture(scope="session")
def sweep_config() -> SimConfig:
    return load_sim_config(DATA / "sweep_config.json")


@pytest.fixture(scope="session")
def batch600(intersection_logical, intersection_config):
    """All 600 concrete runs of the bundled intersection scenario,
    plus the wall time the batch took."""
    scenarios = concretize(intersection_logical)
    t0 = time.perf_counter()
    outcomes = simulate_batch(scenarios, intersection_config)
    elapsed = time.perf_counter() - t0
    return scenarios, outcomes, elapsed


@pytest.fixture(scope="session")
def reference_outcome(intersection_config) -> SimOutcome:
    """One mid-grid run used by several behavioral checks."""
    return simulate(
        {"v_max": 32.0, "t_cross": 5.0, "d_start": 16.0}, intersection_config
    )


@pytest.fixture(scope="session")
def sweep_runs(sweep_logical, sweep_config):
    """The ego start position sweep: list of (x, outcome), x = 38..78."""
    scenarios = concretize(sweep_logical)
    outcomes = simulate_batch(scenarios, sweep_config)
    return [(s.bindings["ego_start_x"], o) for s, o in zip(scenarios, outcomes)]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)
