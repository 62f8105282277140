import ast
import re
from pathlib import Path

import scenq

PUBLIC_NAMES = [
    "ActorClass", "ActorTrack", "ApplicationPeriod", "ConcreteScenario",
    "ConditionNode", "ConflictPoint", "CoverageResult", "CriterionError",
    "EncroachmentZone", "EvaluationReport", "GapFinding", "LogicalScenario",
    "MetricError", "MetricResult", "MetricSeries", "OccupancyInterval",
    "ParameterRange", "QualityCriterion", "RepeatabilityEntry",
    "RepeatabilityReport", "ScalarResult", "Scale", "ScenarioError",
    "ScenqError", "SimConfig", "SimOutcome", "SimulationError", "StopRule",
    "Threshold", "Trace", "TraceError", "TraceFormat", "TraceParseError",
    "UnitMismatchError", "ValidationIssue", "ValidationReport", "Verdict",
    "active_intervals", "aggregate", "always_active", "braking_distance",
    "braking_time", "build_encroachment_zone", "collision_probability",
    "comparison_margin", "concretize", "condition", "conflict_point",
    "detect_result_gaps", "dtw", "et", "euclidean_distance",
    "evaluate_criterion", "evaluate_suite", "first_contact_time",
    "gap_time", "grid_size", "headway", "iter_concretize", "load_criteria",
    "load_logical_scenario", "load_sim_config", "load_trace",
    "load_trace_file", "logical_from_dict", "margin_holds",
    "normalize_comparator", "occupancy", "parameter_coverage", "pet",
    "registry", "repeatability_report", "sample_track", "save_trace",
    "scalar_to_dict", "sim_config_from_dict", "simulate", "simulate_batch",
    "traffic_density", "ttc", "undefined_scalar", "validate_trace",
    "write_concrete_set", "write_scalars", "write_series", "write_trace",
    "wttc",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 87
    assert len(set(scenq.__all__)) == len(scenq.__all__)
    assert sorted(scenq.__all__) == PUBLIC_NAMES
    for name in scenq.__all__:
        getattr(scenq, name)


# where a public name counts as reached: the package's own modules, the demos,
# the README and the benchmark scripts; a name only tests use is not public
REACHING = ("src/scenq/*.py", "demos/*.py", "README.md", "perfbench/*.py")


def test_every_public_name_is_reached():
    root = Path(__file__).resolve().parent.parent
    paths = [path for pattern in REACHING for path in sorted(root.glob(pattern))
             if path.name != "__init__.py"]
    lines = [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]
    unreached = []
    for name in scenq.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unreached.append(name)
    assert unreached == []


# modules that metrics and results are built from; the registry imports
# them, so none of them may import the registry back
BELOW_REGISTRY = ("results", "trace", "geometry", "nano", "micro", "macro",
                  "simulator", "scenarios")


def _module_imports(module: str):
    """Every dotted name an import statement anywhere in the module mentions."""
    path = Path(scenq.__file__).parent / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_imports_are_at_module_level():
    nested = []
    for path in sorted(Path(scenq.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert nested == []


def test_layers_below_registry_do_not_import_it():
    for module in BELOW_REGISTRY:
        for name in _module_imports(module):
            assert "registry" not in name.split("."), f"{module} imports {name}"


# layers the simulator builds on and metric modules that read its traces: none
# may import it, so a collision is found in the trace, never from SimOutcome
BELOW_SIMULATOR = ("results", "trace", "geometry", "micro", "macro", "scenarios")


def test_trace_readers_do_not_import_the_simulator():
    for module in BELOW_SIMULATOR:
        for name in _module_imports(module):
            assert "simulator" not in name.split("."), f"{module} imports {name}"


def test_cli_reaches_metrics_only_through_the_registry():
    for name in _module_imports("cli"):
        assert "nano" not in name.split("."), f"cli imports {name}"
