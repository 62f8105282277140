import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import scenq
from scenq.cli import _verdict_dict

PUBLIC_NAMES = [
    "ActorClass", "ActorTrack", "ApplicationPeriod", "ConcreteScenario",
    "ConditionNode", "ConflictPoint", "CoverageResult", "CriterionError",
    "EncroachmentZone", "EvaluationReport", "GapFinding", "LogicalScenario",
    "MetricError", "MetricResult", "MetricSeries", "OccupancyInterval",
    "ParameterRange", "QualityCriterion", "RepeatabilityEntry",
    "RepeatabilityReport", "ScalarResult", "Scale", "ScenarioError",
    "ScenqError", "SimConfig", "SimOutcome", "SimulationError", "StopRule",
    "Threshold", "Trace", "TraceError", "TraceParseError",
    "UnitMismatchError", "ValidationIssue", "ValidationReport", "Verdict",
    "active_intervals", "aggregate", "always_active", "braking_distance",
    "braking_time", "build_encroachment_zone", "collision_probability",
    "comparison_margin", "concretize", "condition", "conflict_point",
    "detect_result_gaps", "dtw", "et", "euclidean_distance",
    "evaluate_criterion", "evaluate_suite", "first_contact_time",
    "gap_time", "grid_size", "headway", "iter_concretize", "iter_simulate",
    "load_criteria", "load_logical_scenario", "load_sim_config",
    "load_trace_file", "logical_from_dict", "margin_holds",
    "normalize_comparator", "occupancy", "parameter_coverage", "pet",
    "registry", "repeatability_report", "sample_track", "save_trace",
    "sim_config_from_dict", "simulate", "simulate_batch",
    "traffic_density", "ttc", "undefined_scalar", "validate_trace",
    "write_concrete_set", "write_series", "write_trace", "wttc",
]


def test_public_names():
    assert len(PUBLIC_NAMES) == 84
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


def _run_at_import(body: list) -> list:
    """The statements of ``body``, with those of its try statements' blocks."""
    found = []
    for node in body:
        found.append(node)
        if isinstance(node, ast.Try):  # e.g. a builtin module with a fallback
            found += _run_at_import([*node.body, *(s for h in node.handlers for s in h.body),
                                     *node.orelse, *node.finalbody])
    return found


def test_imports_are_at_module_level():
    nested = []
    for path in sorted(Path(scenq.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = _run_at_import(tree.body)
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top]
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    """A module's _-prefixed names are its own: no other scenq module reads one,
    by attribute access on the imported module or by importing the name."""
    package = Path(scenq.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()  # the names the module binds to scenq modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        imported.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        reads.append(f"{path.name}:{node.lineno} imports {alias.name}")
        reads += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported and _private(node.attr)]
    assert reads == []


# the JSON file loaders: each reads its numbers through errors.number and its
# objects through errors.fields, so a bare float() lets NaN, Infinity, a
# numeric string or a bool through again
JSON_LOADERS = {
    "scenarios": ("logical_from_dict",),
    "simulator": ("sim_config_from_dict",),
    "criteria": ("_criterion_from_dict", "_condition_from_dict", "_stop_from_dict"),
    "trace": ("load_trace_file",),
}


def test_json_loaders_read_numbers_and_objects_through_errors():
    for module, functions in JSON_LOADERS.items():
        path = Path(scenq.__file__).parent / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        from_errors = {alias.name for node in tree.body
                       if isinstance(node, ast.ImportFrom) and node.module == "errors"
                       for alias in node.names}
        assert {"fields", "number"} <= from_errors, f"{module} imports {sorted(from_errors)}"
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in functions:
            calls = [node.func.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
            assert "float" not in calls, f"{module}.{name} calls float"


def test_text_files_name_their_encoding():
    """Every file scenq opens, reads or writes as text names its encoding, so none is read
    or written in the locale's: each open, read_text and write_text call passes
    ``encoding=`` or opens in a binary mode."""
    calls, unnamed = 0, []
    for path in sorted(Path(scenq.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name not in ("open", "read_text", "write_text"):
                continue
            calls += 1
            keywords = {keyword.arg: keyword.value for keyword in node.keywords}
            # the mode: open(file, mode) or path.open(mode)
            at = 1 if isinstance(node.func, ast.Name) else 0
            mode = keywords.get("mode", node.args[at] if name == "open" and len(node.args) > at
                                else None)
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if "encoding" not in keywords and not binary:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert calls >= 15
    assert unnamed == []


def test_no_command_loads_openssl(tmp_path):
    """The manifest's config hash takes CPython's builtin sha256: hashlib loads
    OpenSSL, which costs every command about 3.5 MB of resident memory."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "scenario_id": "two", "fixed": {"t_cross": 5.0, "d_start": 16.0},
        "parameters": [{"name": "v_max", "min": 30.0, "max": 34.0, "step": 4.0}]}))
    config = Path(scenq.__file__).parent / "data" / "intersection_config.json"
    traces = tmp_path / "sim" / "traces"
    script = f"""
import sys
import scenq.cli
assert scenq.cli.main(["simulate", "--scenario", {str(scenario)!r}, "--config", {str(config)!r},
                       "--out", {str(tmp_path / "sim")!r}]) == 0
code = scenq.cli.main(["compare", "--reference", {str(traces / "two_0.csv")!r},
                       "--runs", {str(traces / "two_1.csv")!r}, "--threshold", "inf",
                       "--out", {str(tmp_path / "cmp")!r}])
print(code, sorted({{"_hashlib", "_ssl"}} & set(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(scenq.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


def test_no_module_imports_hashlib():
    """hashlib maps OpenSSL, about 3.5 MB of resident memory in every command: the manifest's
    sha256 is CPython's builtin one (see the import at the top of cli.py), and a saved trace's
    checksum is zlib's CRC-32, as zlib is loaded at startup anyway."""
    script = """
import pkgutil, sys
import scenq
for module in pkgutil.iter_modules(scenq.__path__):
    __import__(f"scenq.{module.name}")
print(sorted({"hashlib", "_hashlib", "_ssl"} & set(sys.modules)))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(scenq.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_a_verdict_holds_what_evaluation_json_holds():
    """Every Verdict field is written to evaluation.json, so no field rides along unseen."""
    written = _verdict_dict(scenq.Verdict("c", "pass"))
    assert {f.name for f in fields(scenq.Verdict)} == set(written)
    worst = scenq.MetricResult(1.0, 2.0, "s")
    written = _verdict_dict(scenq.Verdict("c", "pass", worst_result=worst))["worst_result"]
    assert list(written) == [f.name for f in fields(scenq.MetricResult)]  # asdict's order
    assert list(written.values()) == [1.0, 2.0, "s", True]


def _benchmark_spans():
    """perfbench/spans.py, which imports only the standard library, loaded by its path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_times_exists():
    """The benchmark's traced view wraps each (module, attribute) of spans.TIMED: one that
    is gone fails every traced pass."""
    missing = [f"{mod_name}.{attr}" for mod_name, attr in _benchmark_spans().TIMED.values()
               if not callable(getattr(importlib.import_module(mod_name), attr, None))]
    assert missing == []


def test_what_a_set_level_metric_keeps_names_its_run(reference_outcome):
    """The benchmark's traced view keys each set-level compute by the scenario_id of each
    item it is given, which is what the spec's keep took of each trace."""
    trace = reference_outcome.trace
    for spec in scenq.registry.all_specs():
        if spec.level == scenq.registry.MACROSCOPIC:
            kept = spec.keep(trace, {}) if spec.keep else trace
            assert kept.scenario_id == trace.scenario_id, spec.name
