"""scenq: quality metrics for simulation-based testing of automated driving.

The package turns logical scenario descriptions into concrete runs,
simulates them with a deterministic kinematic model, computes quality
metrics at three resolution levels (per timestep, per scenario, per
scenario set), and judges the results against declarative quality criteria.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    CriterionError,
    MetricError,
    ScenarioError,
    ScenqError,
    SimulationError,
    TraceError,
    TraceParseError,
    UnitMismatchError,
)
from .results import (
    ConflictPoint,
    EncroachmentZone,
    MetricResult,
    MetricSeries,
    OccupancyInterval,
    ScalarResult,
    scalar_to_dict,
    undefined_scalar,
    write_scalars,
    write_series,
)
from .trace import (
    ActorClass,
    ActorTrack,
    Trace,
    TraceFormat,
    ValidationIssue,
    ValidationReport,
    first_contact_time,
    load_trace,
    load_trace_file,
    sample_track,
    save_trace,
    validate_trace,
    write_trace,
)
from .scenarios import (
    ConcreteScenario,
    LogicalScenario,
    ParameterRange,
    concretize,
    grid_size,
    iter_concretize,
    load_logical_scenario,
    logical_from_dict,
    write_concrete_set,
)
from .simulator import (
    SimConfig,
    SimOutcome,
    load_sim_config,
    sim_config_from_dict,
    simulate,
    simulate_batch,
)
from .nano import (
    braking_distance,
    braking_time,
    conflict_point,
    euclidean_distance,
    gap_time,
    headway,
    traffic_density,
    ttc,
    wttc,
)
from .micro import aggregate, build_encroachment_zone, et, occupancy, pet
from .macro import (
    CoverageResult,
    GapFinding,
    RepeatabilityEntry,
    RepeatabilityReport,
    collision_probability,
    detect_result_gaps,
    dtw,
    parameter_coverage,
    repeatability_report,
)
from .criteria import (
    ApplicationPeriod,
    ConditionNode,
    EvaluationReport,
    QualityCriterion,
    Scale,
    StopRule,
    Threshold,
    Verdict,
    active_intervals,
    always_active,
    comparison_margin,
    condition,
    evaluate_criterion,
    evaluate_suite,
    load_criteria,
    margin_holds,
    normalize_comparator,
)
from . import registry

# the import blocks above are the one list of public names
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_")
    and (not isinstance(value, _ModuleType) or value is registry)
)
