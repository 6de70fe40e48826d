"""Simulator and analytic-oracle toolkit for age-of-information vs. delay tradeoffs."""

from .disciplines import Discipline
from .distributions import (
    ArrivalProcess,
    ServiceDistribution,
    parse_arrival,
    parse_service,
)
from .engine import (
    ExperimentPoint,
    SimulationTrace,
    busy_periods,
    run_simulation,
)
from .errors import DegenerateSampleError, ParameterError, StabilityError
from .experiments import (
    FrontierPoint,
    SweepConfig,
    emit_outputs,
    load_config,
    load_preset,
    pareto_frontier,
    run_and_emit,
    run_suite,
    scalarized_pick,
)
from .metrics import (
    MetricsReport,
    age_at,
    summarize,
)
from .oracles import (
    gginf_age,
    min_average_age,
    pk_delay,
    tail_decay_table,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalProcess",
    "DegenerateSampleError",
    "Discipline",
    "ExperimentPoint",
    "FrontierPoint",
    "MetricsReport",
    "ParameterError",
    "ServiceDistribution",
    "SimulationTrace",
    "StabilityError",
    "SweepConfig",
    "age_at",
    "busy_periods",
    "emit_outputs",
    "gginf_age",
    "load_config",
    "load_preset",
    "min_average_age",
    "pareto_frontier",
    "parse_arrival",
    "parse_service",
    "pk_delay",
    "run_and_emit",
    "run_simulation",
    "run_suite",
    "scalarized_pick",
    "summarize",
    "tail_decay_table",
]
