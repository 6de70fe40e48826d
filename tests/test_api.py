import os
import subprocess
import sys
from pathlib import Path

import agedelay

PUBLIC_NAMES = [
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
    "compute_average_age",
    "dd1_age",
    "emit_outputs",
    "gginf_age_estimate",
    "load_config",
    "load_preset",
    "min_average_age",
    "pareto_frontier",
    "parse_arrival",
    "parse_service",
    "pk_delay",
    "preset_path",
    "run_and_emit",
    "run_simulation",
    "run_suite",
    "scalarized_pick",
    "second_moment_table",
    "summarize",
    "tail_decay_table",
]


def test_public_api_is_exactly_the_expected_names():
    # a name added to or dropped from the package API must be a deliberate change here
    assert sorted(agedelay.__all__) == PUBLIC_NAMES
    for name in agedelay.__all__:
        assert getattr(agedelay, name) is not None


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone takes most of a second to import; the package needs only scipy.special
    code = "import sys, agedelay; assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'"
    env = {**os.environ, "PYTHONPATH": str(Path(agedelay.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
