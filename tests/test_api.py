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
    # scipy.stats alone takes most of a second to import, and scipy.integrate about 0.4 s and
    # 25 MB (2-vCPU VM); the package needs only scipy.special
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize")
    code = f"import sys, agedelay; loaded = [m for m in {heavy!r} if m in sys.modules]; assert not loaded, loaded"
    env = {**os.environ, "PYTHONPATH": str(Path(agedelay.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
