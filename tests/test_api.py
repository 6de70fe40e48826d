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


def test_public_api_is_exactly_the_expected_names():
    # a name added to or dropped from the package API must be a deliberate change here
    assert sorted(agedelay.__all__) == PUBLIC_NAMES
    for name in agedelay.__all__:
        assert getattr(agedelay, name) is not None


# imports agedelay, runs one simulation, a serial two-point suite and the Weibull
# incomplete gamma, then lists every scipy module loaded
RUNTIME_SCRIPT = """
import sys

import agedelay as ad
from agedelay.engine import parse_grid_line

trace = ad.run_simulation(ad.parse_arrival("exp", 0.5), ad.parse_service("exp", 0.8), ad.Discipline.FCFS, 2000)
ad.summarize(trace)
grid = tuple(parse_grid_line(line, 0.8, 0.5) for line in ("fcfs exp", "lcfs-p weibull k=0.5"))
cfg = ad.SweepConfig(grid=grid, n_arrivals=2000, n_reps=2, base_seed=5, warmup_fraction=0.1, nu_grid=(0.0, 1.0))
ad.run_suite(cfg, parallel=False)
ad.parse_service("weibull k=0.5", 0.8).truncated_mean_below(2.0)
print([name for name in sys.modules if name == "scipy" or name.startswith("scipy.")])
"""


def run_fresh(script: str) -> str:
    """stdout of script in a fresh interpreter, which has loaded only what the script loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(agedelay.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script], check=True, env=env, capture_output=True, text=True).stdout


def test_runtime_never_loads_scipy():
    # scipy is a test dependency only
    assert run_fresh(RUNTIME_SCRIPT).strip() == "[]"


# modules a fresh import must not load: it would slow every command's start
IMPORT_SCRIPT = """
import sys

import agedelay
lazy = {lazy!r}
print([name for name in sys.modules if any(name == p or name.startswith(p + ".") for p in lazy)])
"""


def test_import_leaves_out_pool_modules():
    # only a pooled suite needs these packages
    pool_only = ("numpy.random", "concurrent.futures", "multiprocessing")
    assert run_fresh(IMPORT_SCRIPT.format(lazy=pool_only)).strip() == "[]"


def test_import_leaves_out_numpy_polynomial():
    # only the first gginf_age quadrature needs leggauss, and numpy.polynomial takes about 3 ms to import
    assert run_fresh(IMPORT_SCRIPT.format(lazy=("numpy.polynomial",))).strip() == "[]"
