"""Config-driven experiment suites: sweeps, Pareto frontiers, result files.

A suite is a grid of points, each a discipline, a service law and an
arrival process named by one grid line (the tag arrival=det is how the
periodic-arrival baseline joins a Poisson suite).  Each point runs n_reps
independent replications, coupled with those of the other points of its
(arrival, service) law; the aggregated point carries its oracle columns
so every result row is self-checking.
"""

from __future__ import annotations

import configparser
import json
import math
import operator
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .disciplines import Discipline
from .distributions import ArrivalProcess, ServiceDistribution, format_shape, parse_number
from . import engine
from .engine import ExperimentPoint, parse_grid_line
from .errors import ParameterError
from .metrics import MetricsReport, check_finite, summarize, t_halfwidth
from .oracles import gginf_age, min_average_age, pk_delay

# Not called here: the benchmark's tracer (perfbench/tracing.py) wraps this name on
# this module in traced runs, and fails where the module lacks it.
from .oracles import gginf_age_estimate  # noqa: F401

PRESETS = ("figure1", "tradeoff-sweep", "no-tradeoff")

# The most jobs, n_reps per law, that a suite may run.  run_suite holds a tuple and the reports of every job,
# over 512 bytes a job (measured: 176 and 352 for a law of one discipline), and a 64-bit process on x86-64 or
# arm64 addresses at most 2^48 bytes: past 2^48 / 512 jobs, a suite fills no host's memory before it fails.
_MAX_JOBS = 1 << 39


@dataclass(frozen=True)
class SweepConfig:
    """A suite, checked once when built, so any SweepConfig can run as given."""

    grid: tuple[ExperimentPoint, ...]
    n_arrivals: int
    n_reps: int
    base_seed: int
    warmup_fraction: float
    nu_grid: tuple[float, ...]
    csv_name: str = "points.csv"
    json_name: str = "points.json"
    plot_name: str = "plot.gp"

    def __post_init__(self):
        if not self.grid:
            raise ParameterError("sweep grid is empty")
        repeated = [p.label() for p, count in Counter(self.grid).items() if count > 1]
        if repeated:
            raise ParameterError(f"[grid] repeats point {', '.join(repeated)}")
        engine.check_integer("n_reps", self.n_reps)
        if self.n_reps < 1:
            raise ParameterError(f"n_reps must be >= 1, got {self.n_reps}")
        # every run is summarized, so it must keep two packets past its warm-up
        engine.check_run(self.n_arrivals, self.warmup_fraction, self.base_seed, min_kept=2)
        # plain ints: a numpy integer's seed arithmetic can wrap, and json cannot write one
        for name in ("n_arrivals", "n_reps", "base_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        laws = len({(p.arrival, p.service) for p in self.grid})
        if self.n_reps * laws > _MAX_JOBS:
            raise ParameterError(
                f"n_reps={self.n_reps} makes {self.n_reps * laws} jobs, n_reps per law, more than the "
                f"{_MAX_JOBS} (2^39) whose bookkeeping a 64-bit process can hold"
            )
        nus = self.nu_grid
        if not nus or not all(0 <= nu < math.inf for nu in nus):
            raise ParameterError(f"nu_grid must be nonempty, finite and nonnegative, got {list(nus)}")
        repeated = sorted({nu for nu in nus if nus.count(nu) > 1})
        if repeated:
            raise ParameterError(f"nu_grid repeats weight {', '.join(map(format_shape, repeated))}")
        names = (self.csv_name, self.json_name, self.plot_name)
        for name in names:
            # a bare file name, so every output lands inside the output directory
            if name in ("", "..") or name != Path(name).name:
                raise ParameterError(f"[output] names must be plain file names, got {name!r}")
        if len(set(names)) < len(names):
            raise ParameterError(f"[output] file names must differ, got {', '.join(names)}")

    def echo(self) -> dict:
        return {
            "n_arrivals": self.n_arrivals,
            "n_reps": self.n_reps,
            "base_seed": self.base_seed,
            "warmup_fraction": self.warmup_fraction,
            "nu_grid": list(self.nu_grid),
            "grid": [p.label() for p in self.grid],
        }


@dataclass(frozen=True)
class FrontierPoint:
    """One aggregated grid point with its oracle columns."""

    point: ExperimentPoint
    n_arrivals: int
    n_reps: int
    seed: int
    avg_age: float
    avg_age_ci: float
    mean_delay: float
    mean_delay_ci: float
    delay_var: float
    delay_var_ci: float
    informative_frac: float
    a_min: float
    pk_delay: float | None
    gginf_age: float | None

    def label(self) -> str:
        return self.point.label()

    def columns(self) -> dict:
        """Published name -> value: the point's six columns, then every other field in order."""
        return {**point_columns(self.point), **{f.name: getattr(self, f.name) for f in fields(self)[1:]}}

    def to_json_dict(self) -> dict:
        """The row's columns; no NaN or infinity, which JSON lacks."""
        return {name: _json_float(value) for name, value in self.columns().items()}


_COLUMNS = ("discipline", "family", "shape", "arrival", "lambda", "mu", *(f.name for f in fields(FrontierPoint)[1:]))
# The CSV carries every other column, in order.
_JSON_ONLY = ("delay_var_ci",)
CSV_COLUMNS = tuple(name for name in _COLUMNS if name not in _JSON_ONLY)


def point_columns(p: ExperimentPoint) -> dict:
    """The six columns that name a point, as every result row opens."""
    head = (p.discipline.value, p.service.family, p.service.shape, p.arrival.family, p.arrival.lam, p.service.mu)
    return dict(zip(_COLUMNS, head))


def point_oracles(points: Sequence[ExperimentPoint]) -> list[dict]:
    """Each point's oracle cells: a_min, pk_delay and the exact gginf_age.

    gginf_age depends only on the (arrival, service) law, so it is computed
    once per law of points.
    """
    gginf = {}
    cells = []
    for point in points:
        arrival, service = point.arrival, point.service
        if (arrival, service) not in gginf:
            gginf[arrival, service] = gginf_age(arrival, service)
        pk = None  # P-K is the mean delay of a non-preemptive single server under Poisson arrivals
        if point.discipline in (Discipline.FCFS, Discipline.LCFS_NONPREEMPTIVE) and arrival.family == "exp":
            pk = pk_delay(arrival.lam, service)
        cells.append({"a_min": min_average_age(arrival), "pk_delay": pk, "gginf_age": gginf[arrival, service]})
    return cells


def _json_float(x):
    """NaN becomes null and an infinity the string 'inf'; other values pass through."""
    if isinstance(x, float) and not math.isfinite(x):
        return None if math.isnan(x) else "inf"
    return x


# Each discipline's cost per packet-run, run and summary, relative to fcfs's (measured on 2 vCPUs).
_WORK_WEIGHTS = {
    Discipline.FCFS: 1,
    Discipline.INFINITE_SERVER: 1,
    Discipline.LCFS_PREEMPTIVE: 2,
    Discipline.LCFS_NONPREEMPTIVE: 4,
}
# The weighted packet-runs that pay for one pool worker: half the work, about 1.3M, at which
# two workers first beat one process on 2 vCPUs.
_WORK_PER_WORKER = 5 << 17


def _law_worker(
    job: tuple[ArrivalProcess, ServiceDistribution, tuple[Discipline, ...], int, float, int],
) -> list[MetricsReport]:
    """One replication of one law: a run and a report per discipline, in the order given."""
    # map holds no trace while it asks for the next run
    return list(map(summarize, engine.run_law(*job)))


def run_suite(cfg: SweepConfig, parallel: bool = True, max_workers: int | None = None) -> list[FrontierPoint]:
    """Run every grid point, aggregate replications, attach oracle columns.

    The points that share a law (arrival, service) are coupled: law l, in
    order of first appearance in the grid, runs replication r at seed
    base_seed + l * n_reps + r for each of its disciplines, and every row
    reports its law's base seed, base_seed + l * n_reps.  One job per (law,
    rep) runs the law's disciplines in grid order; they share one draw and
    its FCFS completions.  Deterministic for a given config and base
    seed: law l's jobs are results l * n_reps to (l + 1) * n_reps - 1,
    whatever order they ran in, and report j of each is that of the law's
    j-th point.  The oracle cells come first, so an
    oracle that refuses a point stops the suite before any replication.
    A mean or halfwidth over replications that leaves the double range
    raises ParameterError, as summarize does for one replication.
    A parallel suite runs min(len(jobs), max_workers, work // _WORK_PER_WORKER)
    workers, max_workers being by default the CPUs this process may run
    on and work the suite's packet-runs, n_arrivals * n_reps per point,
    each weighted by its discipline's _WORK_WEIGHTS.  It runs serially
    where that leaves one, since a smaller suite ends before a pool of
    two would pay for its forks.
    """
    oracle_cells = point_oracles(cfg.grid)
    laws: dict[tuple[ArrivalProcess, ServiceDistribution], list[int]] = {}
    for idx, point in enumerate(cfg.grid):
        laws.setdefault((point.arrival, point.service), []).append(idx)
    n_reps = cfg.n_reps
    jobs = [
        (arrival, service, tuple(cfg.grid[i].discipline for i in idxs), cfg.n_arrivals, cfg.warmup_fraction, seed)
        for law, ((arrival, service), idxs) in enumerate(laws.items())
        for seed in range(cfg.base_seed + law * n_reps, cfg.base_seed + (law + 1) * n_reps)
    ]

    if max_workers is None:  # the CPUs this process may run on
        max_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    work = cfg.n_arrivals * n_reps * sum(_WORK_WEIGHTS[point.discipline] for point in cfg.grid)
    workers = min(len(jobs), max_workers, work // _WORK_PER_WORKER)
    if parallel and workers > 1:
        # imported here, so that only a pooled suite pays for them; numpy.random is loaded once,
        # before the fork, so that no worker imports it again on its first job
        import numpy.random  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_law_worker, jobs))
    else:
        results = [_law_worker(job) for job in jobs]

    rows = {}
    for law, idxs in enumerate(laws.values()):
        law_results = results[law * n_reps:(law + 1) * n_reps]
        for j, idx in enumerate(idxs):
            reps = [reports[j] for reports in law_results]
            rows[idx] = _row(cfg, cfg.grid[idx], cfg.base_seed + law * n_reps, reps, oracle_cells[idx])
    return [rows[idx] for idx in range(len(cfg.grid))]


def _row(cfg: SweepConfig, point: ExperimentPoint, seed: int, reps: list[MetricsReport], cells: dict) -> FrontierPoint:
    """One point's row: the means and t-halfwidths of its replications, or one replication's batch CIs."""
    if cfg.n_reps >= 2:
        ages = [r.avg_age for r in reps]
        delays = [r.mean_delay for r in reps]
        variances = [r.delay_variance for r in reps]
        # each replication's columns are finite, but their means and halfwidths may not be
        with np.errstate(over="ignore", invalid="ignore"):
            columns = {
                "avg_age": float(np.mean(ages)),
                "avg_age_ci": t_halfwidth(ages),
                "mean_delay": float(np.mean(delays)),
                "mean_delay_ci": t_halfwidth(delays),
                "delay_var": float(np.mean(variances)),
                "delay_var_ci": t_halfwidth(variances),
            }
        check_finite(point, cfg.n_arrivals, columns)
    else:
        (rep,) = reps
        columns = {
            "avg_age": rep.avg_age,
            "avg_age_ci": rep.ci_halfwidth_age,
            "mean_delay": rep.mean_delay,
            "mean_delay_ci": rep.ci_halfwidth_delay,
            "delay_var": rep.delay_variance,
            "delay_var_ci": math.nan,
        }
    return FrontierPoint(
        point=point,
        n_arrivals=cfg.n_arrivals,
        n_reps=cfg.n_reps,
        seed=seed,
        **columns,
        informative_frac=float(np.mean([r.informative_fraction for r in reps])),
        **cells,
    )


def _objective_value(point: FrontierPoint, objective: str) -> float:
    if objective == "mean_delay":
        return point.mean_delay
    if objective == "delay_variance":
        return point.delay_var
    raise ParameterError(f"objective must be 'mean_delay' or 'delay_variance', got {objective!r}")


def pareto_frontier(points: Sequence[FrontierPoint], objective: str = "mean_delay") -> list[FrontierPoint]:
    """Non-dominated subset under componentwise <= on (avg_age, objective).

    q dominates p when q is <= in both coordinates and strictly better in
    at least one.  Result is sorted by avg_age ascending.
    """
    if not points:
        raise ParameterError("pareto_frontier needs a nonempty point list")
    keep = []
    for p in points:
        pa, po = p.avg_age, _objective_value(p, objective)
        dominated = False
        for q in points:
            qa, qo = q.avg_age, _objective_value(q, objective)
            if qa <= pa and qo <= po and (qa < pa or qo < po):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return sorted(keep, key=lambda p: (p.avg_age, _objective_value(p, objective), p.label()))


def scalarized_pick(points: Sequence[FrontierPoint], nu: float, objective: str = "mean_delay") -> FrontierPoint:
    """Point minimizing objective + nu * avg_age; ties go to lower age, then label."""
    if not points:
        raise ParameterError("scalarized_pick needs a nonempty point list")
    if not 0 <= nu < math.inf:
        raise ParameterError(f"nu must be finite and nonnegative, got {nu}")
    return min(
        points,
        key=lambda p: (_objective_value(p, objective) + nu * p.avg_age, p.avg_age, p.label()),
    )


def format_cell(value) -> str:
    """One CSV cell: empty for None, floats to 12 significant digits ('inf' for infinity)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_text(points: Sequence[FrontierPoint]) -> str:
    """The CSV header and one row per point, newline-terminated."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(format_cell(row[name]) for name in CSV_COLUMNS) for row in map(FrontierPoint.columns, points))
    return "\n".join(lines) + "\n"


def _plot_script(points: Sequence[FrontierPoint], csv_name: str) -> str:
    rows = [p.columns() for p in points]
    series = list(dict.fromkeys((row["discipline"], row["family"], row["arrival"]) for row in rows))
    pairs = [(discipline, family) for discipline, family, _ in series]
    disc, fam, arr, age, delay = (
        CSV_COLUMNS.index(name) + 1 for name in ("discipline", "family", "arrival", "avg_age", "mean_delay")
    )
    clauses = []
    for discipline, family, arrival in series:
        cond = f'strcol({disc}) eq "{discipline}" && strcol({fam}) eq "{family}"'
        if pairs.count((discipline, family)) > 1:  # the arrival tells the series apart
            cond += f' && strcol({arr}) eq "{arrival}"'
        tag = "" if arrival == "exp" else f" arrival={arrival}"
        clauses.append(
            f'  "{csv_name}" using ({cond} ? ${age} : 1/0):(${delay})'
            f' title "{discipline} {family}{tag}" with points'
        )
    body = ", \\\n".join(clauses) if clauses else f'  "{csv_name}" using {age}:{delay} with points'
    return (
        "# age-delay scatter; render with: gnuplot -persist <this file>\n"
        "set datafile separator comma\n"
        "set key outside\n"
        'set xlabel "average age"\n'
        'set ylabel "mean delay"\n'
        "plot \\\n" + body + "\n"
    )


def emit_outputs(
    points: Sequence[FrontierPoint],
    frontier: Sequence[FrontierPoint],
    out_dir: Path,
    cfg: SweepConfig,
    scalarized: dict[float, FrontierPoint],
    csv_name: str | None = None,
    json_name: str | None = None,
    plot_name: str | None = None,
) -> list[Path]:
    """Write the CSV/JSON/plot-script triple; returns the written paths.

    A name left None is cfg's [output] name.  Reruns with the same inputs
    produce byte-identical files (there is no timestamp or other ambient
    state in any output).
    """
    out_dir = Path(out_dir)
    csv_name = cfg.csv_name if csv_name is None else csv_name
    json_name = cfg.json_name if json_name is None else json_name
    plot_name = cfg.plot_name if plot_name is None else plot_name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / csv_name
        json_path = out_dir / json_name
        plot_path = out_dir / plot_name
        csv_path.write_text(csv_text(points))
        doc = {
            "config": cfg.echo(),
            "points": [p.to_json_dict() for p in points],
            "frontier": [p.label() for p in frontier],
            "scalarized_picks": {format_shape(nu): p.label() for nu, p in scalarized.items()},
        }
        # allow_nan=False: a non-finite value that got past _json_float raises, not writes bad JSON
        json_path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        plot_path.write_text(_plot_script(points, csv_name))
    except OSError as exc:
        raise OSError(f"cannot write results under {out_dir}: {exc}") from exc
    return [csv_path, json_path, plot_path]


def run_and_emit(cfg: SweepConfig, out_dir: Path, parallel: bool = True) -> list[Path]:
    """run_suite + frontier + scalarized picks + output files; an out_dir at or under a file is refused first."""
    out_dir = Path(out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise OSError(f"cannot write results under {out_dir}: {existing} is not a directory")
    points = run_suite(cfg, parallel=parallel)
    frontier = pareto_frontier(points)
    picks = {nu: scalarized_pick(points, nu) for nu in cfg.nu_grid}
    return emit_outputs(points, frontier, out_dir, cfg=cfg, scalarized=picks)


# ---- configuration files ----------------------------------------------------

# Each number of a suite, by its key: the name its refusal gives it, and whether it is an integer.
_NUMBERS = {
    "arrival.rate": ("arrival rate lambda", False),
    "service.rate": ("service rate mu", False),
    "run.n_arrivals": ("n_arrivals", True),
    "run.n_reps": ("n_reps", True),
    "run.base_seed": ("seed", True),
    "run.warmup_fraction": ("warmup_fraction", False),
}
# Each optional key of a suite, an output file name, by the SweepConfig field it sets.
_NAMES = {"output.csv": "csv_name", "output.json": "json_name", "output.plot": "plot_name"}
# Every key a suite is read from: the output names may be left out, no other key.
_KEYS = (*_NUMBERS, "grid.points", "scalarization.nu_grid", *_NAMES)
# A key dropped from the schema that older configs still set: ignored with a note.
_RETIRED = {"run.gginf_samples": "the gginf_age column is exact"}


def parse_number_list(text: str) -> list[float]:
    """The numbers in text, separated by commas, spaces or both: '0, 0.5 1' is [0.0, 0.5, 1.0]."""
    try:
        numbers = [float(part) for part in text.replace(",", " ").split()]
    except ValueError:
        numbers = []
    if not numbers:
        raise ParameterError(f"expected a list of numbers, got {text!r}")
    return numbers


def _read_number(key: str, text: str) -> float | int:
    """text read as the number of the suite's key, by the name and type _NUMBERS gives it."""
    name, integer = _NUMBERS[key]
    return parse_number(text, name, integer=integer)


def _read_suite(settings: dict) -> SweepConfig:
    """The suite of settings, each key of _KEYS mapped to its text as typed, but grid.points to its grid lines.

    The one reader of a suite's settings, from a config file, --set and simulate's flags alike, so each mistake
    is refused in one order: the rates, the [run] numbers, the grid lines, nu_grid, then SweepConfig's checks.
    """
    lam, mu, n_arrivals, n_reps, base_seed, warmup = (_read_number(key, settings[key]) for key in _NUMBERS)
    return SweepConfig(
        grid=tuple(parse_grid_line(line, mu, lam) for line in settings["grid.points"]),
        n_arrivals=n_arrivals,
        n_reps=n_reps,
        base_seed=base_seed,
        warmup_fraction=warmup,
        nu_grid=tuple(parse_number_list(settings["scalarization.nu_grid"])),
        **{field: settings[key] for key, field in _NAMES.items() if key in settings},
    )


def load_config(path, overrides: Sequence[str] = ()) -> SweepConfig:
    """Read the sweep config file at path (INI schema, see README), with overrides.

    Overrides are 'section.key=value' strings applied on top of the file,
    mirroring the CLI --set flag; one key overridden twice is refused.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    if path == "":  # Path('') is '.', the working directory
        raise OSError("cannot read config '': the path is empty")
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    overridden: dict[str, dict[str, str]] = {}
    for item in overrides:
        key, sep, value = item.partition("=")
        section, dot, option = (part.strip() for part in key.partition("."))
        # a key is one line, as in a file
        if not (sep and dot and section and option) or len(key.splitlines()) > 1:
            raise ParameterError(f"override must look like section.key=value, got {item!r}")
        option = cp.optionxform(option)  # configparser's key form: 'CSV' and 'csv' are one key
        if option in overridden.setdefault(section, {}):
            raise ParameterError(f"override {section}.{option} is given twice")
        overridden[section][option] = value.strip()
    try:
        cp.read_string(text, source=str(path))
        cp.read_dict(overridden)
    except configparser.Error as exc:
        # one line: configparser splits its message over lines, and quotes each line of the file it shows
        raise ParameterError(f"bad config: {' '.join(part.strip() for part in str(exc).splitlines())}") from exc
    defaults = cp.defaults()  # a [DEFAULT] key shows in every section; name it once
    settings = {
        f"{section}.{option}": cp.get(section, option)
        for section in cp.sections()
        for option in cp.options(section)
        if option not in defaults
    }
    outside = [f"{cp.default_section}.{option}" for option in defaults] + [k for k in settings if k not in _KEYS]
    unknown = [name for name in outside if name not in _RETIRED]
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
    for name in outside:
        print(f"note: {name} is ignored: {_RETIRED[name]}", file=sys.stderr)
    missing = [key for key in _KEYS if key not in settings and key not in _NAMES]
    if missing:
        raise ParameterError(f"missing config keys: {', '.join(missing)}")
    settings["grid.points"] = [line.strip() for line in settings["grid.points"].splitlines() if line.strip()]
    return _read_suite(settings)


def load_preset(name: str, overrides: Sequence[str] = ()) -> SweepConfig:
    """The shipped preset config called name, with overrides as in load_config."""
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return load_config(resources.files("agedelay") / "presets" / f"{name}.ini", overrides)
