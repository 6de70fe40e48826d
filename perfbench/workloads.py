"""The benchmark's workloads: what one pass runs, and how its outputs are checked.

Each workload is a batch job that issues its library calls back to back.
Inputs come only from the workload seed.  A pass runs the whole workload
once; a run repeats passes on the same inputs until its time is used.

Operations and their correctness checks (an operation fails if it raises
or fails a check; the tolerances are the constants below):

rep-* (an operation is one replication, `run_simulation` + `summarize`;
the checks below run on the first pass, and each later pass must
reproduce the first pass's traces and reports bit for bit):
  * all four disciplines of one service law share the seed, so their
    arrival and service draws must be identical (exact);
  * under those coupled draws the age path of `inf` lies below that of
    each single-server discipline at every breakpoint of either path
    (`age_at`, slack AGE_BOUND_TOL);
  * every packet's delay is at least its service requirement (slack
    DELAY_TOL_ABS + DELAY_TOL_REL * reception time, for rounding);
  * avg_age >= min_average_age - its 95% CI halfwidth;
  * exp service: FCFS and LCFS-NP mean delay is within MEAN_DELAY_TOL_CI
    CI halfwidths plus MEAN_DELAY_TOL_REL of `pk_delay`, and LCFS-P mean
    delay within the same of E[S]/(1-rho).
figure1-smoke (an operation is one grid point of a pass):
  * the suite has 18 points and a nonempty Pareto frontier;
  * every point has avg_age >= a_min - avg_age_ci;
  * the CSV/JSON/plot bytes equal those of the run's first pass (same
    code, same seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

import agedelay.engine as engine
import agedelay.experiments as experiments
import agedelay.metrics as metrics
import agedelay.oracles as oracles
from agedelay import Discipline, parse_arrival, parse_service
from tracing import replication_times, trace_key

MU = 0.8
LAMBDAS = {"rep-paper-load": 0.5, "rep-high-load": 0.76}
SERVICES = ("exp", "pareto alpha=1.5")
DISCIPLINES = (
    Discipline.FCFS,
    Discipline.LCFS_NONPREEMPTIVE,
    Discipline.LCFS_PREEMPTIVE,
    Discipline.INFINITE_SERVER,
)
WORKLOADS = ("rep-paper-load", "rep-high-load", "figure1-smoke")

AGE_BOUND_TOL = 1e-9
DELAY_TOL_ABS = 1e-9
DELAY_TOL_REL = 1e-12
MEAN_DELAY_TOL_CI = 4.0
MEAN_DELAY_TOL_REL = 0.02
FIGURE1_POINTS = 18


@dataclasses.dataclass(frozen=True)
class Scale:
    """Problem size; `FULL` is the benchmark, `TINY` serves its own tests."""

    rep_packets: int
    figure1_overrides: tuple[str, ...]


FULL = Scale(1_000_000, ("run.n_arrivals=20000", "run.n_reps=2"))
TINY = Scale(20_000, ("run.n_arrivals=2000", "run.n_reps=2", "run.gginf_samples=1000"))
SCALES = {"full": FULL, "tiny": TINY}


@dataclasses.dataclass
class PassResult:
    wall: float
    rep_times: list[float]
    packets: int
    attempted: int
    failures: dict[str, str] = dataclasses.field(default_factory=dict)  # operation -> reason
    outputs: dict[str, bytes] = dataclasses.field(default_factory=dict)
    pool_workers: int = 0


def make_workload(name: str, seed: int, scale: Scale):
    if name in LAMBDAS:
        return RepWorkload(LAMBDAS[name], seed, scale)
    if name == "figure1-smoke":
        return Figure1Workload(seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _report_exception(op: str) -> str:
    text = traceback.format_exc()
    print(f"operation {op} raised:\n{text}", file=sys.stderr)
    return text.strip().splitlines()[-1]


# ---- rep-paper-load, rep-high-load ----------------------------------------------------


class RepWorkload:
    """One coupled-seed replication per (service law, discipline), at rate `lam`."""

    untraced_mode = None

    def __init__(self, lam: float, seed: int, scale: Scale):
        self.arrival = parse_arrival("exp", lam)
        self.services = [parse_service(spec, MU) for spec in SERVICES]
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(len(SERVICES))]
        self.n = scale.rep_packets
        self.digests: dict[str, str] = {}  # operation -> output digest of the first pass

    def run_pass(self, rec, pass_dir: Path) -> PassResult:
        """Run every replication; the first pass is checked, later ones must repeat it."""
        rep_times: list[float] = []
        failures: dict[str, str] = {}
        first = not self.digests
        for seed, service in zip(self.seeds, self.services):
            runs = {}
            for d in DISCIPLINES:
                op = f"{service.label()}/{d.value}"
                try:
                    with rec.span("rep", trace_key(seed, d)):
                        t0 = time.perf_counter()
                        trace = engine.run_simulation(self.arrival, service, d, self.n, seed=seed)
                        report = metrics.summarize(trace)
                        rep_times.append(time.perf_counter() - t0)
                except Exception:
                    failures[op] = _report_exception(op)
                    continue
                digest = output_digest(trace, report)
                if first:
                    self.digests[op] = digest
                    runs[d] = (trace, report)
                elif digest != self.digests.get(op):
                    failures[op] = "trace or report differs from the first pass on the same inputs"
            for d, why in check_replications(self.arrival, service, runs).items():
                failures.setdefault(f"{service.label()}/{d.value}", why)
        n_ops = len(self.services) * len(DISCIPLINES)
        return PassResult(sum(rep_times), rep_times, self.n * n_ops, n_ops, failures)


def output_digest(trace, report) -> str:
    h = hashlib.blake2b(repr(dataclasses.astuple(report)).encode())
    for a in (trace.recv_times, trace.informative, trace.breakpoint_times, trace.breakpoint_ages):
        h.update(a.tobytes())
    return h.hexdigest()


def mean_delay_reference(d: Discipline, service, lam: float) -> float | None:
    """Closed-form M/M/1 mean delay where one exists for this discipline."""
    if service.family != "exp":
        return None
    if d in (Discipline.FCFS, Discipline.LCFS_NONPREEMPTIVE):
        return oracles.pk_delay(lam, service)
    if d is Discipline.LCFS_PREEMPTIVE:
        return service.mean() / (1.0 - lam / service.mu)
    return None


def check_replications(arrival, service, runs: dict) -> dict[Discipline, str]:
    """Failed checks per discipline, for the coupled replications of one service law."""
    bad: dict[Discipline, str] = {}
    if not runs:
        return bad
    floor = oracles.min_average_age(arrival)
    ref_trace = next(iter(runs.values()))[0]
    for d, (trace, report) in runs.items():
        if not (np.array_equal(trace.gen_times, ref_trace.gen_times)
                and np.array_equal(trace.service_reqs, ref_trace.service_reqs)):
            bad[d] = "draws differ from the other disciplines' under the same seed"
            continue
        slack = DELAY_TOL_ABS + DELAY_TOL_REL * trace.recv_times
        if not np.all(trace.recv_times - trace.gen_times >= trace.service_reqs - slack):
            bad[d] = "a packet's delay is below its service requirement"
        elif not report.avg_age >= floor - report.ci_halfwidth_age:
            bad[d] = f"avg_age {report.avg_age} below the floor {floor} minus its CI"
        else:
            ref = mean_delay_reference(d, service, arrival.lam)
            tol = MEAN_DELAY_TOL_CI * report.ci_halfwidth_delay + MEAN_DELAY_TOL_REL * (ref or 0.0)
            if ref is not None and not abs(report.mean_delay - ref) <= tol:
                bad[d] = f"mean delay {report.mean_delay} is not within {tol} of {ref}"
    inf = runs.get(Discipline.INFINITE_SERVER)
    if inf is not None and Discipline.INFINITE_SERVER not in bad:
        inf_trace = inf[0]
        for d, (trace, _) in runs.items():
            if not d.single_server or d in bad:
                continue
            t = np.union1d(trace.breakpoint_times, inf_trace.breakpoint_times)
            if np.any(metrics.age_at(inf_trace, t) > metrics.age_at(trace, t) + AGE_BOUND_TOL):
                bad[d] = "age path lies below the infinite-server lower bound"
    return bad


# ---- figure1-smoke ---------------------------------------------------------------------


class Figure1Workload:
    """The shipped figure1 preset at smoke scale, seeded by the workload seed."""

    untraced_mode = "jobs"  # worker-side replication timing, for rep_s_p50

    def __init__(self, seed: int, scale: Scale):
        overrides = [*scale.figure1_overrides, f"run.base_seed={seed}"]
        self.cfg = experiments.load_preset("figure1", overrides)
        self.workers = len(os.sched_getaffinity(0))

    def run_pass(self, rec, pass_dir: Path) -> PassResult:
        cfg = self.cfg
        n_points = len(cfg.grid)
        packets = n_points * cfg.n_reps * cfg.n_arrivals
        failures: dict[str, str] = {}
        t0 = time.perf_counter()
        try:
            with rec.span("pass"):
                points = experiments.run_suite(cfg, parallel=True, max_workers=self.workers)
                frontier = experiments.pareto_frontier(points)
                picks = {nu: experiments.scalarized_pick(points, nu) for nu in cfg.nu_grid}
                paths = experiments.emit_outputs(
                    points, frontier, pass_dir, cfg=cfg, scalarized=picks,
                    csv_name=cfg.csv_name, json_name=cfg.json_name, plot_name=cfg.plot_name,
                )
            wall = time.perf_counter() - t0
        except Exception:
            why = _report_exception("figure1 pass")
            return PassResult(time.perf_counter() - t0, [], packets, n_points,
                              {f"point{i}": why for i in range(n_points)})
        rec.collect_workers()
        rep_times = replication_times(rec.records)
        if len(rep_times) != n_points * cfg.n_reps:
            raise RuntimeError(
                f"pool workers reported {len(rep_times)} of {n_points * cfg.n_reps} replications;"
                " the benchmark needs run_suite's pool to fork"
            )
        workers = {r["pid"] for r in rec.records if r["name"] == "engine.run_simulation"}
        if len(points) != FIGURE1_POINTS or not frontier:
            why = f"{len(points)} points and {len(frontier)} on the frontier"
            failures = {f"point{i}": why for i in range(n_points)}
        for i, p in enumerate(points):
            if not p.avg_age >= p.a_min - p.avg_age_ci:
                failures.setdefault(f"point{i}", f"avg_age {p.avg_age} below a_min {p.a_min} minus CI")
        outputs = {Path(p).name: Path(p).read_bytes() for p in paths}
        return PassResult(wall, rep_times, packets, n_points, failures, outputs, len(workers))


def output_mismatches(ref: dict[str, bytes], out: dict[str, bytes], n_points: int) -> dict[str, str]:
    """Points whose CSV row or JSON record differs from the reference pass.

    If the files differ but no point's row or record does, every point
    counts as failed.
    """
    if out == ref:
        return {}
    bad: dict[str, str] = {}
    for name in ref.keys() & out.keys():
        if name.endswith(".csv"):
            a, b = ref[name].decode().splitlines()[1:], out[name].decode().splitlines()[1:]
        elif name.endswith(".json"):
            a, b = (json.loads(x)["points"] for x in (ref[name], out[name]))
        else:
            continue
        for i in range(n_points):
            if i >= len(a) or i >= len(b) or a[i] != b[i]:
                bad[f"point{i}"] = f"{name} differs from the first pass"
    return bad or {f"point{i}": "output bytes differ from the first pass" for i in range(n_points)}


# ---- pass statistics -------------------------------------------------------------------


def e2e_metrics(results: list[PassResult]) -> dict[str, float]:
    wall = median(r.wall for r in results)
    return {
        "wall_s": wall,
        "pkts_per_s": results[0].packets / wall,
        "rep_s_p50": median(t for r in results for t in r.rep_times),
    }
