import concurrent.futures
import dataclasses
import gc
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from agedelay import (
    ArrivalProcess,
    Discipline,
    ExperimentPoint,
    FrontierPoint,
    MetricsReport,
    ParameterError,
    ServiceDistribution,
    StabilityError,
    SweepConfig,
    emit_outputs,
    gginf_age,
    load_config,
    load_preset,
    pareto_frontier,
    parse_arrival,
    parse_service,
    run_and_emit,
    run_simulation,
    run_suite,
    scalarized_pick,
    summarize,
)
from agedelay import engine, experiments
from agedelay.engine import parse_grid_line
from agedelay.experiments import _COLUMNS, CSV_COLUMNS, PRESETS


def fp(age, delay, var=1.0):
    return FrontierPoint(
        point=parse_grid_line("fcfs exp", 0.8, 0.5),
        n_arrivals=100,
        n_reps=1,
        seed=0,
        avg_age=age,
        avg_age_ci=0.0,
        mean_delay=delay,
        mean_delay_ci=0.0,
        delay_var=var,
        delay_var_ci=0.0,
        informative_frac=1.0,
        a_min=2.0,
        pk_delay=None,
        gginf_age=None,
    )


def small_config(points=("fcfs exp", "lcfs-p exp"), n=2000, reps=2, seed=5):
    return SweepConfig(
        grid=tuple(parse_grid_line(line, 0.8, 0.5) for line in points),
        n_arrivals=n,
        n_reps=reps,
        base_seed=seed,
        warmup_fraction=0.1,
        nu_grid=(0.0, 1.0, 100.0),
    )


# ---- pareto frontier -----------------------------------------------------------


def test_frontier_drops_dominated_point():
    pts = [fp(1, 3), fp(2, 2), fp(3, 1), fp(2, 3)]
    front = pareto_frontier(pts)
    assert [(p.avg_age, p.mean_delay) for p in front] == [(1, 3), (2, 2), (3, 1)]


def test_frontier_single_point():
    p = fp(1, 1)
    assert pareto_frontier([p]) == [p]


def test_frontier_duplicates_both_kept():
    pts = [fp(1, 2), fp(1, 2), fp(0.5, 3)]
    front = pareto_frontier(pts)
    assert len(front) == 3


def test_frontier_never_returns_dominated_points_random_clouds():
    rng = np.random.default_rng(8)
    for trial in range(25):
        pts = [fp(a, d) for a, d in rng.uniform(0, 10, size=(40, 2))]
        front = pareto_frontier(pts)
        for p in front:
            for q in pts:
                dominated = (
                    q.avg_age <= p.avg_age
                    and q.mean_delay <= p.mean_delay
                    and (q.avg_age < p.avg_age or q.mean_delay < p.mean_delay)
                )
                assert not dominated
        ages = [p.avg_age for p in front]
        assert ages == sorted(ages)


def test_frontier_variance_objective():
    pts = [fp(1, 9, var=5), fp(2, 1, var=2), fp(3, 1, var=9)]
    front = pareto_frontier(pts, objective="delay_variance")
    assert [(p.avg_age, p.delay_var) for p in front] == [(1, 5), (2, 2)]
    with pytest.raises(ParameterError):
        pareto_frontier(pts, objective="nope")
    with pytest.raises(ParameterError):
        pareto_frontier([])


# ---- scalarization --------------------------------------------------------------


def test_scalarized_extremes():
    pts = [fp(1, 5), fp(3, 2), fp(6, 1)]
    assert scalarized_pick(pts, 0.0).mean_delay == 1
    big = scalarized_pick(pts, 1e9)
    assert big.avg_age == 1


def test_scalarized_tie_breaks_toward_lower_age():
    pts = [fp(2, 2), fp(1, 3)]  # equal score at nu=1
    assert scalarized_pick(pts, 1.0).avg_age == 1


def test_scalarized_picks_live_on_frontier_random_clouds():
    rng = np.random.default_rng(17)
    nus = [0.0, 0.1, 0.5, 1.0, 5.0, 100.0]
    for trial in range(25):
        pts = [fp(a, d, var=v) for a, d, v in rng.uniform(0, 10, size=(30, 3))]
        for objective in ("mean_delay", "delay_variance"):
            front = {id(p) for p in pareto_frontier(pts, objective)}
            for nu in nus:
                assert id(scalarized_pick(pts, nu, objective)) in front


def test_scalarized_validation():
    with pytest.raises(ParameterError):
        scalarized_pick([], 1.0)
    with pytest.raises(ParameterError):
        scalarized_pick([fp(1, 1)], -0.5)
    with pytest.raises(ParameterError):
        scalarized_pick([fp(1, 1)], math.inf)


# ---- run_suite -------------------------------------------------------------------


def test_run_suite_point_per_grid_entry_and_determinism():
    cfg = small_config()
    a = run_suite(cfg, parallel=False)
    b = run_suite(cfg, parallel=False)
    assert len(a) == 2
    assert a == b
    assert [p.point.discipline for p in a] == [Discipline.FCFS, Discipline.LCFS_PREEMPTIVE]
    assert all(p.n_reps == 2 for p in a)
    # one law (Poisson arrivals, exp service): both rows run, and report, its seeds 5 and 6
    assert a[0].seed == 5 and a[1].seed == 5
    assert all(p.informative_frac == 1.0 for p in a if p.point.discipline is Discipline.FCFS)


def test_run_suite_couples_the_disciplines_of_a_law():
    cfg = small_config(points=("fcfs exp", "lcfs-np exp", "lcfs-p exp", "inf exp"), reps=3, seed=11)
    points = run_suite(cfg, parallel=False)
    assert [p.seed for p in points] == [11] * 4
    # each replication runs all four on one path, so the infinite-server age bounds the others
    # pathwise, and so in the mean over replications
    inf = points[-1]
    for p in points[:-1]:
        assert p.avg_age >= inf.avg_age - 1e-9, p.label()


def law_job_peak() -> float:
    """tracemalloc's peak over one law job: all four disciplines of 200,000 pareto 1.5 packets."""
    law = (parse_arrival("exp", 0.5), parse_service("pareto alpha=1.5", 0.8), tuple(Discipline))
    experiments._law_worker((*law, 1000, 0.1, 3))  # first-call imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        reports = experiments._law_worker((*law, 200_000, 0.1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 4
    return peak


def test_a_law_job_holds_at_most_two_traces():
    # 24.4 MB while the job kept every trace
    peak = law_job_peak()
    assert peak < 21e6, f"a four-discipline law job peaks at {peak / 1e6:.1f} MB"


def test_a_law_job_holds_one_trace_at_a_time():
    # 18.7 MB while each trace lived through the next run; 14.8 MB when it is dropped before
    peak = law_job_peak()
    assert peak < 16.5e6, f"a four-discipline law job peaks at {peak / 1e6:.1f} MB"


def test_run_suite_serial_vs_parallel_identical(pool_sizes):
    cfg = small_config(n=3000, reps=3)
    assert run_suite(cfg, parallel=False) == run_suite(cfg, parallel=True)
    assert pool_sizes == [2]


# a suite of fcfs exp and lcfs-p exp at 500 packets: 1,500 weighted packet-runs per rep
SMALL = (("fcfs exp", "lcfs-p exp"), 500)
# 2 x 655,360 weighted packet-runs is the least work that pools: 2 x 218,453 x 3 is 2 short of it
PAIR = ("fcfs exp", "inf exp")


@pytest.mark.parametrize(
    "cpus, max_workers, suite, reps, work_per_worker, size",
    [
        # the CPU and job caps, where a worker's share of work is one weighted packet-run
        pytest.param(64, None, SMALL, 2, 1, 2, id="64-None-2-2"),  # a 2-job suite forks 2 workers, not one per CPU
        pytest.param(3, None, SMALL, 6, 1, 3, id="3-None-6-3"),
        pytest.param(1, None, SMALL, 4, 1, None, id="1-None-4-None"),  # one usable CPU: serial, no pool
        pytest.param(None, None, SMALL, 6, 1, 5, id="None-None-6-5"),  # no affinity on this platform: os.cpu_count()
        pytest.param(64, 8, SMALL, 2, 1, 2, id="64-8-2-2"),
        pytest.param(1, 3, SMALL, 6, 1, 3, id="1-3-6-3"),  # a given max_workers needs no affinity
        pytest.param(64, 1, SMALL, 4, 1, None, id="64-1-4-None"),
        pytest.param(64, 4, SMALL, 1, 1, None, id="64-4-1-None"),  # one job
        # the work cap at its own constant
        pytest.param(64, None, SMALL, 6, None, None, id="small-suite-serial"),  # 9,000 weighted
        pytest.param(64, None, (PAIR, 218_453), 3, None, None, id="just-below-two-shares-serial"),
        pytest.param(64, None, (PAIR, 131_072), 5, None, 2, id="two-shares-two-workers"),
        # each lcfs-np packet-run counts 4: 81,920 x 4 reps x 4 is two shares
        pytest.param(64, None, (("lcfs-np exp",), 81_920), 4, None, 2, id="lcfs-np-counted-four-times"),
        # four shares, ten jobs: max_workers still caps
        pytest.param(64, 3, (("lcfs-np exp",), 65_536), 10, None, 3, id="max-workers-caps-the-work"),
    ],
)
def test_run_suite_sizes_its_pool_from_the_work(monkeypatch, cpus, max_workers, suite, reps, work_per_worker, size):
    sizes = []

    class Pool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if work_per_worker is not None:
        monkeypatch.setattr(experiments, "_WORK_PER_WORKER", work_per_worker)
    points, n = suite
    cfg = small_config(points=points, n=n, reps=reps)
    pooled = run_suite(cfg, parallel=True, max_workers=max_workers)
    assert sizes == ([] if size is None else [size])
    assert pooled == run_suite(cfg, parallel=False)


def test_every_discipline_has_a_work_weight():
    # a discipline without one would make run_suite raise KeyError on every suite that runs it
    assert set(experiments._WORK_WEIGHTS) == set(Discipline)
    assert all(type(w) is int and w >= 1 for w in experiments._WORK_WEIGHTS.values())


def test_run_suite_oracle_columns():
    cfg = small_config(points=("fcfs pareto alpha=2", "fcfs det arrival=det"))
    pts = run_suite(cfg, parallel=False)
    assert math.isinf(pts[0].pk_delay)  # infinite second moment branch
    assert pts[0].a_min == 2.0
    assert pts[1].pk_delay is None  # periodic arrivals: no P-K column
    assert pts[1].a_min == 1.0
    assert pts[1].point.arrival.family == "det"
    assert all(p.gginf_age is not None for p in pts)


def test_pk_delay_only_on_non_preemptive_poisson_rows():
    # P-K is the non-preemptive mean delay; preempt-resume LCFS has E[S]/(1 - rho) instead
    cfg = small_config(points=("fcfs exp", "lcfs-np exp", "lcfs-p exp", "inf exp"), n=500, reps=1)
    pk = [p.pk_delay for p in run_suite(cfg, parallel=False)]
    assert pk[0] == pk[1] == pytest.approx(10 / 3)
    assert pk[2:] == [None, None]


def test_run_suite_gginf_column_is_the_exact_value_of_its_law():
    cfg = small_config(points=("fcfs exp", "lcfs-p exp", "fcfs det", "fcfs exp arrival=det"), n=1000)
    pts = run_suite(cfg, parallel=False)
    # no seed enters the cell: it is gginf_age of the point's (arrival, service) law
    for pt, point in zip(pts, cfg.grid):
        assert pt.gginf_age == gginf_age(point.arrival, point.service)
    assert pts[0].gginf_age == pts[1].gginf_age
    assert pts[2].gginf_age == 1 / 0.5 + 1 / 0.8 and pts[3].gginf_age < pts[0].gginf_age


def test_run_suite_estimates_gginf_once_per_law_per_call(tmp_path, monkeypatch):
    # figure1's first 9 points hold its 9 laws; no value outlives the call that made it
    laws = []
    exact = experiments.gginf_age

    def spy(arrival, service):
        laws.append((arrival, service))
        return exact(arrival, service)

    monkeypatch.setattr(experiments, "gginf_age", spy)
    # the Monte-Carlo estimator stays off the run path
    monkeypatch.setattr(experiments, "gginf_age_estimate", None)
    cfg = load_preset("figure1", ["run.n_arrivals=2000", "run.n_reps=2"])
    for _ in range(2):
        laws.clear()
        run_and_emit(cfg, tmp_path, parallel=False)
        assert laws == [(p.arrival, p.service) for p in cfg.grid[:9]]


def test_run_suite_checks_its_oracles_before_it_simulates(monkeypatch):
    # the periodic gginf sum at lambda/mu = 2.5e6 is refused, and a refusal must cost no replication
    def simulate(*args, **kwargs):
        pytest.fail("run_suite simulated a point whose oracle refuses it")

    monkeypatch.setattr(engine, "run_simulation", simulate)
    cfg = SweepConfig(
        grid=(parse_grid_line("inf pareto alpha=3 arrival=det", 0.8, 2e6),),
        n_arrivals=2000,
        n_reps=2,
        base_seed=0,
        warmup_fraction=0.0,
        nu_grid=(0.0,),
    )
    with pytest.raises(ParameterError, match="needs more than 10000 terms"):
        run_suite(cfg, parallel=False)


def test_run_suite_refuses_means_past_the_double_range(monkeypatch):
    # each replication's columns are finite, but the sum of two ages of 1e308 is not
    report = MetricsReport(
        avg_age=1e308,
        mean_delay=1.0,
        delay_variance=1.0,
        informative_fraction=1.0,
        n_counted=2000,
        ci_halfwidth_age=1.0,
        ci_halfwidth_delay=1.0,
    )
    monkeypatch.setattr(experiments, "summarize", lambda trace: report)
    message = "^results at lambda=0.5, mu=0.8, n_arrivals=2000 leave the double range: avg_age not finite$"
    with pytest.raises(ParameterError, match=message):
        run_suite(small_config(points=("fcfs exp",)), parallel=False)


def test_run_suite_names_unstable_point():
    # the point checks itself, so no suite can hold an unstable one
    with pytest.raises(StabilityError, match=r"^fcfs exp: lambda=0\.9 >= mu=0\.8$"):
        ExperimentPoint(parse_arrival("exp", 0.9), parse_service("exp", 0.8), Discipline.FCFS)


def test_run_suite_rejects_empty_grid():
    cfg = small_config()
    with pytest.raises(ParameterError):
        run_suite(SweepConfig(**{**cfg.__dict__, "grid": ()}), parallel=False)


def test_run_suite_rejects_bad_counts():
    with pytest.raises(ParameterError, match="n_reps"):
        run_suite(small_config(reps=0), parallel=False)


@pytest.mark.parametrize(
    "changes,fragment",
    [
        ({"grid": tuple(parse_grid_line(ln, 0.8, 0.5) for ln in ("fcfs exp", "fcfs exponential"))}, "point fcfs exp"),
        ({"nu_grid": (-1.0,)}, "nu_grid"),
        ({"nu_grid": ()}, "nu_grid"),
        ({"nu_grid": (0.0, 1.0, 1.0)}, "repeats weight 1"),
        ({"csv_name": "b", "json_name": "b", "plot_name": "b"}, "must differ"),
        ({"plot_name": "../plot.gp"}, "plain file names, got '../plot.gp'"),
        ({"n_arrivals": 0}, "n_arrivals"),
        ({"n_arrivals": 2, "warmup_fraction": 0.5}, "keeps 1 of its packets"),
        ({"warmup_fraction": 0.9}, "warmup_fraction"),
        ({"base_seed": -1}, "seed"),
        ({"n_arrivals": 2000.5}, "n_arrivals must be an integer, got 2000.5"),
        ({"n_reps": 2.5}, "n_reps must be an integer, got 2.5"),
        ({"base_seed": 1.5}, "seed must be an integer, got 1.5"),
    ],
    ids=[
        "repeated-point",
        "negative-weight",
        "no-weights",
        "repeated-weight",
        "equal-output-names",
        "output-outside-dir",
        "no-arrivals",
        "one-packet-past-warmup",
        "warmup",
        "negative-seed",
        "fractional-arrivals",
        "fractional-reps",
        "fractional-seed",
    ],
)
def test_sweep_config_checks_itself_when_built_in_code(changes, fragment):
    with pytest.raises(ParameterError, match=fragment):
        dataclasses.replace(small_config(), **changes)


def test_sweep_config_takes_numpy_integers():
    numpy_ints = run_suite(small_config(n=np.int64(2000), reps=np.int32(2), seed=np.uint8(5)), parallel=False)
    plain = run_suite(small_config(), parallel=False)
    assert [(p.avg_age, p.mean_delay) for p in numpy_ints] == [(p.avg_age, p.mean_delay) for p in plain]
    # the config keeps plain ints, so law seeds cannot wrap in uint8 (a RuntimeWarning is an error here)
    laws = ("fcfs exp", "fcfs det", "fcfs pareto alpha=2")
    wide = run_suite(small_config(points=laws, n=200, reps=8, seed=np.uint8(250)), parallel=False)
    assert [p.seed for p in wide] == [250, 258, 266]


def test_run_and_emit_writes_json_for_numpy_integers(tmp_path):
    cfg = small_config(n=np.int64(800), reps=np.int64(2), seed=np.int64(5))
    _, json_path, _ = run_and_emit(cfg, tmp_path, parallel=False)
    doc = json.loads(json_path.read_text(), parse_constant=_reject_constant)
    assert [doc["config"][key] for key in ("n_arrivals", "n_reps", "base_seed")] == [800, 2, 5]
    assert [(rec["n_arrivals"], rec["n_reps"], rec["seed"]) for rec in doc["points"]] == [(800, 2, 5)] * 2


def test_run_suite_matches_run_simulation():
    # replication rep of law l (in order of first appearance) runs seed base_seed + l * n_reps + rep
    cfg = small_config(points=("lcfs-p exp", "fcfs pareto alpha=2", "fcfs exp"), reps=3, seed=40)
    points = run_suite(cfg, parallel=False)
    for law, point, pt in zip((0, 1, 0), cfg.grid, points):
        reports = [
            summarize(
                run_simulation(
                    point.arrival, point.service, point.discipline, cfg.n_arrivals, cfg.warmup_fraction, seed
                )
            )
            for seed in range(40 + 3 * law, 40 + 3 * law + 3)
        ]
        assert pt.seed == 40 + 3 * law
        assert pt.mean_delay == float(np.mean([r.mean_delay for r in reports]))
        assert pt.avg_age == float(np.mean([r.avg_age for r in reports]))


# ---- outputs ----------------------------------------------------------------------


def test_emit_outputs_files_and_determinism(tmp_path):
    cfg = small_config()
    points = run_suite(cfg, parallel=False)
    front = pareto_frontier(points)
    picks = {nu: scalarized_pick(points, nu) for nu in cfg.nu_grid}
    paths = emit_outputs(points, front, tmp_path / "a", cfg=cfg, scalarized=picks)
    blobs = [p.read_bytes() for p in paths]
    paths2 = emit_outputs(points, front, tmp_path / "b", cfg=cfg, scalarized=picks)
    assert [p.read_bytes() for p in paths2] == blobs

    csv_lines = blobs[0].decode().strip().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(csv_lines) == 1 + len(points)

    doc = json.loads(blobs[1])
    assert doc["config"]["grid"] == ["fcfs exp", "lcfs-p exp"]
    assert len(doc["points"]) == len(points)
    assert set(doc["frontier"]) <= set(doc["config"]["grid"])
    assert doc["scalarized_picks"]["0"] in doc["config"]["grid"]

    plot = blobs[2].decode()
    assert "gnuplot" in plot and "average age" in plot
    for p in points:
        assert f"{p.point.discipline.value} {p.point.service.family}" in plot

    # a name left out is cfg's [output] name, and the plot script reads the CSV by it
    preset = load_preset("figure1")
    named = emit_outputs(points, front, tmp_path / "c", cfg=preset, scalarized=picks)
    names = [preset.csv_name, preset.json_name, preset.plot_name]
    assert [p.name for p in named] == names == ["figure1.csv", "figure1.json", "figure1.gp"]
    assert f'"{preset.csv_name}" using' in named[2].read_text()


def test_emit_outputs_header_only_for_no_points(tmp_path):
    paths = emit_outputs([], [], tmp_path, cfg=small_config(), scalarized={})
    lines = paths[0].read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_emit_outputs_names_its_directory_when_a_write_fails(tmp_path):
    (tmp_path / "points.csv").mkdir()
    with pytest.raises(OSError, match=f"^cannot write results under {tmp_path}: "):
        emit_outputs([], [], tmp_path, cfg=small_config(), scalarized={})


def test_csv_12_significant_digits(tmp_path):
    pt = fp(2.0 / 3.0, 1.0 / 7.0)
    paths = emit_outputs([pt], [pt], tmp_path, cfg=small_config(), scalarized={0.0: pt})
    row = paths[0].read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("avg_age")] == "0.666666666667"
    assert row[CSV_COLUMNS.index("mean_delay")] == "0.142857142857"
    assert row[CSV_COLUMNS.index("shape")] == ""
    assert row[CSV_COLUMNS.index("pk_delay")] == ""


def test_csv_columns_are_the_published_layout():
    assert CSV_COLUMNS == (
        "discipline", "family", "shape", "arrival", "lambda", "mu", "n_arrivals", "n_reps", "seed",
        "avg_age", "avg_age_ci", "mean_delay", "mean_delay_ci", "delay_var", "informative_frac",
        "a_min", "pk_delay", "gginf_age",
    )


def test_json_records_are_the_published_layout():
    # a written JSON record's keys, in order (test_outputs_name_each_point_by_its_grid_line):
    # the CSV's columns with delay_var_ci after delay_var, and nothing else
    assert _COLUMNS == (
        "discipline", "family", "shape", "arrival", "lambda", "mu", "n_arrivals", "n_reps", "seed",
        "avg_age", "avg_age_ci", "mean_delay", "mean_delay_ci", "delay_var", "delay_var_ci",
        "informative_frac", "a_min", "pk_delay", "gginf_age",
    )


def test_json_record_has_no_nan(tmp_path):
    pt = dataclasses.replace(fp(2.0, 1.0), avg_age_ci=math.nan, gginf_age=math.inf)
    record = pt.to_json_dict()
    assert record["avg_age_ci"] is None and record["gginf_age"] == "inf"
    assert record["lambda"] == 0.5 and record["arrival"] == "exp"
    paths = emit_outputs([pt], [pt], tmp_path, cfg=small_config(), scalarized={0.0: pt})
    text = paths[1].read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text)["points"][0]["avg_age_ci"] is None


def test_csv_infinite_pk_delay(tmp_path):
    cfg = small_config(points=("fcfs pareto alpha=2",), n=500, reps=1)
    points = run_suite(cfg, parallel=False)
    paths = emit_outputs(points, points, tmp_path, cfg=cfg, scalarized={0.0: points[0]})
    row = paths[0].read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("pk_delay")] == "inf"
    doc = json.loads(paths[1].read_text())
    assert doc["points"][0]["pk_delay"] == "inf"


def test_run_and_emit_round_trip(tmp_path):
    cfg = small_config(n=800, reps=1)
    paths = run_and_emit(cfg, tmp_path, parallel=False)
    assert all(p.exists() for p in paths)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("name", PRESETS)
def test_outputs_name_each_point_by_its_grid_line(tmp_path, name):
    cfg = load_preset(name, ["run.n_arrivals=2000", "run.n_reps=2"])
    _, json_path, _ = run_and_emit(cfg, tmp_path, parallel=False)
    doc = json.loads(json_path.read_text(), parse_constant=_reject_constant)
    grid = doc["config"]["grid"]
    assert all(list(rec) == list(_COLUMNS) for rec in doc["points"])
    points = [
        ExperimentPoint(
            ArrivalProcess(rec["arrival"], rec["lambda"]),
            ServiceDistribution(rec["family"], rec["mu"], rec["shape"]),
            Discipline(rec["discipline"]),
        )
        for rec in doc["points"]
    ]
    assert [p.label() for p in points] == grid
    assert set(doc["frontier"]) <= set(grid)
    assert set(doc["scalarized_picks"].values()) <= set(grid)
    for point, entry in zip(points, cfg.grid):
        assert point == entry
        assert parse_grid_line(point.label(), point.service.mu, point.arrival.lam) == point


def test_near_equal_weights_get_distinct_pick_keys(tmp_path):
    cfg = dataclasses.replace(small_config(n=800, reps=1), nu_grid=(1.0, 1.0000000000001))
    _, json_path, _ = run_and_emit(cfg, tmp_path, parallel=False)
    assert list(json.loads(json_path.read_text())["scalarized_picks"]) == ["1", "1.0000000000001"]


# ---- config files -------------------------------------------------------------------


CONFIG_TEXT = """
[arrival]
rate = 0.5

[service]
rate = 0.8

[run]
n_arrivals = 1500
n_reps = 2
base_seed = 9
warmup_fraction = 0.1

[grid]
points =
    fcfs det
    lcfs-p pareto alpha=1.5
    fcfs det arrival=det

[scalarization]
nu_grid = 0 1 5

[output]
csv = out.csv
"""


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.n_arrivals == 1500
    assert cfg.nu_grid == (0.0, 1.0, 5.0)
    assert len(cfg.grid) == 3
    point = cfg.grid[1]
    assert point.discipline is Discipline.LCFS_PREEMPTIVE
    assert (point.service.family, point.service.shape) == ("pareto", 1.5)
    assert cfg.grid[2].arrival.family == "det"
    assert cfg.csv_name == "out.csv"


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path, ["run.n_arrivals=99", "run.base_seed=123"])
    assert cfg.n_arrivals == 99
    assert cfg.base_seed == 123
    with pytest.raises(ParameterError):
        load_config(path, ["no-dots"])


def test_load_config_override_adds_missing_section(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT.replace("[output]\ncsv = out.csv\n", ""))
    assert load_config(path, [" output.csv=x.csv"]).csv_name == "x.csv"
    for bad in (" .csv=x.csv", "output. =x.csv", "DEFAULT.csv=x.csv"):
        with pytest.raises(ParameterError):
            load_config(path, [bad])


def test_nu_grid_takes_commas_as_the_cli_lists_do(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT.replace("nu_grid = 0 1 5", "nu_grid = 0, 1, 5"))
    assert load_config(path) == load_config(path, ["scalarization.nu_grid=0 1 5"])
    for bad in ("", "0, x"):
        with pytest.raises(ParameterError, match=f"^expected a list of numbers, got '{bad}'$"):
            load_config(path, [f"scalarization.nu_grid={bad}"])


def test_a_default_key_is_refused_alike_from_a_file_and_an_override(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG_TEXT)
    with pytest.raises(ParameterError, match=r"^unknown config keys: DEFAULT\.csv$"):
        load_config(path, ["DEFAULT.csv=x.csv"])
    path.write_text("[DEFAULT]\ncsv = x.csv\n" + CONFIG_TEXT)
    with pytest.raises(ParameterError, match=r"^unknown config keys: DEFAULT\.csv$"):
        load_config(path)


def test_load_config_errors(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[arrival]\nrate = 0.5\n")
    with pytest.raises(ParameterError):
        load_config(bad)
    headless = tmp_path / "headless.ini"
    headless.write_text("rate = 0.5\n" + CONFIG_TEXT)
    with pytest.raises(ParameterError):
        load_config(headless)
    badgrid = tmp_path / "badgrid.ini"
    badgrid.write_text(CONFIG_TEXT.replace("fcfs det\n", "warp det\n", 1))
    with pytest.raises(ParameterError):
        load_config(badgrid)
    # a '%' starts a configparser interpolation, which an [output] name fails as any other value does
    percent = tmp_path / "percent.ini"
    percent.write_text(CONFIG_TEXT.replace("csv = out.csv", "csv = 50%.csv"))
    with pytest.raises(ParameterError, match="^bad config: '%' must be followed by"):
        load_config(percent)


def test_nan_scalarization_weight_rejected(tmp_path):
    with pytest.raises(ParameterError):
        scalarized_pick([fp(1, 3), fp(2, 1)], math.nan)
    cfg = tmp_path / "nan.ini"
    cfg.write_text(CONFIG_TEXT.replace("nu_grid = 0 1 5", "nu_grid = 0 nan 5"))
    with pytest.raises(ParameterError, match="nu_grid"):
        load_config(cfg)


def test_presets_ship_and_parse(capsys):
    for name in PRESETS:
        cfg = load_preset(name)
        assert cfg.grid
        assert cfg.n_arrivals == 1_000_000
        assert cfg.n_reps == 8
    fig = load_preset("figure1")
    assert len(fig.grid) == 18
    assert {(p.arrival.lam, p.service.mu) for p in fig.grid} == {(0.5, 0.8)}
    disciplines = {p.discipline.value for p in fig.grid}
    assert disciplines == {"fcfs", "lcfs-p"}
    sweep = load_preset("tradeoff-sweep")
    assert [p.service.shape for p in sweep.grid] == [3.0, 2.5, 2.0, 1.7, 1.5]
    nt = load_preset("no-tradeoff")
    assert any(p.arrival.family == "det" for p in nt.grid)
    with pytest.raises(ParameterError, match="unknown preset 'nope'; available: figure1, tradeoff-sweep, no-tradeoff"):
        load_preset("nope")
    assert capsys.readouterr().err == ""


def test_retired_key_is_ignored_with_one_note(capsys):
    cfg = load_preset("figure1", ["run.gginf_samples=1000"])
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("note:") and "run.gginf_samples" in err
    assert err.endswith("the gginf_age column is exact\n")
    assert cfg == load_preset("figure1")


def test_near_equal_shapes_get_distinct_labels():
    cfg = small_config(points=("fcfs pareto alpha=1.5", "fcfs pareto alpha=1.5000001"), n=1000, reps=1)
    assert cfg.echo()["grid"] == ["fcfs pareto alpha=1.5", "fcfs pareto alpha=1.5000001"]
    points = run_suite(cfg, parallel=False)
    assert [p.label() for p in points] == cfg.echo()["grid"]


def test_preset_override_scales_down():
    cfg = load_preset("figure1", ["run.n_arrivals=100", "run.n_reps=1"])
    assert cfg.n_arrivals == 100 and cfg.n_reps == 1
