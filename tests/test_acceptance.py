"""Acceptance suite: every checklist criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s).  The
full-scale scenarios (1e6 arrivals, 8 replications per grid point) run
once as session fixtures and are shared by the criteria that need them;
the module takes about 50 s of wall time on two cores.

Two clauses are mathematically unattainable and are encoded verbatim as
strict xfail twins instead of being weakened (details in the test
docstrings): the Pareto tail monotonicity at x=4, and the mean-delay
increase along the preempt-resume LCFS sweep (M/G/1 LCFS-PR mean sojourn
is E[S]/(1-rho) for every service law: insensitivity).
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import agedelay as ad
from agedelay import Discipline
from agedelay.metrics import age_at
from agedelay.oracles import gginf_age_estimate
from reference_loop import redraw

LAM, MU = 0.5, 0.8
POISSON = ad.parse_arrival("exp", LAM)
PERIODIC = ad.parse_arrival("det", LAM)


def report(num, ok, detail=""):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def by_label(points):
    return {p.label(): p for p in points}


def one_point_suite(arrival, service, discipline, n_arrivals, n_reps, base_seed):
    """Replications base_seed .. base_seed + n_reps - 1 of one point, aggregated."""
    cfg = ad.SweepConfig(
        grid=(ad.ExperimentPoint(arrival, service, discipline),),
        n_arrivals=n_arrivals,
        n_reps=n_reps,
        base_seed=base_seed,
        warmup_fraction=0.1,
        nu_grid=(0.0,),
    )
    (point,) = ad.run_suite(cfg, parallel=True)
    return point


@pytest.fixture(scope="session")
def figure1_points():
    return ad.run_suite(ad.load_preset("figure1"), parallel=True)


@pytest.fixture(scope="session")
def tradeoff_points():
    return ad.run_suite(ad.load_preset("tradeoff-sweep"), parallel=True)


@pytest.fixture(scope="session")
def notradeoff_points():
    return ad.run_suite(ad.load_preset("no-tradeoff"), parallel=True)


def test_criterion_01_mm1_closed_form_and_simulation():
    """pk_delay(0.5, exp mu=0.8) = 10/3 and an 8x1e6 M/M/1 FCFS run agrees within 2% in <= 30 s."""
    pk = ad.pk_delay(LAM, ad.parse_service("exp", MU))
    assert pk == pytest.approx(10.0 / 3.0, rel=1e-12)
    t0 = time.perf_counter()
    mean_delay = one_point_suite(
        POISSON, ad.parse_service("exp", MU), Discipline.FCFS, 1_000_000, 8, 101
    ).mean_delay
    elapsed = time.perf_counter() - t0
    rel = abs(mean_delay - pk) / pk
    ok = rel <= 0.02 and elapsed <= 30.0
    report(1, ok, f"pk=3.3333 sim={mean_delay:.4f} rel_err={rel:.3%} runtime={elapsed:.1f}s")
    assert rel <= 0.02
    assert elapsed <= 30.0


def test_criterion_02_mg1_pareto_closed_form(figure1_points):
    """FCFS Pareto alpha=3: simulated mean delay within 5% of the P-K value 2.638889."""
    pk = ad.pk_delay(LAM, ad.parse_service("pareto alpha=3", MU))
    assert pk == pytest.approx(2.6388888888889, rel=1e-12)
    pt = by_label(figure1_points)["fcfs pareto alpha=3"]
    rel = abs(pt.mean_delay - pk) / pk
    report(2, rel <= 0.05, f"pk={pk:.5f} sim={pt.mean_delay:.5f} rel_err={rel:.3%}")
    assert rel <= 0.05


def test_criterion_03_infinite_server_age_consistency():
    """Simulated infinite-server age matches the Monte-Carlo estimate within
    3 combined standard errors on the 6-point (arrival x service) grid, and
    the exact gginf_age (the row's gginf_age cell) within 3 of its own.

    The deterministic/deterministic point is exact on both sides (stderr 0),
    so a 5e-3 absolute floor covers the finite-horizon truncation residual.
    """
    services = [ad.parse_service(s, MU) for s in ("det", "exp", "pareto alpha=2")]
    lines = []
    ok = True
    for arrival in (PERIODIC, POISSON):
        for service in services:
            point = one_point_suite(arrival, service, Discipline.INFINITE_SERVER, 200_000, 6, 301)
            # the row's CI is the 6-replication t halfwidth; undo the t quantile
            se_sim = point.avg_age_ci / stats.t.ppf(0.975, 5)
            est, se_mc = gginf_age_estimate(arrival, service, 200_000, 977)
            gap = abs(point.avg_age - est)
            bound = 3.0 * math.hypot(se_sim, se_mc) + 5e-3
            exact_gap = abs(point.avg_age - point.gginf_age)
            exact_bound = 3.0 * se_sim + 5e-3
            ok &= gap <= bound and exact_gap <= exact_bound
            lines.append(
                f"{arrival.family}/{service.label()}: sim={point.avg_age:.4f} est={est:.4f} "
                f"gap={gap:.4f} bound={bound:.4f} exact={point.gginf_age:.4f} "
                f"gap={exact_gap:.4f} bound={exact_bound:.4f}"
            )
    report(3, ok, "; ".join(lines))
    assert ok, "\n".join(lines)


def test_criterion_04_pathwise_age_lower_bound():
    """Under coupled seeds the infinite-server age path lower-bounds every
    single-server discipline at every breakpoint, exactly, on every
    (arrival, service) law of the three presets."""
    laws = {}  # a dict keeps the presets' order of first appearance
    for preset in ("figure1", "tradeoff-sweep", "no-tradeoff"):
        for point in ad.load_preset(preset).grid:
            laws[point.arrival, point.service] = None
    failed = []
    for arrival, service in laws:
        inf_tr = ad.run_simulation(arrival, service, Discipline.INFINITE_SERVER, 10_000, 0.1, 404)
        # the live traces share one draw, so each is checked against an independent one
        gen, svc = redraw(arrival, service, 10_000, 404)
        for discipline in (Discipline.FCFS, Discipline.LCFS_NONPREEMPTIVE, Discipline.LCFS_PREEMPTIVE):
            one_tr = ad.run_simulation(arrival, service, discipline, 10_000, 0.1, 404)
            for tr in (inf_tr, one_tr):
                assert np.array_equal(tr.gen_times, gen) and np.array_equal(tr.service_reqs, svc)
            ts = np.union1d(inf_tr.breakpoint_times, one_tr.breakpoint_times)
            if not np.all(age_at(inf_tr, ts) <= age_at(one_tr, ts) + 1e-9):
                failed.append(f"{discipline.value} {service.label()} arrival={arrival.family}")
    detail = f"A_inf(t) <= A_single(t) at every breakpoint, all disciplines, {len(laws)} preset laws, 1e4 packets"
    assert report(4, not failed, detail), failed


def test_criterion_05_age_floor(figure1_points, tradeoff_points, notradeoff_points):
    """Every simulated average age in the whole suite sits above a_min - CI;
    the floor is 2.0 for Poisson generation at 0.5 and 1.0 for periodic."""
    everything = list(figure1_points) + list(tradeoff_points) + list(notradeoff_points)
    ok = True
    worst = math.inf
    for p in everything:
        floor = 2.0 if p.point.arrival.family == "exp" else 1.0
        assert p.a_min == pytest.approx(floor, rel=1e-12)
        margin = p.avg_age - (p.a_min - p.avg_age_ci)
        worst = min(worst, margin)
        ok &= margin >= 0
    report(5, ok, f"{len(everything)} points, worst margin above floor {worst:.4f}")
    assert ok


def test_criterion_06_strong_tradeoff(tradeoff_points, figure1_points):
    """Heavy-tail sweep under LCFS-P: age strictly decreases toward 2.0 and
    delay variance strictly increases, with disjoint endpoint CIs, while
    E[S^2] runs finite -> increasing -> infinite.

    The mean-delay clause is insensitive under preempt-resume (see the
    strict-xfail twin below); the delay divergence the criterion is after
    is asserted on the FCFS side of the same service sweep.
    """
    pts = tradeoff_points
    ages = [p.avg_age for p in pts]
    variances = [p.delay_var for p in pts]
    ok_age = all(b < a for a, b in zip(ages, ages[1:])) and all(a > 2.0 for a in ages)
    ok_var = all(b > a for a, b in zip(variances, variances[1:]))
    # endpoint CIs (alpha=3 vs alpha=1.5) must not overlap
    lo, hi = pts[0], pts[-1]
    ok_age_ci = hi.avg_age + hi.avg_age_ci < lo.avg_age - lo.avg_age_ci
    ok_var_ci = lo.delay_var + lo.delay_var_ci < hi.delay_var - hi.delay_var_ci

    m2, _, _, m2_diverging, _ = ad.tail_decay_table("pareto", [3.0, 2.5, 2.0, 1.7, 1.5], [2.0], MU, LAM)
    ok_m2 = (
        m2[0] == pytest.approx(2.0833333333, rel=1e-9)
        and m2[1] == pytest.approx(2.8125, rel=1e-9)
        and m2[1] > m2[0]
        and all(math.isinf(v) for v in m2[2:])
        and m2_diverging is True
    )

    # delay divergence along the same service sweep where P-K applies
    fig = by_label(figure1_points)
    fcfs_delays = [fig[f"fcfs pareto alpha={a:g}"].mean_delay for a in (3, 2, 1.5)]
    ok_fcfs = all(b > a for a, b in zip(fcfs_delays, fcfs_delays[1:]))

    ok = ok_age and ok_var and ok_age_ci and ok_var_ci and ok_m2 and ok_fcfs
    report(
        6,
        ok,
        f"ages={['%.3f' % a for a in ages]} vars={['%.0f' % v for v in variances]} "
        f"E[S2]={['%.4f' % v if not math.isinf(v) else 'inf' for v in m2]} "
        f"fcfs delays={['%.2f' % d for d in fcfs_delays]} "
        "(mean-delay clause: expected FAIL, LCFS-PR insensitivity; see xfail twin)",
    )
    assert ok_age and ok_var and ok_age_ci and ok_var_ci and ok_m2 and ok_fcfs


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="M/G/1 LCFS preempt-resume mean sojourn is E[S]/(1-rho) for every "
    "service law with the same mean (busy-period argument), so the mean delay "
    "cannot strictly increase along the sweep; the blow-up lives in the "
    "delay variance. Kept verbatim as a regression guard on insensitivity.",
)
def test_criterion_06_mean_delay_clause(tradeoff_points):
    """Unattainable clause, asserted verbatim: LCFS-P mean delay strictly
    increasing along the Pareto sweep with disjoint endpoint CIs."""
    delays = [p.mean_delay for p in tradeoff_points]
    assert all(b > a for a, b in zip(delays, delays[1:]))
    lo, hi = tradeoff_points[0], tradeoff_points[-1]
    assert lo.mean_delay + lo.mean_delay_ci < hi.mean_delay - hi.mean_delay_ci


def test_criterion_07_tail_table():
    """Pareto sweep table at x in {2, 4}: min-identity E[S 1{S<x}] + x P(S>x)
    = integral of P(S>t) over (0, x) to 1e-9 everywhere;
    both columns strictly decrease at x=2; the truncated mean also
    decreases at x=4.

    The tail column at x=4 is NOT monotone (that clause lives in the
    strict-xfail twin): heavier tails put more mass above large
    thresholds before the shrinking scale wins.
    """
    shapes = [2.0, 1.5, 1.2, 1.05]
    _, tail, trunc, _, _ = ad.tail_decay_table("pareto", shapes, [2.0, 4.0], MU, LAM)
    ok_identity = True
    for alpha in shapes:
        d = ad.parse_service(f"pareto alpha={alpha}", MU)
        for x in (2.0, 4.0):
            integral, _ = integrate.quad(d.tail_prob, 0.0, x, points=[d.pareto_scale], limit=200)
            gap = abs(integral - d.truncated_mean_below(x) - x * d.tail_prob(x))
            ok_identity &= gap <= 1e-9
    tail_x2 = tail[:, 0]
    trunc_x2 = trunc[:, 0]
    trunc_x4 = trunc[:, 1]
    ok_dec = (
        bool(np.all(np.diff(tail_x2) < 0))
        and bool(np.all(np.diff(trunc_x2) < 0))
        and bool(np.all(np.diff(trunc_x4) < 0))
    )
    ok = ok_identity and ok_dec
    report(
        7,
        ok,
        f"identity<=1e-9 {ok_identity}; x=2 columns and x=4 truncated mean strictly "
        f"decreasing {ok_dec} (tail@x=4 clause: expected FAIL, non-monotone; see xfail twin)",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="P(S>4) along alpha {2, 1.5, 1.2, 1.05} is {0.0244, 0.0336, 0.0288, "
    "0.0121}: it rises before falling. Only the limit alpha->1 vanishes; "
    "monotone decrease at x=4 is not a property of the parameterization.",
)
def test_criterion_07_tail_monotone_at_x4_clause():
    """Unattainable clause, asserted verbatim: P(S>x) strictly decreasing
    along the sweep at x=4."""
    _, tail, _, _, _ = ad.tail_decay_table("pareto", [2.0, 1.5, 1.2, 1.05], [4.0], MU, LAM)
    assert bool(np.all(np.diff(tail[:, 0]) < 0))


def test_criterion_08_memoryless_no_tradeoff(figure1_points):
    """Exponential service: FCFS and LCFS-P mean delays agree (overlapping
    CIs) while LCFS-P achieves strictly lower age (disjoint CIs)."""
    fig = by_label(figure1_points)
    fcfs, lcfsp = fig["fcfs exp"], fig["lcfs-p exp"]
    delay_gap = abs(fcfs.mean_delay - lcfsp.mean_delay)
    ok_delay = delay_gap <= fcfs.mean_delay_ci + lcfsp.mean_delay_ci
    ok_age = lcfsp.avg_age + lcfsp.avg_age_ci < fcfs.avg_age - fcfs.avg_age_ci
    ok = ok_delay and ok_age
    report(
        8,
        ok,
        f"delays {fcfs.mean_delay:.4f}±{fcfs.mean_delay_ci:.4f} vs "
        f"{lcfsp.mean_delay:.4f}±{lcfsp.mean_delay_ci:.4f}; "
        f"ages {fcfs.avg_age:.4f} vs {lcfsp.avg_age:.4f}",
    )
    assert ok


def test_criterion_09_periodic_fcfs_no_tradeoff(notradeoff_points):
    """The D/D/1 point hits age 2.25 (1%) and delay 1.25 (0.1%) and weakly
    dominates every other FCFS point in the suite."""
    dd1 = next(p for p in notradeoff_points if p.point.arrival.family == "det")
    ok_age = abs(dd1.avg_age - 2.25) / 2.25 <= 0.01
    ok_delay = abs(dd1.mean_delay - 1.25) / 1.25 <= 0.001
    others = [p for p in notradeoff_points if p.point.discipline is Discipline.FCFS and p is not dd1]
    assert others
    ok_dom = all(dd1.avg_age <= p.avg_age and dd1.mean_delay <= p.mean_delay for p in others)
    ok = ok_age and ok_delay and ok_dom
    report(
        9,
        ok,
        f"age={dd1.avg_age:.4f} delay={dd1.mean_delay:.6f}; dominates {len(others)} FCFS points",
    )
    assert ok


def test_criterion_10_scalarized_picks_on_frontier(figure1_points):
    """Every scalarized pick over the nu grid is a member of the Pareto
    frontier, for both the delay and the delay-variance objective."""
    nus = (0.0, 0.1, 0.5, 1.0, 5.0, 100.0)
    ok = True
    for objective in ("mean_delay", "delay_variance"):
        frontier = {id(p) for p in ad.pareto_frontier(figure1_points, objective)}
        for nu in nus:
            ok &= id(ad.scalarized_pick(figure1_points, nu, objective)) in frontier
    report(10, ok, f"nu grid {nus} on both objectives")
    assert ok


def test_criterion_11_byte_identical_outputs(tmp_path, pool_sizes):
    """Same config and seed give byte-identical CSV/JSON across reruns and
    across serial vs concurrent execution."""
    cfg = ad.load_preset(
        "no-tradeoff",
        ["run.n_arrivals=20000", "run.n_reps=2"],
    )
    runs = {
        "serial-1": ad.run_and_emit(cfg, tmp_path / "serial-1", parallel=False),
        "serial-2": ad.run_and_emit(cfg, tmp_path / "serial-2", parallel=False),
        "parallel": ad.run_and_emit(cfg, tmp_path / "parallel", parallel=True),
    }
    blobs = {k: [p.read_bytes() for p in paths] for k, paths in runs.items()}
    # the parallel run forked its pool: a suite this small pools only where a worker's share is cut
    ok = blobs["serial-1"] == blobs["serial-2"] == blobs["parallel"] and pool_sizes == [2]
    report(11, ok, "CSV/JSON/plot bytes equal across reruns and serial vs concurrent")
    assert ok


def test_criterion_12_figure1_qualitative_shape(figure1_points):
    """The scatter places heavy-tail LCFS-P at low age / high delay and the
    deterministic-service FCFS point at the low-delay end."""
    fig = by_label(figure1_points)
    heavy = [fig["lcfs-p pareto alpha=1.5"], fig["lcfs-p lognormal sigma=2"], fig["lcfs-p weibull k=0.5"]]
    fcfs_det = fig["fcfs det"]
    fcfs_exp = fig["fcfs exp"]
    ok_placement = all(
        p.avg_age < fcfs_det.avg_age
        and p.avg_age < fcfs_exp.avg_age
        and p.mean_delay > fcfs_det.mean_delay
        for p in heavy
    )
    min_age_point = min(figure1_points, key=lambda p: p.avg_age)
    min_delay_point = min(figure1_points, key=lambda p: p.mean_delay)
    ok_corners = (
        min_age_point.point.discipline is Discipline.LCFS_PREEMPTIVE
        and min_age_point.label() in {p.label() for p in heavy}
        and min_delay_point.point.service.family == "det"
        and min_delay_point.point.discipline is Discipline.FCFS
    )
    ok = ok_placement and ok_corners
    report(
        12,
        ok,
        f"min-age point {min_age_point.label()} ({min_age_point.avg_age:.3f}); "
        f"min-delay point {min_delay_point.label()} ({min_delay_point.mean_delay:.3f})",
    )
    assert ok
