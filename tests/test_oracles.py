import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from agedelay import (
    ArrivalProcess,
    Discipline,
    ParameterError,
    ServiceDistribution,
    StabilityError,
    gginf_age,
    min_average_age,
    parse_arrival,
    parse_service,
    pk_delay,
    run_simulation,
    summarize,
    tail_decay_table,
)
from agedelay.engine import parse_grid_line
from agedelay.oracles import _log_panels, _pending_minima, gginf_age_estimate

MU = 0.8
POISSON = parse_arrival("exp", 0.5)
PERIODIC = parse_arrival("det", 0.5)


# ---- age floor -----------------------------------------------------------------


def test_min_average_age_values():
    assert min_average_age(POISSON) == pytest.approx(2.0)
    assert min_average_age(PERIODIC) == pytest.approx(1.0)
    # periodic generation is optimal at a given rate
    assert min_average_age(PERIODIC) < min_average_age(POISSON)


# ---- Pollaczek-Khinchine delay ----------------------------------------------------


def test_pk_delay_closed_forms():
    assert pk_delay(0.5, parse_service("exp", MU)) == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert pk_delay(0.5, parse_service("det", MU)) == pytest.approx(
        0.5 * 1.5625 / (2 * 0.375) + 1.25, rel=1e-12
    )
    # infinite second moment propagates as the distinguished infinite value
    assert math.isinf(pk_delay(0.5, parse_service("pareto alpha=2", MU)))
    assert math.isinf(pk_delay(0.5, parse_service("pareto alpha=1.5", MU)))


def test_pk_delay_errors():
    with pytest.raises(StabilityError):
        pk_delay(0.8, parse_service("exp", MU))
    with pytest.raises(StabilityError):
        pk_delay(1.0, parse_service("exp", MU))
    with pytest.raises(ParameterError):
        pk_delay(-0.5, parse_service("exp", MU))
    with pytest.raises(ParameterError, match="lambda=9.99989e-321 is too small"):
        pk_delay(1e-320, parse_service("exp", MU))  # 1/lambda is past the double range


def test_pk_delay_matches_fcfs_simulation():
    svc = parse_service("lognormal sigma=1", MU)
    rep = summarize(run_simulation(POISSON, svc, Discipline.FCFS, 400_000, 0.1, 51))
    assert rep.mean_delay == pytest.approx(pk_delay(0.5, svc), rel=0.05)


def test_pk_delay_matches_lcfs_np_simulation():
    svc = parse_service("pareto alpha=3", MU)
    rep = summarize(
        run_simulation(POISSON, svc, Discipline.LCFS_NONPREEMPTIVE, 400_000, 0.1, 52)
    )
    assert rep.mean_delay == pytest.approx(pk_delay(0.5, svc), rel=0.05)


# ---- periodic/deterministic baseline ------------------------------------------------


def dd1_age(lam: float, mu: float) -> float:
    """gginf_age of 'fcfs det arrival=det': below capacity no packet waits, so it is that point's age."""
    point = parse_grid_line("fcfs det arrival=det", mu, lam)
    return gginf_age(point.arrival, point.service)


def test_dd1_age_values():
    assert dd1_age(0.5, 0.8) == 2.25
    # the sawtooth drops to 1/mu every 1/lambda
    assert dd1_age(0.7, 0.9) == pytest.approx(0.5 / 0.7 + 1 / 0.9, rel=1e-15)
    # zero service time recovers the arrival-only floor
    assert dd1_age(0.5, 1e12) == pytest.approx(min_average_age(PERIODIC), rel=1e-9)
    with pytest.raises(StabilityError):
        dd1_age(0.8, 0.8)
    with pytest.raises(ParameterError):
        dd1_age(0.0, 0.8)
    with pytest.raises(ParameterError, match="lambda=9.99989e-321 is too small"):
        dd1_age(1e-320, 0.8)  # 0.5 / lambda overflows to inf
    with pytest.raises(ParameterError, match="mu=9.99989e-321 is too small"):
        dd1_age(0.5, 1e-320)


def test_dd1_age_beats_simulated_mm1_fcfs():
    rep = summarize(run_simulation(POISSON, parse_service("exp", MU), Discipline.FCFS, 200_000, 0.1, 53))
    assert dd1_age(0.5, MU) < rep.avg_age - rep.ci_halfwidth_age


# ---- infinite-server age estimate ----------------------------------------------------


def test_pending_min_deterministic_service_bounded_by_first_draw():
    det = parse_service("det", MU)
    rng = np.random.default_rng(5)
    z = _pending_minima(
        200,
        lambda live: POISSON.sample_n(rng, live.size),
        lambda live: det.sample_n(rng, live.size),
    )
    assert np.all(z <= 1.25 + 1e-15)


def test_gginf_det_det_is_exact():
    est, se = gginf_age_estimate(PERIODIC, parse_service("det", MU), 2000, 1)
    assert est == pytest.approx(2.25, abs=1e-12)
    assert se == 0.0


def test_gginf_exp_exp_within_bounds():
    est, se = gginf_age_estimate(POISSON, parse_service("exp", MU), 50_000, 2)
    # the pending-update term lies in [0, E[S]]
    assert 2.0 <= est <= 3.25
    assert se > 0


def test_gginf_requires_enough_samples():
    with pytest.raises(ParameterError):
        gginf_age_estimate(POISSON, parse_service("exp", MU), 999, 0)


def test_gginf_estimate_refuses_a_negative_seed():
    with pytest.raises(ParameterError, match="^seed must be >= 0, got -1$"):
        gginf_age_estimate(POISSON, parse_service("exp", MU), 1000, -1)


def test_gginf_early_termination_matches_brute_force():
    # shared draws: serve prerolled rows into the production kernel, each
    # live draw taking the next unused entry of its own row, and compare
    # against a no-early-exit minimization truncated at l = 1000
    n_draws, max_l = 10_000, 1000
    rng = np.random.default_rng(2024)
    xs = rng.standard_exponential((n_draws, max_l)) / 0.5
    ss = rng.standard_exponential((n_draws, max_l + 1)) / MU

    prefix = np.cumsum(xs, axis=1)
    brute = np.minimum(ss[:, 0], (prefix + ss[:, 1:]).min(axis=1))

    def prerolled(rows):
        used = np.zeros(n_draws, dtype=np.intp)

        def draw(live):
            values = rows[live, used[live]]
            used[live] += 1
            return values

        return draw

    z = _pending_minima(n_draws, prerolled(xs), prerolled(ss))
    assert np.all(np.abs(z - brute) <= 1e-12)


def test_gginf_pareto_sweep_decreases_toward_floor():
    ages = [gginf_age(POISSON, parse_service(f"pareto alpha={alpha}", MU)) for alpha in (3.0, 2.5, 2.0, 1.7, 1.5)]
    assert all(a > 2.0 for a in ages)
    assert all(b < a for a, b in zip(ages, ages[1:]))
    # at alpha -> 1+ the floor 1/lambda is all that is left: theta -> 0, and E[S] rides on a vanishing tail
    assert gginf_age(POISSON, parse_service("pareto alpha=1.0001", MU)) == pytest.approx(2.0, rel=1e-3)


def test_gginf_age_never_reads_below_the_floor():
    # nearly every service here is far shorter than 1/lambda: the sum read one ulp below a_min = 1/lambda
    below = []
    for spec in ("weibull k=0.01", "lognormal sigma=20", "lognormal sigma=30", "lognormal sigma=35"):
        for lam, mu in ((0.5, MU), (1e-3, MU), (1e3, 1.25e3)):
            arrival = parse_arrival("exp", lam)
            age, a_min = gginf_age(arrival, parse_service(spec, mu)), min_average_age(arrival)
            if age < a_min:
                below.append((spec, lam, age, a_min))
    assert below == []


def test_gginf_consistent_with_infinite_server_simulation():
    svc = parse_service("exp", MU)
    rep = summarize(run_simulation(POISSON, svc, Discipline.INFINITE_SERVER, 200_000, 0.1, 54))
    est, se = gginf_age_estimate(POISSON, svc, 100_000, 55)
    combined = math.hypot(rep.ci_halfwidth_age / 1.96, se)
    assert abs(rep.avg_age - est) <= 4 * combined + 1e-3


# ---- exact infinite-server age --------------------------------------------------------

FIGURE1_LAWS = [
    parse_service(spec, MU)
    for spec in (
        "det", "exp", "pareto alpha=3", "pareto alpha=2", "pareto alpha=1.5",
        "lognormal sigma=1", "lognormal sigma=2", "weibull k=1", "weibull k=0.5",
    )
]
# the heavy-tail limits the paper sweeps toward
LIMIT_LAWS = [parse_service(spec, MU) for spec in ("pareto alpha=1.0001", "lognormal sigma=20", "weibull k=0.02")]


def law_kinks(service):
    """Where P(S > x) is not smooth: the Pareto scale, the deterministic value."""
    if service.family == "pareto":
        return [service.pareto_scale]
    return [1.0 / service.mu] if service.family == "det" else []


def quad_gginf_poisson(lam, service):
    """The Poisson-arrival integral of exp(-lam E[(x - S)+]), by adaptive quadrature in log x."""
    def integrand(v):
        x = math.exp(v)
        return x * math.exp(-lam * (x - service.truncated_mean_below(x) - x * service.tail_prob(x)))

    lo, hi = math.log(1e-30), math.log(100 / lam + 20 / service.mu)
    kinks = [math.log(k) for k in law_kinks(service)]
    value, _ = integrate.quad(integrand, lo, hi, points=kinks or None, limit=2000, epsabs=0, epsrel=1e-13)
    return math.exp(lo) + value


def quad_gginf_periodic(lam, service):
    """D/2 plus the sum over k of the U-integrals of prod_{j<=k} P(S > U + jD), term by term."""
    period = 1 / lam
    total = period / 2
    for k in range(1000):
        def integrand(u):
            return math.prod(service.tail_prob(u + j * period) for j in range(k + 1))

        kinks = [x % period for x in law_kinks(service)]
        term, _ = integrate.quad(integrand, 0, period, points=kinks or None, limit=500, epsabs=1e-300, epsrel=1e-13)
        total += term
        if term < 1e-18:
            return total
    raise AssertionError("the reference sum did not converge")


@pytest.mark.parametrize("arrival", [POISSON, PERIODIC], ids=["poisson", "periodic"])
@pytest.mark.parametrize("service", FIGURE1_LAWS + LIMIT_LAWS, ids=lambda d: d.label())
def test_gginf_age_matches_adaptive_quadrature(arrival, service):
    reference = (quad_gginf_poisson if arrival.family == "exp" else quad_gginf_periodic)(arrival.lam, service)
    assert gginf_age(arrival, service) == pytest.approx(reference, rel=1e-10)


def test_gginf_age_det_closed_forms():
    for lam, mu in ((0.5, 0.8), (0.7, 0.9), (3.0, 0.1), (1e-6, 1e6)):
        det = parse_service("det", mu)
        assert gginf_age(ArrivalProcess("exp", lam), det) == 1 / lam + 1 / mu
        assert gginf_age(ArrivalProcess("det", lam), det) == 0.5 / lam + 1 / mu
    # a closed form, whatever lambda/mu
    assert gginf_age(ArrivalProcess("exp", 1e4), parse_service("det", MU)) == 1e-4 + 1.25


@pytest.mark.parametrize("lo, hi, s", [(1e-18, 60.0, 1.0), (1e-12, 200.0, 0.25), (1e-15, 40.0, 3.0)])
def test_log_panels_integrate_an_exponential_density_to_one(lo, hi, s):
    # s e^(-s x) over (lo, hi) by the panels, plus the exact strip below lo; above hi it is under 2e-22.
    # A rule whose weights sum to 2 + 9e-16 on [-1, 1] reads each panel 4.4e-16 high, past this bound
    x, w = _log_panels(math.log(lo), math.log(hi), np.empty(0))
    total = s * float(w @ np.exp(-s * x)) + (1.0 - math.exp(-s * lo))
    assert abs(total - 1.0) <= 3e-16


# each family's whole admissible shape domain; shapes the constructor rejects are skipped
DOMAIN_SHAPES = {
    "det": st.none(),
    "exp": st.none(),
    "pareto": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "lognormal": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "weibull": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
}


@pytest.mark.parametrize("family", sorted(DOMAIN_SHAPES))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), lam=st.floats(1e-3, 1e3), mu=st.floats(1e-3, 1e3))
def test_gginf_age_jensen_bounds(family, data, lam, mu):
    # exp(-lam E[(x - S)+]) lies between exp(-lam x) and, as E[(x - S)+] >= (x - 1/mu)+,
    # exp(-lam (x - 1/mu)+): so 1/lam <= A <= 1/lam + 1/mu, with equality on the right for det
    try:
        service = ServiceDistribution(family, mu, data.draw(DOMAIN_SHAPES[family]))
    except ParameterError:
        return
    age = gginf_age(ArrivalProcess("exp", lam), service)
    slack = 1e-12 * (1 / lam + 1 / mu)  # rounding
    assert 1 / lam - slack <= age <= 1 / lam + 1 / mu + slack


@pytest.mark.parametrize("service", FIGURE1_LAWS, ids=lambda d: d.label())
def test_gginf_estimate_agrees_with_exact_value(service):
    est, se = gginf_age_estimate(POISSON, service, 100_000, 31)
    assert abs(est - gginf_age(POISSON, service)) <= 4 * se


# At mu = 0.8, the first lambda = 10^e (e <= 21) whose Poisson gginf_age the rounding check refuses;
# None where it refuses none.  Below its bulk, lognormal sigma=0.001 has E[S 1{S<x}] = 0.0 and
# P(S > x) = 1.0, where x - E[min(S, x)] is 0 to far below eps x, so the check charges only the bulk.
ROUNDING_REFUSED_FROM = {
    "exp": 20,
    "weibull k=1": 20,
    "lognormal sigma=2": 17,
    "lognormal sigma=0.001": 12,
    "weibull k=1000": 10,
    "weibull k=0.5": None,
    "pareto alpha=3": None,
    "pareto alpha=1.5": None,
    "pareto alpha=1.0001": None,
}


def test_gginf_age_refuses_what_it_cannot_resolve():
    # past _PERIODIC_TERMS periods the periodic sum gives up at once
    with pytest.raises(ParameterError, match=r"^gginf_age of exp service under periodic arrivals at lambda=1e\+10, "):
        gginf_age(ArrivalProcess("det", 1e10), parse_service("exp", MU))
    # the M/M/inf age is about sqrt(pi / (2 lambda mu)) = 1.4e-75 here, but x - E[min(S, x)]
    # rounds to 0 below x = 1e-16, where the integrand then reads 1
    with pytest.raises(ParameterError, match="is lost to rounding"):
        gginf_age(ArrivalProcess("exp", 1e150), parse_service("exp", MU))
    # the exponential law still resolves at lambda/mu = 1.25e10: sqrt(pi / (2 lambda mu)) to 1e-4
    age = gginf_age(ArrivalProcess("exp", 1e10), parse_service("exp", MU))
    assert age == pytest.approx(math.sqrt(math.pi / (2 * 1e10 * MU)), rel=1e-4)
    for spec, first in ROUNDING_REFUSED_FROM.items():
        service = parse_service(spec, MU)
        for e in range(22 if first is None else first):
            gginf_age(ArrivalProcess("exp", 10.0**e), service)
        if first is not None:
            with pytest.raises(ParameterError, match="is lost to rounding"):
                gginf_age(ArrivalProcess("exp", 10.0**first), service)


def quad_gginf_lognormal(lam, service):
    """The Poisson-arrival integral with E[(x - S)+] = x Phi(z) - Phi(z - sigma)/mu, free of the cancellation in x - E[min(S, x)]."""
    m, sigma = service.lognormal_location, service.shape

    def integrand(x):
        z = (math.log(x) - m) / sigma
        return math.exp(-lam * (x * ndtr(z) - ndtr(z - sigma) / service.mu))

    # the integrand is 1 to rounding below z = -12 and under e^-1e7 above z = 8 at the lambdas used here
    edges = [math.exp(m + sigma * k / 2) for k in range(-24, 17)]
    value, _ = integrate.quad(integrand, edges[0], edges[-1], points=edges[1:-1], limit=500, epsabs=0, epsrel=1e-13)
    return edges[0] + value


@pytest.mark.parametrize("lam,rel", [(1e9, 1e-10), (1e10, 1e-9), (1e11, 1e-8)])
def test_gginf_age_resolves_a_near_deterministic_law_at_large_lambda(lam, rel):
    # rounding x - E[min(S, x)] in the law's bulk costs about 3e-20 lambda of the value (2.5e-11,
    # 2.1e-10 and 2.8e-9 against 60-digit mpmath); the rounding check allows up to 1e-6, and the
    # exponential law, resolved up to lambda = 1e19, is 3.8e-9 off there
    service = parse_service("lognormal sigma=0.001", MU)
    assert gginf_age(ArrivalProcess("exp", lam), service) == pytest.approx(quad_gginf_lognormal(lam, service), rel=rel)


# ---- sweep tables -------------------------------------------------------------------


def test_tail_decay_table_pareto_values_and_flag():
    shapes, xs = [2.0, 1.5, 1.2, 1.05], [2.0, 4.0]
    m2, tail, trunc, diverging, decreasing = tail_decay_table("pareto", shapes, xs, MU, 0.5)
    assert m2.shape == (4,)
    assert tail.shape == trunc.shape == (4, 2)
    # frozen closed forms: tail (theta/x)^alpha, truncated (1/mu)(1-(theta/x)^(alpha-1))
    for i, alpha in enumerate(shapes):
        theta = (alpha - 1.0) / (MU * alpha)
        for j, x in enumerate(xs):
            assert tail[i, j] == pytest.approx((theta / x) ** alpha, rel=1e-12)
            assert trunc[i, j] == pytest.approx(1.25 * (1.0 - (theta / x) ** (alpha - 1.0)), rel=1e-12)
    # the tail column at x=4 rises from alpha=2 to 1.5 (0.0244 -> 0.0336):
    # a heavier tail puts more mass above large thresholds before the
    # shrinking scale wins, so the joint monotone flag is False here
    assert decreasing is False
    assert tail_decay_table("pareto", shapes, [2.0], MU, 0.5)[4] is True
    # E[S^2] is infinite for alpha <= 2
    assert np.all(np.isinf(m2)) and diverging is True
    assert np.all((tail >= 0) & (tail <= 1))
    # spot values from the closed form at alpha=1.5 and alpha=1.1, x=2
    _, spot_tail, spot_trunc, _, _ = tail_decay_table("pareto", [1.5, 1.1], [2.0], MU, 0.5)
    assert spot_tail[0, 0] == pytest.approx(0.09509072178909, abs=1e-12)
    assert spot_trunc[0, 0] == pytest.approx(0.67945566926545, abs=1e-12)
    assert spot_tail[1, 0] == pytest.approx(0.04265167245854, abs=1e-12)
    assert spot_trunc[1, 0] == pytest.approx(0.31166320591218, abs=1e-12)


def test_tail_decay_table_domain_checks():
    with pytest.raises(ParameterError):
        tail_decay_table("pareto", [2.0, 1.5], [1.0], MU, 0.5)  # x < 1/lambda
    with pytest.raises(ParameterError, match="x grid must be nonempty"):
        tail_decay_table("pareto", [2.0, 1.5], [], MU, 0.5)
    with pytest.raises(ParameterError):
        tail_decay_table("pareto", [1.5, 2.0], [2.0], MU, 0.5)  # wrong direction
    with pytest.raises(ParameterError):
        tail_decay_table("pareto", [1.5, 1.5], [2.0], MU, 0.5)  # must move strictly
    with pytest.raises(ParameterError):
        tail_decay_table("lognormal", [2.0, 1.0], [2.0], MU, 0.5)  # sigma must increase
    with pytest.raises(ParameterError):
        tail_decay_table("lognormal", [2.0, 2.0], [2.0], MU, 0.5)
    with pytest.raises(ParameterError, match="weibull sweep must move k toward 0"):
        tail_decay_table("weibull", [0.5, 1.0], [2.0], MU, 0.5)  # k must decrease
    with pytest.raises(ParameterError, match="weibull sweep must move k toward 0"):
        tail_decay_table("weibull", [0.5, 0.5], [2.0], MU, 0.5)
    with pytest.raises(ParameterError):
        tail_decay_table("pareto", [], [2.0], MU, 0.5)  # the single law needs a shape
    with pytest.raises(ParameterError):
        tail_decay_table("nosuch", [], [2.0], MU, 0.5)
    with pytest.raises(ParameterError):
        tail_decay_table("pareto", [2.0, 1.5], [2.0, math.inf], MU, 0.5)
    with pytest.raises(ParameterError, match="lambda=9.99989e-321 is too small"):
        tail_decay_table("exp", [], [2.0], MU, 1e-320)


def test_tail_decay_table_deterministic_family():
    _, tail, trunc, diverging, decreasing = tail_decay_table("det", (), [2.0, 4.0], MU, 0.5)
    assert tail.shape == (1, 2)
    assert diverging is False and decreasing is False
    assert np.allclose(tail, 0.0)  # point mass at 1.25 < 2
    assert np.allclose(trunc, 1.25)
    # any family name a grid line takes
    assert np.array_equal(tail_decay_table("Deterministic", (), [2.0, 4.0], MU, 0.5)[2], trunc)
    with pytest.raises(ParameterError):
        tail_decay_table("det", [1.0], [2.0], MU, 0.5)


def test_tail_decay_table_weibull_k1_equals_exponential():
    w_m2, w_tail, w_trunc, _, _ = tail_decay_table("weibull", [1.0], [2.0, 4.0], MU, 0.5)
    e_m2, e_tail, e_trunc, _, _ = tail_decay_table("exp", (), [2.0, 4.0], MU, 0.5)
    assert w_m2 == pytest.approx(e_m2, rel=1e-12)
    assert np.allclose(w_tail, e_tail, atol=1e-12)
    assert np.allclose(w_trunc, e_trunc, atol=1e-12)


def sweep_moments(family, shapes):
    """The second-moment column and divergence flag of a sweep, at the threshold x = 1/lambda = 2."""
    m2, _, _, diverging, _ = tail_decay_table(family, shapes, [2.0], MU, 0.5)
    return m2, diverging


def test_second_moment_table_pareto_hits_infinite_branch():
    m2, diverging = sweep_moments("pareto", [3.0, 2.5, 2.1, 2.0])
    # alpha*theta(alpha)^2/(alpha-2) with theta = (alpha-1)/(mu*alpha)
    assert m2[0] == pytest.approx(2.0833333333, rel=1e-9)
    assert m2[1] == pytest.approx(2.8125, rel=1e-9)
    assert m2[2] == pytest.approx(9.0029761905, rel=1e-9)
    assert math.isinf(m2[3])
    assert diverging is True


def test_second_moment_table_lognormal_trend():
    m2, diverging = sweep_moments("lognormal", [1.0, 2.0])
    assert m2[0] == pytest.approx(math.e / 0.64, rel=1e-12)
    assert m2[1] == pytest.approx(math.exp(4.0) / 0.64, rel=1e-12)
    # increasing but far below the divergence threshold 1e6 / mu^2
    assert diverging is False
    # exp(sigma^2) crosses 1e6 between sigma = 3.71 and 3.72: a finite,
    # increasing column is divergent once its last value reaches the threshold
    assert sweep_moments("lognormal", [1.0, 3.71])[1] is False
    assert sweep_moments("lognormal", [1.0, 3.72])[1] is True
    # a single law reaching the threshold is no trend
    assert sweep_moments("lognormal", [3.72])[1] is False


def test_second_moment_past_double_range_is_divergent():
    m2, diverging = sweep_moments("lognormal", [1.0, 30.0])
    assert math.isfinite(m2[0])
    assert math.isinf(m2[1])
    assert diverging is True
    assert math.isinf(pk_delay(0.5, parse_service("lognormal sigma=30", MU)))


def test_second_moment_table_deterministic_constant():
    m2, diverging = sweep_moments("det", ())
    assert m2.tolist() == [pytest.approx(1.5625)]
    assert diverging is False
