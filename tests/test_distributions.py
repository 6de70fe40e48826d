import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc

from agedelay import ParameterError, ServiceDistribution, ArrivalProcess, parse_arrival, parse_service
from agedelay.distributions import _gammainc

MU = 0.8

SERVICE_GRID = [
    parse_service("det", MU),
    parse_service("exp", MU),
    parse_service("lognormal sigma=1", MU),
    parse_service("lognormal sigma=2", MU),
    parse_service("pareto alpha=3", MU),
    parse_service("pareto alpha=2", MU),
    parse_service("pareto alpha=1.5", MU),
    parse_service("weibull k=1", MU),
    parse_service("weibull k=0.5", MU),
]

X_GRID = [0.3, 0.7, 1.0, 1.25, 1.9, 2.5, 4.0, 8.0, 20.0]
TAIL_METHODS = ("tail_prob", "expected_min_with", "truncated_mean_below")


def _ids(dists):
    return [d.label() for d in dists]


# ---- parameterization and moments -------------------------------------------


@pytest.mark.parametrize("dist", SERVICE_GRID, ids=_ids(SERVICE_GRID))
def test_mean_is_inverse_rate(dist):
    assert dist.mean() == pytest.approx(1.0 / MU, abs=1e-15)


def test_pareto_scale_pins_mean():
    # alpha*theta/(alpha-1) must recover 1/mu exactly
    for alpha in (1.1, 1.5, 2.0, 3.0, 7.5):
        d = ServiceDistribution("pareto", MU, alpha)
        th = d.pareto_scale
        assert alpha * th / (alpha - 1.0) == pytest.approx(1.0 / MU, rel=1e-15)
    # mu * alpha overflows; theta = (alpha - 1)/(alpha mu) rounds to 1/mu all the same
    assert ServiceDistribution("pareto", 2.0, 1e308).pareto_scale == pytest.approx(0.5, rel=1e-12)


def test_second_moments_closed_form():
    det = parse_service("det", MU)
    assert (det.mean(), det.second_moment()) == (1.25, pytest.approx(1.5625))
    assert parse_service("exp", MU).second_moment() == pytest.approx(2.0 / MU**2)
    # lognormal: e^{sigma^2}/mu^2
    assert parse_service("lognormal sigma=1", MU).second_moment() == pytest.approx(
        math.e / 0.64, rel=1e-12
    )
    assert parse_service("lognormal sigma=2", MU).second_moment() == pytest.approx(
        math.exp(4.0) / 0.64, rel=1e-12
    )
    # pareto: alpha*theta^2/(alpha-2), infinite at alpha <= 2
    assert parse_service("pareto alpha=3", MU).second_moment() == pytest.approx(
        3 * (5.0 / 6.0) ** 2, rel=1e-12
    )
    assert math.isinf(parse_service("pareto alpha=2", MU).second_moment())
    assert math.isinf(parse_service("pareto alpha=1.5", MU).second_moment())
    # weibull k=1 reduces to exponential
    assert parse_service("weibull k=1", MU).second_moment() == pytest.approx(
        2.0 / MU**2, rel=1e-12
    )


def test_second_moments_near_heavy_tail_limits():
    # at k = 0.01, Gamma(1+2/k)/Gamma(1+1/k)^2 = 200!/(100!)^2, though Gamma(201) alone overflows
    weibull = parse_service("weibull k=0.01", MU)
    assert weibull.second_moment() == pytest.approx(math.comb(200, 100) / MU**2, rel=1e-12)
    # e^{sigma^2} exceeds the double range at sigma = 30
    lognormal = parse_service("lognormal sigma=30", MU)
    assert math.isinf(lognormal.second_moment())
    # alpha * theta^2 overflows in both, though E[S^2] = theta^2 alpha/(alpha - 2) does not
    assert ServiceDistribution("pareto", 1e-6, 1e300).second_moment() == pytest.approx(1e12, rel=1e-12)
    theta = 0.8 / 1.6e-154
    assert ServiceDistribution("pareto", 1.6e-154, 5.0).second_moment() == pytest.approx(
        theta * theta * 5.0 / 3.0, rel=1e-12
    )


@pytest.mark.parametrize(
    "dist",
    [d for d in SERVICE_GRID if not math.isinf(d.second_moment())],
    ids=_ids([d for d in SERVICE_GRID if not math.isinf(d.second_moment())]),
)
def test_second_moment_against_quadrature(dist):
    # independent route: E[S^2] = integral of 2 t P(S > t) dt over (0, inf),
    # split at the mean to keep the integrand smooth for quadpack
    f = lambda t: 2.0 * t * dist.tail_prob(t)  # noqa: E731
    head, _ = integrate.quad(f, 0.0, dist.mean(), limit=200)
    tail, _ = integrate.quad(f, dist.mean(), np.inf, limit=200)
    assert dist.second_moment() == pytest.approx(head + tail, rel=1e-7)


def test_pareto_samples_respect_scale():
    d = parse_service("pareto alpha=2", MU)
    assert d.pareto_scale == pytest.approx(0.625)
    rng = np.random.default_rng(11)
    s = d.sample_n(rng, 100_000)
    assert s.min() >= 0.625


# ---- sampling ----------------------------------------------------------------


@pytest.mark.parametrize("dist", SERVICE_GRID, ids=_ids(SERVICE_GRID))
def test_samples_strictly_positive_and_deterministic(dist):
    rng = np.random.default_rng(5)
    s = dist.sample_n(rng, 200_000)
    assert np.all(s > 0)
    rng2 = np.random.default_rng(5)
    s2 = dist.sample_n(rng2, 200_000)
    assert np.array_equal(s, s2)


def test_deterministic_sample_value():
    d = parse_service("det", MU)
    rng = np.random.default_rng(0)
    assert np.all(d.sample_n(rng, 10) == 1.25)


def test_weibull_k1_draws_equal_exponential_draws():
    w = parse_service("weibull k=1", MU)
    e = parse_service("exp", MU)
    s_w = w.sample_n(np.random.default_rng(42), 1000)
    s_e = e.sample_n(np.random.default_rng(42), 1000)
    assert np.allclose(s_w, s_e, rtol=1e-15)


@pytest.mark.parametrize(
    "dist",
    [d for d in SERVICE_GRID if not math.isinf(d.second_moment())],
    ids=_ids([d for d in SERVICE_GRID if not math.isinf(d.second_moment())]),
)
def test_monte_carlo_mean_within_4_stderr(dist):
    n = 1_000_000
    s = dist.sample_n(np.random.default_rng(1234), n)
    var = dist.second_moment() - 1.0 / MU**2
    if var == 0.0:
        assert s.mean() == pytest.approx(1.0 / MU, rel=1e-12)
    else:
        stderr = math.sqrt(var / n)
        assert abs(s.mean() - 1.0 / MU) <= 4.0 * stderr


@pytest.mark.parametrize("spec", ["pareto alpha=2", "pareto alpha=1.5"])
def test_heavy_pareto_median_within_1pct(spec):
    # infinite variance: calibrate on the median instead of the mean
    d = parse_service(spec, MU)
    s = d.sample_n(np.random.default_rng(77), 1_000_000)
    # P(S > m) = (theta/m)^alpha = 1/2
    assert np.median(s) == pytest.approx(d.pareto_scale * 2.0 ** (1.0 / d.shape), rel=0.01)


# ---- tails and truncated moments ----------------------------------------------


def test_tail_examples():
    det = parse_service("det", MU)
    assert det.tail_prob(1.0) == 1.0
    assert det.tail_prob(1.5) == 0.0
    assert parse_service("pareto alpha=2", MU).tail_prob(1.0) == pytest.approx(0.390625)
    assert parse_service("weibull k=1", MU).tail_prob(1.25) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize(
    "dist",
    SERVICE_GRID + [parse_service(spec, MU) for spec in ("pareto alpha=1.0001", "lognormal sigma=20", "weibull k=0.02")],
    ids=lambda d: d.label(),
)
def test_vectorised_tail_matches_scalar(dist):
    # a scalar takes the same arithmetic as an array entry, so the two agree bit for bit
    xs = np.array([1e-300, 1e-12, *X_GRID, dist.pareto_scale if dist.family == "pareto" else 1.25, 1e12, 1e300])
    for name in TAIL_METHODS:
        method = getattr(dist, name)
        scalar = [method(x) for x in xs.tolist()]
        assert all(type(v) is float for v in scalar), name
        assert method(xs).tolist() == scalar, name
        grid = method(np.stack([xs, xs[::-1]]))
        assert grid.shape == (2, xs.size) and grid.tolist() == [scalar, scalar[::-1]], name


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
@pytest.mark.parametrize("name", TAIL_METHODS)
def test_tail_methods_name_a_bad_threshold_entry(name, bad):
    method = getattr(parse_service("lognormal sigma=2", MU), name)
    with pytest.raises(ParameterError, match=f"^threshold x must be positive and finite, got {bad}$"):
        method(np.array([[1.0, 2.0], [bad, 4.0]]))


def test_weibull_k1_tail_matches_exponential_to_1e12():
    w = parse_service("weibull k=1", MU)
    e = parse_service("exp", MU)
    for x in X_GRID:
        assert abs(w.tail_prob(x) - e.tail_prob(x)) <= 1e-12


def test_expected_min_examples():
    e = parse_service("exp", MU)
    assert e.expected_min_with(1.25) == pytest.approx(1.25 * (1 - math.exp(-1.0)), rel=1e-12)
    det = parse_service("det", MU)
    assert det.expected_min_with(1.0) == 1.0
    # mu * x is subnormal and loses digits; the result must still not exceed x
    tiny = 1.1125369292536007e-308
    assert parse_service("exp", 1e-6).expected_min_with(tiny) <= tiny
    # x -> infinity saturates at the mean; heavy Pareto converges at rate
    # x^(1-alpha), so at x=1e9 and alpha=1.5 the deficit is ~2e-5
    for d in SERVICE_GRID:
        assert d.expected_min_with(1e9) == pytest.approx(1.0 / MU, rel=1e-4)


def test_truncated_mean_examples():
    det = parse_service("det", MU)
    assert det.truncated_mean_below(1.0) == 0.0
    p = parse_service("pareto alpha=1.5", MU)
    th = p.pareto_scale
    expect = 1.25 * (1.0 - (th / 2.0) ** 0.5)
    assert p.truncated_mean_below(2.0) == pytest.approx(expect, rel=1e-12)
    e = parse_service("exp", MU)
    assert e.truncated_mean_below(1e9) == pytest.approx(1.25, rel=1e-9)


# every Weibull law's a = 1 + 1/k, from k = 700 down to near the smallest admissible k
@pytest.mark.parametrize("k", [700, 50, 5, 1, 0.5, 0.1, 0.02, 0.0117, 0.006])
def test_gammainc_matches_scipy(k):
    a = 1.0 + 1.0 / k
    # near the top of the double range the continued fraction overflowed to nan and never returned
    us = [0.0, 1e-300, *np.logspace(-12, 4), a * (1 - 1e-3), a * (1 + 1e-3), 1e6, 1e300, 1.4786218688585072e308, math.inf]
    for u in map(float, us):
        ref = float(gammainc(a, u))
        # scipy flushes some results below the normal double range to 0
        assert abs(_gammainc(a, u) - ref) <= 1e-12 * ref + sys.float_info.min, (a, u)


@pytest.mark.parametrize("dist", SERVICE_GRID, ids=_ids(SERVICE_GRID))
def test_min_identity_on_grid(dist):
    # E[min(S,x)] = E[S 1{S<x}] + x P(S>x), to 1e-9 everywhere
    for x in X_GRID:
        lhs = dist.expected_min_with(x)
        rhs = dist.truncated_mean_below(x) + x * dist.tail_prob(x)
        assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("dist", SERVICE_GRID, ids=_ids(SERVICE_GRID))
def test_expected_min_against_quadrature(dist):
    # independent oracle: integrate the tail over (0, x)
    for x in (0.7, 1.9, 4.0):
        val, err = integrate.quad(
            dist.tail_prob, 0.0, x, points=[p for p in (dist.mean(),) if p < x], limit=200
        )
        assert dist.expected_min_with(x) == pytest.approx(val, rel=1e-7, abs=1e-10)


def test_pareto_truncated_closed_form_vs_quadrature():
    d = parse_service("pareto alpha=1.5", MU)
    th = d.pareto_scale
    for x in (1.0, 2.0, 5.0):
        val, _ = integrate.quad(lambda t: t * 1.5 * th**1.5 * t**-2.5, th, x)
        assert d.truncated_mean_below(x) == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("dist", SERVICE_GRID, ids=_ids(SERVICE_GRID))
def test_tail_monotone_and_min_concave(dist):
    xs = np.linspace(0.05, 12.0, 240)
    tails = np.array([dist.tail_prob(x) for x in xs])
    assert np.all(np.diff(tails) <= 1e-15)
    assert np.all((tails >= 0) & (tails <= 1))
    mins = np.array([dist.expected_min_with(x) for x in xs])
    assert np.all(np.diff(mins) >= -1e-12)
    # concavity: increments are nonincreasing on the uniform grid
    assert np.all(np.diff(mins, 2) <= 1e-10)
    truncs = np.array([dist.truncated_mean_below(x) for x in xs])
    assert np.all(truncs >= 0.0) and np.all(truncs <= 1.0 / MU + 1e-12)


# ---- arrivals -----------------------------------------------------------------


def test_arrival_moments_and_samples():
    det = parse_arrival("det", 0.5)
    assert (det.mean(), det.second_moment()) == (2.0, 4.0)
    rng = np.random.default_rng(0)
    assert np.all(det.sample_n(rng, 10) == 2.0)
    exp = parse_arrival("exp", 0.5)
    assert (exp.mean(), exp.second_moment()) == (2.0, 8.0)
    s = exp.sample_n(np.random.default_rng(3), 1_000_000)
    assert s.mean() == pytest.approx(2.0, abs=4 * 2.0 / 1000.0)
    assert np.all(s > 0)


# ---- whole shape domains ---------------------------------------------------------

# each family's whole admissible shape domain; shapes the constructor rejects are skipped
DOMAIN_SHAPES = {
    "det": st.none(),
    "exp": st.none(),
    "pareto": st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "lognormal": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "weibull": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
}


@pytest.mark.parametrize("family", sorted(DOMAIN_SHAPES))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    # rates whose 1/mu^2 is a normal double, so the bound below is representable
    mu=st.floats(min_value=1e-150, max_value=1e150),
    x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_shape_domain_limits(family, data, mu, x):
    try:
        d = ServiceDistribution(family, mu, data.draw(DOMAIN_SHAPES[family]))
    except ParameterError:
        return
    assert 0.0 <= d.tail_prob(x) <= 1.0
    assert 0.0 <= d.expected_min_with(x) <= min(x, 1.0 / mu) * (1.0 + 1e-12)
    assert d.truncated_mean_below(x) >= 0.0
    m2 = d.second_moment()
    assert math.isinf(m2) or m2 >= (1.0 / mu**2) * (1.0 - 1e-12)
    # the mean 1/mu, checked analytically: sampling cannot reach it near alpha -> 1+ or sigma -> inf
    em = d.expected_min_with(x)
    if math.isinf(m2):
        y = data.draw(st.floats(min_value=x, allow_infinity=False))
        assert d.expected_min_with(y) >= em * (1.0 - 1e-12)
    else:
        # 1/mu - E[min(S, x)] = E[(S - x)+] <= E[S^2]/(4x), as (s - x)+ <= s^2/(4x); slack for rounding
        slack = 1e-12 / mu
        assert -slack <= 1.0 / mu - em <= m2 / (4.0 * x) + slack
    # >= 0, not > 0: Weibull draws below the smallest subnormal read exactly 0 at small k
    s = d.sample_n(np.random.default_rng(0), 1000)
    assert np.all(np.isfinite(s)) and np.all(s >= 0.0)


# ---- admissibility and parsing --------------------------------------------------


@pytest.mark.parametrize(
    "family,mu,shape",
    [
        ("pareto", MU, 1.0),
        ("pareto", MU, 0.5),
        ("weibull", MU, 0.0),
        ("weibull", MU, -1.0),
        ("weibull", MU, 0.004),  # Gamma(1+1/k) overflows
        ("weibull", MU, 1e-320),  # 1/k is infinite
        ("weibull", 1e150, 0.006),  # the scale 1/(mu Gamma(1+1/k)) underflows to 0
        ("lognormal", MU, 0.0),
        ("lognormal", MU, 1e200),  # sigma^2 overflows
        ("exp", 1e-160, None),  # mu^2 underflows
        ("exp", 1e300, None),  # 1/mu^2 underflows
        ("det", 0.0, None),
        ("exp", -1.0, None),
        ("pareto", MU, None),
        ("det", MU, 1.0),
        ("nosuch", MU, None),
    ],
)
def test_inadmissible_parameters_raise_at_construction(family, mu, shape):
    with pytest.raises(ParameterError):
        ServiceDistribution(family, mu, shape)


def test_arrival_admissibility():
    with pytest.raises(ParameterError):
        ArrivalProcess("exp", 0.0)
    with pytest.raises(ParameterError):
        ArrivalProcess("pareto", 0.5)
    with pytest.raises(ParameterError):
        ArrivalProcess("exp", 1e-160)  # lambda^2 underflows
    with pytest.raises(ParameterError):
        ArrivalProcess("exp", 1e300)  # 1/lambda^2 underflows


def test_parse_service_specs():
    d = parse_service("pareto alpha=1.5", MU)
    assert (d.family, d.shape) == ("pareto", 1.5)
    assert parse_service("lognormal sigma=2.0", MU).shape == 2.0
    assert parse_service("weibull k=0.5", MU).shape == 0.5
    assert parse_service("deterministic", MU).family == "det"
    assert parse_service("exponential", MU).family == "exp"
    for bad in (
        "pareto", "pareto beta=2", "det x=1", "pareto alpha=1.5 k=2", "pareto alpha=abc", "",
        "pareto alpha=1.5 alpha=2",
    ):
        with pytest.raises(ParameterError):
            parse_service(bad, MU)
    with pytest.raises(ParameterError):
        parse_arrival("pareto alpha=2", 0.5)
