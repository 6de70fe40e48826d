"""Closed-form and Monte-Carlo baselines the simulator is checked against.

None runs the engine's serve kernels or the event loop they are tested
against (tests/reference_loop.py): each comes from distribution moments,
tail integrals, or direct sampling of station-independent quantities.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .distributions import _SHAPE_KEY, ArrivalProcess, ServiceDistribution, _check_rate, canonical_family
from .errors import ParameterError, StabilityError

# The shape each family's heavy-tail sweep moves toward (alpha -> 1+,
# sigma -> +inf, k -> 0+): the sweep that drives the age toward its floor
# while blowing up the second moment.
HEAVY_TAIL_LIMITS = {"pareto": 1.0, "lognormal": math.inf, "weibull": 0.0}


def min_average_age(arrival: ArrivalProcess) -> float:
    """Floor on the time-average age over all policies and service laws.

    Equals E[X^2] / (2 E[X]): the average of the sawtooth obtained when
    every packet is delivered the instant it is generated.
    """
    return arrival.second_moment() / (2.0 * arrival.mean())


def pk_delay(lam: float, service: ServiceDistribution) -> float:
    """Pollaczek-Khinchine mean delay for a service-blind non-preemptive queue.

    D = (lam/2) E[S^2] / (1 - rho) + E[S] with rho = lam/mu, for Poisson
    arrivals.  Returns math.inf when E[S^2] diverges.
    """
    _check_rate("arrival rate lambda", lam)
    rho = lam / service.mu
    if rho >= 1.0:
        raise StabilityError(f"pk_delay needs rho < 1, got rho={rho}")
    m2 = service.second_moment()
    if math.isinf(m2):
        return math.inf
    return 0.5 * lam * m2 / (1.0 - rho) + service.mean()


# Draws per vectorised round; caps the working arrays of one estimate.
_GGINF_BLOCK = 16_384


def _pending_minima(n: int, next_x: Callable, next_s: Callable) -> np.ndarray:
    """n draws of min over l >= 0 of (X_1 + ... + X_l + S_{l+1}).

    next_x(live) and next_s(live) return one inter-arrival and one service
    value for each live draw index.  A draw stops as soon as its running
    arrival sum reaches its best candidate: service times are nonnegative,
    so no later candidate can be smaller.
    """
    live = np.arange(n)
    best = next_s(live)
    partial = np.zeros(n)
    while live.size:
        partial[live] += next_x(live)
        live = live[partial[live] < best[live]]
        best[live] = np.minimum(best[live], partial[live] + next_s(live))
    return best


def gginf_age_estimate(
    arrival: ArrivalProcess,
    service: ServiceDistribution,
    n_samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the infinite-server station's average age.

    The exact value is min_average_age(arrival) plus the expectation of the
    pending-update minimum; the expectation has no closed form for general
    families, so it is sampled in vectorised rounds.  Returns (estimate, standard error).
    """
    if n_samples < 1000:
        raise ParameterError(f"n_samples must be >= 1000, got {n_samples}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    next_x = lambda live: arrival.sample_n(rng, live.size)  # noqa: E731
    next_s = lambda live: service.sample_n(rng, live.size)  # noqa: E731
    z = np.concatenate([
        _pending_minima(min(_GGINF_BLOCK, n_samples - start), next_x, next_s)
        for start in range(0, n_samples, _GGINF_BLOCK)
    ])
    stderr = float(z.std(ddof=1) / math.sqrt(n_samples))
    return min_average_age(arrival) + float(z.mean()), stderr


# Each quadrature panel is _GL_ORDER-point Gauss-Legendre, at most _PANEL wide in log x.
_GL_ORDER = 32
_PANEL = 0.5
# Terms of the periodic-arrival sum that gginf_age adds before it gives up.
_PERIODIC_TERMS = 10_000
# The periodic sum stops where a term falls below this.
_NEGLIGIBLE = 1e-17
# The largest relative error that rounding may put into a Poisson-arrival gginf_age.
_ROUNDING_LIMIT = 1e-6


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of _GL_ORDER-point Gauss-Legendre on [-1, 1], nodes ascending.

    numpy's leggauss, built on first use, so that importing the package
    does no quadrature work and loads no numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss

    return leggauss(_GL_ORDER)


def _log_bends(service: ServiceDistribution) -> np.ndarray:
    """log x at which the law's CDF bends, as panel edges: none for det and exp.

    P(S <= x) is a function of y = r (log x - c): the tail is e^-y above
    the Pareto scale (a kink at y = 0), exp(-e^y) for Weibull and a normal
    tail in y for the lognormal.  Where r > 1, _PANEL in log x spans more
    than _PANEL in y, so edges go every _PANEL in y across the bend.
    """
    if service.family == "pareto":
        c, r, ys = math.log(service.pareto_scale), service.shape, np.arange(0.0, 40.5, _PANEL)
    elif service.family == "weibull":
        c, r, ys = math.log(service.weibull_scale), service.shape, np.arange(-40.0, 4.5, _PANEL)
    elif service.family == "lognormal":
        c, r, ys = service.lognormal_location, 1.0 / service.shape, np.arange(-9.0, 9.5, _PANEL)
    else:
        return np.empty(0)
    return c + ys / r if r > 1.0 else np.array([c])


def _log_panels(lo: float, hi: float, bends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum(w * g(x)) ~ the integral of g over (e^lo, e^hi).

    Gauss-Legendre in v = log x (so the weights carry the factor x), on
    panels _PANEL wide with extra edges at the bends inside (lo, hi).
    """
    inside = bends[(bends > lo) & (bends < hi)]
    edges = np.unique(np.concatenate((np.arange(lo, hi, _PANEL), inside, [hi])))
    nodes, weights = _gauss_legendre()
    half = np.diff(edges)[:, None] / 2.0
    x = np.exp(((edges[:-1] + edges[1:])[:, None] / 2.0 + half * nodes).ravel())
    return x, (half * weights).ravel() * x


def gginf_age(arrival: ArrivalProcess, service: ServiceDistribution) -> float:
    """Exact average age of the infinite-server station: the floor under every discipline.

    Every packet starts service on arrival, so the age exceeds x exactly
    when no packet generated in the last x time units has been delivered.

    Poisson arrivals at rate lam (Kam, Kompella and Ephremides, ISIT 2013,
    for M/M/inf; the same thinning holds for M/G/inf): the delivered
    packets among those generated in the last x form a Poisson count of mean
    lam E[(x - S)+], so
        A = integral over x > 0 of exp(-lam (x - E[min(S, x)])) dx.
    Periodic arrivals with period D = 1/lam, U the time since the last one
    (uniform on [0, D)) and packet j generated U + jD ago:
        A = D/2 + sum over k >= 0 of integral_0^D prod_{j<=k} P(S > U + jD) dU.

    Deterministic service has the closed forms 1/lam + 1/mu and D/2 + 1/mu.
    Otherwise each integral is taken by Gauss-Legendre panels in log x,
    with edges where the law's CDF bends (see _log_bends): over
    [1e-12/lam, 60/lam + 10/mu] under Poisson arrivals, where the integrand
    is 1 to within 1e-12 below and under e^-60 above, and over
    [1e-12 D, D] under periodic ones.  The periodic sum stops at the first
    k whose products fall below 1e-17 for every U.  Every value is floored
    at min_average_age(arrival), which rounding could otherwise undercut by
    an ulp.

    Raises ParameterError where lam/mu is too large for a sound answer:
    under periodic arrivals, if the sum needs more than _PERIODIC_TERMS =
    10,000 terms (exponential service past lam/mu of about 1.2e6); under
    Poisson arrivals, if the rounding of x - E[min(S, x)] may move the
    result by more than _ROUNDING_LIMIT = 1e-6 of itself.  That bound is
    conservative: exponential service passes it up to lam/mu of about
    1e19, but near-deterministic laws are refused from about 1e10
    (weibull k=1000) or 1e12 (lognormal sigma=0.001).
    """
    lam, mu = arrival.lam, service.mu
    # the sum can round below the floor where almost every service is far shorter than 1/lam
    a_min = min_average_age(arrival)
    if arrival.family == "exp":
        if service.family == "det":
            return max(1.0 / lam + 1.0 / mu, a_min)
        lo, hi = math.log(1e-12 / lam), math.log(60.0 / lam + 10.0 / mu)
        x, w = _log_panels(lo, hi, _log_bends(service))
        below = service.truncated_mean_below(x)
        m = below + x * service.tail_prob(x)  # E[min(S, x)]
        survival = np.exp(-lam * np.maximum(x - m, 0.0))
        age = math.exp(lo) + float(w @ survival)
        # where E[S 1{S<x}] is 0, no service (or too little to show) is shorter than x, and
        # x - E[min(S, x)] is exact; elsewhere it errs by about eps x, and lam scales that
        err = np.where(below > 0.0, x, 0.0)
        slip = lam * sys.float_info.epsilon * float(w @ (err * survival))
        if slip > _ROUNDING_LIMIT * age:
            raise ParameterError(
                f"gginf_age of {service.label()} service under Poisson arrivals at lambda={lam:g}, "
                f"mu={mu:g} is lost to rounding"
            )
        return max(age, a_min)
    period = 1.0 / lam
    if service.family == "det":
        return max(period / 2.0 + 1.0 / mu, a_min)
    # prod_{j=1..k} P(S > jD) bounds the k-th product at every U, since the tail does not rise
    bound = np.cumprod(service.tail_prob(period * np.arange(1, _PERIODIC_TERMS + 1)))
    n_terms = int(np.argmax(bound < _NEGLIGIBLE))
    if not bound[n_terms] < _NEGLIGIBLE:
        raise ParameterError(
            f"gginf_age of {service.label()} service under periodic arrivals at lambda={lam:g}, "
            f"mu={mu:g} needs more than {_PERIODIC_TERMS} terms"
        )
    bends = np.exp(_log_bends(service))
    # a bend of P(S > U + jD) in U sits at the bend minus jD: they all fold onto (0, D)
    folded = np.mod(bends[bends < (n_terms + 2) * period], period)
    lo, hi = math.log(1e-12 * period), math.log(period)
    u, w = _log_panels(lo, hi, np.log(folded[folded > 0.0]))
    prod = np.ones_like(u)
    series = np.zeros_like(u)
    for j in range(n_terms + 1):
        prod *= service.tail_prob(u + j * period)
        series += prod
    # below the first panel, the series is about its value at the first node
    return max(period / 2.0 + float(w @ series) + math.exp(lo) * float(series[0]), a_min)


def _sweep_distributions(family: str, shapes: Sequence[float], mu: float) -> list[ServiceDistribution]:
    """One law per shape, each nearer the limit of family (any name a grid line takes); no shape, its single law."""
    family = canonical_family(family)
    shapes = [float(s) for s in shapes]
    dists = [ServiceDistribution(family, mu, s) for s in shapes] or [ServiceDistribution(family, mu)]
    limit = HEAVY_TAIL_LIMITS.get(family)
    # with an infinite limit, b == a gives nan, which fails the test as it should
    if limit is not None and not all((b - a) * (limit - a) > 0 for a, b in zip(shapes, shapes[1:])):
        raise ParameterError(f"{family} sweep must move {_SHAPE_KEY[family]} toward {limit:g}")
    return dists


def tail_decay_table(
    family: str,
    shapes: Sequence[float],
    xs: Sequence[float],
    mu: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, bool]:
    """E[S^2], P(S > x) and E[S 1{S<x}] along the heavy-tail sweep, x >= 1/lam.

    The age floor is approachable only if the tail and the truncated mean
    vanish in the limit; the second moment diverges along the way.  Returns
    (second_moment, tail, truncated_mean, diverging, columns_decreasing):
    one second moment per shape, one tail and truncated-mean row per shape
    with one column per threshold x, and two flags.  diverging is True when
    some second moment is infinite, or when they strictly increase along a
    sweep of two or more shapes and the last reaches 1e6 times the squared
    mean service time.  columns_decreasing is True when every tail and
    truncated-mean column strictly decreases along such a sweep.
    """
    _check_rate("arrival rate lambda", lam)
    xs = np.array([float(x) for x in xs])
    if not xs.size:
        raise ParameterError("x grid must be nonempty")
    bad = xs[xs < (1.0 / lam) * (1.0 - 1e-12)]
    if bad.size:
        raise ParameterError(f"x grid values must be >= 1/lambda = {1.0 / lam}, got {bad.tolist()}")
    dists = _sweep_distributions(family, shapes, mu)
    m2 = np.array([d.second_moment() for d in dists])
    tail = np.array([d.tail_prob(xs) for d in dists])
    trunc = np.array([d.truncated_mean_below(xs) for d in dists])
    sweep = len(dists) >= 2
    diverging = bool(np.isinf(m2).any()) or (
        sweep and bool(np.all(np.diff(m2) > 0) and m2[-1] >= 1e6 / (mu * mu))
    )
    decreasing = sweep and bool(np.all(np.diff(tail, axis=0) < 0) and np.all(np.diff(trunc, axis=0) < 0))
    return m2, tail, trunc, diverging, decreasing
