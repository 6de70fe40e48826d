"""Closed-form and Monte-Carlo baselines the simulator is checked against.

These are independent of the event-driven engine: everything here is
computed from distribution moments, tail integrals, or direct sampling of
the station-independent quantities.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .distributions import _SHAPE_KEY, ArrivalProcess, ServiceDistribution, _check_rate
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


def _sweep_distributions(family: str, shapes: Sequence[float], mu: float) -> list[ServiceDistribution]:
    """One law per shape, each nearer the family's limit; an empty grid is the family's single law."""
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
    xs = [float(x) for x in xs]
    if not xs:
        raise ParameterError("x grid must be nonempty")
    bad = [x for x in xs if x < 1.0 / lam - 1e-12]
    if bad:
        raise ParameterError(f"x grid values must be >= 1/lambda = {1.0 / lam}, got {bad}")
    dists = _sweep_distributions(family, shapes, mu)
    m2 = np.array([d.second_moment() for d in dists])
    tail = np.array([[d.tail_prob(x) for x in xs] for d in dists])
    trunc = np.array([[d.truncated_mean_below(x) for x in xs] for d in dists])
    sweep = len(dists) >= 2
    diverging = bool(np.isinf(m2).any()) or (
        sweep and bool(np.all(np.diff(m2) > 0) and m2[-1] >= 1e6 / (mu * mu))
    )
    decreasing = sweep and bool(np.all(np.diff(tail, axis=0) < 0) and np.all(np.diff(trunc, axis=0) < 0))
    return m2, tail, trunc, diverging, decreasing
