"""Service-time and inter-arrival distribution families.

Every service family is parameterized so that the mean service time is
exactly 1/mu for any admissible shape:

  deterministic  S = 1/mu
  exponential    rate mu
  lognormal      S = exp(-log(mu) - sigma^2/2 + sigma*N),  N ~ N(0,1)
  pareto         P(S > x) = (theta/x)^alpha for x > theta,
                 theta = (alpha-1)/(mu*alpha), alpha > 1
  weibull        P(S > x) = exp(-(x/beta)^k),
                 beta = 1/(mu*Gamma(1+1/k)), k > 0

Inter-arrival families are deterministic (X = 1/lambda) and exponential
(Poisson process at rate lambda).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SERVICE_FAMILIES = ("det", "exp", "lognormal", "pareto", "weibull")
ARRIVAL_FAMILIES = ("det", "exp")

_SQRT2 = math.sqrt(2.0)
# numpy has no erfc, so math.erfc runs on each entry
_erfc = np.vectorize(math.erfc, otypes=[float])
# 1 - e^-y (1 + y) = y^2 sum_{k>=2} (-1)^k (k-1) y^(k-2) / k!; below y = 1 these 20 terms leave out
# under 1e-19 of the sum, and the closed form still loses up to 1e-15 to cancellation at y = 0.5
_EXP_BELOW_SERIES = tuple((-1) ** k * (k - 1) / math.factorial(k) for k in range(2, 22))


def _or_inf(fn, *args: float) -> float:
    """fn(*args), or math.inf where it exceeds the double range."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _gammainc(a: float, u: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, u) at each entry of u, for a > 0 and u >= 0 (u may be inf).

    Below u = a + 1, the power series for P; from there up, the continued
    fraction for 1 - P by the modified Lentz method.  Both are scaled by
    u^a e^-u / Gamma(a), and each entry stops as it converges.  The scale
    is that product wherever Gamma(a), u^a, e^-u and u^a e^-u are finite
    normal doubles; elsewhere it is exp(a log u - u - log Gamma(a)), whose
    exponent cancels and costs up to some 1e-13 relative.
    """
    shape = np.shape(u)
    u = np.ravel(np.asarray(u, dtype=float))
    below = u < a + 1.0
    # u = 0 gives 0 and u = inf gives 1; so does an entry whose scale is 0, where either sum would
    # be scaled to nothing and, near the top of the double range, the continued fraction
    # overflows to nan and would never converge
    p = np.where(below, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.exp(a * np.log(u) - u - math.lgamma(a))
        power, decay = u**a, np.exp(-u)
        direct = power * decay  # at most power, as decay <= 1
    gamma = _or_inf(math.gamma, a)
    if gamma < math.inf:
        tiny = sys.float_info.min
        np.divide(direct, gamma, out=scale, where=(power < math.inf) & (decay >= tiny) & (direct >= tiny))
    live = (scale > 0.0) & (u < math.inf)
    lo = np.flatnonzero(live & below)
    hi = np.flatnonzero(live & ~below)
    p[lo] = scale[lo] * _gamma_series(a, u[lo])
    p[hi] = 1.0 - scale[hi] * _gamma_fraction(a, u[hi])
    return p.reshape(shape)


def _gamma_series(a: float, u: np.ndarray) -> np.ndarray:
    """Sum of u^n / (a (a+1) ... (a+n)) at each entry of u < a + 1.

    Each term is below u / (a+1) < 1 times the last; an entry stops once its
    term falls to 1e-17 of its sum.
    """
    out = np.empty(u.shape)
    live = np.arange(u.shape[0])
    term = np.full(u.shape, 1.0 / a)
    total = term.copy()
    n = a
    while live.size:
        n += 1.0
        term *= u / n
        total += term
        going = term > total * 1e-17
        out[live[~going]] = total[~going]
        live, u, term, total = live[going], u[going], term[going], total[going]
    return out


def _gamma_fraction(a: float, u: np.ndarray) -> np.ndarray:
    """1 / (u+1-a - 1(1-a) / (u+3-a - 2(2-a) / (u+5-a - ...))) at each entry of u >= a + 1.

    Modified Lentz: an entry stops once its step factor is within one
    epsilon of 1; tiny keeps a denominator off 0.
    """
    tiny = 1e-300
    eps = sys.float_info.epsilon
    out = np.empty(u.shape)
    live = np.arange(u.shape[0])
    b = u + 1.0 - a
    c, d = np.full(u.shape, 1.0 / tiny), 1.0 / b
    frac = d.copy()
    i = 0
    while live.size:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) >= tiny, d, tiny)
        c = b + an / c
        c = np.where(np.abs(c) >= tiny, c, tiny)
        step = c * d
        frac *= step
        going = np.abs(step - 1.0) > eps
        out[live[~going]] = frac[~going]
        live, b, c, d, frac = live[going], b[going], c[going], d[going], frac[going]
    return out


def _over_thresholds(method):
    """A tail method at every entry of x, each positive and finite: a float for a scalar x, else x's shape.

    The method's body always receives x as a float array of at least one dimension.
    """

    @functools.wraps(method)
    def over_thresholds(self, x):
        t = np.array(x, dtype=float, ndmin=1)  # not a numpy scalar, whose ** rounds apart from an array's
        bad = ~((t > 0.0) & (t < math.inf))
        if bad.any():
            raise ParameterError(f"threshold x must be positive and finite, got {t[bad][0]}")
        with np.errstate(over="ignore"):  # each overflow gives its exact limit: erfc(inf) = 0, exp(-inf) = 0
            out = method(self, t)
        return float(out[0]) if np.isscalar(x) else out.reshape(np.shape(x))

    return over_thresholds


def format_shape(shape: float) -> str:
    """A number as written in names: :g where that reads back as the same float, else repr."""
    text = f"{shape:g}"
    return text if float(text) == shape else repr(shape)


def _check_rate(name: str, rate: float) -> None:
    """A rate must be positive and finite, and rate^2 and 1/rate^2 normal doubles: moments divide by rate^2."""
    if not (rate > 0 and math.isfinite(rate)):
        raise ParameterError(f"{name} must be positive and finite, got {rate}")
    if rate * rate < sys.float_info.min:
        raise ParameterError(f"{name}={rate:g} is too small: its square is below the double range")
    if 1.0 / (rate * rate) < sys.float_info.min:
        raise ParameterError(f"{name}={rate:g} is too large: its inverse square is below the double range")


@dataclass(frozen=True)
class ServiceDistribution:
    """One service-time law with mean pinned to 1/mu.

    family: one of 'det', 'exp', 'lognormal', 'pareto', 'weibull'.
    mu:     service rate (mean service time is 1/mu).
    shape:  sigma for lognormal, alpha for pareto, k for weibull;
            must be None for det/exp.

    Draws are finite and >= 0: a zero-length service is admissible.  Weibull
    draws beta * E^(1/k) underflow to exactly 0 at small admissible k (about
    half of them at k=0.006), and the engine serves such a packet in no time.
    """

    family: str
    mu: float
    shape: float | None = None

    def __post_init__(self):
        if self.family not in SERVICE_FAMILIES:
            raise ParameterError(f"unknown service family {self.family!r}")
        _check_rate("service rate mu", self.mu)
        if self.family in ("det", "exp"):
            if self.shape is not None:
                raise ParameterError(f"{self.family} service takes no shape parameter")
            return
        if self.shape is None or not math.isfinite(self.shape):
            raise ParameterError(f"{self.family} service requires a finite shape parameter")
        if self.family == "pareto" and not self.shape > 1:
            raise ParameterError(f"pareto requires alpha > 1, got {self.shape}")
        if self.family in ("lognormal", "weibull") and not self.shape > 0:
            raise ParameterError(f"{self.family} requires a positive shape, got {self.shape}")
        if self.family == "weibull" and math.isinf(_or_inf(math.gamma, 1.0 + 1.0 / self.shape)):
            raise ParameterError(
                f"weibull k={self.shape:g} is too small: Gamma(1+1/k) exceeds the double range"
            )
        if self.family == "weibull" and self.weibull_scale == 0.0:
            raise ParameterError(
                f"weibull k={self.shape:g} at mu={self.mu:g} is out of range: "
                "its scale 1/(mu Gamma(1+1/k)) is below the double range"
            )
        if self.family == "lognormal" and math.isinf(self.shape * self.shape):
            raise ParameterError(
                f"lognormal sigma={self.shape:g} is too large: sigma^2 exceeds the double range"
            )

    # ---- derived parameters -------------------------------------------------

    @property
    def pareto_scale(self) -> float:
        """theta(alpha) = (alpha-1)/(mu*alpha)."""
        a, mu = self.shape, self.mu
        # regrouped only where mu * alpha overflows, so every other value keeps its bits
        return (a - 1.0) / (mu * a) if mu * a < math.inf else (a - 1.0) / a / mu

    @property
    def weibull_scale(self) -> float:
        """beta(k) = 1/(mu*Gamma(1+1/k))."""
        return 1.0 / (self.mu * math.gamma(1.0 + 1.0 / self.shape))

    @property
    def lognormal_location(self) -> float:
        """Location of log(S), chosen so E[S] = 1/mu."""
        return -math.log(self.mu) - 0.5 * self.shape * self.shape

    # ---- moments ------------------------------------------------------------

    def mean(self) -> float:
        return 1.0 / self.mu

    def second_moment(self) -> float:
        """E[S^2]; math.inf when it diverges (pareto alpha <= 2) or exceeds the double range."""
        mu = self.mu
        if self.family == "det":
            return 1.0 / (mu * mu)
        if self.family == "exp":
            return 2.0 / (mu * mu)
        if self.family == "lognormal":
            return _or_inf(math.exp, self.shape * self.shape) / (mu * mu)
        if self.family == "pareto":
            a = self.shape
            if a <= 2.0:
                return math.inf
            th = self.pareto_scale
            m2 = a * th * th / (a - 2.0)
            # regrouped only where a * th^2 overflows, so every other value keeps its bits
            return m2 if m2 < math.inf else th * th * (a / (a - 2.0))
        b, k = self.weibull_scale, self.shape
        gamma2 = _or_inf(math.gamma, 1.0 + 2.0 / k)
        if not math.isinf(gamma2):
            return b * b * gamma2  # exact at k = 1, unlike the log-space ratio below
        # Gamma(1+2/k) overflows for k below about 0.0117; its ratio to Gamma(1+1/k)^2 does not
        return math.exp(math.lgamma(1.0 + 2.0 / k) - 2.0 * math.lgamma(1.0 + 1.0 / k)) / (mu * mu)

    # ---- tail and truncated moments ------------------------------------------

    @_over_thresholds
    def tail_prob(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(S > x), exact closed form, at a scalar x or each entry of an array."""
        if self.family == "det":
            return (x < 1.0 / self.mu).astype(float)
        if self.family == "exp":
            return np.exp(-self.mu * x)
        if self.family == "lognormal":
            z = (np.log(x) - self.lognormal_location) / self.shape
            return 0.5 * _erfc(z / _SQRT2)
        if self.family == "pareto":
            th = self.pareto_scale
            return (th / np.maximum(x, th)) ** self.shape
        return np.exp(-((x / self.weibull_scale) ** self.shape))

    @_over_thresholds
    def truncated_mean_below(self, x: float | np.ndarray) -> float | np.ndarray:
        """E[S 1{S < x}], the partial expectation, in closed form at a scalar x or each entry of an array.

        E[min(S, x)] = truncated_mean_below(x) + x * tail_prob(x); for det at
        x = 1/mu that makes it E[S 1{S <= x}] = 1/mu.
        """
        mu = self.mu
        if self.family == "det":
            return np.where(x < 1.0 / mu, 0.0, 1.0 / mu)
        if self.family == "exp":
            # (1 - e^-y (1 + y)) / mu with y = mu x: that cancels below y = 1, where its series is
            # exact to rounding; y is capped so that y e^-y is 0, not inf * 0, once e^-y underflows
            y = np.minimum(mu * x, 1e3)
            series = 0.0
            for c in reversed(_EXP_BELOW_SERIES):
                series = series * y + c
            return np.where(y < 1.0, y * y * series, -np.expm1(-y) - y * np.exp(-y)) / mu
        if self.family == "lognormal":
            z = (np.log(x) - self.lognormal_location) / self.shape
            return (1.0 / mu) * (0.5 * _erfc(-(z - self.shape) / _SQRT2))
        if self.family == "pareto":
            # (1/mu) (1 - (theta/x)^(alpha-1)), as theta alpha / (alpha-1) = 1/mu: expm1 keeps every
            # digit as alpha -> 1+, and log x - log theta cannot overflow as x/theta can
            th, a = self.pareto_scale, self.shape
            return (1.0 / mu) * -np.expm1((1.0 - a) * np.maximum(np.log(x) - math.log(th), 0.0))
        b, k = self.weibull_scale, self.shape
        u = (x / b) ** k
        return (1.0 / mu) * _gammainc(1.0 + 1.0 / k, u)

    # ---- sampling -------------------------------------------------------------

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws from this law as a float64 array."""
        if self.family == "det":
            return np.full(n, 1.0 / self.mu)
        if self.family == "exp":
            return rng.standard_exponential(n) / self.mu
        if self.family == "lognormal":
            z = rng.standard_normal(n)
            return np.exp(self.lognormal_location + self.shape * z)
        if self.family == "pareto":
            return self.pareto_scale * np.exp(rng.standard_exponential(n) / self.shape)
        return self.weibull_scale * rng.standard_exponential(n) ** (1.0 / self.shape)

    def label(self) -> str:
        if self.shape is None:
            return self.family
        return f"{self.family} {_SHAPE_KEY[self.family]}={format_shape(self.shape)}"


@dataclass(frozen=True)
class ArrivalProcess:
    """Renewal generation process: 'det' (periodic) or 'exp' (Poisson) at rate lam."""

    family: str
    lam: float

    def __post_init__(self):
        if self.family not in ARRIVAL_FAMILIES:
            raise ParameterError(f"unknown arrival family {self.family!r}")
        _check_rate("arrival rate lambda", self.lam)

    def mean(self) -> float:
        return 1.0 / self.lam

    def second_moment(self) -> float:
        if self.family == "det":
            return 1.0 / (self.lam * self.lam)
        return 2.0 / (self.lam * self.lam)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "det":
            return np.full(n, 1.0 / self.lam)
        return rng.standard_exponential(n) / self.lam


_SHAPE_KEY = {"lognormal": "sigma", "pareto": "alpha", "weibull": "k"}
# each family's own name and the two long names, in lower case
_FAMILY_ALIASES = {**{name: name for name in SERVICE_FAMILIES}, "deterministic": "det", "exponential": "exp"}


def canonical_family(name: str) -> str:
    """The family a name stands for, in any case: 'Exponential' is 'exp', 'deterministic' is 'det'."""
    family = _FAMILY_ALIASES.get(name.lower())
    if family is None:
        raise ParameterError(f"unknown distribution family {name!r}")
    return family


def _parse_family_spec(spec: str) -> tuple[str, dict[str, float]]:
    tokens = spec.split()
    if not tokens:
        raise ParameterError("empty distribution spec")
    family = canonical_family(tokens[0])
    kwargs: dict[str, float] = {}
    for tok in tokens[1:]:
        key, sep, val = tok.partition("=")
        if not sep:
            raise ParameterError(f"expected key=value, got {tok!r} in {spec!r}")
        key = key.lower()
        if key in kwargs:
            raise ParameterError(f"repeated key {key!r} in {spec!r}")
        try:
            kwargs[key] = float(val)
        except ValueError:
            raise ParameterError(f"bad numeric value in {tok!r}") from None
    return family, kwargs


def parse_service(spec: str, mu: float) -> ServiceDistribution:
    """Build a ServiceDistribution from a CLI/config string.

    Examples: 'det', 'exp', 'pareto alpha=1.5', 'lognormal sigma=2.0',
    'weibull k=0.5'.
    """
    family, kwargs = _parse_family_spec(spec)
    if family in ("det", "exp"):
        if kwargs:
            raise ParameterError(f"{family} service takes no parameters, got {spec!r}")
        return ServiceDistribution(family, mu)
    key = _SHAPE_KEY[family]
    if set(kwargs) != {key}:
        raise ParameterError(f"{family} service requires exactly {key}=<value>, got {spec!r}")
    return ServiceDistribution(family, mu, kwargs[key])


def parse_arrival(spec: str, lam: float) -> ArrivalProcess:
    """Build an ArrivalProcess from 'det' or 'exp'."""
    family, kwargs = _parse_family_spec(spec)
    if family not in ARRIVAL_FAMILIES or kwargs:
        raise ParameterError(f"arrival spec must be 'det' or 'exp', got {spec!r}")
    return ArrivalProcess(family, lam)
