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


def _or_inf(fn, *args: float) -> float:
    """fn(*args), or math.inf where it exceeds the double range."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _gammainc(a: float, u: float) -> float:
    """Regularized lower incomplete gamma P(a, u) for a > 0 and u >= 0 (u may be inf).

    Below u = a + 1, the power series for P; from there up, the continued
    fraction for 1 - P by the modified Lentz method.  Both are scaled by
    u^a e^-u / Gamma(a).
    """
    if u == 0.0:
        return 0.0
    if math.isinf(u):
        return 1.0
    scale = math.exp(a * math.log(u) - u - math.lgamma(a))
    if scale == 0.0:
        # either sum would be scaled to nothing; near the top of the double range
        # the continued fraction overflows to nan and would never converge
        return 0.0 if u < a + 1.0 else 1.0
    if u < a + 1.0:
        # sum of u^n / (a (a+1) ... (a+n)); each term is below u / (a+1) < 1 times the last
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= u / n
            total += term
        return scale * total
    # 1 / (u+1-a - 1(1-a) / (u+3-a - 2(2-a) / (u+5-a - ...))); tiny keeps a denominator off 0
    tiny = 1e-300
    b = u + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    frac = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        frac *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return 1.0 - scale * frac


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
        raise ParameterError(f"{name} must be positive, got {rate}")
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
    def expected_min_with(self, x: float | np.ndarray) -> float | np.ndarray:
        """E[min(S, x)] = integral of P(S > t) over (0, x), in closed form, at a scalar x or each entry of an array."""
        mu = self.mu
        if self.family == "det":
            return np.minimum(x, 1.0 / mu)
        if self.family == "exp":
            return np.minimum(x, -np.expm1(-mu * x) / mu)  # mu * x loses digits at subnormal x
        if self.family == "lognormal":
            # E[S 1{S<x}] + x P(S>x) with the lognormal partial expectation
            m, s = self.lognormal_location, self.shape
            z = (np.log(x) - m) / s
            below = (1.0 / mu) * (0.5 * _erfc(-(z - s) / _SQRT2))
            return below + x * 0.5 * _erfc(z / _SQRT2)
        if self.family == "pareto":
            th, a = self.pareto_scale, self.shape
            above = th + th * (1.0 - (th / np.maximum(x, th)) ** (a - 1.0)) / (a - 1.0)
            return np.where(x <= th, x, above)
        b, k = self.weibull_scale, self.shape
        u = (x / b) ** k  # at u = inf both terms take their exact limits
        below = (1.0 / mu) * np.vectorize(_gammainc, otypes=[float])(1.0 + 1.0 / k, u)
        return below + x * np.exp(-u)

    @_over_thresholds
    def truncated_mean_below(self, x: float | np.ndarray) -> float | np.ndarray:
        """E[S 1{S < x}], evaluated as E[min(S,x)] - x*P(S > x), at a scalar x or each entry of an array."""
        val = self.expected_min_with(x) - x * self.tail_prob(x)
        return np.where(val > 0.0, val, 0.0)

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
_FAMILY_ALIASES = {
    "det": "det",
    "deterministic": "det",
    "exp": "exp",
    "exponential": "exp",
    "lognormal": "lognormal",
    "pareto": "pareto",
    "weibull": "weibull",
}


def _parse_family_spec(spec: str) -> tuple[str, dict[str, float]]:
    tokens = spec.split()
    if not tokens:
        raise ParameterError("empty distribution spec")
    family = _FAMILY_ALIASES.get(tokens[0].lower())
    if family is None:
        raise ParameterError(f"unknown distribution family {tokens[0]!r}")
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
