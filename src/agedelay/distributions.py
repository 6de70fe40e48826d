"""Service-time and inter-arrival distribution families.

Every service family is parameterized so that the mean service time is
exactly 1/mu for any admissible shape; each family is one class below,
whose docstring states its law.  det and exp also generate arrivals.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

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


# The decimal integers int() reads: one it matches and int() refuses has more digits than int() converts.
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def parse_number(text: str, name: str, *, integer: bool = False) -> float | int:
    """text read as float(text), or int(text) if integer; a ParameterError naming the setting where it reads none."""
    try:
        return int(text) if integer else float(text)
    except ValueError:
        if integer and _INTEGER.fullmatch(text):
            digits = sum(map(str.isdecimal, text))
            limit = sys.get_int_max_str_digits()
            raise ParameterError(f"{name} is too long: {digits} digits, more than the {limit} int() reads") from None
        raise ParameterError(f"{name} must be {'an integer' if integer else 'a number'}, got {text!r}") from None


def _check_rate(name: str, rate: float) -> None:
    """A rate must be positive and finite, and rate^2 and 1/rate^2 normal doubles: moments divide by rate^2."""
    if not (rate > 0 and math.isfinite(rate)):
        raise ParameterError(f"{name} must be positive and finite, got {rate}")
    if rate * rate < sys.float_info.min:
        raise ParameterError(f"{name}={rate:g} is too small: its square is below the double range")
    if 1.0 / (rate * rate) < sys.float_info.min:
        raise ParameterError(f"{name}={rate:g} is too large: its inverse square is below the double range")


class _Family:
    """One family's law at one rate and shape: each subclass states its family's facts once.

    key names the shape in specs and labels; limit is the shape the heavy-tail sweep moves toward (alpha -> 1+,
    sigma -> +inf, k -> 0+), driving the age toward its floor as E[S^2] blows up; both are None for det and exp.
    The constructor refuses a shape the family cannot take; tail and below are P(S > x) and E[S 1{S < x}].
    """

    key = limit = None

    def __init__(self, rate: float, shape: float | None = None):
        self.rate, self.shape = rate, shape

    def bends(self) -> tuple[float, float, float, float] | None:
        """(c, r, y0, y1): the CDF is a function of y = r (log x - c) that bends for y in [y0, y1]; None if none."""
        return None


class _Det(_Family):
    """S = 1/rate."""

    def second_moment(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def tail(self, x: np.ndarray) -> np.ndarray:
        return (x < 1.0 / self.rate).astype(float)

    def below(self, x: np.ndarray) -> np.ndarray:
        return np.where(x < 1.0 / self.rate, 0.0, 1.0 / self.rate)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, 1.0 / self.rate)


class _Exp(_Family):
    """Exponential at the rate."""

    def second_moment(self) -> float:
        return 2.0 / (self.rate * self.rate)

    def tail(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-self.rate * x)

    def below(self, x: np.ndarray) -> np.ndarray:
        # (1 - e^-y (1 + y)) / mu with y = mu x: that cancels below y = 1, where its series is
        # exact to rounding; y is capped so that y e^-y is 0, not inf * 0, once e^-y underflows
        y = np.minimum(self.rate * x, 1e3)
        series = 0.0
        for c in reversed(_EXP_BELOW_SERIES):
            series = series * y + c
        return np.where(y < 1.0, y * y * series, -np.expm1(-y) - y * np.exp(-y)) / self.rate

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_exponential(n) / self.rate


class _Lognormal(_Family):
    """S = exp(location + sigma*N), N ~ N(0,1), location = -log(mu) - sigma^2/2 so that E[S] = 1/mu."""

    key, limit = "sigma", math.inf

    def __init__(self, rate: float, shape: float):
        if not shape > 0:
            raise ParameterError(f"lognormal requires a positive shape, got {shape}")
        if math.isinf(shape * shape):
            raise ParameterError(f"lognormal sigma={shape:g} is too large: sigma^2 exceeds the double range")
        super().__init__(rate, shape)
        self.location = -math.log(rate) - 0.5 * shape * shape

    def second_moment(self) -> float:
        return _or_inf(math.exp, self.shape * self.shape) / (self.rate * self.rate)

    def tail(self, x: np.ndarray) -> np.ndarray:
        z = (np.log(x) - self.location) / self.shape
        return 0.5 * _erfc(z / _SQRT2)

    def below(self, x: np.ndarray) -> np.ndarray:
        z = (np.log(x) - self.location) / self.shape
        return (1.0 / self.rate) * (0.5 * _erfc(-(z - self.shape) / _SQRT2))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal(n)
        return np.exp(self.location + self.shape * z)

    def bends(self) -> tuple[float, float, float, float]:
        return self.location, 1.0 / self.shape, -9.0, 9.0  # a normal tail in y


class _Pareto(_Family):
    """P(S > x) = (theta/x)^alpha for x > theta, theta = (alpha-1)/(mu*alpha), alpha > 1."""

    key, limit = "alpha", 1.0

    def __init__(self, rate: float, shape: float):
        if not shape > 1:
            raise ParameterError(f"pareto requires alpha > 1, got {shape}")
        super().__init__(rate, shape)
        # regrouped only where mu * alpha overflows, so every other value keeps its bits
        self.scale = (shape - 1.0) / (rate * shape) if rate * shape < math.inf else (shape - 1.0) / shape / rate

    def second_moment(self) -> float:
        a = self.shape
        if a <= 2.0:
            return math.inf
        th = self.scale
        m2 = a * th * th / (a - 2.0)
        # regrouped only where a * th^2 overflows, so every other value keeps its bits
        return m2 if m2 < math.inf else th * th * (a / (a - 2.0))

    def tail(self, x: np.ndarray) -> np.ndarray:
        th = self.scale
        return (th / np.maximum(x, th)) ** self.shape

    def below(self, x: np.ndarray) -> np.ndarray:
        # (1/mu) (1 - (theta/x)^(alpha-1)), as theta alpha / (alpha-1) = 1/mu: expm1 keeps every
        # digit as alpha -> 1+, and log x - log theta cannot overflow as x/theta can
        th, a = self.scale, self.shape
        return (1.0 / self.rate) * -np.expm1((1.0 - a) * np.maximum(np.log(x) - math.log(th), 0.0))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * np.exp(rng.standard_exponential(n) / self.shape)

    def bends(self) -> tuple[float, float, float, float]:
        return math.log(self.scale), self.shape, 0.0, 40.0  # the tail is e^-y, with a kink at y = 0


class _Weibull(_Family):
    """P(S > x) = exp(-(x/beta)^k), beta = 1/(mu*Gamma(1+1/k)), k > 0."""

    key, limit = "k", 0.0

    def __init__(self, rate: float, shape: float):
        if not shape > 0:
            raise ParameterError(f"weibull requires a positive shape, got {shape}")
        if math.isinf(_or_inf(math.gamma, 1.0 + 1.0 / shape)):
            raise ParameterError(f"weibull k={shape:g} is too small: Gamma(1+1/k) exceeds the double range")
        super().__init__(rate, shape)
        self.scale = 1.0 / (rate * math.gamma(1.0 + 1.0 / shape))
        if self.scale == 0.0:
            raise ParameterError(
                f"weibull k={shape:g} at mu={rate:g} is out of range: "
                "its scale 1/(mu Gamma(1+1/k)) is below the double range"
            )

    def second_moment(self) -> float:
        b, k = self.scale, self.shape
        gamma2 = _or_inf(math.gamma, 1.0 + 2.0 / k)
        if not math.isinf(gamma2):
            return b * b * gamma2  # exact at k = 1, unlike the log-space ratio below
        # Gamma(1+2/k) overflows for k below about 0.0117; its ratio to Gamma(1+1/k)^2 does not
        return math.exp(math.lgamma(1.0 + 2.0 / k) - 2.0 * math.lgamma(1.0 + 1.0 / k)) / (self.rate * self.rate)

    def tail(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-((x / self.scale) ** self.shape))

    def below(self, x: np.ndarray) -> np.ndarray:
        b, k = self.scale, self.shape
        u = (x / b) ** k
        return (1.0 / self.rate) * _gammainc(1.0 + 1.0 / k, u)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.standard_exponential(n) ** (1.0 / self.shape)

    def bends(self) -> tuple[float, float, float, float]:
        return math.log(self.scale), self.shape, -40.0, 4.0  # the CDF is 1 - exp(-e^y)


_FAMILIES = {"det": _Det, "exp": _Exp, "lognormal": _Lognormal, "pareto": _Pareto, "weibull": _Weibull}
SERVICE_FAMILIES = tuple(_FAMILIES)
ARRIVAL_FAMILIES = ("det", "exp")
# each family's own name and the two long names, in lower case
_FAMILY_ALIASES = {**{name: name for name in SERVICE_FAMILIES}, "deterministic": "det", "exponential": "exp"}


def canonical_family(name: str) -> str:
    """The family a name stands for, in any case: 'Exponential' is 'exp', 'deterministic' is 'det'."""
    family = _FAMILY_ALIASES.get(name.lower()) if isinstance(name, str) else None
    if family is None:
        raise ParameterError(f"unknown distribution family {name!r}")
    return family


@dataclass(frozen=True)
class ServiceDistribution:
    """One service-time law with mean pinned to 1/mu.

    family: one of 'det', 'exp', 'lognormal', 'pareto', 'weibull', or an alias; stored canonical.
    mu:     service rate (mean service time is 1/mu).
    shape:  sigma for lognormal, alpha for pareto, k for weibull;
            must be None for det/exp.
    law:    the family's object at mu and shape: its parameterisation, moments, tail, partial mean, sampler, bends.

    Draws are finite and >= 0: a zero-length service is admissible.  Weibull
    draws beta * E^(1/k) underflow to exactly 0 at small admissible k (about
    half of them at k=0.006), and the engine serves such a packet in no time.
    """

    family: str
    mu: float
    shape: float | None = None
    law: _Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        _check_rate("service rate mu", self.mu)
        family = _FAMILIES[self.family]
        if family.key is None:
            if self.shape is not None:
                raise ParameterError(f"{self.family} service takes no shape parameter, got {self.shape}")
        elif self.shape is None or not math.isfinite(self.shape):
            raise ParameterError(f"{self.family} service needs a finite {family.key}, got {self.shape}")
        object.__setattr__(self, "law", family(self.mu, self.shape))

    def mean(self) -> float:
        return 1.0 / self.mu

    def second_moment(self) -> float:
        """E[S^2]; math.inf when it diverges (pareto alpha <= 2) or exceeds the double range."""
        return self.law.second_moment()

    @_over_thresholds
    def tail_prob(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(S > x), exact closed form, at a scalar x or each entry of an array."""
        return self.law.tail(x)

    @_over_thresholds
    def truncated_mean_below(self, x: float | np.ndarray) -> float | np.ndarray:
        """E[S 1{S < x}], the partial expectation, in closed form at a scalar x or each entry of an array.

        E[min(S, x)] = truncated_mean_below(x) + x * tail_prob(x); for det at
        x = 1/mu that makes it E[S 1{S <= x}] = 1/mu.
        """
        return self.law.below(x)

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. draws from this law as a float64 array."""
        return self.law.sample(rng, n)

    def label(self) -> str:
        if self.shape is None:
            return self.family
        return f"{self.family} {self.law.key}={format_shape(self.shape)}"


@dataclass(frozen=True)
class ArrivalProcess:
    """Renewal generation process at rate lam: 'det' (periodic) or 'exp' (Poisson), or an alias; stored canonical."""

    family: str
    lam: float
    law: _Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        if self.family not in ARRIVAL_FAMILIES:
            raise ParameterError(f"arrival family must be 'det' or 'exp', got {self.family!r}")
        _check_rate("arrival rate lambda", self.lam)
        object.__setattr__(self, "law", _FAMILIES[self.family](self.lam))

    def mean(self) -> float:
        return 1.0 / self.lam

    def second_moment(self) -> float:
        return self.law.second_moment()

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.law.sample(rng, n)


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
        kwargs[key] = parse_number(val, key)
    return family, kwargs


def parse_service(spec: str, mu: float) -> ServiceDistribution:
    """Build a ServiceDistribution from a CLI/config string; the law refuses a shape it cannot take.

    Examples: 'det', 'exp', 'pareto alpha=1.5', 'lognormal sigma=2.0',
    'weibull k=0.5'.
    """
    family, kwargs = _parse_family_spec(spec)
    # det and exp name no key, so the first key given there is a shape, for the law to refuse
    key = _FAMILIES[family].key or next(iter(kwargs), None)
    shape = kwargs.pop(key, None)
    if kwargs:
        raise ParameterError(f"{family} service takes no key {next(iter(kwargs))!r}, got {spec!r}")
    return ServiceDistribution(family, mu, shape)


def parse_arrival(spec: str, lam: float) -> ArrivalProcess:
    """Build an ArrivalProcess from a family name alone: 'det' or 'exp', or an alias of either."""
    family, kwargs = _parse_family_spec(spec)
    if kwargs:
        raise ParameterError(f"an arrival spec takes no key=value, got {spec!r}")
    return ArrivalProcess(family, lam)
