"""Latency metrics computed exactly from a simulation trace.

The age process is piecewise linear: it grows at slope one and drops only
at informative receptions, so the time-average age over a window is an
exact sum of trapezoid areas with no discretization error.  Delay metrics
window packets by generation time, so long-delay packets near the horizon
are attributed to the window in which they were generated (the tradeoff is
driven by exactly those rare packets).

A summary needs the age path to have left its initial condition: a window
after a warm-up must follow at least one age drop, and every window must
hold at least _MIN_WINDOW_DROPS of them, or summarize raises
DegenerateSampleError.  It also needs the delays to survive rounding:
where the float spacing at the last generation time passes
_ROUNDING_SHARE of the smaller of the mean service time and the window's
mean delay, summarize raises ParameterError, as it does where a result
column leaves the double range.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateSampleError, ParameterError

if TYPE_CHECKING:
    from .engine import ExperimentPoint, SimulationTrace

# Batch-means sub-windows (age) and contiguous delay batches per summary.
N_BATCHES = 32
# Age drops a summary window must hold, so that each age batch can hold one.
_MIN_WINDOW_DROPS = N_BATCHES
# Query points age_at evaluates per step; its index and gather temporaries hold this many.
_AGE_CHUNK = 1 << 16
# The largest share of E[S], or of the mean delay where that is smaller, that the float spacing at the
# horizon may put into a delay.
_ROUNDING_SHARE = 1e-6


def _default_window(trace: "SimulationTrace") -> tuple[float, float]:
    """Post-warmup age window: from the first kept packet's generation to the last generation.

    The age path up to the last generation is that of an endless run; after
    it, the drain delivers only what is already queued, and under lcfs-p
    only stale packets, so the age would grow for the whole drain.
    """
    k = int(trace.warmup_fraction * trace.n_generated)
    k = min(k, trace.n_generated - 1)
    return float(trace.gen_times[k]), float(trace.gen_times[-1])


def age_at(trace: "SimulationTrace", t) -> np.ndarray | float:
    """Age value(s) just after time t: a float for a scalar t, else an array of t's shape.

    Computed in place, as (t - time[j]) + age[j] at the last breakpoint j
    at or before t, _AGE_CHUNK query points at a time: besides the array
    it returns, it holds only chunk-sized temporaries.
    """
    t_arr = np.asarray(t, dtype=float)
    ts = t_arr.reshape(-1)
    out = np.empty(ts.shape[0])
    for lo in range(0, ts.shape[0], _AGE_CHUNK):
        q, o = ts[lo:lo + _AGE_CHUNK], out[lo:lo + _AGE_CHUNK]
        idx = np.searchsorted(trace.breakpoint_times, q, side="right")
        idx -= 1
        # "clip" reads a t before the first breakpoint (idx -1) at breakpoint 0, and writes out unbuffered
        np.take(trace.breakpoint_times, idx, out=o, mode="clip")
        np.subtract(q, o, out=o)
        o += np.take(trace.breakpoint_ages, idx, mode="clip")
    return float(out[0]) if np.isscalar(t) else out.reshape(t_arr.shape)


def _age_area_at(trace: "SimulationTrace", ts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact age area from the segment holding ts[0] up to each time in ts.

    ts must be nondecreasing, and idx[j] the segment that holds ts[j]: the
    last breakpoint at or before it, as searchsorted(breakpoint_times, ts,
    side="right") - 1 reads.  One cumsum over the whole trapezoids between
    breakpoints, then the partial trapezoid up to each query time; area
    over [ts[j], ts[k]] is the difference of entries k and j.  Starting the
    sum at the first query keeps its rounding on the window's scale.
    """
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    times = trace.breakpoint_times[lo:hi]
    ages = trace.breakpoint_ages[lo:hi]
    d = np.diff(times)
    # each whole trapezoid, ages * d + (0.5 * d) * d, built in one buffer
    half = np.multiply(d, 0.5)
    half *= d
    np.multiply(ages[:-1], d, out=d)
    d += half
    cum = np.empty(d.shape[0] + 1)
    cum[0] = 0.0
    np.cumsum(d, out=cum[1:])
    j = idx - lo
    dt = ts - times[j]
    return cum[j] + ages[j] * dt + 0.5 * dt * dt


def _batch_means(values: np.ndarray) -> np.ndarray:
    """Means of N_BATCHES contiguous batches of values, as np.array_split cuts them.

    With n = q N_BATCHES + r values, the first r batches hold q + 1 and the
    others q: two reshapes whose row means are each batch's own mean.
    """
    q, r = divmod(values.shape[0], N_BATCHES)
    cut = r * (q + 1)
    return np.concatenate((values[:cut].reshape(r, q + 1).mean(axis=1), values[cut:].reshape(-1, q).mean(axis=1)))


# 0.975 quantile of the standard normal: the limit of _t975(df) as df -> inf
_Z975 = 1.959963984540054


def _t975_expansion(df: int) -> float:
    """Cornish-Fisher expansion of the t quantile in powers of 1/df (Abramowitz-Stegun 26.7.5).

    Against scipy's stdtrit it agrees to 5e-16 relative from df = 1000 up.
    """
    x = _Z975
    x2 = x * x
    g1 = x * (x2 + 1.0) / 4.0
    g2 = x * ((5.0 * x2 + 16.0) * x2 + 3.0) / 96.0
    g3 = x * (((3.0 * x2 + 19.0) * x2 + 17.0) * x2 - 15.0) / 384.0
    g4 = x * ((((79.0 * x2 + 776.0) * x2 + 1482.0) * x2 - 1920.0) * x2 - 945.0) / 92160.0
    v = 1.0 / df
    return x + v * (g1 + v * (g2 + v * (g3 + v * g4)))


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student t at integer df >= 1, in finite form (Abramowitz-Stegun 26.7.3-4)."""
    # theta = atan(t / sqrt(df)); the sums run over powers of cos(theta)^2
    root = math.sqrt(df)
    r = math.hypot(root, t)
    sin, cos = t / r, root / r
    c2 = df / (df + t * t)
    term, total = 1.0, 1.0
    if df % 2 == 0:
        for j in range(2, df, 2):  # term = (1*3*...*(j-1)) / (2*4*...*j) * cos^j
            term *= c2 * (j - 1) / j
            total += term
        return sin * total
    for j in range(3, df, 2):  # term = (2*4*...*(j-1)) / (1*3*...*j) * cos^(j-1)
        term *= c2 * (j - 1) / j
        total += term
    tail = sin * cos * total if df > 1 else 0.0
    return (math.atan2(t, root) + tail) * 2.0 / math.pi


@functools.cache
def _t975(df: int) -> float:
    """0.975 quantile of Student t at integer df >= 1.

    Below 1000 df, Newton's method on the exact central probability, started
    from the expansion; from 1000 up, the expansion alone.
    """
    t = _t975_expansion(df)
    if df >= 1000:
        return t
    log_norm = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    last = math.inf
    while True:
        pdf = math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (_t_central(t, df) - 0.95) / (2.0 * pdf)
        t -= step
        # the steps shrink until rounding in _t_central sets them, then stop shrinking
        if abs(step) >= last or abs(step) <= 1e-16 * t:
            return t
        last = abs(step)


def t_halfwidth(values) -> float:
    """95% Student-t confidence halfwidth of the mean of values; nan below 2 values.

    The standard deviation is taken of values scaled by the power of two
    that brings the largest magnitude into [0.5, 1), and the halfwidth is
    scaled back.  The scaling is exact, so the halfwidth of 2^k * values is
    exactly 2^k times that of values wherever both are normal, and no
    square of a deviation on the values' own scale overflows or underflows.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 2:
        return math.nan
    _, e = np.frexp(np.abs(values).max())
    crit = _t975(n - 1)
    return float(np.ldexp(crit * np.ldexp(values, -e).std(ddof=1) / math.sqrt(n), e))


def check_finite(point: "ExperimentPoint", n_arrivals: int, columns: dict[str, float]) -> None:
    """Raise ParameterError, naming the point's rates and n_arrivals, if any of columns is not finite."""
    lost = [name for name, value in columns.items() if not math.isfinite(value)]
    if lost:
        raise ParameterError(
            f"results at lambda={point.arrival.lam:g}, mu={point.service.mu:g}, n_arrivals={n_arrivals} "
            f"leave the double range: {', '.join(lost)} not finite"
        )


@dataclass(frozen=True)
class MetricsReport:
    """Steady-state latency summary of one run."""

    avg_age: float
    mean_delay: float
    delay_variance: float
    informative_fraction: float
    n_counted: int
    ci_halfwidth_age: float
    ci_halfwidth_delay: float


def summarize(trace: "SimulationTrace") -> MetricsReport:
    """Post-warmup metrics with batch-means confidence halfwidths.

    The age window runs from the first post-warmup generation to the last
    generation and splits into N_BATCHES equal-length sub-windows for the
    age CI.  Delays count every packet generated in that window, however
    late the drain delivers it, and split into N_BATCHES contiguous batches
    by generation order.  A window after a warm-up must follow an age
    drop, so that its first segment descends from a real reception and not
    from the initial (0, 0); one from the first generation (no warm-up)
    starts from (0, 0) by choice.  Every window must hold at least
    _MIN_WINDOW_DROPS drops.  A horizon short against the service times
    fails these, and raises DegenerateSampleError.  One so long that
    eps * t_b, the float spacing near its end, passes _ROUNDING_SHARE of
    E[S] or of the window's mean delay, whichever is smaller, rounds the
    delays recv - gen, and raises ParameterError.  So does a run whose
    age, delay or halfwidth columns leave the double range.
    """
    t_a, t_b = _default_window(trace)
    lo = int(np.searchsorted(trace.gen_times, t_a, side="left"))
    delays = trace.recv_times[lo:] - trace.gen_times[lo:]
    n = delays.shape[0]
    if n < 2:
        raise DegenerateSampleError("need >= 2 post-warmup packets to summarize")
    with np.errstate(over="ignore", invalid="ignore"):  # a mean past the double range is refused below
        mean_delay = float(delays.mean())
    # the delays' own scale too: services all drawn far below E[S] (weibull k=0.01) give delays far below it
    point, spacing = trace.point, sys.float_info.epsilon * t_b
    scale, name = min((point.service.mean(), "E[S]"), (mean_delay, "the mean delay"))
    if spacing > _ROUNDING_SHARE * scale:
        raise ParameterError(
            f"delays at lambda={point.arrival.lam:g}, mu={point.service.mu:g}, n_arrivals={trace.n_generated} "
            f"are lost to rounding: the float spacing eps * t = {spacing:.3g} at the horizon t = {t_b:.6g} "
            f"passes {_ROUNDING_SHARE:g} of {name} = {scale:.6g}"
        )
    if not t_a < t_b:
        raise ParameterError(f"empty metrics window [{t_a}, {t_b}]")
    edges = np.linspace(t_a, t_b, N_BATCHES + 1)
    # the segment of each edge; breakpoint 0 is the initial condition, not a drop
    idx = np.searchsorted(trace.breakpoint_times, edges, side="right") - 1
    before, inside = int(idx[0]), int(idx[-1] - idx[0])
    need_before = int(lo > 0)
    if before < need_before or inside < _MIN_WINDOW_DROPS:
        raise DegenerateSampleError(
            f"metrics window [{t_a:.6g}, {t_b:.6g}] follows {before} age drops and holds {inside}; "
            f"need >= {need_before} before it and >= {_MIN_WINDOW_DROPS} in it: raise n_arrivals"
        )
    # the age area grows as t_b^2 and the delay variance as E[S]^2: what leaves the double range is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        area = _age_area_at(trace, edges, idx)
        ci_delay = t_halfwidth(_batch_means(delays) if n >= 2 * N_BATCHES else delays)
        # delays.var(ddof=1) by numpy's own steps, in place once the CI has read the delays
        np.subtract(delays, mean_delay, out=delays)
        np.multiply(delays, delays, out=delays)
        columns = {
            "avg_age": float(area[-1] - area[0]) / (t_b - t_a),
            "mean_delay": mean_delay,
            "delay_variance": float(delays.sum()) / (n - 1),
            "ci_halfwidth_age": t_halfwidth(np.diff(area) / np.diff(edges)),
            "ci_halfwidth_delay": ci_delay,
        }
    check_finite(point, trace.n_generated, columns)
    return MetricsReport(
        informative_fraction=int(np.count_nonzero(trace.informative[lo:])) / n, n_counted=n, **columns
    )
