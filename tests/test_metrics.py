import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import stdtrit

from agedelay import (
    DegenerateSampleError,
    Discipline,
    ExperimentPoint,
    ParameterError,
    SimulationTrace,
    parse_arrival,
    parse_service,
    run_simulation,
    summarize,
)
import agedelay.metrics as metrics
from agedelay.engine import _informative_receptions
from agedelay.metrics import N_BATCHES, _age_area_at, _default_window, _t975, age_at, t_halfwidth
from reference_loop import AgeTracker, track_ages

ARR = parse_arrival("exp", 0.5)
SVC = parse_service("exp", 0.8)


def make_trace(gen, recv, svc=None, warmup=0.0):
    """Synthetic trace; informative flags and breakpoints via the incremental tracker."""
    gen = np.asarray(gen, dtype=float)
    recv = np.asarray(recv, dtype=float)
    svc = np.zeros_like(gen) if svc is None else np.asarray(svc, dtype=float)
    informative, times, ages = track_ages(gen, recv)
    return SimulationTrace(
        gen_times=gen,
        service_reqs=svc,
        recv_times=recv,
        informative=informative,
        breakpoint_times=times,
        breakpoint_ages=ages,
        n_generated=gen.shape[0],
        seed=0,
        warmup_fraction=warmup,
        point=ExperimentPoint(ARR, SVC, Discipline.FCFS),
    )


@pytest.fixture
def toy_window(monkeypatch):
    """Let summarize take a toy trace: its window holds fewer age drops than a run's must."""
    monkeypatch.setattr(metrics, "_MIN_WINDOW_DROPS", 0)


# ---- age tracking -------------------------------------------------------------


def test_tracker_in_order_receptions_all_drop():
    t = AgeTracker()
    assert t.on_reception(1.0, 2.0)
    assert t.on_reception(3.0, 4.5)
    assert t.on_reception(5.0, 5.5)
    assert t.ages == [0.0, 1.0, 1.5, 0.5]


def test_tracker_out_of_order_reception_causes_no_drop():
    # packet 3 beats packet 2 to the destination; 2's later arrival is stale
    t = AgeTracker()
    assert t.on_reception(1.0, 1.8)
    assert t.on_reception(3.0, 3.9)  # packet 3
    assert not t.on_reception(2.0, 4.4)  # packet 2, stale
    assert t.on_reception(4.0, 5.0)
    assert t.times == [0.0, 1.8, 3.9, 5.0]


def test_tracker_first_reception_drops_from_initial_ramp():
    t = AgeTracker()
    assert t.on_reception(2.0, 3.25)
    assert t.times == [0.0, 3.25]
    assert t.ages == [0.0, 1.25]


def test_four_packet_out_of_order_scenario_fraction(toy_window):
    gen = [1.0, 2.0, 3.0, 4.0]
    recv = [1.8, 4.4, 3.9, 5.0]  # 3 overtakes 2
    tr = make_trace(gen, recv)
    assert list(tr.informative) == [True, False, True, True]
    assert summarize(tr).informative_fraction == 0.75


def test_informative_single_packet():
    tr = make_trace([1.0], [2.0])
    assert tr.informative.mean() == 1.0
    assert np.array_equal(_informative_receptions(tr.gen_times, tr.recv_times)[0], [True])


def assert_marking_matches_tracker(gen, recv):
    for got, ref in zip(_informative_receptions(gen, recv), track_ages(gen, recv)):
        assert np.array_equal(got, ref)


def test_engine_vectorized_marking_matches_tracker():
    trace = run_simulation(ARR, parse_service("pareto alpha=2", 0.8), Discipline.LCFS_PREEMPTIVE, 5000, 0.1, 77)
    assert_marking_matches_tracker(trace.gen_times, trace.recv_times)
    # small integers force equal generation times, equal reception times and both
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        gen = np.sort(rng.integers(0, 4, n)).astype(float)
        assert_marking_matches_tracker(gen, gen + rng.integers(0, 4, n))
    # a stale copy of the freshest generation time, received later, is not informative
    assert_marking_matches_tracker(np.array([1.0, 1.0, 2.0]), np.array([3.0, 3.0, 4.0]))


# ---- average age ----------------------------------------------------------------


def average_age(trace, window=None):
    """Time-average age over the window (default: summarize's), from the exact area integral."""
    t_a, t_b = window if window is not None else _default_window(trace)
    ts = np.array([t_a, t_b], dtype=float)
    area_a, area_b = _age_area_at(trace, ts, np.searchsorted(trace.breakpoint_times, ts, side="right") - 1)
    return float(area_b - area_a) / (t_b - t_a)


def test_single_segment_trapezoid():
    tr = make_trace([1.0], [2.0])  # age: t on [0,2), then 1 + (t-2)
    assert average_age(tr, (0.0, 2.0)) == pytest.approx(1.0)
    # one linear piece starting at age a over width d averages a + d/2
    assert average_age(tr, (0.5, 1.5)) == pytest.approx(1.0)


def test_zero_delay_fiction_periodic():
    # every packet delivered the instant it is generated: sawtooth 0 -> 2
    gen = np.arange(1, 101) * 2.0
    tr = make_trace(gen, gen)
    assert average_age(tr, (2.0, 200.0)) == pytest.approx(1.0, rel=1e-12)


def test_dd1_steady_sawtooth_average():
    tr = run_simulation(
        parse_arrival("det", 0.5), parse_service("det", 0.8), Discipline.FCFS, 2000, 0.0, 1
    )
    # whole cycles between receptions: exactly 1/mu + 1/(2 lambda)
    lo, hi = tr.recv_times[10], tr.recv_times[1990]
    assert average_age(tr, (lo, hi)) == pytest.approx(2.25, rel=1e-12)
    assert average_age(tr) == pytest.approx(2.25, rel=0.01)


def test_average_age_additive_over_partition():
    tr = run_simulation(ARR, SVC, Discipline.LCFS_PREEMPTIVE, 4000, 0.0, 5)
    a, b = 100.0, tr.recv_times.max() - 50.0
    edges = np.linspace(a, b, 8)
    whole = average_age(tr, (a, b)) * (b - a)
    parts = sum(
        average_age(tr, (u, v)) * (v - u) for u, v in zip(edges[:-1], edges[1:])
    )
    assert whole == pytest.approx(parts, rel=1e-12)


def test_age_at_reception_equals_brute_force_minimum():
    tr = run_simulation(ARR, SVC, Discipline.LCFS_PREEMPTIVE, 800, 0.0, 9)
    for t in tr.recv_times[:: 40]:
        received = tr.recv_times <= t
        brute = np.min(t - tr.gen_times[received])
        assert age_at(tr, float(t)) == pytest.approx(brute, abs=1e-9)


def test_age_window_validation():
    # three packets generated at one instant: two delays to count, but no time to average over
    tr = make_trace([1.0, 1.0, 1.0], [2.0, 2.5, 3.0])
    with pytest.raises(ParameterError, match="empty metrics window"):
        summarize(tr)


# ---- delay statistics --------------------------------------------------------------


def test_two_point_delay_sample(toy_window):
    tr = make_trace([0.5, 1.0], [1.5, 4.0])  # delays 1 and 3
    rep = summarize(tr)
    assert rep.n_counted == 2
    assert rep.mean_delay == pytest.approx(2.0)
    assert rep.delay_variance == pytest.approx(2.0)


def test_delay_stats_window_by_generation_time(toy_window):
    gen = [1.0, 2.0, 3.0]
    recv = [2.0, 9.0, 3.5]  # delays 1, 7, 0.5
    tr = make_trace(gen, recv, warmup=0.4)  # window [2, 9]; packet 0 is received at 2
    rep = summarize(tr)
    # only packets generated in the window count, however late they land
    assert rep.n_counted == 2
    assert rep.mean_delay == pytest.approx((7.0 + 0.5) / 2)


@pytest.mark.parametrize("scale", [0.99, 1.01], ids=["inside", "past"])
def test_summarize_refuses_delays_lost_to_rounding(toy_window, scale):
    # the last generation time where the float spacing eps * t_b is the stated share of E[S] = 1.25
    edge = metrics._ROUNDING_SHARE * SVC.mean() / sys.float_info.epsilon
    gen = scale * edge + np.arange(-99.0, 1.0)  # one time unit apart, up to t_b = scale * edge
    tr = make_trace(gen, gen + SVC.mean())
    if scale > 1:
        with pytest.raises(ParameterError, match="lambda=0.5, mu=0.8, n_arrivals=100 are lost to rounding"):
            summarize(tr)
        return
    # inside the limit, each delay keeps its share: fl(gen + 1.25) - gen errs by half a spacing at most
    assert abs(summarize(tr).mean_delay - SVC.mean()) <= metrics._ROUNDING_SHARE * SVC.mean()


def test_delay_stats_degenerate():
    tr = make_trace([1.0], [2.0])
    with pytest.raises(DegenerateSampleError):
        summarize(tr)


def test_dd1_delay_constant():
    tr = run_simulation(
        parse_arrival("det", 0.5), parse_service("det", 0.8), Discipline.FCFS, 1000, 0.0, 1
    )
    rep = summarize(tr)
    assert rep.mean_delay == pytest.approx(1.25, rel=1e-12)
    assert rep.delay_variance == 0.0


def test_infinite_server_delay_variance_equals_service_variance():
    svc = parse_service("lognormal sigma=1", 0.8)
    tr = run_simulation(ARR, svc, Discipline.INFINITE_SERVER, 200_000, 0.0, 13)
    rep = summarize(tr)  # no warmup: every packet counts
    assert rep.n_counted == tr.n_generated
    var = rep.delay_variance
    # delays are exactly the service draws here
    assert var == pytest.approx(float(tr.service_reqs.var(ddof=1)), rel=1e-12)
    # and agree with the population value within a generous MC band
    assert var == pytest.approx(svc.second_moment() - svc.mean() ** 2, rel=0.1)


# ---- summaries --------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 0.76])
@pytest.mark.parametrize("spec", ["exp", "pareto alpha=1.5"])
def test_summarize_delay_moments_are_numpys(spec, lam):
    # summarize takes numpy's mean and variance of the post-warmup delays and counts the flags, and its delay
    # halfwidth is that of the means of np.array_split's batches
    for discipline in Discipline:
        tr = run_simulation(parse_arrival("exp", lam), parse_service(spec, 0.8), discipline, 100_000, 0.1, 41)
        lo = int(np.searchsorted(tr.gen_times, _default_window(tr)[0], side="left"))
        delays = tr.recv_times[lo:] - tr.gen_times[lo:]
        rep = summarize(tr)
        assert rep.mean_delay == float(delays.mean())
        assert rep.delay_variance == float(delays.var(ddof=1))
        assert rep.ci_halfwidth_delay == t_halfwidth([b.mean() for b in np.array_split(delays, N_BATCHES)])
        assert rep.informative_fraction == float(tr.informative[lo:].mean())
        assert type(rep.mean_delay) is type(rep.delay_variance) is type(rep.informative_fraction) is float


def test_batch_means_are_the_array_split_batch_means():
    # every n % N_BATCHES, at the smallest length summarize batches and at larger ones
    rng = np.random.default_rng(3)
    for n in [*range(2 * N_BATCHES, 4 * N_BATCHES), 18_000, 18_017, 999_999]:
        values = rng.pareto(1.5, n) + rng.standard_exponential(n)
        expected = np.array([b.mean() for b in np.array_split(values, N_BATCHES)])
        assert np.array_equal(metrics._batch_means(values), expected), n


@pytest.mark.parametrize("n, refused", [(32, True), (33, False)])
def test_summary_window_needs_enough_age_drops(n, refused):
    # no warm-up: the window [1, n] may start from (0, 0), and holds the n - 1 drops at 1.5, ..., n - 0.5
    gen = np.arange(1.0, n + 1.0)
    tr = make_trace(gen, gen + 0.5)
    if refused:
        with pytest.raises(DegenerateSampleError, match=f"holds {N_BATCHES - 1}; need >= 0 before it and >= 32 in it"):
            summarize(tr)
    else:
        assert summarize(tr).n_counted == n


def test_summary_window_after_a_warm_up_needs_a_drop_before_it():
    # the 4 warm-up packets land after the window opens, stale: the window would descend from (0, 0)
    gen = np.arange(1.0, 41.0)
    recv = gen + 0.5
    recv[:4] += 10.0
    with pytest.raises(DegenerateSampleError, match="follows 0 age drops and holds 35; need >= 1 before it"):
        summarize(make_trace(gen, recv, warmup=0.1))
    recv[0] = 4.75  # one of them lands before packet 4 is generated
    assert summarize(make_trace(gen, recv, warmup=0.1)).n_counted == 36


def test_summarize_fields_and_window():
    tr = run_simulation(ARR, SVC, Discipline.FCFS, 50_000, 0.1, 3)
    rep = summarize(tr)
    # the age window runs from the first post-warmup generation to the last generation
    assert rep.avg_age == average_age(tr, (tr.gen_times[5000], tr.gen_times[-1]))
    assert rep.avg_age == average_age(tr)
    assert rep.n_counted == 45_000
    assert rep.informative_fraction == 1.0
    assert rep.avg_age > 0 and rep.delay_variance > 0
    assert rep.ci_halfwidth_age > 0 and rep.ci_halfwidth_delay > 0
    assert rep.mean_delay >= tr.service_reqs.min()


def test_drain_after_last_generation_leaves_age_unchanged(toy_window):
    # a huge service on the last packet only lengthens the drain; the age up
    # to the last generation, as in an endless run, does not depend on it
    gen = [1.0, 2.0, 3.0, 4.0]
    quick = summarize(make_trace(gen, [1.5, 2.5, 3.5, 4.5], svc=[0.5] * 4))
    drained = summarize(make_trace(gen, [1.5, 2.5, 3.5, 1004.0], svc=[0.5, 0.5, 0.5, 1000.0]))
    assert drained.avg_age == quick.avg_age
    assert drained.ci_halfwidth_age == quick.ci_halfwidth_age
    assert drained.mean_delay > quick.mean_delay  # the drained packet still counts as a delay


@pytest.mark.parametrize("spec", ["exp", "pareto alpha=1.5"])
def test_lcfs_preemptive_age_matches_closed_form(spec):
    """Poisson lcfs-p age is 1 / (lambda E[exp(-lambda S)]) (Najm-Telatar, ISIT 2018).

    E[exp(-lambda S)] = 1 - lambda * integral of exp(-lambda x) P(S > x) dx:
    3.25 for exp, 3.0843 for pareto alpha=1.5.  Under Pareto the backlog
    left at the last generation has infinite mean, so an age window running
    on through the drain read 3.4390 on these seeds.
    """
    lam = ARR.lam
    svc = parse_service(spec, 0.8)
    integral, _ = quad(lambda x: math.exp(-lam * x) * svc.tail_prob(x), 0.0, math.inf)
    exact = 1.0 / (lam * (1.0 - lam * integral))
    ages = np.array([
        summarize(run_simulation(ARR, svc, Discipline.LCFS_PREEMPTIVE, 1_000_000, 0.1, seed)).avg_age
        for seed in range(9000, 9008)
    ])
    stderr = ages.std(ddof=1) / math.sqrt(ages.size)
    assert abs(ages.mean() - exact) <= 3 * stderr
    assert np.all(np.abs(ages / exact - 1.0) <= 0.01)


def test_ci_shrinks_with_run_length():
    small = summarize(run_simulation(ARR, SVC, Discipline.FCFS, 20_000, 0.1, 3))
    large = summarize(run_simulation(ARR, SVC, Discipline.FCFS, 160_000, 0.1, 3))
    assert large.ci_halfwidth_delay < small.ci_halfwidth_delay
    assert large.ci_halfwidth_age < small.ci_halfwidth_age


def test_age_at_scalar_and_vector_agree():
    tr = run_simulation(ARR, SVC, Discipline.FCFS, 100, 0.0, 4)
    ts = np.linspace(0.1, tr.recv_times.max(), 17)
    vec = age_at(tr, ts)
    for t, v in zip(ts, vec):
        assert age_at(tr, float(t)) == pytest.approx(v, abs=0)
    assert math.isclose(age_at(tr, 0.0), 0.0)


def _age_at_gathered(trace, t):
    """age_at as one expression, which gathers and adds in new arrays."""
    t_arr = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(trace.breakpoint_times, t_arr, side="right") - 1, 0, None)
    return trace.breakpoint_ages[idx] + (t_arr - trace.breakpoint_times[idx])


def test_age_at_in_place_is_bit_identical():
    tr = run_simulation(ARR, SVC, Discipline.LCFS_PREEMPTIVE, 2000, 0.0, 6)
    end = float(tr.recv_times.max())
    # the first breakpoint is at 0, so negative times take the clipped index
    ts = np.concatenate(([-3.0, -1e-300, 0.0], np.linspace(0.0, 1.1 * end, 997), tr.breakpoint_times[:100]))
    for t in (-2.5, 0.0, 0.7, end, float(tr.breakpoint_times[5]), np.float64(12.25)):
        got = age_at(tr, t)
        assert type(got) is float
        assert got == float(_age_at_gathered(tr, t))
    for t in (np.asarray(0.7), np.asarray(-1.0), ts, ts.reshape(20, 55), ts.reshape(-1, 2)[:, ::-1]):
        got = age_at(tr, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        assert np.array_equal(got, _age_at_gathered(tr, t))
        assert not np.shares_memory(got, t)


def test_age_at_allocates_only_its_output():
    # a 10^6-point query on a 10^6-packet trace, over several chunks; the gathers it replaced held 3x the output
    tr = run_simulation(ARR, SVC, Discipline.LCFS_PREEMPTIVE, 1_000_000, 0.1, 6)
    ts = np.linspace(-1.0, 1.01 * float(tr.breakpoint_times[-1]), 1_000_000)
    age_at(tr, ts[:10])  # first-call caches
    gc.collect()
    tracemalloc.start()
    try:
        got = age_at(tr, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    margin = 4 * 8 * metrics._AGE_CHUNK  # the index and gather temporaries of one chunk, twice over
    assert peak <= got.nbytes + margin, f"age_at peaked at {peak / got.nbytes:.2f}x its output"
    assert np.array_equal(got, _age_at_gathered(tr, ts))


def _age_area_concatenated(trace, ts):
    """_age_area_at with the whole-trapezoid sums built in new arrays."""
    idx = np.searchsorted(trace.breakpoint_times, ts, side="right") - 1
    lo, hi = int(idx[0]), int(idx[-1]) + 1
    times = trace.breakpoint_times[lo:hi]
    ages = trace.breakpoint_ages[lo:hi]
    d = np.diff(times)
    cum = np.concatenate(([0.0], np.cumsum(ages[:-1] * d + 0.5 * d * d)))
    j = idx - lo
    dt = ts - times[j]
    return cum[j] + ages[j] * dt + 0.5 * dt * dt


@pytest.mark.parametrize("discipline", list(Discipline), ids=lambda d: d.value)
def test_age_area_in_place_is_bit_identical(discipline):
    tr = run_simulation(ARR, parse_service("pareto alpha=1.5", 0.8), discipline, 20_000, 0.1, 8)
    t_a, t_b = _default_window(tr)
    for ts in (np.linspace(t_a, t_b, N_BATCHES + 1), tr.breakpoint_times[3:400], np.array([t_a, t_a])):
        idx = np.searchsorted(tr.breakpoint_times, ts, side="right") - 1
        assert np.array_equal(_age_area_at(tr, ts, idx), _age_area_concatenated(tr, ts))


def test_t975_matches_scipy_quantile():
    dfs = [*range(1, 3001), 10**4, 10**6, 10**9]
    ours = np.array([_t975(df) for df in dfs])
    ref = stdtrit(np.array(dfs, dtype=float), 0.975)
    assert np.all(np.abs(ours - ref) <= 1e-12 * ref)


def test_t975_decreases_to_normal_quantile():
    values = [_t975(df) for df in [*range(1, 3001), 10**4, 10**6, 10**9]]
    assert all(a > b for a, b in zip(values, values[1:]))
    # the first-order term of the expansion in 1/df is 2.37 / df
    assert 0 < values[-1] - 1.959963984540054 < 3e-9


def test_t975_is_memoised():
    first = _t975(31)
    assert _t975(31) is first


def test_t_halfwidth_of_one_value_is_nan():
    assert math.isnan(t_halfwidth([1.5]))


@pytest.mark.parametrize("k", [530, -560])
def test_t_halfwidth_scales_exactly_by_powers_of_two(k):
    # the squared deviations of 2^530 v overflow and those of 2^-560 v underflow; the halfwidth must not
    v = np.array([1.2, 1.25, 1.3])
    assert t_halfwidth(np.ldexp(v, k)) == np.ldexp(t_halfwidth(v), k)
