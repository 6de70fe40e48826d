"""The engine's serve kernels against the event-loop reference.

inf and lcfs-np do the same float operations as the loop, so they must be
bit-identical.  fcfs and lcfs-p sum service times in another order, so
they may differ by rounding on the scale of the horizon; REL_TOL bounds
that at about 450 ulps of the horizon.  Packets whose reception is
g + s in the loop (fcfs: found the server idle; lcfs-p: never preempted)
must get exactly g + s from the kernel too: a one-ulp mismatch there
moves an age breakpoint across a coupled path's breakpoint.  On decimal
paths, fcfs and lcfs-p still break some ties that hold exactly in floats;
a strict xfail pins one example of each.  lcfs-np walks busy periods from
starts that the FCFS completions only hint at, and its loop resumes where
the walk stopped: long paths, hints one ulp off, and every path again at
a lane floor of 1 (so that short paths enter the walk too) must not move
a bit, and the loop must serve no packet the walk served.  Every
discipline's informative flags and breakpoints must equal the event-loop
tracker's, bit for bit, with repeated generation times too, and for fcfs
also where the marking reads the FCFS completions buffer.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agedelay import ArrivalProcess, Discipline, ServiceDistribution
from agedelay import engine
from agedelay.engine import _fcfs, _informative_receptions, _period_starts, _serve, busy_periods
from reference_loop import serve as reference_serve
from reference_loop import track_ages

REL_TOL = 1e-13

ALL_DISCIPLINES = list(Discipline)
# the kernels that do the loop's own float operations
EXACT_KERNELS = [Discipline.INFINITE_SERVER, Discipline.LCFS_NONPREEMPTIVE]
SHAPES = {
    "det": st.none(),
    "exp": st.none(),
    "lognormal": st.floats(0.1, 2.5),
    "pareto": st.floats(1.05, 3.0),
    "weibull": st.floats(0.3, 3.0),
}
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def assert_matches_reference(gen, svc, discipline):
    c = _fcfs(gen, svc)
    got = _serve(gen, svc, discipline, c)
    ref = reference_serve(gen, svc, discipline)
    if discipline in EXACT_KERNELS:
        assert np.array_equal(got, ref)
        if discipline is Discipline.LCFS_NONPREEMPTIVE:
            # at the default floor, a path with fewer busy periods than it never enters the walk
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "_LANE_FLOOR", 1)
                assert np.array_equal(_serve(gen, svc, discipline, c), ref)
        return
    assert np.max(np.abs(got - ref)) <= REL_TOL * ref.max()
    if discipline is Discipline.FCFS:
        exact = _period_starts(gen, ref)  # found the server idle
    else:
        exact = np.concatenate((ref[:-1] <= gen[1:], [True]))  # done before the next arrival
    assert np.array_equal(got[exact], gen[exact] + svc[exact])


@st.composite
def sampled_paths(draw, family):
    """A path drawn from the library's own samplers, at load up to 1.2."""
    service = ServiceDistribution(family, 1.0, draw(SHAPES[family]))
    arrival = ArrivalProcess(draw(st.sampled_from(("det", "exp"))), draw(st.floats(0.05, 1.2)))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.cumsum(arrival.sample_n(rng, n)), service.sample_n(rng, n)


@st.composite
def integer_paths(draw):
    """Small integers: simultaneous arrivals, departure/arrival ties and zero-length services are common."""
    gaps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    svc = draw(st.lists(st.integers(0, 4), min_size=len(gaps), max_size=len(gaps)))
    return np.cumsum(np.array(gaps, dtype=float)), np.array(svc, dtype=float)


@st.composite
def decimal_paths(draw):
    """integer_paths times 0.1: decimal ties that binary floats may or may not keep."""
    gen, svc = draw(integer_paths())
    return gen * 0.1, svc * 0.1


@pytest.mark.parametrize("family", sorted(SHAPES))
@pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=lambda d: d.value)
@PROPERTY
@given(data=st.data())
def test_kernel_matches_reference_loop(discipline, family, data):
    assert_matches_reference(*data.draw(sampled_paths(family)), discipline)


@pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=lambda d: d.value)
@PROPERTY
@given(path=integer_paths())
def test_kernel_matches_reference_loop_with_ties(discipline, path):
    assert_matches_reference(*path, discipline)


@pytest.mark.parametrize("discipline", EXACT_KERNELS, ids=lambda d: d.value)
@PROPERTY
@given(path=decimal_paths())
def test_exact_kernels_match_reference_loop_on_decimal_paths(discipline, path):
    assert_matches_reference(*path, discipline)


@pytest.mark.parametrize("load", [0.3, 0.625, 0.95])
@pytest.mark.parametrize("family, shape", [("exp", None), ("pareto", 1.05), ("weibull", 0.3)])
def test_lcfs_np_matches_reference_loop_on_long_paths(family, shape, load):
    # thousands of busy periods: most walks stop, many run to their hinted end
    rng = np.random.default_rng(17)
    gen = np.cumsum(ArrivalProcess("exp", load).sample_n(rng, 20_000))
    svc = ServiceDistribution(family, 1.0, shape).sample_n(rng, 20_000)
    assert_matches_reference(gen, svc, Discipline.LCFS_NONPREEMPTIVE)


SENTINEL = -1.0


def sentinel_walk(monkeypatch) -> list:
    """Wrap the lcfs-np walk so that every packet it served reads SENTINEL; each call appends its walked mask."""
    walk = engine._walk_lcfs_periods
    calls = []

    def wrapped(g, svc, starts, out, below):
        lanes = walk(g, svc, starts, out, below)
        walked = np.ones(out.shape[0], dtype=bool)  # a period that no stopped lane names was served whole
        for k, a, top, h in lanes.T.tolist():
            walked[a:h] = False  # a stopped lane served all that arrived, but k and its stack
            walked[k] = False
            while top >= 0:
                walked[top] = False
                top = below[top]
        out[walked] = SENTINEL
        calls.append(walked)
        return lanes

    monkeypatch.setattr(engine, "_walk_lcfs_periods", wrapped)
    return calls


def assert_loop_skips_walked_packets(monkeypatch, gen, svc):
    """The loop serves every packet the walk did not, as the reference does, and no other; returns the walked mask."""
    ref = reference_serve(gen, svc, Discipline.LCFS_NONPREEMPTIVE)
    # the kernel walks from these hints, each a real start: every walked packet was on the loop's own path
    c = _fcfs(gen, svc)
    hinted = _period_starts(gen, c)
    assert np.array_equal(hinted, _period_starts(gen, np.maximum.accumulate(ref)))
    calls = sentinel_walk(monkeypatch)
    got = _serve(gen, svc, Discipline.LCFS_NONPREEMPTIVE, c)
    (walked,) = calls
    assert np.all(got[walked] == SENTINEL)
    assert np.array_equal(got[~walked], ref[~walked])
    return walked


@pytest.mark.parametrize("floor", [engine._LANE_FLOOR, 1])
@pytest.mark.parametrize("load", [0.625, 0.95])
def test_lcfs_np_loop_jumps_over_walked_periods(monkeypatch, load, floor):
    # a loop that redid a walked period, or restarted a stopped lane from its start, would overwrite the sentinels
    rng = np.random.default_rng(29)
    gen = np.cumsum(ArrivalProcess("exp", load).sample_n(rng, 20_000))
    svc = ServiceDistribution("exp", 1.0).sample_n(rng, 20_000)
    monkeypatch.setattr(engine, "_LANE_FLOOR", floor)
    walked = assert_loop_skips_walked_packets(monkeypatch, gen, svc)
    assert walked.any()


@pytest.mark.parametrize(
    "gen, svc, floor, walked",
    [
        # once packet 0's period ends, fewer than 2 lanes are live: the walk stops in packet 1's,
        # with packet 4 in service and packets 2 and 3 on the stack, and the loop serves those three
        ([0.0, 10.0, 10.5, 11.0, 11.5], [1.0, 3.0, 1.0, 1.0, 1.0], 2, [0, 1]),
        # det/det at load 1.001: one busy period whose stack grows by a packet every thousand or so;
        # the default floor leaves it to the loop, and a floor of 1 to the walk
        (np.arange(3000.0), np.full(3000, 1.001), 1, list(range(3000))),
    ],
    ids=["stacked", "det-det-1.001"],
)
def test_lcfs_np_loop_resumes_where_the_walk_stopped(monkeypatch, gen, svc, floor, walked):
    gen, svc = np.array(gen), np.array(svc)
    assert_matches_reference(gen, svc, Discipline.LCFS_NONPREEMPTIVE)
    monkeypatch.setattr(engine, "_LANE_FLOOR", floor)
    assert np.flatnonzero(assert_loop_skips_walked_packets(monkeypatch, gen, svc)).tolist() == walked


@pytest.mark.parametrize(
    "gen, svc, packet",
    [
        # the FCFS completions read 0.7000000000000002 as packet 3 arrives at 0.7000000000000001;
        # the loop ends packet 2 at 0.7000000000000001, so packet 3 starts a busy period the hints miss
        ([0.30000000000000004, 0.6000000000000001, 0.6000000000000001, 0.7000000000000001], [0.1, 0.1, 0.0, 0.0], 3),
        # the FCFS completions read 1.0 as packet 3 arrives at 1.0; the loop ends packet 2 at
        # 1.0000000000000002, so packet 3 waits, and the busy period the hints start there is none
        ([0.30000000000000004, 0.6000000000000001, 0.8, 1.0], [0.0, 0.30000000000000004, 0.1, 0.0], 3),
        # the loop ends packet 2 at 0.9000000000000001, so packet 3 arrives in the period that packet 1
        # starts: that lane must stop there, or the lane hinted at packet 3 serves packet 3 too, at 1.3
        ([0.2, 0.4, 0.6000000000000001, 0.9, 0.9], [0.0, 0.30000000000000004, 0.2, 0.4, 0.1], 3),
        # the same two paths with a later busy period: the loop that ran the falsely hinted start must
        # skip the lane walked from it before it jumps to the lane at packet 4 or 5
        ([0.30000000000000004, 0.6000000000000001, 0.8, 1.0, 5.0], [0.0, 0.30000000000000004, 0.1, 0.0, 0.1], 3),
        ([0.2, 0.4, 0.6000000000000001, 0.9, 0.9, 5.0], [0.0, 0.30000000000000004, 0.2, 0.4, 0.1, 0.1], 3),
        # the mid-period path, then the missed start scaled by 16, which keeps its ties: at a lane floor
        # of 1, one walk step ends a lane one packet before its hinted end and stops a falsely hinted one
        (
            [0.2, 0.4, 0.6000000000000001, 0.9, 0.9]
            + [16 * g for g in (0.30000000000000004, 0.6000000000000001, 0.6000000000000001, 0.7000000000000001)],
            [0.0, 0.30000000000000004, 0.2, 0.4, 0.1] + [16 * s for s in (0.1, 0.1, 0.0, 0.0)],
            3,
        ),
    ],
    ids=[
        "missed-start", "false-start", "false-start-mid-period",
        "false-start-then-idle", "false-start-mid-period-then-idle", "false-start-mid-period-then-missed-start",
    ],
)
def test_lcfs_np_keeps_ties_its_fcfs_hints_miss(gen, svc, packet):
    gen, svc = np.array(gen), np.array(svc)
    ref = reference_serve(gen, svc, Discipline.LCFS_NONPREEMPTIVE)
    starts = _period_starts(gen, np.maximum.accumulate(ref))[packet]
    hinted = _period_starts(gen, _fcfs(gen, svc))[packet]
    assert starts != hinted
    assert_matches_reference(gen, svc, Discipline.LCFS_NONPREEMPTIVE)


def assert_marks_as_reference(gen, svc):
    """Every discipline's informative flags and breakpoints are the tracker's, bit for bit."""
    for discipline in ALL_DISCIPLINES:
        recv = _serve(gen, svc, discipline, _fcfs(gen, svc))
        ref = track_ages(gen, recv)
        # an fcfs trace marks its receptions from the completions buffer [0.0, *recv]
        paddings = (None, recv.base) if discipline is Discipline.FCFS else (None,)
        for padded in paddings:
            got = _informative_receptions(gen, recv, padded)
            for got_array, ref_array in zip(got, ref):
                assert got_array.dtype == ref_array.dtype
                assert np.array_equal(got_array, ref_array), (discipline, padded is None)


@pytest.mark.parametrize("family", sorted(SHAPES))
@PROPERTY
@given(data=st.data())
def test_fcfs_breakpoints_match_marking_pass(family, data):
    # all four disciplines, not fcfs alone, against the tracker
    assert_marks_as_reference(*data.draw(sampled_paths(family)))


@PROPERTY
@given(path=st.one_of(integer_paths(), decimal_paths()))
# strictly increasing generation times, one repeated (packet 2 is stale), and all of them repeated
@example(path=(np.array([0.0, 1.0, 1.5, 2.0]), np.full(4, 0.5)))
@example(path=(np.array([0.0, 1.0, 1.0, 2.0]), np.full(4, 0.5)))
@example(path=(np.array([3.0, 3.0]), np.full(2, 0.5)))
def test_fcfs_breakpoints_match_marking_pass_with_ties(path):
    assert_marks_as_reference(*path)


# fcfs and lcfs-p break some ties that hold exactly in floats; each example is the smallest seen
@pytest.mark.xfail(strict=True, reason="the kernel rounds a float-exact tie the loop keeps")
@pytest.mark.parametrize(
    "discipline, gen, svc",
    [
        # packet 1 preempts packet 0 and ends at 0 + 0.1 == 0.1, as packet 2 arrives, so the loop
        # receives it at 0.1; the kernel's work w = c - g reads 0.2 for packet 1 and
        # 0.30000000000000004 - 0.1 = 0.20000000000000004 for packet 2, and receives it at 0.2 - 1 ulp
        (Discipline.LCFS_PREEMPTIVE, [0.0, 0.0, 0.1], [0.2, 0.1, 0.1]),
        # packet 2 finds the server idle and gets 0.6 + 0.1 in the loop; the unrolled sums give it
        # 0.7000000000000001
        (Discipline.FCFS, [0.2, 0.5, 0.6], [0.1, 0.1, 0.1]),
    ],
    ids=["lcfs-p", "fcfs"],
)
def test_rounded_kernels_keep_float_exact_ties(discipline, gen, svc):
    assert_matches_reference(np.array(gen), np.array(svc), discipline)


@PROPERTY
@given(path=integer_paths())
@example(path=(np.array([0.0, 1.0, 1.5]), np.array([1.0, 1.0, 0.25])))  # two periods, not one
def test_busy_periods_start_where_reference_server_is_idle(path):
    # a packet arriving at the instant the server empties finds it idle (departures go first)
    gen, svc = path
    ref = reference_serve(gen, svc, Discipline.FCFS)
    idle = _period_starts(gen, ref)
    periods = busy_periods(gen, svc)
    assert [start for start, _ in periods] == gen[idle].tolist()
    # each period ends when its last packet leaves
    last = np.append(np.flatnonzero(idle)[1:], gen.shape[0]) - 1
    assert [end for _, end in periods] == ref[last].tolist()


def test_busy_periods_start_where_a_tie_empties_the_server():
    # packet 1 leaves at 0.5 + 0.1 == 0.6 as packet 2 arrives, so packet 2 starts a third period: the
    # unrolled FCFS sums read 0.6000000000000001 there, the completions 0.6.  Only the starts are pinned;
    # the kernel ends the third period one ulp after the loop's 0.7 (the fcfs xfail)
    gen, svc = np.array([0.2, 0.5, 0.6]), np.full(3, 0.1)
    ref = reference_serve(gen, svc, Discipline.FCFS)
    starts = [start for start, _ in busy_periods(gen, svc)]
    assert starts == gen[_period_starts(gen, ref)].tolist() == [0.2, 0.5, 0.6]


@PROPERTY
@given(w=st.lists(st.integers(0, 3), min_size=1, max_size=40))
@example(w=[2] * 12)  # all equal: every k is i + 1
@example(w=list(range(12)))  # strictly increasing: no k, so the sentinel's index
def test_next_not_above_matches_brute_force(w):
    # the first k > i with w[k] <= w[i], or n; the kernel searches the n + 1 floats it is given, -inf last
    n = len(w)
    brute = [next((k for k in range(i + 1, n) if w[k] <= w[i]), n) for i in range(n)]
    ext = np.array([*w, -np.inf])
    assert engine._next_not_above(ext).tolist() == brute


def test_lcfs_preemptive_heavy_tail_stress():
    # alpha near 1 at load 0.95: long busy periods and deep preemption nests
    rng = np.random.default_rng(2024)
    gen = np.cumsum(ArrivalProcess("exp", 0.95).sample_n(rng, 200_000))
    svc = ServiceDistribution("pareto", 1.0, 1.05).sample_n(rng, 200_000)
    assert_matches_reference(gen, svc, Discipline.LCFS_PREEMPTIVE)


@pytest.mark.parametrize("seed", [0, 5, 22])
def test_small_k_weibull_informative_flags_match_reference(seed):
    # Weibull k=0.2 services span many orders of magnitude; the unrolled FCFS sums
    # rounded a completion one step below the one before it, and that packet read as stale
    rng = np.random.default_rng(seed)
    gen = np.cumsum(ArrivalProcess("exp", 0.5).sample_n(rng, 20_000))
    svc = ServiceDistribution("weibull", 0.8, 0.2).sample_n(rng, 20_000)
    for discipline in (Discipline.FCFS, Discipline.LCFS_PREEMPTIVE, Discipline.LCFS_NONPREEMPTIVE):
        recv = _serve(gen, svc, discipline, _fcfs(gen, svc))
        flags = _informative_receptions(gen, recv, recv.base if discipline is Discipline.FCFS else None)[0]
        expected = track_ages(gen, reference_serve(gen, svc, discipline))[0]
        assert np.array_equal(flags, expected), discipline
        if discipline is Discipline.FCFS:
            assert flags.all()  # first in, first out: every packet is fresher than the last
