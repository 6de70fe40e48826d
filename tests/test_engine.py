import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from agedelay import (
    ArrivalProcess,
    Discipline,
    ExperimentPoint,
    ParameterError,
    ServiceDistribution,
    StabilityError,
    busy_periods,
    engine,
    parse_arrival,
    parse_service,
    run_simulation,
)
from agedelay.distributions import ARRIVAL_FAMILIES, SERVICE_FAMILIES
from agedelay.engine import parse_grid_line
from agedelay.metrics import age_at
from reference_loop import serve as reference_serve
from reference_loop import track_ages

ARR = parse_arrival("exp", 0.5)
SVC = parse_service("exp", 0.8)

SINGLE_SERVER = [Discipline.FCFS, Discipline.LCFS_NONPREEMPTIVE, Discipline.LCFS_PREEMPTIVE]
ALL_DISCIPLINES = SINGLE_SERVER + [Discipline.INFINITE_SERVER]


def test_dd1_three_arrivals():
    tr = run_simulation(
        parse_arrival("det", 0.5), parse_service("det", 0.8), Discipline.FCFS, 3, 0.0, 1
    )
    assert np.allclose(tr.gen_times, [2.0, 4.0, 6.0])
    assert np.allclose(tr.recv_times, [3.25, 5.25, 7.25])
    assert tr.informative.all()
    assert tr.recv_times.max() == 7.25


@pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=lambda d: d.value)
def test_single_packet_delay_is_service_time(discipline):
    tr = run_simulation(ARR, SVC, discipline, 1, 0.0, 3)
    assert tr.recv_times[0] == tr.gen_times[0] + tr.service_reqs[0]
    assert tr.informative[0]


@pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=lambda d: d.value)
def test_same_seed_bit_identical(discipline):
    # a live trace would lend the rerun its draw: keep copies and compare a fresh draw
    a = run_simulation(ARR, SVC, discipline, 5000, 0.1, 99)
    gen, recv, bp_times, bp_ages = (
        x.copy() for x in (a.gen_times, a.recv_times, a.breakpoint_times, a.breakpoint_ages)
    )
    del a
    gc.collect()
    assert not engine._DRAWS
    b = run_simulation(ARR, SVC, discipline, 5000, 0.1, 99)
    assert np.array_equal(gen, b.gen_times)
    assert np.array_equal(recv, b.recv_times)
    assert np.array_equal(bp_times, b.breakpoint_times)
    assert np.array_equal(bp_ages, b.breakpoint_ages)


@pytest.mark.parametrize("discipline", SINGLE_SERVER, ids=lambda d: d.value)
def test_coupled_inputs_across_disciplines(discipline):
    # all disciplines must see the identical (X_i, S_i) streams per seed, drawn afresh or not
    base = run_simulation(ARR, SVC, Discipline.INFINITE_SERVER, 3000, 0.1, 7)
    gen, svc = base.gen_times.copy(), base.service_reqs.copy()
    del base
    gc.collect()
    assert not engine._DRAWS
    other = run_simulation(ARR, SVC, discipline, 3000, 0.1, 7)
    assert np.array_equal(gen, other.gen_times)
    assert np.array_equal(svc, other.service_reqs)


def test_coupled_runs_share_one_read_only_draw():
    traces = [run_simulation(ARR, SVC, d, 3000, 0.1, 7) for d in ALL_DISCIPLINES]
    for tr in traces[1:]:
        assert np.shares_memory(tr.gen_times, traces[0].gen_times)
        assert np.shares_memory(tr.service_reqs, traces[0].service_reqs)
    for tr in traces:
        with pytest.raises(ValueError, match="read-only"):
            tr.gen_times[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            tr.service_reqs[-1] = 1.0
    # another seed, length or law is another draw
    others = [
        run_simulation(ARR, SVC, Discipline.FCFS, 3000, 0.1, 8),
        run_simulation(ARR, SVC, Discipline.FCFS, 3001, 0.1, 7),
        run_simulation(ARR, parse_service("exp", 0.9), Discipline.FCFS, 3000, 0.1, 7),
        run_simulation(parse_arrival("det", 0.5), SVC, Discipline.FCFS, 3000, 0.1, 7),
    ]
    for tr in others:
        assert not np.shares_memory(tr.service_reqs, traces[0].service_reqs)
    assert len(engine._DRAWS) == 1 + len(others)
    del tr, traces, others
    gc.collect()
    assert not engine._DRAWS


def test_coupled_traces_hold_one_draw():
    # four traces that each kept their own 200,000-packet draw held 31.0 MB; one shared draw, 21.4 MB
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = [run_simulation(ARR, SVC, d, 200_000, 0.1, 11) for d in ALL_DISCIPLINES]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 26e6, f"{len(traces)} coupled traces hold {held / 1e6:.1f} MB"


@pytest.mark.parametrize("service", [SVC, parse_service("pareto alpha=1.5", 0.8)], ids=["exp", "pareto"])
def test_fcfs_trace_holds_its_receptions_once(service):
    # the age path's times are [0.0, *receptions]: one read-only buffer, the draw's FCFS completions
    n = 200_000
    run_simulation(ARR, service, Discipline.FCFS, 1000, 0.1, 29)  # first-call imports and caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = run_simulation(ARR, service, Discipline.FCFS, n, 0.1, 29)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tr.breakpoint_times[0] == 0.0
    assert np.shares_memory(tr.recv_times, tr.breakpoint_times[1:])
    assert tr.recv_times.ctypes.data == tr.breakpoint_times[1:].ctypes.data
    for a in (tr.recv_times, tr.breakpoint_times):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[-1] = 1.0
    # draw 16n, completions 8n, ages 8n and flags n bytes; a copy of the receptions would add 8n
    assert held < 37 * n, f"an fcfs trace holds {held / n:.1f} bytes per packet"
    # the values a trace with its own copies holds: the FCFS completions, every one an age drop
    gen, svc = tr.gen_times.copy(), tr.service_reqs.copy()
    recv = engine._fcfs(gen, svc)
    assert np.array_equal(tr.recv_times, recv)
    assert np.allclose(recv, reference_serve(gen, svc, Discipline.FCFS), rtol=1e-12, atol=0)
    for got, ref in zip((tr.informative, tr.breakpoint_times, tr.breakpoint_ages), track_ages(gen, recv)):
        assert np.array_equal(got, ref)
    assert tr.informative.all()


def count_fcfs_passes(monkeypatch) -> list:
    """A list that gains an entry each time the engine runs its FCFS pass."""
    calls = []
    fcfs = engine._fcfs

    def spy(gen, svc, buf=None):
        calls.append(1)
        return fcfs(gen, svc, buf)

    monkeypatch.setattr(engine, "_fcfs", spy)
    return calls


def test_lcfs_p_reuses_a_live_fcfs_pass(monkeypatch):
    heavy = parse_service("pareto alpha=1.5", 0.8)
    alone = run_simulation(ARR, heavy, Discipline.LCFS_PREEMPTIVE, 20_000, 0.1, 13)
    recv = alone.recv_times.copy()
    del alone
    gc.collect()
    assert not engine._DRAWS
    calls = count_fcfs_passes(monkeypatch)
    fcfs = run_simulation(ARR, heavy, Discipline.FCFS, 20_000, 0.1, 13)
    with pytest.raises(ValueError, match="read-only"):
        fcfs.recv_times[0] = 1.0
    # the completions are the draw's own
    assert fcfs.recv_times.base is engine._DRAWS[ARR, heavy, 20_000, 13]
    coupled = run_simulation(ARR, heavy, Discipline.LCFS_PREEMPTIVE, 20_000, 0.1, 13)
    again = run_simulation(ARR, heavy, Discipline.FCFS, 20_000, 0.1, 13)
    assert len(calls) == 1
    # bit for bit the run with a draw of its own, and its own writable array
    assert np.array_equal(coupled.recv_times, recv)
    assert coupled.recv_times.flags.writeable
    assert again.recv_times.base is fcfs.recv_times.base
    assert again.recv_times.ctypes.data == fcfs.recv_times.ctypes.data
    assert again.recv_times.shape == fcfs.recv_times.shape
    del fcfs, coupled, again
    gc.collect()
    assert not engine._DRAWS


def test_the_draw_owns_its_fcfs_pass(monkeypatch):
    calls = count_fcfs_passes(monkeypatch)
    fcfs = run_simulation(ARR, SVC, Discipline.FCFS, 20_000, 0.1, 17)
    completions, address = fcfs.recv_times.copy(), fcfs.recv_times.ctypes.data
    keep = run_simulation(ARR, SVC, Discipline.INFINITE_SERVER, 20_000, 0.1, 17)
    del fcfs
    gc.collect()
    # the inf trace keeps the draw alive, and with it the completions
    assert keep.gen_times.base is engine._DRAWS[ARR, SVC, 20_000, 17]
    traces = [run_simulation(ARR, SVC, d, 20_000, 0.1, 17) for d in SINGLE_SERVER]
    assert len(calls) == 1
    assert traces[0].recv_times.base is engine._DRAWS[ARR, SVC, 20_000, 17]
    assert traces[0].recv_times.ctypes.data == address
    assert np.array_equal(traces[0].recv_times, completions)
    del keep, traces
    gc.collect()
    assert not engine._DRAWS


def test_one_fcfs_pass_per_draw_whichever_discipline_runs_first(monkeypatch):
    calls = count_fcfs_passes(monkeypatch)
    for passes, first in enumerate(ALL_DISCIPLINES, start=1):
        seed = 19 + passes  # a draw of its own for each first discipline
        trace = run_simulation(ARR, SVC, first, 20_000, 0.1, seed)
        assert len(calls) == passes
        # inf included: the draw it made holds the completions that every later run reads
        others = [run_simulation(ARR, SVC, d, 20_000, 0.1, seed) for d in ALL_DISCIPLINES]
        assert len(calls) == passes
        for tr in others:
            assert tr.gen_times.base is trace.gen_times.base is engine._DRAWS[ARR, SVC, 20_000, seed]
        assert others[0].recv_times.base is trace.gen_times.base
        del trace, others, tr
    gc.collect()
    assert not engine._DRAWS


def test_one_fcfs_pass_per_law_when_only_the_latest_trace_lives(monkeypatch):
    # as a benchmark pass that keeps only its latest trace runs each law's disciplines
    calls = count_fcfs_passes(monkeypatch)
    trace = None
    for service in (SVC, parse_service("pareto alpha=1.5", 0.8)):
        for discipline in ALL_DISCIPLINES:  # fcfs, lcfs-np, lcfs-p, inf
            trace = run_simulation(ARR, service, discipline, 20_000, 0.1, 23)
    assert len(calls) == 2
    del trace
    gc.collect()
    assert not engine._DRAWS


def test_run_law_makes_one_draw_for_a_caller_that_drops_each_trace(monkeypatch):
    heavy = parse_service("pareto alpha=1.5", 0.8)
    alone = {}
    for d in ALL_DISCIPLINES:
        alone[d] = run_simulation(ARR, heavy, d, 20_000, 0.1, 29).recv_times.copy()
    gc.collect()
    assert not engine._DRAWS
    calls = count_fcfs_passes(monkeypatch)
    runs = []
    real_run_simulation = engine.run_simulation

    def run_simulation_spy(*args):
        runs.append(args[2])
        return real_run_simulation(*args)

    # each run goes through the module attribute, so a wrapper patched onto engine sees it
    monkeypatch.setattr(engine, "run_simulation", run_simulation_spy)
    seen = []
    for trace in engine.run_law(ARR, heavy, tuple(ALL_DISCIPLINES), 20_000, 0.1, 29):
        d = trace.point.discipline
        seen.append(d)
        assert np.array_equal(trace.recv_times, alone[d])
        # the trace dies with the caller's last reference: the generator keeps none across a yield
        alive = weakref.ref(trace)
        del trace
        assert alive() is None
        assert len(engine._DRAWS) == 1
    assert seen == runs == ALL_DISCIPLINES
    assert len(calls) == 1
    # an exhausted run_law holds nothing
    gc.collect()
    assert not engine._DRAWS


@pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=lambda d: d.value)
def test_no_packet_finishes_early(discipline):
    tr = run_simulation(ARR, parse_service("pareto alpha=1.5", 0.8), discipline, 20_000, 0.1, 5)
    tol = 1e-9 * (1.0 + tr.recv_times)  # a few ulps at the timestamp magnitude
    assert np.all(tr.recv_times >= tr.gen_times + tr.service_reqs - tol)


def test_infinite_server_reception_is_gen_plus_service():
    tr = run_simulation(ARR, SVC, Discipline.INFINITE_SERVER, 20_000, 0.1, 5)
    assert np.allclose(tr.recv_times, tr.gen_times + tr.service_reqs, rtol=0, atol=1e-12)


def test_breakpoints_strictly_increasing_slope_one():
    for discipline in ALL_DISCIPLINES:
        tr = run_simulation(ARR, SVC, discipline, 20_000, 0.1, 21)
        assert np.all(np.diff(tr.breakpoint_times) > 0)
        assert tr.breakpoint_times[0] == 0.0 and tr.breakpoint_ages[0] == 0.0
        # just before each drop the age is the previous age plus elapsed time
        ages_before = tr.breakpoint_ages[:-1] + np.diff(tr.breakpoint_times)
        assert np.all(tr.breakpoint_ages[1:] <= ages_before + 1e-12)


@pytest.mark.parametrize("discipline", SINGLE_SERVER, ids=lambda d: d.value)
def test_work_conservation_busy_periods(discipline):
    # oracle: busy periods depend only on the workload path, and a
    # non-idling server finishes each period's work exactly at its end
    tr = run_simulation(ARR, parse_service("lognormal sigma=1", 0.8), discipline, 20_000, 0.0, 13)
    periods = busy_periods(tr.gen_times, tr.service_reqs)
    ends = np.array([e for _, e in periods])
    starts = np.array([s for s, _ in periods])
    idx = np.searchsorted(starts, tr.gen_times, side="right") - 1
    assert np.all(tr.recv_times <= ends[idx] + 1e-9)
    # the server is busy to the end of every period: max reception == end
    last_recv = np.zeros(len(periods))
    np.maximum.at(last_recv, idx, tr.recv_times)
    assert np.allclose(last_recv, ends, rtol=0, atol=1e-9)


def test_throughput_converges_to_lambda():
    tr = run_simulation(ARR, SVC, Discipline.FCFS, 100_000, 0.0, 2)
    # every packet is delivered, so delivered packets per unit time is n / last reception
    assert tr.n_generated / tr.recv_times.max() == pytest.approx(0.5, rel=0.02)


@pytest.mark.parametrize("discipline", SINGLE_SERVER, ids=lambda d: d.value)
def test_pathwise_age_dominance_over_infinite_server(discipline):
    # coupled seeds share per-packet service draws, so the infinite-server
    # age path lower-bounds the single-server path at every breakpoint
    for service in (SVC, parse_service("pareto alpha=1.5", 0.8)):
        inf_tr = run_simulation(ARR, service, Discipline.INFINITE_SERVER, 10_000, 0.1, 31)
        one_tr = run_simulation(ARR, service, discipline, 10_000, 0.1, 31)
        ts = np.union1d(inf_tr.breakpoint_times, one_tr.breakpoint_times)
        assert np.all(age_at(inf_tr, ts) <= age_at(one_tr, ts) + 1e-9)


def test_stability_and_parameter_errors():
    fast = parse_arrival("exp", 0.9)
    with pytest.raises(StabilityError):
        run_simulation(fast, SVC, Discipline.FCFS, 100, 0.1, 1)
    # the infinite-server station has no stability constraint
    tr = run_simulation(fast, SVC, Discipline.INFINITE_SERVER, 100, 0.1, 1)
    assert tr.n_generated == 100
    with pytest.raises(ParameterError):
        run_simulation(ARR, SVC, Discipline.FCFS, 0, 0.1, 1)
    with pytest.raises(ParameterError):
        run_simulation(ARR, SVC, Discipline.FCFS, 100, 0.6, 1)
    # a whole float is still no packet count
    with pytest.raises(ParameterError, match="n_arrivals must be an integer, got 2000.0"):
        run_simulation(ARR, SVC, Discipline.FCFS, 2000.0, 0.1, 1)


# ---- points and their grid lines ------------------------------------------------

SHAPES = {"det": None, "exp": None, "pareto": 1.5000001, "lognormal": 1.0, "weibull": 0.5}
LONG_NAMES = {"det": "deterministic", "exp": "exponential"}


def _respelt(point: ExperimentPoint) -> str:
    """The point's line in other spellings: upper-case policy, long family names, explicit arrival."""
    family, *shape = point.service.label().split()
    arrival = LONG_NAMES[point.arrival.family]
    policy = point.discipline.value.upper()
    return " ".join([policy, LONG_NAMES.get(family, family), *shape, f"arrival={arrival}"])


@pytest.mark.parametrize("arrival", ARRIVAL_FAMILIES)
@pytest.mark.parametrize("family", SERVICE_FAMILIES)
@pytest.mark.parametrize("discipline", ALL_DISCIPLINES, ids=lambda d: d.value)
def test_grid_line_reads_back_as_its_point(discipline, family, arrival):
    service = ServiceDistribution(family, 0.8, SHAPES[family])
    point = ExperimentPoint(ArrivalProcess(arrival, 0.5), service, discipline)
    assert parse_grid_line(point.label(), 0.8, 0.5) == point
    assert parse_grid_line(_respelt(point), 0.8, 0.5) == point
    if family == "pareto":
        assert "alpha=1.5000001" in point.label()


@pytest.mark.parametrize("discipline", SINGLE_SERVER, ids=lambda d: d.value)
def test_unstable_point_names_its_line(discipline):
    line = f"{discipline.value} pareto alpha=2 arrival=det"
    for lam in (0.8, 0.9):
        with pytest.raises(StabilityError, match=rf"^{line}: lambda={lam} >= mu=0\.8$"):
            parse_grid_line(line, 0.8, lam)
    # the infinite-server station has no stability constraint
    assert parse_grid_line("inf pareto alpha=2 arrival=det", 0.8, 0.9).arrival.lam == 0.9
