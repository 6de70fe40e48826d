"""Exact sample-path simulation of a renewal update stream through one station.

A run generates exactly n_arrivals packets, draws every packet's service
requirement at arrival time from a dedicated substream (so all disciplines
see identical arrival/service sequences for a given seed, and coupled runs
share one read-only draw of them, which carries their FCFS completions;
see _draw), stops generation, drains the backlog completely, and returns
the full trace.  Ties between a departure and an arrival at the same
instant process the departure first.
Each discipline has its own serve kernel: closed forms for fcfs, lcfs-p and
inf; for lcfs-np, a vectorised walk that serves every busy period at once,
one stack per lane, while at least _LANE_FLOOR periods are live, and a
stack loop that resumes each lane where the walk stopped it, its stack
rebuilt from the walk's links.  Every single-server kernel takes the
draw's FCFS completions: the fcfs receptions, the start of the lcfs-p
kernel and the busy-period hints of the lcfs-np kernel, which
_period_starts, the one rule for where a period starts, marks.  One pass
marks every discipline's informative receptions.  An fcfs trace views its
receptions and, where no generation time repeats, its breakpoint times in
the draw, so the trace holds no second copy of them.
"""

from __future__ import annotations

import operator
import sys
import weakref
from dataclasses import dataclass, field

import numpy as np

from .disciplines import Discipline
from .distributions import ArrivalProcess, ServiceDistribution, parse_arrival, parse_service
from .errors import ParameterError, StabilityError

_INF = float("inf")
# The lcfs-np walk runs while at least this many busy periods are live; the stack loop does the rest.
_LANE_FLOOR = 256
# Gathers that count a walking lane's arrivals before it calls searchsorted.
_GATHERS = 4


@dataclass(frozen=True)
class ExperimentPoint:
    """What one grid line names: who arrives, how service behaves, and the policy.

    A single-server point must be stable (lambda < mu); the error names the line.
    """

    arrival: ArrivalProcess
    service: ServiceDistribution
    discipline: Discipline

    def __post_init__(self):
        if self.discipline.single_server and not self.arrival.lam < self.service.mu:
            raise StabilityError(f"{self.label()}: lambda={self.arrival.lam} >= mu={self.service.mu}")

    def label(self) -> str:
        """The grid line that parse_grid_line reads back as this point; untagged means Poisson."""
        line = f"{self.discipline.value} {self.service.label()}"
        return line if self.arrival.family == "exp" else f"{line} arrival={self.arrival.family}"


def parse_grid_line(line: str, mu: float, lam: float) -> ExperimentPoint:
    """The point '<discipline> <service spec> [arrival=det|exp]' names; untagged means Poisson."""
    tokens = line.split()
    if len(tokens) < 2:
        raise ParameterError(f"grid line needs '<discipline> <service spec>', got {line!r}")
    try:
        discipline = Discipline(tokens[0].lower())
    except ValueError:
        raise ParameterError(f"unknown discipline {tokens[0]!r} in grid line {line!r}") from None
    arrival_specs = [tok[len("arrival="):] for tok in tokens[1:] if tok.startswith("arrival=")]
    if len(arrival_specs) > 1:
        raise ParameterError(f"repeated key 'arrival' in grid line {line!r}")
    arrival = parse_arrival(arrival_specs[0] if arrival_specs else "exp", lam)
    service_tokens = [tok for tok in tokens[1:] if not tok.startswith("arrival=")]
    service = parse_service(" ".join(service_tokens), mu)
    return ExperimentPoint(arrival, service, discipline)


@dataclass
class SimulationTrace:
    """Complete record of one run.

    Packet fields are stored as parallel arrays indexed by packet id
    (generation order).  Age breakpoints are the points where the age
    process drops: entry j says the age equals breakpoint_ages[j] just
    after time breakpoint_times[j] and then grows at slope one.  The
    leading breakpoint (0, 0) is the initial condition.  gen_times and
    service_reqs are read-only views of the draw that coupled runs share
    (see _draw).  Every discipline's flags and breakpoints come from one
    marking pass.  An fcfs trace's recv_times is a read-only view of the
    draw too; where no generation time repeats, it is breakpoint_times[1:],
    and breakpoint_times is read-only.
    """

    gen_times: np.ndarray
    service_reqs: np.ndarray
    recv_times: np.ndarray
    informative: np.ndarray
    breakpoint_times: np.ndarray
    breakpoint_ages: np.ndarray
    n_generated: int
    seed: int
    warmup_fraction: float
    point: ExperimentPoint = field(repr=False)


def _informative_receptions(gen: np.ndarray, recv: np.ndarray, padded=None):
    """Informative flags plus age breakpoints, from the reception order.

    A reception is informative iff its generation time exceeds the largest
    generation time among all packets received earlier (equal reception
    instants are taken in generation order); only those receptions drop
    the age.  Generation times are nondecreasing, so packet i can be
    informative only if no later packet is received before it:
    recv[i] <= min(recv[i+1:]).  Those candidates are received in index
    order, and one whose generation time equals the previous candidate's
    is stale; where no generation time repeats, every candidate is fresh.
    padded, if given, is [0.0, *recv] in one array, recv being the FCFS
    receptions, which never decrease, so every packet is a candidate; where
    every reception is informative it is the breakpoint times, not a copy.
    Every other path compresses its breakpoints out of recv and gen.  They
    come out already sorted by time.
    """
    n = recv.shape[0]
    if padded is None:
        later_min = np.empty(n)
        later_min[-1] = _INF
        np.minimum.accumulate(recv[:0:-1], out=later_min[-2::-1])
        informative = recv <= later_min
    else:
        informative = np.ones(n, dtype=bool)
    if not np.all(gen[1:] > gen[:-1]):
        cand = np.flatnonzero(informative)
        g = gen[cand]
        informative[cand[1:][g[1:] <= g[:-1]]] = False
    m = np.count_nonzero(informative)
    ages = np.empty(m + 1)
    ages[0] = 0.0
    if m == n and padded is not None:
        times = padded
        np.subtract(recv, gen, out=ages[1:])
    else:
        times = np.empty(m + 1)
        times[0] = 0.0
        np.compress(informative, recv, out=times[1:])
        np.compress(informative, gen, out=ages[1:])
        np.subtract(times[1:], ages[1:], out=ages[1:])
    return informative, times, ages


def _period_starts(gen: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Which packets find the server idle: g_i >= c_{i-1} (departures go first), and packet 0."""
    starts = np.empty(gen.shape[0], dtype=bool)
    starts[0] = True
    np.greater_equal(gen[1:], c[:-1], out=starts[1:])
    return starts


def _fcfs(gen: np.ndarray, svc: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """FCFS completion instants, as the view [1:] of buf, n + 1 floats.

    The Lindley recursion c_i = max(c_{i-1}, g_i) + s_i unrolls to
    c = cumsum(s) + maximum.accumulate(g - cumsum_excl(s)).  A packet the
    unrolled sums show idle (_period_starts) is given exactly g_i + s_i, as
    a sequential run would.  That can lift it above the completions after
    it (the sums never decrease); a running maximum restores the FIFO order,
    and leaves a path without such an inversion bit for bit.  buf[0] is set
    to 0.0, the age path's initial breakpoint; _draw passes its own tail,
    and without one, _fcfs allocates buf.
    """
    if buf is None:
        buf = np.empty(gen.shape[0] + 1)
    buf[0] = 0.0
    c = np.cumsum(svc, out=buf[1:])
    w = c - svc
    np.subtract(gen, w, out=w)
    np.maximum.accumulate(w, out=w)
    c += w
    np.add(gen, svc, out=c, where=_period_starts(gen, c))
    np.maximum.accumulate(c, out=c)
    return c


def _next_not_above(w: np.ndarray) -> np.ndarray:
    """For each i < n, the first k > i with w[k] <= w[i], where w holds n + 1 values.

    w[n] must be -inf, a sentinel below every other entry, so k = n where
    no entry qualifies.  Vectorised pointer jumping: while w[nxt[i]] > w[i],
    every element between i and nxt[nxt[i]] exceeds w[i] too, so nxt[i]
    may skip there.
    """
    n = w.shape[0] - 1
    nxt = np.arange(1, n + 2)
    nxt[n] = n
    active = np.flatnonzero(w[1:] > w[:-1])
    while active.size:
        jumped = nxt[nxt[active]]
        nxt[active] = jumped
        active = active[w[jumped] > w[active]]
    return nxt[:n]


def _serve_lcfs_preemptive(gen: np.ndarray, svc: np.ndarray, c: np.ndarray) -> np.ndarray:
    """LCFS preempt-resume reception instants, from the FCFS completions c.

    A packet's sojourn is the sub-busy-period its arrival starts: it ends
    when the unfinished work falls back to w_i, the work the packet found
    on arrival (the FCFS wait).  The first later packet k with w_k <= w_i
    arrives after that instant (or at it, and departures go first), so the
    sojourn holds exactly the work of packets i..k-1.  Written as
    (g_i + s_i) + (c_{k-1} - c_i), a packet never preempted gets exactly
    g_i + s_i.
    """
    n = gen.shape[0]
    w = np.empty(n + 1)
    w[0] = 0.0
    np.maximum(c[:-1] - gen[1:], 0.0, out=w[1:n])
    w[n] = -_INF
    k = _next_not_above(w)
    return (gen + svc) + (c[k - 1] - c)


def _walk_lcfs_periods(g: np.ndarray, svc: np.ndarray, starts: np.ndarray, out: np.ndarray, below: np.ndarray):
    """Serve every hinted busy period in LCFS-NP order at once; return the loop's states where lanes stopped.

    Each hinted start is a lane, with state (serving k, its completion t,
    next arrival a, stack top, next hinted start h); an empty stack's top
    is -1.  g carries _GATHERS infinite sentinels.  below[x] is the packet
    under x on its lane's stack.  It starts as arange(-1, n), so pushing a
    run a..j-1 writes only below[a]; its last entry takes the link of an
    arrival that never comes.  A step does the loop's own operations:
    out[k] = t; the arrivals a..j-1 before t go on the stack, or none
    arrive; the top is popped into service, and t += s[k].  Arrivals are
    counted by gathers at a, a + 1, ...; only a lane still counting after
    _GATHERS of them calls searchsorted.  A lane whose stack empties at its
    hinted end is done.  A lane stops unchanged where packet h arrives
    before t or its stack empties before h; all others stop where they are
    once fewer than _LANE_FLOOR lanes are live.  Returns the stopped lanes'
    rows (k, a, top, h), sorted by h; each one's t is out[k], as a lane
    writes only packets before its h.
    """
    n = out.shape[0]
    lanes = np.empty((4, starts.shape[0]), dtype=np.intp)
    lanes[0] = starts
    np.add(starts, 1, out=lanes[1])
    lanes[2] = -1
    lanes[3, :-1] = starts[1:]
    lanes[3, -1] = n
    t = g[starts] + svc[starts]
    shifted = [g[d:] for d in range(_GATHERS)]  # shifted[d][a] is g[a + d]
    stopped = []

    def drop(ends, stops, lanes, *rest):
        """Record the lanes that stop, and keep the ones that do not end, in every array given."""
        if stops.any():
            stopped.append(lanes.compress(stops, axis=1))
        live = ~ends
        return [x.compress(live, axis=-1) for x in (lanes, *rest)]

    while lanes.shape[1] >= _LANE_FLOOR:
        k, a, top, h = lanes
        out[k] = t
        arrived = shifted[0][a] < t
        empty = (top + arrived) < 0  # nothing arrived and the stack is empty
        if empty.any():
            # a period that ends before its hinted end stops; one that ends there is done
            lanes, t, arrived = drop(empty, empty & (a != h), lanes, t, arrived)
            k, a, top, h = lanes
        j = a + arrived
        counting = arrived
        for gd in shifted[1:]:
            counting = gd[a] < t
            j += counting
        deep = np.flatnonzero(counting)
        if deep.size:
            j[deep] = np.searchsorted(g, t[deep])
        over = j > h  # packet h arrives before t: the hint is wrong
        if over.any():
            lanes, t, arrived, j = drop(over, over, lanes, t, arrived, j)
            k, a, top, h = lanes
        below[a] = top  # bottom of the run a..j-1; where none arrived, a's link is rewritten when it does
        k[:] = np.where(arrived, j - 1, top)
        np.take(below, k, out=top)
        np.copyto(a, j)
        t += svc[k]
    out[lanes[0]] = t
    stopped.append(lanes)
    lanes = np.concatenate(stopped, axis=1)
    return lanes[:, np.argsort(lanes[3])]


def _serve_lcfs_nonpreemptive(gen: np.ndarray, svc: np.ndarray, c: np.ndarray) -> np.ndarray:
    """LCFS non-preemptive reception instants, from the FCFS completions c.

    Arrivals strictly before the current completion join the stack; one at
    the same instant arrives just after the departure.  The busy periods
    start where c hints, and _walk_lcfs_periods serves them all at once,
    one stack per lane.  The stack loop runs only from the states where a
    lane stopped, its stack rebuilt from below and its completion read
    from out.  When the loop's stack empties at a hinted start i, the lane
    from i was the loop's own path, so the loop jumps to the first stopped
    lane whose hinted end lies past i, the first that starts at or after i.
    Each reception is the loop's own sum, so a wrong hint costs time,
    never a bit.
    """
    n = gen.shape[0]
    hinted = _period_starts(gen, c)
    ext = np.append(gen, np.full(_GATHERS, _INF))  # sentinels: no arrival after the last
    out = np.empty(n)
    below = np.arange(-1, n)
    lanes = _walk_lcfs_periods(ext, svc, np.flatnonzero(hinted), out, below)
    # memoryviews read and write the arrays in place: no copies, no object per packet
    g, s, recv, hint, down = memoryview(ext), memoryview(svc), memoryview(out), memoryview(hinted), memoryview(below)
    rk, ra, rtop, rh = lanes.tolist()
    m = len(rh)
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    i = p = 0
    while True:
        # the stack is empty and packet i arrives to an idle server
        if hint[i]:
            while p < m and rh[p] <= i:
                p += 1
            if p == m:
                return out
            serving, i, x = rk[p], ra[p], rtop[p]
            t = recv[serving]
            p += 1
            while x >= 0:
                push(x)
                x = down[x]
            stack.reverse()
        else:
            serving, t = i, g[i] + s[i]
            i += 1
        while True:
            while g[i] < t:
                push(i)
                i += 1
            recv[serving] = t
            if not stack:
                break
            serving = pop()
            t += s[serving]
        if i == n:
            return out


def _serve(gen: np.ndarray, svc: np.ndarray, discipline: Discipline, fcfs: np.ndarray | None) -> np.ndarray:
    """Reception time of every packet under the discipline.

    fcfs is the path's FCFS completions, which inf alone does not read and
    may take as None: the FCFS reception instants themselves, the start of
    the lcfs-p kernel, and the busy-period hints of the lcfs-np kernel.
    run_simulation passes the draw's own (see _draw).
    """
    if discipline is Discipline.INFINITE_SERVER:
        return gen + svc
    if discipline is Discipline.FCFS:
        return fcfs
    if discipline is Discipline.LCFS_PREEMPTIVE:
        return _serve_lcfs_preemptive(gen, svc, fcfs)
    return _serve_lcfs_nonpreemptive(gen, svc, fcfs)


def check_integer(name: str, value) -> None:
    """Raise ParameterError unless value is an integer (Python or numpy)."""
    try:
        operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value}") from None


def check_run(n_arrivals: int, warmup_fraction: float, seed: int, *, min_kept: int) -> None:
    """Raise ParameterError unless these settings can start a run that keeps min_kept packets.

    The packets kept are those past the warm-up cut, int(warmup_fraction *
    n_arrivals).  A trace needs one; summarize needs two.
    """
    check_integer("n_arrivals", n_arrivals)
    check_integer("seed", seed)
    if not 0.0 <= warmup_fraction <= 0.5:
        raise ParameterError(f"warmup_fraction must lie in [0, 0.5], got {warmup_fraction}")
    if n_arrivals > _MAX_ARRIVALS:
        raise ParameterError(
            f"n_arrivals={n_arrivals} exceeds {_MAX_ARRIVALS}, the most packets a run's draw can hold"
        )
    kept = n_arrivals - int(warmup_fraction * n_arrivals)
    if kept < min_kept:
        raise ParameterError(
            f"n_arrivals={n_arrivals} with warmup_fraction={warmup_fraction} keeps {kept} of its "
            f"packets past the warm-up; need >= {min_kept}"
        )
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


# Draws that some live trace views or a run_law holds, by (arrival, service, n_arrivals, seed).
# An entry lasts exactly as long as one of them.
_DRAWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

# A draw is one float64 buffer of 3 n_arrivals + 1 entries, and numpy caps an array at
# sys.maxsize bytes.
_MAX_ARRIVALS = (sys.maxsize // 8 - 1) // 3


def _draw(key: tuple[ArrivalProcess, ServiceDistribution, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generation times, service requirements and [0.0, *FCFS completions] of the run key names.

    The key is (arrival, service, n_arrivals, seed).  The seed spawns
    separate arrival and service substreams, so every discipline run at
    that seed sees the same (X_i, S_i).  The three are read-only views of
    one buffer of 3 n_arrivals + 1 floats, which _DRAWS holds: the
    generation times, the service requirements, then the age path's
    initial breakpoint 0.0 and the FCFS completions, so an fcfs trace's
    breakpoint times can be the last view, and the completions live
    exactly as long as the draw.  The FCFS pass (see _fcfs) fills the tail
    when the draw is made, so its first run pays for it, inf included.
    Coupled runs share the one buffer while any trace of it or run_law
    holds it: it is read-only, so no run can change another's path.
    """
    arrival, service, n, seed = key
    draw = _DRAWS.get(key)
    if draw is None:
        arrival_seq, service_seq = np.random.SeedSequence(seed).spawn(2)
        arrival_rng = np.random.Generator(np.random.PCG64(arrival_seq))
        service_rng = np.random.Generator(np.random.PCG64(service_seq))
        draw = np.empty(3 * n + 1)
        np.cumsum(arrival.sample_n(arrival_rng, n), out=draw[:n])
        draw[n : 2 * n] = service.sample_n(service_rng, n)
        _fcfs(draw[:n], draw[n : 2 * n], draw[2 * n :])
        draw.flags.writeable = False
        _DRAWS[key] = draw
    return draw[:n], draw[n : 2 * n], draw[2 * n :]


def run_simulation(
    arrival: ArrivalProcess,
    service: ServiceDistribution,
    discipline: Discipline,
    n_arrivals: int,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> SimulationTrace:
    """Simulate one run; identical inputs give a bit-identical trace.

    Service requirements are assigned once per packet, at arrival, and
    survive preemptions intact (preempt-resume).  Generation stops after
    n_arrivals packets and the backlog is drained, so every generated
    packet is delivered.  The trace views the draw it shares with coupled
    runs, and every single-server kernel reads the draw's FCFS completions
    (see _draw and SimulationTrace).
    """
    check_run(n_arrivals, warmup_fraction, seed, min_kept=1)
    point = ExperimentPoint(arrival, service, discipline)
    gen, svc, padded = _draw((arrival, service, int(n_arrivals), int(seed)))
    recv = _serve(gen, svc, discipline, padded[1:])
    informative, bp_times, bp_ages = _informative_receptions(
        gen, recv, padded if discipline is Discipline.FCFS else None
    )

    return SimulationTrace(
        gen_times=gen,
        service_reqs=svc,
        recv_times=recv,
        informative=informative,
        breakpoint_times=bp_times,
        breakpoint_ages=bp_ages,
        n_generated=n_arrivals,
        seed=seed,
        warmup_fraction=warmup_fraction,
        point=point,
    )


def run_law(arrival, service, disciplines, n_arrivals, warmup_fraction, seed):
    """Yield each discipline's run_simulation trace in turn; hold their one draw, and no trace, across a yield."""
    for discipline in disciplines:
        run = [run_simulation(arrival, service, discipline, n_arrivals, warmup_fraction, seed)]
        draw = run[0].gen_times.base  # held through the next run, which so takes this draw
        yield run.pop()


def busy_periods(gen: np.ndarray, svc: np.ndarray) -> list[tuple[float, float]]:
    """(start, end) of each busy period of a work-conserving single server.

    Depends only on the workload sample path, so this is a discipline-free
    oracle: any non-idling single-server policy finishes each busy period's
    work exactly at its end.  A period starts at each packet that
    _period_starts marks on the FCFS completions, as the lcfs-np hints do:
    one arriving just as the server empties starts a new period.  It runs
    its own FCFS pass, so any arrays serve, not only a draw's.  At a
    float tie a completion can sit one ulp from a sequential run's, and so
    can a period end, or the packet that starts one.
    """
    c = _fcfs(gen, svc)
    starts = np.flatnonzero(_period_starts(gen, c))
    ends = np.append(starts[1:], gen.shape[0]) - 1
    return list(zip(gen[starts].tolist(), c[ends].tolist()))
