"""Event-loop references for the engine's serve kernels and informative marking.

One server-state machine per discipline, driven packet by packet by
`serve`: the straightforward simulation that the closed-form kernels in
`agedelay.engine` are tested against.  Ties between a departure and an
arrival at the same instant process the departure first.  `AgeTracker`
replays receptions one at a time, and `track_ages` replays a whole path
through it: the reference for the engine's vectorised informative
marking.  `redraw` draws a run's path afresh, for
comparison with the draw that coupled runs share.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from agedelay import Discipline

INFINITY = float("inf")


class FcfsServer:
    """Single server, first-come-first-serve, non-preemptive."""

    __slots__ = ("t_complete", "serving", "queue")

    def __init__(self):
        self.t_complete = INFINITY
        self.serving = -1
        self.queue = deque()  # FIFO of (packet id, service requirement)

    def handle_arrival(self, pkt_id: int, service_req: float, now: float) -> None:
        if self.serving < 0:
            self.serving = pkt_id
            self.t_complete = now + service_req
        else:
            self.queue.append((pkt_id, service_req))

    def handle_completion(self) -> int:
        """Finish the in-service packet at self.t_complete; start the oldest waiter."""
        done = self.serving
        if self.queue:
            pkt_id, service_req = self.queue.popleft()
            self.serving = pkt_id
            self.t_complete += service_req
        else:
            self.serving = -1
            self.t_complete = INFINITY
        return done


class LcfsServer:
    """Single server, last-come-first-serve, non-preemptive."""

    __slots__ = ("t_complete", "serving", "stack")

    def __init__(self):
        self.t_complete = INFINITY
        self.serving = -1
        self.stack = []  # LIFO of (packet id, service requirement)

    def handle_arrival(self, pkt_id: int, service_req: float, now: float) -> None:
        if self.serving < 0:
            self.serving = pkt_id
            self.t_complete = now + service_req
        else:
            self.stack.append((pkt_id, service_req))

    def handle_completion(self) -> int:
        done = self.serving
        if self.stack:
            pkt_id, service_req = self.stack.pop()
            self.serving = pkt_id
            self.t_complete += service_req
        else:
            self.serving = -1
            self.t_complete = INFINITY
        return done


class LcfsPreemptiveServer:
    """Single server, LCFS with preempt-resume.

    A new arrival always seizes the server; the interrupted packet keeps its
    remaining work and is pushed onto the suspension stack, to resume when
    everything above it has finished.
    """

    __slots__ = ("t_complete", "serving", "stack")

    def __init__(self):
        self.t_complete = INFINITY
        self.serving = -1
        self.stack = []  # LIFO of (packet id, remaining work)

    def handle_arrival(self, pkt_id: int, service_req: float, now: float) -> None:
        if self.serving >= 0:
            # remaining work of the preempted packet is preserved exactly
            self.stack.append((self.serving, self.t_complete - now))
        self.serving = pkt_id
        self.t_complete = now + service_req

    def handle_completion(self) -> int:
        done = self.serving
        if self.stack:
            pkt_id, remaining = self.stack.pop()
            self.serving = pkt_id
            self.t_complete += remaining
        else:
            self.serving = -1
            self.t_complete = INFINITY
        return done


class InfiniteServer:
    """Every arrival starts service immediately on its own server."""

    __slots__ = ("t_complete", "in_service")

    def __init__(self):
        self.t_complete = INFINITY
        self.in_service = []  # min-heap of (completion time, packet id)

    def handle_arrival(self, pkt_id: int, service_req: float, now: float) -> None:
        heapq.heappush(self.in_service, (now + service_req, pkt_id))
        self.t_complete = self.in_service[0][0]

    def handle_completion(self) -> int:
        _, done = heapq.heappop(self.in_service)
        self.t_complete = self.in_service[0][0] if self.in_service else INFINITY
        return done


_SERVERS = {
    Discipline.FCFS: FcfsServer,
    Discipline.LCFS_NONPREEMPTIVE: LcfsServer,
    Discipline.LCFS_PREEMPTIVE: LcfsPreemptiveServer,
    Discipline.INFINITE_SERVER: InfiniteServer,
}


def make_server(discipline: Discipline):
    """Fresh server state for one simulation run."""
    return _SERVERS[discipline]()


def serve(gen: np.ndarray, svc: np.ndarray, discipline: Discipline) -> np.ndarray:
    """Run the event loop and return the reception time of every packet."""
    n = gen.shape[0]
    server = make_server(discipline)
    handle_arrival = server.handle_arrival
    handle_completion = server.handle_completion
    gen_l = gen.tolist()
    svc_l = svc.tolist()
    recv = [0.0] * n
    i = 0
    t_next_arrival = gen_l[0]
    while True:
        t_complete = server.t_complete
        if t_complete <= t_next_arrival:
            if t_complete == INFINITY:
                break  # no arrivals left and the server is idle: drained
            recv[handle_completion()] = t_complete
        else:
            handle_arrival(i, svc_l[i], t_next_arrival)
            i += 1
            t_next_arrival = gen_l[i] if i < n else INFINITY
    return np.asarray(recv)


class AgeTracker:
    """Incremental age-state updates, one reception at a time.

    A reception drops the age to (now - gen_time) iff gen_time exceeds the
    generation time of every previously received packet; everything else
    leaves the age growing at slope one.  Starts from age 0 at time 0.
    """

    __slots__ = ("latest_gen", "times", "ages")

    def __init__(self):
        self.latest_gen = -math.inf
        self.times = [0.0]
        self.ages = [0.0]

    def on_reception(self, gen_time: float, now: float) -> bool:
        """Record one reception; returns True iff it was informative."""
        if gen_time > self.latest_gen:
            self.latest_gen = gen_time
            self.times.append(now)
            self.ages.append(now - gen_time)
            return True
        return False


def track_ages(gen, recv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AgeTracker replayed over the receptions in time order, equal instants in generation order.

    Returns the informative flags by packet id, and the breakpoint times and ages.
    """
    gen_l, recv_l = np.asarray(gen, dtype=float).tolist(), np.asarray(recv, dtype=float).tolist()
    tracker = AgeTracker()
    informative = [False] * len(gen_l)
    for i in np.argsort(recv_l, kind="stable").tolist():
        informative[i] = tracker.on_reception(gen_l[i], recv_l[i])
    return np.array(informative, dtype=bool), np.asarray(tracker.times), np.asarray(tracker.ages)


def redraw(arrival, service, n_arrivals: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Generation times and service requirements of a run at seed, drawn independently of the engine."""
    arrival_seq, service_seq = np.random.SeedSequence(seed).spawn(2)
    gen = np.cumsum(arrival.sample_n(np.random.Generator(np.random.PCG64(arrival_seq)), n_arrivals))
    svc = service.sample_n(np.random.Generator(np.random.PCG64(service_seq)), n_arrivals)
    return gen, svc
