"""Spans around calls into agedelay's layers, recorded from outside the package.

A `Recorder` swaps the public functions that a workload reaches for
wrappers, for the length of one pass, and restores them afterwards.  Each
wrapped call yields one span record: name, start, end, parent span, the
process id and a key shared by every span of one replication (the run's
seed and discipline).  Records stay in memory in the benchmark process.
The `run_suite` pool forks its workers while the wrappers are installed,
so the workers inherit them; a worker appends its records to a
per-process file in the pass directory, which the parent reads back once
the pool has shut down.

Modes:
  "jobs"  time only `run_simulation` and `summarize`: the worker-side
          replication timing that `rep_s_p50` needs on figure1-smoke.
  "full"  the traced run: every public function listed in `PATCHES`,
          plus, outside the timed calls, a redraw of each replication's
          samples (timed as `distributions.sample_n`) and the
          workload-property counts.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import agedelay.engine as engine
import agedelay.experiments as experiments
import agedelay.metrics as metrics
import agedelay.oracles as oracles

# (module, attribute) pairs wrapped in "full" mode.  `experiments` imports
# its callees by name, so they are wrapped there as well as at home.
PATCHES = (
    (engine, "run_simulation"),
    (metrics, "summarize"),
    (experiments, "summarize"),
    (oracles, "gginf_age_estimate"),
    (experiments, "gginf_age_estimate"),
    (oracles, "pk_delay"),
    (experiments, "pk_delay"),
    (oracles, "min_average_age"),
    (experiments, "min_average_age"),
    (experiments, "run_suite"),
    (experiments, "pareto_frontier"),
    (experiments, "scalarized_pick"),
    (experiments, "emit_outputs"),
)
JOB_PATCHES = ((engine, "run_simulation"), (experiments, "summarize"))

_NULL = nullcontext({})


def trace_key(seed: int, discipline) -> str:
    return f"{seed}/{discipline.value}"


class Recorder:
    """Span store for one pass; `mode` is None (off), "jobs" or "full"."""

    def __init__(self, mode: str | None, pass_dir: Path):
        self.mode = mode
        self.pass_dir = Path(pass_dir)
        self.owner = os.getpid()
        self.records: list[dict] = []
        self.stack: list[str] = []
        self._n = 0
        self._fd: int | None = None
        self._fd_pid: int | None = None
        self._busy_cache: dict[int, int] = {}

    # ---- spans ----------------------------------------------------------------

    def span(self, name: str, key: str | None = None):
        """A span around benchmark code; free when the recorder is off."""
        if self.mode is None:
            return _NULL
        return self._span(name, key, {})

    @contextmanager
    def _span(self, name, key, attrs):
        pid = os.getpid()
        self._n += 1
        rec = {"id": f"{pid}.{self._n}", "name": name, "key": key,
               "parent": self.stack[-1] if self.stack else None, "pid": pid, **attrs}
        self.stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
            self._emit(rec)

    def _emit(self, rec: dict) -> None:
        pid = os.getpid()
        if pid == self.owner:
            self.records.append(rec)
            return
        if self._fd_pid != pid:  # first record in a forked pool worker
            path = self.pass_dir / f"worker-{pid}.jsonl"
            # stays open for the worker's life; the pool ends its workers with the suite
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self._fd_pid = pid
        os.write(self._fd, (json.dumps(rec) + "\n").encode())

    def collect_workers(self) -> None:
        """Read back and delete the records that pool workers wrote."""
        for path in sorted(self.pass_dir.glob("worker-*.jsonl")):
            with path.open() as fh:
                self.records.extend(json.loads(line) for line in fh)
            path.unlink()

    # ---- patching ---------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        if self.mode is None:
            yield self
            return
        patches = PATCHES if self.mode == "full" else JOB_PATCHES
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in patches]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self._wrap(attr, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, attr: str, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"  # the layer that defines fn
        if attr == "run_simulation":
            return self._wrap_run_simulation(fn, name)
        if attr == "summarize":
            def summarize(trace, *args, **kwargs):
                key = trace_key(trace.seed, trace.point.discipline)
                with self._span(name, key, {"discipline": trace.point.discipline.value}):
                    return fn(trace, *args, **kwargs)
            return summarize
        if attr == "gginf_age_estimate":
            def gginf_age_estimate(arrival, service, n_samples=100_000, seed=0):
                with self._span(name, None, {"draws": n_samples}):
                    return fn(arrival, service, n_samples, seed)
            return gginf_age_estimate
        if attr == "emit_outputs":
            def emit_outputs(*args, **kwargs):
                with self._span(name, None, {}) as rec:
                    paths = fn(*args, **kwargs)
                    rec["bytes"] = sum(Path(p).stat().st_size for p in paths)
                return paths
            return emit_outputs

        def wrapper(*args, **kwargs):
            with self._span(name, None, {}):
                return fn(*args, **kwargs)
        wrapper.__name__ = attr
        return wrapper

    def _wrap_run_simulation(self, fn, name):
        def run_simulation(arrival, service, discipline, n_arrivals, warmup_fraction=0.1, seed=0):
            key = trace_key(seed, discipline)
            with self._span(name, key, {"discipline": discipline.value, "packets": n_arrivals}):
                trace = fn(arrival, service, discipline, n_arrivals, warmup_fraction, seed)
            if self.mode == "full":
                with self._span("trace.bookkeeping", key, {}):
                    self._redraw(trace, key)
                    self._count(trace, key)
            return trace

        return run_simulation

    # ---- traced-run extras, outside the timed calls ---------------------------------

    def _redraw(self, trace, key: str) -> None:
        """Time the run's sampling by redrawing it on the same streams."""
        point = trace.point
        arrival_seq, service_seq = np.random.SeedSequence(trace.seed).spawn(2)
        with self._span("distributions.sample_n", key, {"discipline": point.discipline.value}):
            gen = np.cumsum(point.arrival.sample_n(_rng(arrival_seq), trace.n_generated))
            svc = point.service.sample_n(_rng(service_seq), trace.n_generated)
        if not (np.array_equal(gen, trace.gen_times) and np.array_equal(svc, trace.service_reqs)):
            raise RuntimeError("redrawn samples differ from the run's: sample_s would time other work")

    def _count(self, trace, key: str) -> None:
        """Workload-property counts of one replication, exact and discipline-tagged."""
        if trace.seed not in self._busy_cache:  # coupled runs share one busy-period structure
            self._busy_cache[trace.seed] = len(engine.busy_periods(trace.gen_times, trace.service_reqs))
        arrays = (trace.gen_times, trace.service_reqs, trace.recv_times, trace.informative,
                  trace.breakpoint_times, trace.breakpoint_ages)
        self._emit({
            "name": "counts",
            "key": key,
            "pid": os.getpid(),
            "seed": trace.seed,
            "discipline": trace.point.discipline.value,
            "packets": trace.n_generated,
            "busy_periods": self._busy_cache[trace.seed],
            "peak_backlog": peak_backlog(trace.gen_times, trace.recv_times),
            "breakpoints": int(trace.breakpoint_times.shape[0] - 1),
            "trace_bytes": int(sum(a.nbytes for a in arrays)),
        })


def _rng(seq) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seq))


def peak_backlog(gen: np.ndarray, recv: np.ndarray) -> int:
    """Most packets in the system at once, just after an arrival.

    A departure at the same instant as an arrival is processed first, as
    in the engine.
    """
    departed = np.searchsorted(np.sort(recv), gen, side="right")
    return int(np.max(np.arange(1, gen.shape[0] + 1) - departed))


# ---- reductions ------------------------------------------------------------------------


def durations(records, name: str, **match) -> float:
    return float(sum(r["end"] - r["start"] for r in records
                     if r["name"] == name and all(r.get(k) == v for k, v in match.items())))


def self_times(records) -> dict[str, float]:
    """Per span name, total duration minus what same-process child spans cover."""
    spans = [r for r in records if "start" in r]
    children: dict[str, list[dict]] = {}
    for r in spans:
        if r["parent"] is not None:
            children.setdefault(r["parent"], []).append(r)
    out: dict[str, float] = {}
    for r in spans:
        covered, last = 0.0, r["start"]
        for c in sorted((c for c in children.get(r["id"], ()) if c["pid"] == r["pid"]),
                        key=lambda c: c["start"]):
            lo, hi = max(c["start"], last), min(c["end"], r["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        out[r["name"]] = out.get(r["name"], 0.0) + (r["end"] - r["start"] - covered)
    return out


def replication_times(records) -> list[float]:
    """Per replication key, from `run_simulation` start to `summarize` end."""
    starts = {r["key"]: r["start"] for r in records if r["name"] == "engine.run_simulation"}
    ends = {r["key"]: r["end"] for r in records if r["name"] == "metrics.summarize"}
    return [ends[k] - starts[k] for k in starts if k in ends]
