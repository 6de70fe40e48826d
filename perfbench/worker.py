"""Benchmark child process: one set-up probe, or one measured run of a workload.

    python3 perfbench/worker.py setup --workload W --seed N --t0 T
        import agedelay, build the workload's inputs, print "ready" and the
        seconds since perf_counter() read T in the launcher, exit.
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --out-dir D --t0 T
        the same set-up, timed the same way, then the measured passes.

`run` repeats passes over the same inputs until S seconds have gone (at
least two).  With --trace 1 the passes alternate untraced and traced (at
least three: untraced, traced, untraced), and the traced ones give the
per-layer metrics.  The tracing overhead compares them with the untraced
passes after the first, which also pays for first-touch memory.  The last line of stdout is
one JSON object; run.py turns it into the benchmark's result.

agedelay is imported from the checkout's src/ and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import agedelay  # noqa: E402

if Path(agedelay.__file__).resolve().parent != SRC / "agedelay":
    raise ImportError(f"agedelay was imported from {agedelay.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Recorder, durations, self_times  # noqa: E402
from workloads import (  # noqa: E402
    DISCIPLINES,
    SCALES,
    WORKLOADS,
    e2e_metrics,
    make_workload,
    output_mismatches,
)

MIN_PASSES = 2
# per-layer metrics that are exact for given inputs: they must repeat between passes
COUNTS = {
    "engine.trace_mb", "oracles.gginf_calls", "oracles.gginf_draws", "experiments.jobs",
    "experiments.output_bytes", "engine.busy_periods", "engine.preemptions.lcfs-p",
    *(f"engine.peak_backlog.{d.value}" for d in DISCIPLINES),
    *(f"metrics.breakpoints.{d.value}" for d in DISCIPLINES),
}


def layer_metrics(records: list[dict], wall: float, workload: str) -> dict[str, float]:
    """Per-layer busy times and workload-property counts of one traced pass.

    A layer a workload never calls reads 0.
    """
    m: dict[str, float] = {}
    discs = [d.value for d in DISCIPLINES]
    sample = {d: durations(records, "distributions.sample_n", discipline=d) for d in discs}
    runsim = {d: durations(records, "engine.run_simulation", discipline=d) for d in discs}
    summ = {d: durations(records, "metrics.summarize", discipline=d) for d in discs}
    m["distributions.sample_s"] = sum(sample.values())
    m["engine.run_simulation_s"] = sum(runsim.values())
    for d in discs:
        m[f"engine.serve_s.{d}"] = runsim[d] - sample[d]
    counts = [r for r in records if r["name"] == "counts"]
    m["engine.trace_mb"] = max((c["trace_bytes"] for c in counts), default=0) / 1e6
    for d in discs:
        m[f"metrics.summarize_s.{d}"] = summ[d]
    gginf = [r for r in records if r["name"] == "oracles.gginf_age_estimate"]
    m["oracles.gginf_s"] = durations(records, "oracles.gginf_age_estimate")
    m["oracles.gginf_calls"] = len(gginf)
    m["oracles.gginf_draws"] = sum(r["draws"] for r in gginf)
    run_suite = durations(records, "experiments.run_suite")
    m["experiments.run_suite_s"] = run_suite
    m["experiments.sims_s"] = run_suite - m["oracles.gginf_s"] if run_suite else 0.0
    m["experiments.jobs"] = sum(1 for r in records
                                if r["name"] == "engine.run_simulation" and r["pid"] != os.getpid())
    m["experiments.emit_s"] = sum(durations(records, f"experiments.{n}")
                                  for n in ("pareto_frontier", "scalarized_pick", "emit_outputs"))
    m["experiments.output_bytes"] = sum(r["bytes"] for r in records
                                        if r["name"] == "experiments.emit_outputs")
    busy = {c["seed"]: c["busy_periods"] for c in counts}
    m["engine.busy_periods"] = sum(busy.values())
    m["engine.preemptions.lcfs-p"] = sum(c["packets"] - c["busy_periods"] for c in counts
                                         if c["discipline"] == "lcfs-p")
    for d in discs:
        m[f"engine.peak_backlog.{d}"] = max((c["peak_backlog"] for c in counts
                                            if c["discipline"] == d), default=0)
    for d in discs:
        m[f"metrics.breakpoints.{d}"] = sum(c["breakpoints"] for c in counts if c["discipline"] == d)
    if workload == "figure1-smoke":
        accounted = m["oracles.gginf_s"] + m["experiments.sims_s"] + m["experiments.emit_s"]
    else:  # sample + serve + summarize, plus the tracer's own redraw and counting
        accounted = (m["engine.run_simulation_s"] + sum(summ.values())
                     + durations(records, "trace.bookkeeping"))
    m["trace.unaccounted_s"] = wall - accounted
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "agedelay").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, scale,
        t0: float | None = None) -> dict:
    wl = make_workload(workload, seed, scale)
    setup_s = None if t0 is None else time.perf_counter() - t0
    out_dir.mkdir(parents=True, exist_ok=True)
    passes = []  # (PassResult, Recorder, traced)
    start = time.perf_counter()
    while len(passes) < MIN_PASSES + trace or time.perf_counter() - start < seconds:
        k = len(passes)
        traced = trace and k % 2 == 1
        pass_dir = out_dir / f"pass{k}"
        pass_dir.mkdir(exist_ok=True)
        rec = Recorder("full" if traced else wl.untraced_mode, pass_dir)
        with rec.installed():
            result = wl.run_pass(rec, pass_dir)
        passes.append((result, rec, traced))

    results = [p[0] for p in passes]
    if results[0].outputs:
        for r in results[1:]:
            for op, why in output_mismatches(results[0].outputs, r.outputs, r.attempted).items():
                r.failures.setdefault(op, why)

    untraced = [r for r, _, t in passes if not t]
    metrics = e2e_metrics(untraced)
    metrics["peak_rss_mb"] = peak_rss_mb()
    details: dict = {"passes": len(passes), "walls_s": [r.wall for r in results],
                     "rep_times_s": [r.rep_times for r in results]}
    if trace:
        traced_passes = [(r, rec) for r, rec, t in passes if t]
        per_pass = [layer_metrics(rec.records, r.wall, workload) for r, rec in traced_passes]
        counts = [{k: v for k, v in m.items() if k in COUNTS} for m in per_pass]
        for (r, _), c in zip(traced_passes, counts):
            if c != counts[0]:
                r.failures["counts"] = "workload-property counts differ between traced passes"
        layers = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        warm = [r for r, _, t in passes[1:] if not t]  # pass 0 also pays first-touch costs
        layers["trace.overhead_s"] = (median(r.wall for r, _ in traced_passes)
                                      - median(r.wall for r in warm))
        details["self_s"] = self_times(traced_passes[0][1].records)
        with (out_dir / "spans.jsonl").open("w") as fh:
            for i, (_, rec) in enumerate(traced_passes):
                for span in rec.records:
                    fh.write(json.dumps({"pass": i, **span}) + "\n")
        metrics = layers
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    details["failures"] = [f"pass{k}: {op}: {why}" for k, r in enumerate(results)
                           for op, why in r.failures.items()]
    env = {
        "workload": workload,
        "seed": seed,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pool_workers": max(r.pool_workers for r in results),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "agedelay": agedelay.__version__,
        "source_sha256": source_digest(),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "setup_s": setup_s,
            "details": details, "env": env}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full")
    ap.add_argument("--t0", type=float, help="perf_counter() when the launcher started us")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        make_workload(args.workload, args.seed, SCALES[args.scale])
        print(f"ready {time.perf_counter() - args.t0!r}", flush=True)
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir,
              SCALES[args.scale], args.t0)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
