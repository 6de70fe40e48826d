"""Run one agedelay benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rep-paper-load --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Set-up time is the time from an interpreter's launch until it has
imported agedelay and built the workload's inputs, ready to simulate.
SETUP_PROBES fresh interpreters do only that; then a child process sets
up the same way and runs the workload (worker.py).  setup_s is the
median over the probes and the child.  stdout gets one line per metric with
its unit, an environment line, and, last, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  `--workload all` runs
every workload in turn; its last line merges their results, with metric
names prefixed by the workload.

Everything is written under .perfbench_out/ in the checkout.  The exit
status is nonzero, with no result line, if a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
# Printed with the end-to-end metrics but kept out of BENCHMARK.json: on
# rep-* it tracks wall_s / 8, and on figure1-smoke, where the pool workers
# time it, its spread between runs exceeded the largest allowed bound.
UNGATED_UNITS = {"rep_s_p50": "s"}
DEADLINE_S = 170.0  # per workload, inside the 180 s a run may take


class BenchError(RuntimeError):
    pass


def _spec():
    """Workload names, end-to-end units and per-layer units from BENCHMARK.json."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    return (tuple(w["name"] for w in spec["workloads"]),
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child(args: list[str], timeout: float) -> str:
    """Run worker.py to completion and return its stdout."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker.py {args[0]} ran past {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker.py {' '.join(args)} exited with status {proc.returncode}")
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: env carries source_sha256 instead
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """Set-up probes plus one measured run; returns the worker's result with setup_s added."""
    start = time.perf_counter()
    setup = []
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    for _ in range(SETUP_PROBES):
        # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
        out = _child(["setup", *common, "--t0", repr(time.perf_counter())], timeout=60)
        word, _, elapsed = out.partition(" ")
        if word != "ready":
            raise BenchError(f"set-up probe printed {out[:200]!r}")
        setup.append(float(elapsed))
    out_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    left = DEADLINE_S - (time.perf_counter() - start)
    out = _child(["run", *common, "--seconds", str(seconds), "--trace", str(trace),
                  "--out-dir", str(out_dir), "--t0", repr(time.perf_counter())], timeout=left)
    result = json.loads(out.strip().splitlines()[-1])
    setup.append(result.pop("setup_s"))
    result["details"]["setup_samples_s"] = setup
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["env"]["git_commit"] = git_commit()
    with (out_dir / "result.json").open("w") as fh:
        json.dump(result, fh, indent=2)
    return result


def render(workload: str, result: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines: the counts, then each metric with its unit."""
    att, failed = result["attempted"], result["failed"]
    lines = [f"{workload}: attempted={att} failed={failed} failed_frac={failed / att:.6g}"
             f" passes={result['details']['passes']}"]
    lines += [f"  {w}" for w in result["details"]["failures"]]
    lines += [f"  {name} = {result['metrics'][name]} {unit}" for name, unit in units.items()]
    return lines


def main(argv=None, scale: str = "full") -> int:
    workloads, e2e_units, layer_units = _spec()
    ap = argparse.ArgumentParser(description="agedelay benchmark")
    ap.add_argument("--workload", required=True, choices=(*workloads, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    units = layer_units if args.trace else e2e_units
    names = workloads if args.workload == "all" else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in names:
            res = run_workload(w, args.seed, args.seconds, args.trace, scale)
            print("\n".join(render(w, res, units if args.trace else {**units, **UNGATED_UNITS})))
            print(json.dumps({"env": res["env"]}))
            prefix = f"{w}:" if len(names) > 1 else ""
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            merged["metrics"].update({f"{prefix}{n}": {"value": res["metrics"][n], "unit": u}
                                      for n, u in units.items()})
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    merged["correct"] = merged["failed"] == 0
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
