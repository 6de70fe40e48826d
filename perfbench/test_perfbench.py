"""The benchmark's own tests, at tiny scale: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agedelay.engine as engine
import agedelay.experiments as experiments
import run
import worker
from agedelay import Discipline
from tracing import peak_backlog
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)], scale="tiny") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    assert trace or any(line.strip().startswith("rep_s_p50 = ") for line in lines)
    env = json.loads(lines[-2])["env"]
    assert env["seed"] == 5 and env["affinity_cpus"] >= 1
    assert {"python", "numpy", "scipy", "git_commit", "pool_workers"} <= set(env)


def _perturb_reception(discipline, on_call=1, delta=None):
    """Wrap run_simulation so that one packet of one discipline is delivered at a wrong time.

    delta None moves the reception to half a service time after generation.
    """
    original = engine.run_simulation
    calls = {"n": 0}

    def run_simulation(arrival, service, d, *args, **kwargs):
        trace = original(arrival, service, d, *args, **kwargs)
        if d is discipline:
            calls["n"] += 1
            if calls["n"] == on_call:
                k = trace.n_generated // 2
                if delta is None:
                    trace.recv_times[k] = trace.gen_times[k] + 0.5 * trace.service_reqs[k]
                else:
                    trace.recv_times[k] += delta
        return trace

    return run_simulation


@pytest.mark.parametrize("on_call, delta", [(1, None), (3, 1e-6)])
def test_perturbed_reception_time_counts_as_failed(monkeypatch, tmp_path, on_call, delta):
    # call 1: the first pass's exp replication, caught by delay >= service;
    # call 3: the second pass's exp replication, caught by the repeat check
    monkeypatch.setattr(engine, "run_simulation",
                        _perturb_reception(Discipline.LCFS_PREEMPTIVE, on_call, delta))
    out = worker.run("rep-paper-load", 5, 0, False, tmp_path, TINY)
    assert out["failed"] >= 1
    assert out["details"]["failures"][0].startswith(f"pass{(on_call - 1) // 2}: exp/lcfs-p:")
    assert all(": exp/lcfs-p: " in f for f in out["details"]["failures"])


def test_corrupted_figure1_output_counts_as_failed(monkeypatch, tmp_path):
    original = experiments.emit_outputs
    calls = {"n": 0}

    def emit_outputs(*args, **kwargs):
        paths = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 2:
            csv = Path(paths[0])
            lines = csv.read_text().splitlines()
            lines[4] = lines[4].replace(",", ";", 1)
            csv.write_text("\n".join(lines) + "\n")
        return paths

    monkeypatch.setattr(experiments, "emit_outputs", emit_outputs)
    out = worker.run("figure1-smoke", 5, 0, False, tmp_path, TINY)
    assert out["failed"] == 1
    assert out["details"]["failures"] == ["pass1: point3: figure1.csv differs from the first pass"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_counts_repeat_exactly(workload, tmp_path):
    counts = []
    for i in range(2):
        out = worker.run(workload, 9, 0, True, tmp_path / str(i), TINY)
        assert out["failed"] == 0
        counts.append({m["name"]: out["metrics"][m["name"]] for m in SPEC["per_layer"]
                       if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["engine.busy_periods"] > 0


def test_peak_backlog_matches_a_direct_count():
    gen = np.array([0.0, 1.0, 1.5, 2.0, 5.0])
    recv = np.array([2.0, 3.0, 4.0, 4.5, 6.0])
    # just after t=2.0 the departure at 2.0 has happened: packets 1, 2, 3 are in
    assert peak_backlog(gen, recv) == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rep-paper-load",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
