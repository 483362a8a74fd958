"""Smoke and differential tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from measure import Recorder
from workloads import SMOKE, WORKLOADS, RouteFailures

from f2froute import routing
from f2froute.experiments import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("seed", [1, 4])
def test_route_failures_reproduces_run_scenario(seed):
    workload = RouteFailures(seed, **SMOKE["route-failures"])
    workload.run_pass(Recorder(), check=True)
    outputs = workload.outputs()
    rows = {r.metric: r.mean for r in run_scenario(workload.scenario, log=io.StringIO())}
    assert outputs["success_ratio"] == rows["success_ratio"]
    assert outputs["routing_length"] == rows["routing_length"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload_passes_checks(name, trace, capsys):
    argv = ["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    record, result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["check_failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


class FixedSpeed:
    def factor(self, force=False):
        return 2.0


def test_recorder_scales_times_to_reference_speed():
    rec = Recorder(speed=FixedSpeed())
    rec.op(time.sleep, 0.01)
    rec.timed(time.sleep, 0.01)
    assert rec.latencies[0] >= 0.02 and rec.calls[0] >= 0.02
    assert 0.02 <= rec.busy_s < rec.latencies[0] + rec.calls[0]


def test_walk_check_rejects_a_non_edge():
    workload = RouteFailures(1, **SMOKE["route-failures"])
    run = workload.runs[0]
    src, dst = run.pairs[0]
    out = routing.route_multi(run.g, run.emb, src, dst, workload.scenario.routing,
                              live=run.mask.live, rng=random.Random(0))
    assert workload._check_walk(run, src, dst, out) is None
    attempt = out.attempts[0]
    far = next(v for v in range(run.g.node_count)
               if v not in run.g.neighbors(attempt.path[-1]) and v != attempt.path[-1])
    attempt.path.append(far)
    assert "not a graph edge" in workload._check_walk(run, src, dst, out)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
