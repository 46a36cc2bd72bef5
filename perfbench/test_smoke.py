"""Smoke test of the benchmark at its shortest length (one second per run).

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and checks that every end-to-end metric
of BENCHMARK.json is printed with its unit, in the result line and as a
``metric`` line, together with the per-kind metrics, and that the
workload's output checks ran. One traced run checks the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

KIND_METRICS = ("analyze_s", "analyze_par2_s", "canonicalize_s", "fuzz_steps_per_s",
                "verify_steps_per_s", "build_s", "inspect_s", "setup_s", "op_fail_ratio",
                "peak_rss_mb")

# output checks each workload must have run at least once
CHECKS = {
    "report": ("relabel", "parallel_identical", "ball_check"),
    "walk": ("fuzz_replay", "verify_clean"),
    "build-inspect": ("build_roundtrip", "inspect_fields"),
}


def run(workload: str, trace: int) -> tuple[dict, dict[str, str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(": ")
        if tag in ("context", "census", "checks", "failures", "digests"):
            tagged[tag] = json.loads(rest)
        elif line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            tagged["metric " + name] = rest
    return json.loads(lines[-1]), tagged


def assert_metrics(result: dict, spec: list[dict], tagged: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        row = result["metrics"][m["name"]]
        assert row["unit"] == m["unit"]
        assert isinstance(row["value"], (int, float))
        value, unit = tagged["metric " + m["name"]].split()[:2]
        assert unit == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_untraced_run_prints_metrics_and_runs_checks(workload):
    result, tagged = run(workload, 0)
    assert_metrics(result, BENCH["end_to_end"], tagged)
    for name in KIND_METRICS:
        assert "metric " + name in tagged
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    ran = tagged["checks"]["run"]
    assert all(ran[check] >= 1 for check in CHECKS[workload]), ran
    assert tagged["checks"]["unexpected"] == []
    assert len(tagged["digests"]) == result["attempted"]
    context = tagged["context"]
    assert context["seed"] == 7 and context["nproc"] >= 1
    assert all("crossings" in row and "genus" in row for row in tagged["census"])


def test_traced_run_prints_layer_metrics():
    result, tagged = run("walk", 1)
    assert_metrics(result, BENCH["per_layer"], tagged)
    value = {name: row["value"] for name, row in result["metrics"].items()}
    assert value["moves.enumerate.calls"] > 0
    assert value["states.resolved"] > 0
    assert value["trace.overhead_ratio"] > 0
