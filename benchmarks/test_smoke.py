"""Smoke test of the benchmark itself: every workload at tiny size, both modes.

    python3 -m pytest benchmarks
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["identify-long-run", "lqr-pooled", "cli-session"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_declared_metrics(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for f in RUN.parent.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "lqr-pooled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
