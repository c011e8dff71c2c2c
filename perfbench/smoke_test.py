"""Smoke test for the benchmark.

    python3 -m pytest perfbench/smoke_test.py

Runs every workload at a tiny size in both modes and checks the output
contract: every metric BENCHMARK.json names is printed with its unit, the
output checks pass, and nothing failed.  No timing value is judged, and
the file lives outside tests/, so timing noise never fails the test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}


def run_bench(script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert info["why"] == WORKLOADS[workload]
    assert info["seed"] == 3
    assert {"nproc", "python", "numpy", "scipy"} <= set(info["machine"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / HERE.name / "run.py", sorted(WORKLOADS)[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
