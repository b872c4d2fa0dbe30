"""Every workload, shrunk, runs to its end with its checks passing and
prints every metric BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_workload(workload, trace):
    lines = []
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace,
                               quick=True, log=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] >= 1
    # small-fits counts each tiny k-flats fit that misses the optimum as a
    # failed operation; nothing else may fail
    if workload != "small-fits":
        assert result["failed"] == 0
    assert result["failed"] < result["attempted"]
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert not any(line.startswith("[FAIL]") for line in lines)


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


def test_refuses_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits nonzero and prints no result."""
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "small-fits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
