"""Smoke tests of the benchmark itself (a few seconds per run).

Run from the repository root with
``python -m pytest benchmarks/e2e/test_bench.py``.  They check that every
metric BENCHMARK.json names is printed with its unit, that a wrong
expected answer is caught and fails the run, and that the benchmark
refuses to run without the program's source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         "--smoke", "--seed", "3", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, done.stdout, lines[-1] if lines else ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, out, last = run("--workload", workload, "--trace", str(trace))
    assert code == 0, out
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert f"\n{metric['name']} " in "\n" + out
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_answer_fails_the_run(workload):
    code, out, last = run("--workload", workload, "--wrong")
    result = json.loads(last)
    assert code == 1, out
    assert result["correct"] is False
    assert result["failed"] > 0


def test_a_failed_head_run_is_a_lost_pair():
    from compare import head_wins, verdict

    base = [10.0 + 0.1 * i for i in range(10)]
    head = [0.8 * b for b in base]
    assert verdict(base, head, "lower", 0.25) == "gain"
    head[0] = head[1] = None
    assert head_wins(base, head, "lower") == 8
    assert verdict(base, head, "lower", 0.25) == "same"
    base[0] = None
    assert head_wins(base, head, "lower") == 8


def test_a_gain_with_more_head_failures_is_void():
    from compare import verdict

    base = [10.0 + 0.1 * i for i in range(10)]
    head = [0.8 * b for b in base]
    assert verdict(base, head, "lower", 0.25,
                   head_failed_more=True) == "void"
    assert verdict(base, [1.3 * b for b in base], "lower", 0.25,
                   head_failed_more=True) == "REGRESSION"


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, _, last = run("--workload", "point-hot", cwd=str(tmp_path))
    assert code != 0
    assert not last.startswith("{")
