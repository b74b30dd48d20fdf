"""Self-check of the benchmark at tiny size.

    python3 -m pytest -q perfbench/test_selfcheck.py    (from the checkout root)

Every workload must print every metric ``BENCHMARK.json`` names, with its
unit, traced and untraced; its correctness checks must pass under a second
seed; and without the program beside it the benchmark must fail without
printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(p):
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace, key):
    p = run(workload, 1, trace)
    assert p.returncode == 0, p.stderr
    res = result(p)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_under_second_seed(workload):
    p = run(workload, 2, 0)
    assert p.returncode == 0, p.stderr
    res = result(p)
    assert res["correct"] and res["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
