"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that each run prints every metric that BENCHMARK.json declares,
by name and with its unit, that the known-false mutation case is counted as
detected, that the verdict gate rejects a wrong verdict, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric(workload, trace, kind, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, size="smallest") == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(kind)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    for name, unit in declared.items():
        assert printed[name].endswith(f" {unit}")


def test_mutation_case_is_detected():
    result, detail = run.measure("symbolic", 1, 0, trace=False, size="smallest")
    assert result["correct"] is True
    assert detail["mutations_detected"] == len(detail["passes"]) >= 2


def test_gate_rejects_an_always_passing_verifier():
    (case,) = [c for c in workloads.cases("symbolic", 1, "smallest") if c.argv is None]
    passing = [{"identity": "thm1", "n": 4, "params": {"corrupt_sign": True, "engines": "dp+perm"},
                "status": "PASS", "millis": 1.0}]
    _, problems = worker._check_case(case, None, json.dumps(passing), None)
    assert len(problems) == 1 and "expected FAIL" in problems[0]


def test_gate_counts_wrong_exit_codes_and_exceptions():
    case = workloads.cases("numeric-gaussian", 1, "smallest")[0]
    good = [{"identity": "magnus", "n": n, "params": {"generator": "gaussian"}, "status": "PASS"}
            for n in range(1, 7)]
    assert worker._check_case(case, 0, json.dumps(good), None)[1] == []
    assert len(worker._check_case(case, 1, json.dumps(good), None)[1]) == 6
    assert len(worker._check_case(case, None, None, "RuntimeError()")[1]) == 6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
