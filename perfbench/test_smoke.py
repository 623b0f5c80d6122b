"""Smoke test of the benchmark itself: one short pass of every workload.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``
(about two minutes; the tier-1 suite does not collect it).
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        printed = [ln for ln in lines if ln.startswith(m["name"] + " = ")]
        assert printed, f"{m['name']} not printed"
        assert printed[0].split("  (")[0].endswith(" " + m["unit"]), printed[0]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert any(ln.startswith("op_tail_ms = ") for ln in lines)
    if workload != "trace":
        error_rate = next(ln for ln in lines if ln.startswith("error_rate = "))
        assert float(error_rate.split()[2]) == 0.0
        assert result["failed"] == 0 and result["correct"] is True


def test_fails_without_vicert_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
