"""Self-test of the benchmark: smoke runs and failure accounting.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py

The file is not named ``test_*.py`` so that the package's own test suite does
not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import make_workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace),
         "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_csv_and_nonzero_exit_count_as_failures(tmp_path):
    (cmd,) = make_workload("decompose_ls", 1, tmp_path, run.ROOT, smoke=True).commands
    harness = run.Harness(tmp_path, time.monotonic() + 120)
    assert harness.invoke(cmd, "setup").ok

    out = tmp_path / f"{cmd.label}-setup.csv"
    lines = out.read_text().splitlines(keepends=True)
    digit = next(i for i, ch in enumerate(lines[1]) if ch in "123456789")
    lines[1] = lines[1][:digit] + str(int(lines[1][digit]) % 9 + 1) + lines[1][digit + 1:]
    out.write_text("".join(lines))
    assert not harness.verify(cmd, "setup", out, 0)

    missing = ("decompose", "--config", str(tmp_path / "missing.json"))
    broken = dataclasses.replace(cmd, setup=dataclasses.replace(cmd.setup, args=missing))
    assert not harness.invoke(broken, "setup").ok

    assert (harness.attempted, harness.failed) == (3, 2)
    assert "exit code 2" in harness.problems[-1]
