"""The benchmark command runs every declared workload correctly.

``perfbench/worker.py`` drives the workbench through its public API by name
(``compose``, ``validate_woven``, ``resolve_method_conflicts``, ...), so a
renamed or removed function shows here, not first in a benchmark run.  One
short untraced run per workload of ``BENCHMARK.json``; no timing is checked.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from helpers import REPO

WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last
