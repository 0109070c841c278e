"""The benchmark's workloads run on this code and get every item right.

Each workload runs for one second, untraced, in its own process, the way
BENCHMARK.json runs it.  This guards the names the workloads import from
monarel (monads.value_key, bisim.LTS and PLTS, poset.ORD, the category=
and delta= arguments of the checkers).  The runs write only under the
ignored .perfbench_out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_out(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0, line
