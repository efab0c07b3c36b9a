"""Traced benchmark runs end in a strict JSON result line.

``perfbench/run.py`` promises that the last line of its standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Under ``--trace 1`` it wraps the program's entry points, so
a change to a traced function can print after that line or put a
non-finite value into it. A hook that reads a name the program no longer
has leaves its metric out with an ``unmeasured metric:`` line, and the run
still succeeds. Each workload of ``BENCHMARK.json`` is run briefly under
tracing, must print no such line, and its last line is parsed with NaN
and Infinity rejected.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_in_a_correct_strict_json_result(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line for line in lines if line.startswith("unmeasured metric:")] == []
    result = json.loads(lines[-1], parse_constant=reject_constant)
    assert type(result) is dict
    assert {"correct", "attempted", "failed", "metrics"} <= result.keys()
    assert result["correct"] is True
    assert result["failed"] == 0
