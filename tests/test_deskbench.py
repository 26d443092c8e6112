"""The desk benchmark once per workload, as its correctness check runs it.

At seed 11 each workload compares its outputs against
`deskbench/reference.json`, so a change that would make the benchmark read
`correct: false` or fail an operation fails here first. `--seconds 0` runs
each unit once. Every run writes only the gitignored `.deskbench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload,trace", [
    ("train", 0), ("eval", 0), ("squeeze", 0), ("dynamics", 0),
    ("squeeze", 1),
], ids=["train", "eval", "squeeze", "dynamics", "squeeze-traced"])
def test_deskbench_workload_is_correct_at_the_reference_seed(workload,
                                                             trace):
    proc = subprocess.run(
        [sys.executable, "deskbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
