"""One pass of each benchmark workload, run as the benchmark runs it.

perfbench reads obskit through `verify.FIXTURE_BOUNDS`, the
`(relation, predicate)` pairs of `BUILTIN_CLASSES`, `gap_report`,
`Layout.order` and the reference answers it keeps for seed 7, so a change
that breaks any of them fails here rather than only when the benchmark runs.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["obs_scan", "contain_stream", "width_survey"])
def test_one_benchmark_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stderr
