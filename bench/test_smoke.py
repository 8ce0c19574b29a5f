"""The benchmark's self-check: `python3 bench/run.py --smoke` passes.

Smoke mode runs one or two cases of every workload, untraced and traced,
and fails unless every metric named in BENCHMARK.json is printed with its
unit and no case failed.  It runs in a child process because the traced
run patches nestquiv's module namespaces.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_prints_every_metric_and_fails_nothing():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=os.path.dirname(HERE),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
