"""The benchmark's own self-test, run as part of the suite.

perfbench/selftest.py runs every workload at a tiny size and gates its
records against perfbench/reference.json, so a change that moves records
outside the solver's error budget fails here, not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
