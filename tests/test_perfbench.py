"""The benchmark's own self-test, run as part of the suite, and its
reference gate on the records this checkout computes.

perfbench/selftest.py runs every workload at a tiny size and gates its
records against perfbench/reference.json, so a change that moves records
outside the solver's error budget fails here, not only in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from likenet.ensemble import EnsembleConfig
from util import block_text

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def load_checks():
    """perfbench/checks.py, imported from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_records_sit_well_inside_the_reference_gate(workload):
    # the reference gate's own tolerances, a tenth of each: perturbed rows
    # that start on their response series leave records within about 1e-3
    # of their tolerance
    checks = load_checks()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    part = reference[workload]
    config = EnsembleConfig(n=part["n"], k=part["k"], rate_lambda=1.0,
                            master_seed=reference["master_seed"])
    lines = block_text(config, 0, len(part["records"])).splitlines()
    assert len(lines) == len(part["records"])
    for line, (stability, gradient_sq_sum) in zip(lines, part["records"]):
        record = json.loads(line)
        tol_stability, tol_gradient_sq_sum = checks.record_tolerances(record, gradient_sq_sum)
        assert abs(record["stability"] - stability) <= 0.1 * tol_stability
        assert abs(record["gradient_sq_sum"] - gradient_sq_sum) <= 0.1 * tol_gradient_sq_sum
