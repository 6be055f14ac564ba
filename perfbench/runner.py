"""Run a plan of `likenet` CLI passes in a fresh interpreter and time them.

Usage: python3 perfbench/runner.py PLAN_JSON RESULT_JSON

The plan is written by run.py. The runner imports likenet from the
checkout's ``src/`` (timed as import time), then calls ``likenet.cli.main``
once per pass, timing each call, until the plan's time budget is spent.
Passes the plan marks as traced run with tracing.py's patches installed;
the others run the program untouched. The runner writes per-pass times, its
own and its largest child's peak resident memory, and the spans of the
traced passes.

Each measurement runs in its own process so that peak memory belongs to the
program alone and import time is paid afresh, as it is for a user.

The speed of a shared host drifts by up to a factor of two over tens of
seconds, so around every pass (and right after the import) the runner also
times calibrate(), a fixed loop that does not touch likenet. run.py divides
each duration by the calibration time next to it, which cancels most of the
drift (see README.md, "Machine-speed normalization").
"""

from __future__ import annotations

import importlib
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path


CAL_INTERVAL_S = 0.5


def calibrate(rounds: int = 900) -> float:
    """Seconds for a fixed mix of small NumPy calls, dicts, JSON and sorting.

    The mix resembles likenet's per-record work: batched n x n products on
    tiny arrays, Python containers and serialization. It never changes, so
    its time measures the machine, not the program.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    stack = rng.random((35, 10, 10))
    vec = rng.random((35, 10))
    start = time.perf_counter()
    for i in range(rounds):
        out = np.einsum("bij,bj->bi", stack, vec)
        vec = 0.5 * vec + 0.5 * out / out.sum(axis=1, keepdims=True)
        row = {"i": i, "v": [float(x) for x in vec[0]]}
        json.dumps(row)
        sorted(range(50), key=lambda k: -k)
    return time.perf_counter() - start


def calibrate_cpus() -> float:
    """calibrate() on each usable CPU in turn, combined as their mean speed.

    A pass with two workers slows by about half when one of two CPUs is
    contended, so one CPU's calibration alone over-corrects it.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return len(times) / sum(1.0 / t for t in times)


def _load_likenet(root: Path):
    src = root / "src"
    if not (src / "likenet" / "__init__.py").is_file():
        raise SystemExit(f"runner: no likenet package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    modules = {
        name: importlib.import_module(name)
        for name in ("likenet", "likenet.cli", "likenet.ensemble", "likenet.stability",
                     "likenet.analysis", "likenet.graphs", "likenet.centrality")
    }
    import_s = time.perf_counter() - start
    loaded = Path(modules["likenet"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"runner: likenet imported from {loaded}, not from {src}")
    return modules, import_s


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    root = Path(plan["root"])
    # quiet the CLI's progress logging; cli.main's basicConfig is then a no-op
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    modules, import_s = _load_likenet(root)
    cli = modules["likenet.cli"]
    calibrate()  # warm-up
    import_cal_s = calibrate_cpus()

    tracer = None
    if any(p["trace"] for p in plan["passes"]):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()

    passes = []
    spent = 0.0
    round_size = plan["round"]
    # calibrations at pass boundaries, at least CAL_INTERVAL_S of pass time apart
    calibrations = [(0, calibrate_cpus())]
    since_calibration = 0.0
    for index, planned in enumerate(plan["passes"]):
        # stop only between whole rounds, so every pass kind gets equal turns
        if index % round_size == 0 and index >= plan["min_passes"] and spent >= plan["budget_s"]:
            break
        if planned["trace"]:
            tracer.install(modules)
        start = time.perf_counter()
        try:
            if planned["trace"]:
                code = tracer.span("cli.main", cli.main, planned["argv"])
            else:
                code = cli.main(planned["argv"])
        finally:
            elapsed = time.perf_counter() - start
            if planned["trace"]:
                tracer.uninstall()
        spent += elapsed
        since_calibration += elapsed
        passes.append(dict(planned, seconds=elapsed, exit_code=code))
        if since_calibration >= CAL_INTERVAL_S:
            calibrations.append((len(passes), calibrate_cpus()))
            since_calibration = 0.0
    if calibrations[-1][0] < len(passes):
        calibrations.append((len(passes), calibrate_cpus()))
    # each pass gets the mean of the calibrations that bracket it
    for (first, before), (last, after) in zip(calibrations, calibrations[1:]):
        for p in passes[first:last]:
            p["cal_s"] = (before + after) / 2

    if tracer is not None:
        tracer.write(plan["spans_path"])

    kib = 1024.0  # ru_maxrss is in KiB on Linux
    result = {
        "import_s": import_s,
        "import_cal_s": import_cal_s,
        "passes": passes,
        "self_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
        "child_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
