"""likenet's benchmark: three workloads through the `likenet` CLI, checked and timed.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {desk,wide,analyze} --seed N \\
        --seconds S --trace {0,1}

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are the per-layer metrics, taken from spans recorded around likenet's
layer boundaries (see tracing.py). perfbench/README.md says why each
workload exists and which layer metric should move which end-to-end metric.

The program is imported from the checkout's src/ in fresh interpreters
(runner.py); this process orchestrates, checks outputs and reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# The paper's configuration is n=10, k=2, lambda=1 (the CLI defaults).
# pass_samples sizes one timed `likenet ensemble` call; analyze's records are
# written once in set-up and swept by many timed `likenet analyze` calls.
WORKLOADS = {
    "desk": {"kind": "ensemble", "n": 10, "k": 2, "workers": 2, "pass_samples": 500,
             "trace_pass_samples": 300},
    "wide": {"kind": "ensemble", "n": 40, "k": 3, "workers": 1, "pass_samples": 10,
             "trace_pass_samples": 60},
    "analyze": {"kind": "analyze", "n": 10, "k": 2, "workers": 2, "records": 2000,
                "trace_pass_samples": 200},
}
# --tiny: the same code paths at sizes a self-test can afford; the traced
# analyze block still needs the 50 records the logistic fit requires
TINY = {"desk": {"pass_samples": 40, "trace_pass_samples": 60},
        "wide": {"pass_samples": 3, "trace_pass_samples": 50},
        "analyze": {"records": 300, "trace_pass_samples": 40}}
SWEEP = [(fraction, direction) for fraction in (0.001, 0.01, 0.05, 0.1)
         for direction in ("high", "low")]
IMPORT_SAMPLES = 3  # fresh-interpreter imports timed per run for setup_s
# runner.calibrate_cpus()'s duration on this benchmark's reference machine
# (2-vCPU VM, Python 3.11.7, NumPy 2.4.6) at its typical speed. Every
# reported time t is scaled to it: t * (CAL_REFERENCE_S / c) ** CAL_ELASTICITY,
# c being the calibration measured next to t. Pass times follow the
# calibration only partly, so the full correction (exponent 1) over-corrects
# in calm periods; README.md gives the measurements behind 0.5. Both are
# fixed for good; changing them rescales every result.
CAL_REFERENCE_S = 0.040
CAL_ELASTICITY = 0.5
MIN_PASSES = 3
RUNNER_GRACE_S = 120.0

END_TO_END = {"records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def pass_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"likenet-bench:{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_runner(label: str, passes: list, budget_s: float = 0.0, min_passes: int | None = None,
               round_size: int = 1) -> dict:
    """Run passes in a fresh interpreter until the budget is spent; return its result.

    Each pass is {"argv": [...], "trace": bool}. Passes run in whole rounds of
    round_size, at least min_passes of them (all of them by default).
    """
    plan_path = WORK / f"plan-{label}.json"
    result_path = WORK / f"result-{label}.json"
    spans_path = WORK / f"spans-{label}.json"
    plan = {"root": str(ROOT), "passes": passes, "budget_s": budget_s,
            "min_passes": len(passes) if min_passes is None else min_passes,
            "round": round_size, "spans_path": str(spans_path)}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(BENCH / "runner.py"), str(plan_path),
                             str(result_path)], cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=budget_s + RUNNER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"runner {label} timed out")
    finally:
        # pool workers share the runner's session; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"runner {label} exited {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["spans_path"] = spans_path
    return result


# -- pass construction --------------------------------------------------------


def ensemble_argv(cfg: dict, samples: int, workers: int, seed: int, out: Path) -> list:
    return ["ensemble", "--samples", str(samples), "--n", str(cfg["n"]), "--k", str(cfg["k"]),
            "--lambda", "1.0", "--workers", str(workers), "--seed", str(seed), "--out", str(out)]


def analyze_argv(records: Path, fraction: float, direction: str, out: Path) -> list:
    return ["analyze", "--records", str(records), "--strategic-fraction", repr(fraction),
            "--strategic-direction", direction, "--lambda", "1.0", "--out", str(out)]


def normalized(seconds: float, cal_s: float) -> float:
    """A duration scaled to the reference machine speed."""
    return seconds * (CAL_REFERENCE_S / cal_s) ** CAL_ELASTICITY


def plain(argvs: list) -> list:
    return [{"argv": argv, "trace": False} for argv in argvs]


def ensemble_passes(name: str, cfg: dict, seed: int, label: str, budget_s: float,
                    kinds=((None, False),)) -> list:
    """Rounds of ensemble passes, one per (workers, traced) kind, each with its own seed.

    Workers None means the workload's own worker count. The list is long
    enough that the budget, not the list, ends the run.
    """
    count = MIN_PASSES + int(budget_s * 4) + 4
    passes = []
    for i in range(count):
        for workers, traced in kinds:
            index = len(passes)
            argv = ensemble_argv(cfg, cfg["pass_samples"], workers or cfg["workers"],
                                 pass_seed(name, seed, index), WORK / label / f"pass{index}")
            passes.append({"argv": argv, "trace": traced})
    return passes


def analyze_passes(records: Path, label: str, budget_s: float, kinds=(False,)) -> list:
    """The strategic-fraction sweep, repeated; each sweep point once per kind in turn."""
    passes = []
    for i in range(int(budget_s * 40) + 1):
        fraction, direction = SWEEP[i % len(SWEEP)]
        for traced in kinds:
            out = WORK / label / f"pass{len(passes)}"
            passes.append({"argv": analyze_argv(records, fraction, direction, out),
                           "trace": traced})
    return passes


# -- checking ------------------------------------------------------------------


class Tally:
    """Attempted and failed units (records or analyze passes) with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems, where: str):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{where}: {p}" for p in problems[:5])


def check_ensemble_passes(result: dict, cfg: dict, tally: Tally, where: str) -> list:
    """Check each pass; return per-pass dicts with good-record rates."""
    out = []
    for p in result["passes"]:
        samples = int(p["argv"][p["argv"].index("--samples") + 1])
        checked = checks.check_ensemble_output(p["argv"][-1], samples, cfg["n"])
        if p["exit_code"] != 0:
            checked["failed"] = samples
            checked["problems"].insert(0, f"exit code {p['exit_code']}")
        tally.add(checked["attempted"], checked["failed"], checked["problems"], where)
        good = checked["attempted"] - checked["failed"]
        seconds = normalized(p["seconds"], p["cal_s"])
        out.append({"rate": good / seconds, "seconds": seconds, "wall_rate": good / p["seconds"],
                    "records": good, "sha256": checked["sha256"], "bytes": checked["bytes"]})
    return out


def check_analyze_passes(result: dict, stabilities: list, tally: Tally, where: str) -> list:
    out = []
    for p in result["passes"]:
        argv = p["argv"]
        fraction = float(argv[argv.index("--strategic-fraction") + 1])
        direction = argv[argv.index("--strategic-direction") + 1]
        problems = checks.check_analysis_output(argv[-1], stabilities, fraction, direction)
        if p["exit_code"] != 0:
            problems.insert(0, f"exit code {p['exit_code']}")
        tally.add(1, 1 if problems else 0, problems, where)
        analysed = 0 if problems else len(stabilities)
        seconds = normalized(p["seconds"], p["cal_s"])
        out.append({"rate": analysed / seconds, "seconds": seconds,
                    "wall_rate": analysed / p["seconds"]})
    return out


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def reference_check(kind_key: str, tally: Tally, with_analysis: bool) -> dict:
    """Run the fixed reference inputs and compare them with reference.json."""
    ref = load_reference()
    part = ref[kind_key]
    cfg = {"n": part["n"], "k": part["k"]}
    records_dir = WORK / f"ref-{kind_key}"
    passes = [ensemble_argv(cfg, len(part["records"]), 1, ref["master_seed"], records_dir)]
    if with_analysis:
        passes += [analyze_argv(records_dir / "records.jsonl", p["fraction"], p["direction"],
                                WORK / f"ref-analyze-{i}")
                   for i, p in enumerate(ref["analyze"]["passes"])]
    result = run_runner(f"ref-{kind_key}", plain(passes))
    checked = checks.check_ensemble_output(records_dir, len(part["records"]), cfg["n"])
    records = checked["records"] if result["passes"][0]["exit_code"] == 0 else []
    # a malformed record is missing from the comparison too, so it counts once
    compared = checks.compare_records(records, part["records"])
    ens_problems = checked["problems"] + compared["problems"]
    out = {"max_abs_diff": compared["max_abs_diff"],
           "gss_max_rel_diff": compared["gss_max_rel_diff"],
           "records_sha256": checked["sha256"], "import_s": import_seconds(result)}
    if not with_analysis:
        tally.add(compared["attempted"], compared["failed"], ens_problems,
                  f"reference {kind_key}")
        return out
    # on the analyze workload the unit is the pass; the ensemble only feeds them
    stab_tol = np.array(compared["stability_tolerances"])
    stabilities = [r["stability"] for r in records]
    for p, ref_pass in zip(result["passes"][1:], ref["analyze"]["passes"]):
        where = f"reference analyze {ref_pass['fraction']}/{ref_pass['direction']}"
        if compared["failed"]:
            tally.add(1, 1, ["input records miss their reference"] + ens_problems[:1], where)
            continue
        out_dir = Path(p["argv"][-1])
        problems = checks.check_analysis_output(out_dir, stabilities, ref_pass["fraction"],
                                                ref_pass["direction"])
        if p["exit_code"] != 0:
            problems.insert(0, f"exit code {p['exit_code']}")
        if not problems:
            summary = json.loads((out_dir / "analysis_summary.json").read_text())
            tol = checks.analysis_tolerances(records, stab_tol,
                                             ref_pass["summary"]["logistic_fit"])
            problems = checks.compare_analysis(summary, ref_pass["summary"], tol)
        tally.add(1, 1 if problems else 0, problems, where)
    return out


# -- traced metrics ------------------------------------------------------------


def scaled_spans(spans: list, passes: list) -> list:
    """Spans with each traced pass's times scaled to the reference machine speed.

    Every traced pass has one root span (cli.main), in pass order; a linear
    rescale about its start keeps children inside their parents.
    """
    factors = iter([normalized(1.0, p["cal_s"]) for p in passes if p["trace"]])
    out = []
    origin = factor = 0
    for name, start, end, parent, attrs in spans:
        if parent < 0:
            origin, factor = start, next(factors)
        out.append([name, origin + (start - origin) * factor, origin + (end - origin) * factor,
                    parent, attrs])
    return out


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def ensemble_layer_metrics(spans: list) -> dict:
    self_ns = tracing.self_times_ns(spans)
    total = {}
    own = {}
    calls = {}
    for span, self_time in zip(spans, self_ns):
        name = span[0]
        total[name] = total.get(name, 0) + span[2] - span[1]
        own[name] = own.get(name, 0) + self_time
        calls[name] = calls.get(name, 0) + 1
    solves = [s[4] for s in spans if s[0] == "centrality.solve_rate_batch"]
    record_ms = [(s[2] - s[1]) / 1e6 for s in spans if s[0] == "ensemble.compute_record"]
    written = sum(s[4]["records"] for s in spans if s[0] == "ensemble.write_records")
    records = max(1, len(record_ms))

    def per_record(name, table=total):
        return table.get(name, 0) / 1e6 / records

    return {
        "graphs.generate_ba.ms_per_record": per_record("graphs.generate_ba"),
        "graphs.compute_metrics.ms_per_record": per_record("graphs.compute_metrics"),
        "centrality.solve_rate_batch.ms_per_call":
            total.get("centrality.solve_rate_batch", 0) / 1e6
            / max(1, calls.get("centrality.solve_rate_batch", 0)),
        "centrality.solve_rate_batch.ms_per_record": per_record("centrality.solve_rate_batch"),
        "centrality.row_iterations_per_record":
            sum(s["row_iterations"] for s in solves) / records,
        "centrality.batch_iterations_p50": _pct([s["batch_iterations"] for s in solves], 50),
        "centrality.batch_iterations_p99": _pct([s["batch_iterations"] for s in solves], 99),
        "centrality.useful_row_ratio":
            sum(s["needed"] for s in solves) / max(1, sum(s["computed"] for s in solves)),
        "centrality.nonconverged_rows": sum(s["nonconverged"] for s in solves),
        "stability.total_ms_per_record": per_record("stability.stability"),
        "stability.self_ms_per_record": per_record("stability.stability", own),
        "stability.solves_per_record": sum(s["rows"] for s in solves) / records,
        "ensemble.record_seeds.ms_per_record": per_record("ensemble.record_seeds"),
        "ensemble.sample_rates.ms_per_record": per_record("ensemble.sample_rates"),
        "ensemble.compute_record.ms_p50": _pct(record_ms, 50),
        "ensemble.compute_record.ms_p99": _pct(record_ms, 99),
        "ensemble.compute_record.samples": len(record_ms),
        "ensemble.write_records.ms_per_record":
            total.get("ensemble.write_records", 0) / 1e6 / max(1, written),
    }


def analyze_layer_metrics(spans: list) -> dict:
    self_ns = tracing.self_times_ns(spans)
    passes = max(1, sum(1 for s in spans if s[0] == "cli.main"))
    total = {}
    for span in spans:
        total[span[0]] = total.get(span[0], 0) + span[2] - span[1]
    read = sum(s[4]["records"] for s in spans if s[0] == "ensemble.read_records")
    fits = [s[4]["iterations"] for s in spans if s[0] == "analysis.logistic_fit"]

    def per_pass(name):
        return total.get(name, 0) / 1e6 / passes

    return {
        "ensemble.read_records.ms_per_record":
            total.get("ensemble.read_records", 0) / 1e6 / max(1, read),
        "analysis.classify_strategic.ms": per_pass("stability.classify_strategic"),
        "analysis.rate_representation.ms": per_pass("analysis.rate_representation"),
        "analysis.degree_representation.ms": per_pass("analysis.degree_representation"),
        "analysis.stability_vs_metric.ms": per_pass("analysis.stability_vs_metric"),
        "analysis.logistic_fit.ms": per_pass("analysis.logistic_fit"),
        "analysis.logistic_fit.iterations": statistics.mean(fits) if fits else 0.0,
        "cli.self_ms_per_pass": sum(t for s, t in zip(spans, self_ns) if s[0] == "cli.main")
            / 1e6 / passes,
    }


def layer_self_table(spans: list) -> dict:
    """Self time per layer, in seconds, over every span of one traced runner."""
    out = {layer: 0.0 for layer in tracing.LAYERS}
    for span, self_time in zip(spans, tracing.self_times_ns(spans)):
        out[span[0].split(".", 1)[0]] += self_time / 1e9
    return out


# -- provenance -------------------------------------------------------------------


def provenance(args, workers: int, hashes: list) -> dict:
    src = ROOT / "src" / "likenet"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": workers,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "git_commit": commit,
        "source_sha256": digest.hexdigest(), "records_sha256": hashes,
    }


# -- workloads --------------------------------------------------------------------


def import_seconds(result: dict) -> float:
    return normalized(result["import_s"], result["import_cal_s"])


def timed_imports() -> list:
    return [import_seconds(run_runner(f"import{i}", [])) for i in range(IMPORT_SAMPLES)]


def setup_analyze_input(name: str, cfg: dict, seed: int) -> tuple:
    """Write the analyze workload's records with `likenet ensemble`; time it."""
    out = WORK / "input"
    result = run_runner("input", plain([ensemble_argv(cfg, cfg["records"], cfg["workers"],
                                                      pass_seed(name, seed, 0), out)]))
    tally = Tally()
    checked = check_ensemble_passes(result, cfg, tally, "set-up ensemble")
    if tally.failed:
        # the sweep's unit is the pass; without sound input there is nothing to time
        raise BenchError(f"the set-up ensemble wrote bad records: {tally.problems[:3]}")
    stabilities = [json.loads(line)["stability"]
                   for line in (out / "records.jsonl").read_text().splitlines() if line]
    return out / "records.jsonl", stabilities, result, checked[0]["sha256"]


def run_untraced(name: str, cfg: dict, args) -> tuple[dict, Tally, dict]:
    tally = Tally()
    setup_start = time.perf_counter()
    imports = timed_imports()
    if cfg["kind"] == "ensemble":
        generation_s = 0.0
        passes = ensemble_passes(name, cfg, args.seed, "timed", args.seconds)
        timed = run_runner("timed", passes, args.seconds, MIN_PASSES)
        per_pass = check_ensemble_passes(timed, cfg, tally, "timed ensemble")
        hashes = [p["sha256"] for p in per_pass]
        ref = reference_check(name, tally, with_analysis=False)
    else:
        records, stabilities, gen, gen_checked = setup_analyze_input(name, cfg, args.seed)
        generation_s = normalized(gen["passes"][0]["seconds"], gen["passes"][0]["cal_s"])
        hashes = [gen_checked]
        timed = run_runner("timed", analyze_passes(records, "timed", args.seconds),
                           args.seconds, len(SWEEP), len(SWEEP))
        per_pass = check_analyze_passes(timed, stabilities, tally, "timed analyze")
        ref = reference_check("desk", tally, with_analysis=True)
    imports += [import_seconds(timed), ref["import_s"]]
    metrics = {
        "records_per_s": statistics.median(p["rate"] for p in per_pass),
        "setup_s": statistics.median(imports) + generation_s,
        "peak_rss_mb": timed["self_peak_rss_mb"] + timed["child_peak_rss_mb"],
    }
    detail = {"records_per_s_wall": statistics.median(p["wall_rate"] for p in per_pass),
              "calibration_s": [p["cal_s"] for p in timed["passes"]],
              "passes": len(per_pass), "pass_seconds": [p["seconds"] for p in per_pass],
              "import_s": imports, "generation_s": generation_s,
              "reference_records_sha256": ref["records_sha256"],
              "harness_s": time.perf_counter() - setup_start, "records_sha256": hashes}
    return metrics, tally, detail


def _median_rate(passes: list) -> float:
    return statistics.median(p["rate"] for p in passes)


def _paired_overhead_pct(plain_passes: list, traced_passes: list) -> float:
    """Median over adjacent (untraced, traced) pairs of the traced extra time."""
    ratios = [t["seconds"] / u["seconds"] for u, t in zip(plain_passes, traced_passes)]
    return 100.0 * (statistics.median(ratios) - 1.0)


def run_traced(name: str, cfg: dict, args) -> tuple[dict, Tally, dict]:
    """Per-layer metrics from spans, with the untraced passes they are compared to.

    Every workload runs both blocks, so every per-layer metric has a value:
    an ensemble block (rounds of untraced 1-worker, traced 1-worker and
    untraced 2-worker passes; tracing needs one process) and an analyze block
    (untraced and traced passes in turn over the same sweep point).
    """
    tally = Tally()
    if cfg["kind"] == "ensemble":
        ens_cfg = dict(cfg, pass_samples=cfg["trace_pass_samples"])
        ens_share, ana_share = 0.75 * args.seconds, 0.25 * args.seconds
    else:
        ens_cfg = dict(WORKLOADS["desk"], pass_samples=cfg["trace_pass_samples"])
        ens_share, ana_share = args.seconds / 3, 2 * args.seconds / 3

    kinds = ((1, False), (1, True), (2, False))
    ens = run_runner("ensemble", ensemble_passes(name, ens_cfg, args.seed, "ensemble",
                                                 ens_share, kinds),
                     ens_share, len(kinds), len(kinds))
    checked = check_ensemble_passes(ens, ens_cfg, tally, "ensemble block")
    by_kind = {kind: checked[i::len(kinds)] for i, kind in enumerate(kinds)}
    ens_spans = scaled_spans(tracing.read_spans(ens["spans_path"]), ens["passes"])
    metrics = ensemble_layer_metrics(ens_spans)
    traced = by_kind[(1, True)]
    written = sum(p["records"] for p in traced)
    metrics["ensemble.bytes_per_record"] = sum(p["bytes"] for p in traced) / max(1, written)
    metrics["ensemble.worker_efficiency"] = _median_rate(by_kind[(2, False)]) / (
        2 * _median_rate(by_kind[(1, False)]))

    # the analyze block reads the analyze workload's input, or the traced records
    if cfg["kind"] == "analyze":
        records, stabilities, _, _ = setup_analyze_input(name, cfg, args.seed)
    else:
        first_traced = ens["passes"][1]["argv"][-1]
        records = Path(first_traced) / "records.jsonl"
        stabilities = [json.loads(line)["stability"]
                       for line in records.read_text().splitlines() if line]
    ana = run_runner("analyze", analyze_passes(records, "analyze", ana_share, (False, True)),
                     ana_share, 2 * len(SWEEP), 2)
    ana_checked = check_analyze_passes(ana, stabilities, tally, "analyze block")
    ana_spans = scaled_spans(tracing.read_spans(ana["spans_path"]), ana["passes"])
    metrics.update(analyze_layer_metrics(ana_spans))

    ref = reference_check("wide" if name == "wide" else "desk", tally,
                          with_analysis=(name == "analyze"))
    metrics["stability.max_abs_diff"] = ref["max_abs_diff"]
    metrics["stability.gss_max_rel_diff"] = ref["gss_max_rel_diff"]

    if cfg["kind"] == "ensemble":
        overhead = _paired_overhead_pct(by_kind[(1, False)], traced)
    else:
        overhead = _paired_overhead_pct(ana_checked[0::2], ana_checked[1::2])
    metrics["trace.overhead_pct"] = overhead

    detail = {
        "layer_self_s": {"ensemble_block": layer_self_table(ens_spans),
                         "analyze_block": layer_self_table(ana_spans)},
        "ensemble_block_traced_records": written,
        "analyze_block_passes": len(ana_checked),
        "records_sha256": [p["sha256"] for p in traced],
        "reference_records_sha256": ref["records_sha256"],
    }
    return metrics, tally, detail


PER_LAYER_UNITS = {
    "graphs.generate_ba.ms_per_record": "ms",
    "graphs.compute_metrics.ms_per_record": "ms",
    "centrality.solve_rate_batch.ms_per_call": "ms",
    "centrality.solve_rate_batch.ms_per_record": "ms",
    "centrality.row_iterations_per_record": "count",
    "centrality.batch_iterations_p50": "count",
    "centrality.batch_iterations_p99": "count",
    "centrality.useful_row_ratio": "ratio",
    "centrality.nonconverged_rows": "count",
    "stability.total_ms_per_record": "ms",
    "stability.self_ms_per_record": "ms",
    "stability.solves_per_record": "count",
    "stability.max_abs_diff": "1",
    "stability.gss_max_rel_diff": "ratio",
    "ensemble.record_seeds.ms_per_record": "ms",
    "ensemble.sample_rates.ms_per_record": "ms",
    "ensemble.compute_record.ms_p50": "ms",
    "ensemble.compute_record.ms_p99": "ms",
    "ensemble.compute_record.samples": "count",
    "ensemble.write_records.ms_per_record": "ms",
    "ensemble.bytes_per_record": "B",
    "ensemble.read_records.ms_per_record": "ms",
    "ensemble.worker_efficiency": "ratio",
    "analysis.classify_strategic.ms": "ms",
    "analysis.rate_representation.ms": "ms",
    "analysis.degree_representation.ms": "ms",
    "analysis.stability_vs_metric.ms": "ms",
    "analysis.logistic_fit.ms": "ms",
    "analysis.logistic_fit.iterations": "count",
    "cli.self_ms_per_pass": "ms",
    "trace.overhead_pct": "%",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every pass (for perfbench/selftest.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "likenet" / "__init__.py").is_file():
        print(f"error: no likenet sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not (BENCH / "reference.json").is_file():
        print("error: perfbench/reference.json is missing", file=sys.stderr)
        return 2
    cfg = dict(WORKLOADS[args.workload])
    if args.tiny:
        cfg.update(TINY[args.workload])

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.trace:
            metrics, tally, detail = run_traced(args.workload, cfg, args)
            units = PER_LAYER_UNITS
        else:
            metrics, tally, detail = run_untraced(args.workload, cfg, args)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed_fraction = tally.failed / max(1, tally.attempted)
    for name, unit in units.items():
        print(f"{name:46s} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        units_checked = "records and analyze passes"
    else:
        print(f"{'records_per_s_wall':46s} {detail['records_per_s_wall']:>14.6g} 1/s"
              "   (not scaled to the reference machine speed)")
        units_checked = "analyze passes" if cfg["kind"] == "analyze" else "records"
    print(f"{'failed_fraction':46s} {failed_fraction:>14.6g} 1"
          f"   ({tally.failed} of {tally.attempted} {units_checked})")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    prov = provenance(args, cfg["workers"], detail.pop("records_sha256"))
    report = {"provenance": prov, "detail": detail, "failed_fraction": failed_fraction,
              "problems": tally.problems, "metrics": metrics}
    (WORK / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("provenance " + json.dumps(prov, separators=(",", ":")))
    if args.trace:
        print("layer self time (s) " + json.dumps(detail["layer_self_s"]))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
