"""Self-test of the benchmark itself, at a tiny size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that
  1. every workload, untraced and traced, prints every metric BENCHMARK.json
     declares, each with its unit, plus failed_fraction, and is correct;
  2. traced self times are nonnegative and never exceed the span that
     contains them, and every child span lies inside its parent;
  3. deliberately corrupted records, analysis outputs and reference values
     raise failed_fraction, while a change of the size the solver's own error
     budget allows does not.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import checks
import run
import tracing

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def run_benchmark(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return lines, {"error": proc.stderr[-2000:]}
    return lines, json.loads(lines[-1])


def check_metrics_printed(declared: dict) -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            lines, result = run_benchmark(workload, trace)
            where = f"{workload} --trace {trace}"
            if "error" in result:
                expect(False, f"{where}: ran ({result['error']})")
                continue
            names = declared["per_layer" if trace else "end_to_end"]
            metrics = result["metrics"]
            expect(set(metrics) == set(names), f"{where}: prints exactly the declared metrics")
            expect(all(isinstance(metrics[n]["value"], (int, float))
                       and math.isfinite(metrics[n]["value"])
                       and metrics[n]["unit"] == names[n] for n in names if n in metrics),
                   f"{where}: every metric has a finite value and its declared unit")
            expect(any(line.startswith("failed_fraction") for line in lines),
                   f"{where}: prints failed_fraction")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{where}: outputs are correct")
            if trace:
                check_self_times(where)


def check_self_times(where: str) -> None:
    for block in ("ensemble", "analyze"):
        spans = tracing.read_spans(run.WORK / f"spans-{block}.json")
        self_ns = tracing.self_times_ns(spans)
        durations = [end - start for _, start, end, _, _ in spans]
        expect(bool(spans) and all(t >= 0 for t in self_ns),
               f"{where} {block}: self times are nonnegative")
        expect(all(t <= d for t, d in zip(self_ns, durations)),
               f"{where} {block}: self time never exceeds its own span")
        expect(all(spans[p][1] <= start and end <= spans[p][2]
                   for _, start, end, p, _ in spans if p >= 0),
               f"{where} {block}: child spans lie inside their parents")


def check_corruption() -> None:
    """Each corruption must be counted as a failure by the path run.py uses."""
    run.WORK.mkdir(exist_ok=True)
    source = run.WORK / "selftest-good"
    shutil.rmtree(source, ignore_errors=True)
    result = run.run_runner("selftest", run.plain(
        [run.ensemble_argv(run.WORKLOADS["desk"], 60, 1, 19, source)]))
    lines = (source / "records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]

    def corrupted(edit):
        recs = copy.deepcopy(records)
        edit(recs)
        return recs

    cases = {
        "stability != exp(-gss)": corrupted(lambda r: r[3].update(stability=0.5)),
        "non-finite value": corrupted(lambda r: r[4].update(gradient_sq_sum=math.nan)),
        "solver_converged false": corrupted(lambda r: r[5].update(solver_converged=False)),
        "missing field": corrupted(lambda r: r[6].pop("outgoing_rates")),
        "missing record": corrupted(lambda r: r.pop()),
        "out of order": corrupted(lambda r: r.insert(0, r.pop(7))),
    }
    baseline = run.Tally()
    run.check_ensemble_passes(result, {"n": 10}, baseline, "good")
    expect(baseline.failed == 0, "uncorrupted records pass")
    for name, recs in cases.items():
        out = run.WORK / "selftest-bad"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        (out / "records.jsonl").write_text(
            "\n".join(json.dumps(r) if isinstance(r, dict) else r for r in recs) + "\n")
        fake = {"passes": [dict(result["passes"][0], argv=result["passes"][0]["argv"][:-1]
                                + [str(out)])]}
        tally = run.Tally()
        run.check_ensemble_passes(fake, {"n": 10}, tally, "corrupted")
        expect(tally.failed > 0 and tally.failed / tally.attempted > 0,
               f"corrupted record ({name}) raises failed_fraction")

    # the reference gate: a record moved past its tolerance misses; one moved
    # within the solver's error budget does not
    reference = [[r["stability"], r["gradient_sq_sum"]] for r in records]
    expect(checks.compare_records(records, reference)["failed"] == 0,
           "records match their own reference")
    moved = copy.deepcopy(records)
    moved[2]["gradient_sq_sum"] *= 1.01
    moved[2]["stability"] = math.exp(-moved[2]["gradient_sq_sum"])
    expect(checks.compare_records(moved, reference)["failed"] == 1,
           "a 1% change in gradient_sq_sum misses the reference")
    # ROADMAP item 2: the gradient of a rate of 1.4e-5 (about -0.020) moved by
    # 9.6e-5 with the solver's start vector alone; that must stay inside
    tiny = copy.deepcopy(records[0])
    tiny["outgoing_rates"][0][2] = 1.4e-5
    _, tol_gss = checks.record_tolerances(tiny, tiny["gradient_sq_sum"])
    gss_shift = abs((-0.020 + 9.6e-5) ** 2 - 0.020 ** 2)
    expect(tol_gss >= gss_shift, "start-vector drift of a tiny rate's gradient is tolerated")

    # analysis outputs: a wrong threshold is caught
    stabilities = [r["stability"] for r in records]
    out = run.WORK / "selftest-analysis"
    shutil.rmtree(out, ignore_errors=True)
    run.run_runner("selftest-analysis", run.plain(
        [run.analyze_argv(source / "records.jsonl", 0.05, "high", out)]))
    expect(not checks.check_analysis_output(out, stabilities, 0.05, "high"),
           "a sound analyze pass passes")
    summary_path = out / "analysis_summary.json"
    summary = json.loads(summary_path.read_text())
    summary["strategic_threshold"] = min(stabilities)
    summary_path.write_text(json.dumps(summary))
    tally = run.Tally()
    run.check_analyze_passes({"passes": [{"argv": run.analyze_argv(
        source / "records.jsonl", 0.05, "high", out), "seconds": 1.0,
        "cal_s": run.CAL_REFERENCE_S, "exit_code": 0}]},
        stabilities, tally, "corrupted")
    expect(tally.failed == 1, "a corrupted analysis summary raises failed_fraction")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    expect(declared["per_layer"] == run.PER_LAYER_UNITS,
           "BENCHMARK.json's per-layer metrics are the ones run.py reports")
    check_metrics_printed(declared)
    check_corruption()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
