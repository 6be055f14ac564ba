"""Remake perfbench/reference.json from the program in this checkout.

The reference holds stability and gradient_sq_sum for a fixed prefix of
each ensemble workload's configuration, and the analysis_summary.json
numbers of the analyze sweep over the desk prefix. Remake it only at a
commit whose outputs are known to be right, and say in that change why the
old reference no longer holds.

Usage (from the root of a checkout): python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import checks
import run

MASTER_SEED = 19  # the seed of the paper's desk run and of the acceptance suite
PREFIX = {"desk": 200, "wide": 20}
SUMMARY_KEYS = ("record_count", "strategic_count", "non_converged", "strategic_threshold",
                "spearman", "logistic_fit")


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    reference = {"master_seed": MASTER_SEED}
    for name, samples in PREFIX.items():
        cfg = run.WORKLOADS[name]
        out = run.WORK / f"ref-{name}"
        argv = run.ensemble_argv(cfg, samples, 1, MASTER_SEED, out)
        run.run_runner(f"ref-{name}", run.plain([argv]))
        checked = checks.check_ensemble_output(out, samples, cfg["n"])
        if checked["failed"]:
            print(f"error: {name} prefix fails its own checks: {checked['problems']}",
                  file=sys.stderr)
            return 1
        reference[name] = {
            "n": cfg["n"], "k": cfg["k"],
            "records": [[r["stability"], r["gradient_sq_sum"]] for r in checked["records"]],
        }
    records = run.WORK / "ref-desk" / "records.jsonl"
    passes = [run.analyze_argv(records, fraction, direction, run.WORK / f"ref-analyze-{i}")
              for i, (fraction, direction) in enumerate(run.SWEEP)]
    result = run.run_runner("ref-analyze", run.plain(passes))
    reference["analyze"] = {"input": "desk", "passes": []}
    for (fraction, direction), p in zip(run.SWEEP, result["passes"]):
        with open(run.WORK / p["argv"][-1] / "analysis_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        reference["analyze"]["passes"].append({
            "fraction": fraction, "direction": direction,
            "summary": {key: summary[key] for key in SUMMARY_KEYS},
        })
    text = json.dumps(reference, indent=1)
    # one [stability, gradient_sq_sum] pair per line keeps the file diffable
    text = re.sub(r"\[\n\s+(\S+),\n\s+(\S+)\n\s+\]", r"[\1, \2]", text)
    (run.BENCH / "reference.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {run.BENCH / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
