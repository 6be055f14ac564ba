"""Output checks: record invariants, analysis consistency, and the reference gate.

Records and summaries are read here with the json module, not with
likenet's own reader, so a reader bug cannot hide a writer bug.

Reference tolerances come from the program's own error budget, never from
zero. The solver stops at a fixed-point residual of SOLVER_TOLERANCE, which
bounds the error of each normalized centrality by about EPSILON. A forward
difference with step h divides two such errors by h, so two correct runs
may differ in that gradient by up to 4*EPSILON/h (each run's error is up to
2*EPSILON/h). Small rates get small steps and therefore wide tolerances,
which is the start-vector sensitivity ROADMAP item 2 measured (about 1e-4 in
the gradient of a rate of 1.4e-5). A warm-started or accelerated solve that
honours the same residual tolerance stays inside this budget.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Mirrors of likenet.stability's forward-difference rule and the default
# solver tolerance at the commit that made reference.json. They define the
# quantity the reference holds; a change to them changes the paper's
# definition and must remake the reference deliberately.
RELATIVE_STEP = 0.01
ZERO_RATE_FLOOR = 1e-8
ABSOLUTE_STEP = 1e-4
SOLVER_TOLERANCE = 1e-10
EPSILON = SOLVER_TOLERANCE
# relative room for rounding when a float is recomputed or summed in another order
ROUNDING = 1e-12
# the damped least-squares fit stops when one accepted step lowers the cost
# by less than this share (likenet.analysis._lm_logistic's cost_rtol)
FIT_COST_RTOL = 1e-10

RECORD_FIELDS = (
    "record_index", "graph_seed", "rate_seed", "stability", "gradient_sq_sum",
    "degree_histogram", "degree_stddev", "mean_path_length",
    "mean_local_clustering", "outgoing_rates", "solver_converged",
)
METRICS = ("mean_path_length", "mean_local_clustering", "degree_stddev")
FIT_COEFFICIENTS = ("intercept", "coef_preferential", "coef_path_length", "coef_clustering")
SERIES_FILES = ("rate_representation.csv", "degree_representation.csv") + tuple(
    f"stability_vs_{m}.csv" for m in METRICS
)


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def record_problem(rec, index: int, n: int) -> str | None:
    """Why one parsed record is unusable, or None when it is sound."""
    if not isinstance(rec, dict) or any(f not in rec for f in RECORD_FIELDS):
        return "missing fields"
    if rec["record_index"] != index:
        return f"record_index {rec['record_index']} at position {index}"
    floats = [rec[f] for f in ("stability", "gradient_sq_sum", "degree_stddev",
                               "mean_path_length", "mean_local_clustering")]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in floats):
        return "non-finite value"
    stab, gss = rec["stability"], rec["gradient_sq_sum"]
    if gss < 0 or not 0 < stab <= 1:
        return "stability or gradient_sq_sum out of range"
    if abs(stab - math.exp(-gss)) > ROUNDING * stab:
        return "stability != exp(-gradient_sq_sum)"
    if rec["solver_converged"] is not True:
        return "solver_converged is not true"
    hist = rec["degree_histogram"]
    if len(hist) != n or sum(hist) != n:
        return "degree_histogram does not cover n nodes"
    rates = rec["outgoing_rates"]
    if len(rates) != sum(d * c for d, c in enumerate(hist)):
        return "outgoing_rates do not cover every directed edge"
    for entry in rates:
        i, j, rate = entry
        if not (0 <= i < n and 0 <= j < n and i != j and math.isfinite(rate) and rate >= 0):
            return "malformed outgoing rate"
    return None


def read_record_lines(path):
    """Parsed records, or None for a line that is not JSON."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                out.append(None)
    return out


def check_ensemble_output(out_dir, samples: int, n: int) -> dict:
    """Check one `likenet ensemble` pass. Missing records count as failed."""
    path = Path(out_dir) / "records.jsonl"
    if not path.is_file():
        return {"attempted": samples, "failed": samples, "problems": ["no records.jsonl"],
                "records": [], "sha256": None, "bytes": 0}
    parsed = read_record_lines(path)
    problems = []
    good = []
    for index, rec in enumerate(parsed[:samples]):
        problem = record_problem(rec, index, n)
        if problem:
            problems.append(f"record {index}: {problem}")
        else:
            good.append(rec)
    missing = max(0, samples - len(parsed))
    if missing:
        problems.append(f"{missing} records missing")
    if len(parsed) > samples:
        problems.append(f"{len(parsed) - samples} records beyond the requested {samples}")
    return {
        "attempted": samples,
        "failed": samples - len(good),
        "problems": problems,
        "records": good,
        "sha256": sha256_of(path),
        # everything the pass wrote per record: the JSONL and any sidecar
        "bytes": sum(f.stat().st_size for f in Path(out_dir).glob("records.*")),
    }


def _strategic_count(total: int, fraction: float) -> int:
    return max(1, min(total - 1, int(round(fraction * total))))


def expected_threshold(stabilities, fraction: float, direction: str) -> float:
    ordered = sorted(stabilities, reverse=(direction == "high"))
    return ordered[_strategic_count(len(ordered), fraction) - 1]


def check_analysis_output(out_dir, stabilities, fraction: float, direction: str) -> list[str]:
    """Problems with one `likenet analyze` pass over records with these stabilities."""
    out = Path(out_dir)
    try:
        with open(out / "analysis_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"analysis_summary.json unreadable: {exc}"]
    problems = []
    total = len(stabilities)
    if summary.get("record_count") != total:
        problems.append(f"record_count {summary.get('record_count')} != {total}")
    if summary.get("strategic_count") != _strategic_count(total, fraction):
        problems.append("strategic_count does not match the fraction")
    if summary.get("strategic_threshold") != expected_threshold(stabilities, fraction, direction):
        problems.append("strategic_threshold is not the extreme strategic stability")
    spearman = summary.get("spearman", {})
    if sorted(spearman) != sorted(METRICS) or not all(
        isinstance(v, float) and -1.0 <= v <= 1.0 for v in spearman.values()
    ):
        problems.append("spearman correlations missing or out of range")
    fit = summary.get("logistic_fit", {})
    if not all(isinstance(fit.get(c), float) and math.isfinite(fit[c])
               for c in FIT_COEFFICIENTS + ("residual_norm",)):
        problems.append("logistic fit missing or non-finite")
    for name in SERIES_FILES:
        try:
            with open(out / name, encoding="utf-8") as fh:
                header = fh.readline().strip()
        except OSError:
            header = None
        if header != "bin_low,bin_high,value,count":
            problems.append(f"{name} missing or without its header")
    return problems


# -- the reference gate ------------------------------------------------------


def _forward_step(rate: float) -> float:
    return ABSOLUTE_STEP if rate < ZERO_RATE_FLOOR else RELATIVE_STEP * rate


def record_tolerances(rec, ref_gss: float) -> tuple[float, float]:
    """(stability, gradient_sq_sum) tolerances for one record against its reference."""
    bound = math.sqrt(ref_gss)  # no single gradient exceeds sqrt of the squared sum
    tol_gss = 0.0
    for _, _, rate in rec["outgoing_rates"]:
        drift = 4.0 * EPSILON / _forward_step(rate)
        tol_gss += 2.0 * bound * drift + drift * drift
    tol_gss += ROUNDING * ref_gss
    tol_stab = math.exp(-ref_gss) * math.expm1(tol_gss) + ROUNDING
    return tol_stab, tol_gss


def compare_records(records, reference: list) -> dict:
    """Compare a reference prefix; a record outside its tolerance is a miss."""
    misses = []
    max_abs = 0.0
    max_rel = 0.0
    tolerances = []
    by_index = {rec["record_index"]: rec for rec in records}
    for index, (ref_stab, ref_gss) in enumerate(reference):
        rec = by_index.get(index)
        if rec is None:
            misses.append(f"reference record {index} missing")
            continue
        tol_stab, tol_gss = record_tolerances(rec, ref_gss)
        tolerances.append(tol_stab)
        d_stab = abs(rec["stability"] - ref_stab)
        d_gss = abs(rec["gradient_sq_sum"] - ref_gss)
        max_abs = max(max_abs, d_stab)
        max_rel = max(max_rel, d_gss / ref_gss if ref_gss > 0 else d_gss)
        if d_stab > tol_stab or d_gss > tol_gss:
            misses.append(f"reference record {index}: stability off by {d_stab:.3g} "
                          f"(tol {tol_stab:.3g}), gss off by {d_gss:.3g} (tol {tol_gss:.3g})")
    return {"attempted": len(reference), "failed": len(misses), "problems": misses,
            "max_abs_diff": max_abs, "gss_max_rel_diff": max_rel,
            "stability_tolerances": tolerances}


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks, as Spearman's correlation uses them."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(1, len(values) + 1)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    return (sums / counts)[inverse]


def analysis_tolerances(records, stab_tol: np.ndarray, ref_fit: dict) -> dict:
    """Tolerances for the analysis_summary.json numbers of a reference pass.

    Each stability may move by its own tolerance. A Spearman correlation
    changes only when stabilities closer than their joint tolerance swap
    ranks; each adjacent swap moves it by at most (N-1)/sqrt(Sxx*Syy). The logistic
    fit moves with its inputs through the linearized least-squares map
    (J^T J)^-1 J^T, and by the share of the cost its stopping rule leaves.
    """
    stab = np.array([r["stability"] for r in records])
    total = len(stab)
    order = np.argsort(stab)
    close = np.diff(stab[order]) <= stab_tol[order][1:] + stab_tol[order][:-1]
    # k stabilities chained by close gaps can be reordered by up to k(k-1)/2 swaps
    swaps = 0
    chain = 1
    for is_close in list(close) + [False]:
        if is_close:
            chain += 1
        else:
            swaps += chain * (chain - 1) // 2
            chain = 1
    ry = _ranks(stab)
    syy = float(((ry - ry.mean()) ** 2).sum())
    spearman = {}
    for metric in METRICS:
        rx = _ranks(np.array([r[metric] for r in records]))
        sxx = float(((rx - rx.mean()) ** 2).sum())
        spearman[metric] = swaps * (total - 1) / math.sqrt(sxx * syy) + ROUNDING

    design = np.column_stack([np.ones(total)] + [
        [r[m] for r in records]
        for m in ("degree_stddev", "mean_path_length", "mean_local_clustering")])
    beta = np.array([ref_fit[k] for k in FIT_COEFFICIENTS])
    pred = 1.0 / (1.0 + np.exp(-(design @ beta)))
    jac = (pred * (1.0 - pred))[:, None] * design
    gram_inv = np.linalg.inv(jac.T @ jac)
    from_inputs = np.abs(gram_inv @ jac.T) @ stab_tol
    # a stop with relative cost change below FIT_COST_RTOL leaves the optimum
    # within that share of the cost, times a margin for slow convergence
    residual = ref_fit["residual_norm"]
    slack = 100.0 * FIT_COST_RTOL * residual * residual
    from_stop = np.sqrt(slack * np.diag(gram_inv))
    fit = dict(zip(FIT_COEFFICIENTS,
                   (from_inputs + from_stop + ROUNDING * np.abs(beta)).tolist()))
    # the optimal residual norm is 1-Lipschitz in the targets
    fit["residual_norm"] = float(np.linalg.norm(stab_tol)) + slack / residual + ROUNDING
    return {"threshold": float(stab_tol.max()), "spearman": spearman, "logistic_fit": fit}


def compare_analysis(summary: dict, reference: dict, tolerances: dict) -> list[str]:
    """Misses of one reference analyze pass against its stored summary numbers."""
    misses = []
    for key in ("record_count", "strategic_count", "non_converged"):
        if summary.get(key) != reference[key]:
            misses.append(f"{key} {summary.get(key)} != {reference[key]}")
    if abs(summary["strategic_threshold"] - reference["strategic_threshold"]) > tolerances[
            "threshold"]:
        misses.append("strategic_threshold outside tolerance")
    for metric, value in reference["spearman"].items():
        if abs(summary["spearman"][metric] - value) > tolerances["spearman"][metric]:
            misses.append(f"spearman {metric} outside tolerance")
    for key, tol in tolerances["logistic_fit"].items():
        got, want = summary["logistic_fit"][key], reference["logistic_fit"][key]
        if abs(got - want) > tol:
            misses.append(f"logistic_fit {key} {got!r} outside {want!r} +- {tol:.3g}")
    if summary["logistic_fit"]["converged"] != reference["logistic_fit"]["converged"]:
        misses.append("logistic_fit convergence changed")
    return misses
