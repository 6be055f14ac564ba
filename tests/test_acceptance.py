"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5-9 share one seeded desk-scale run (10^4 samples, master seed
19, strategic fraction 0.1%). The strategic class is the most-stable
tail: the stability functional equals 1 at perfect equilibrium, so
"most stable" means the highest-stability fraction (direction="high").

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from likenet.analysis import (
    coalition_sweep,
    degree_representation,
    logistic_fit,
    percentile_edges,
    pick_outlying_pair,
    rate_representation,
    stability_vs_metric,
    star_comparison,
)
from likenet.centrality import RateMatrix, SolverOptions, likedness_centrality
from likenet.ensemble import EnsembleConfig, read_records, run_to_files, sample_rates, write_records
from likenet.graphs import Graph, generate_ba
from likenet.stability import centrality_gradient, classify_strategic, stability_from_gradients
from likenet.stability import _directed_entries, _gradient_batch

from conftest import STRATEGIC_FRACTION
from util import random_connected_graph, random_rates, undamped_fixed_point

BELOW_CUT = 1 - math.exp(-1)  # 63.2nd percentile of the unit-rate exponential


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def desk_table(desk_run):
    records_path, _ = desk_run
    return read_records(records_path)


@pytest.fixture(scope="module")
def strategic_split(desk_table):
    strategic, threshold = classify_strategic(
        desk_table.stability, STRATEGIC_FRACTION, direction="high"
    )
    return strategic, threshold


def test_criterion_1_solver_exactness():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst_pair = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, size=2)
        g = Graph(2, ((0, 1),))
        cv = likedness_centrality(g, RateMatrix(2, np.array([[0.0, a], [b, 0.0]])))
        worst_pair = max(worst_pair, float(np.abs(cv.values - np.array([a, b]) / (a + b)).max()))
    worst_uniform = 0.0
    for n, rate in ((3, 1.0), (4, 0.7), (6, 2.3), (8, 1.1)):
        edges = tuple((i, (i + 1) % n) for i in range(n))
        if n == 3:
            edges = ((0, 1), (0, 2), (1, 2))
        g = Graph(n, edges)
        cv = likedness_centrality(g, RateMatrix(n, g.adjacency * rate))
        worst_uniform = max(worst_uniform, float(np.abs(cv.values - 1.0 / n).max()))
    elapsed = time.time() - start
    ok = worst_pair <= 1e-9 and worst_uniform <= 1e-12 and elapsed < 1.0
    line = report(
        "1 solver exactness",
        ok,
        f"two-node err {worst_pair:.2e} (<=1e-9), uniform err {worst_uniform:.2e} (<=1e-12), "
        f"{elapsed:.2f}s (<1s)",
    )
    assert ok, line


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2002)
    opts = SolverOptions()  # tolerance 1e-10
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(int(rng.integers(4, 7)), rng)
        rates = random_rates(g, rng)
        cv = likedness_centrality(g, rates, opts)
        oracle_raw, converged = undamped_fixed_point(g, rates, tol=opts.tolerance / 10)
        assert converged, "oracle iteration failed to settle"
        worst = max(worst, float(np.abs(cv.values - oracle_raw / oracle_raw.sum()).max()))
    ok = worst <= 1e-8
    line = report("2 solver oracle equivalence", ok, f"worst deviation {worst:.2e} (<=1e-8), 50 systems")
    assert ok, line


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(3003)
    worst_rel = 0.0
    for _ in range(50):
        a, b = rng.uniform(0.2, 3.0, size=2)
        g = Graph(2, ((0, 1),))
        rates = RateMatrix(2, np.array([[0.0, a], [b, 0.0]]))
        grad = centrality_gradient(g, rates, 0, 1)
        analytic = -a / (a + b) ** 2
        worst_rel = max(worst_rel, abs(grad - analytic) / abs(analytic))
    # forward truncation is O(step * curvature): bound the deviation by
    # 5% of the central value or 1e-3 absolute (an order below typical
    # gradient magnitudes), whichever is larger
    worst_scheme = 0.0
    for _ in range(20):
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        entries = _directed_entries(g)
        fwd, _ = _gradient_batch(g, rates, entries, SolverOptions(), "forward")
        ctr, _ = _gradient_batch(g, rates, entries, SolverOptions(), "central")
        allowance = np.maximum(0.05 * np.abs(ctr), 1e-3)
        worst_scheme = max(worst_scheme, float(np.max(np.abs(fwd - ctr) / allowance)))
    ok = worst_rel <= 0.02 and worst_scheme <= 1.0
    line = report(
        "3 gradient correctness",
        ok,
        f"two-node rel err {worst_rel:.4f} (<=0.02), fwd-vs-central deviation at "
        f"{worst_scheme:.2f}x the O(step) allowance (<=1)",
    )
    assert ok, line


def test_criterion_4_stability_identities():
    zero = stability_from_gradients({(0, 1): 0.0, (1, 0): 0.0})
    unit = stability_from_gradients({(0, 1): 1.0})
    ok = zero.stability == 1.0 and abs(unit.stability - math.exp(-1)) <= 1e-12
    line = report(
        "4 stability identities",
        ok,
        f"zero-gradient S={zero.stability!r} (==1.0), unit-sum S-e^-1={unit.stability - math.exp(-1):.2e} (<=1e-12)",
    )
    assert ok, line


def test_criterion_5_rate_representation(desk_run, desk_table, strategic_split):
    _, elapsed = desk_run
    strategic, _ = strategic_split
    series = rate_representation(desk_table, strategic, percentile_edges(50, 1.0))
    probs = np.linspace(0.0, 1.0, 51)
    values = np.array(series.bin_values)

    below = [i for i in range(50) if probs[i + 1] <= BELOW_CUT]
    finite_below = [i for i in below if not math.isnan(values[i])]
    fraction_under_parity = sum(1 for i in finite_below if values[i] < 1.0) / len(finite_below)

    strategic_rates = desk_table.rates_of(strategic)
    population_rates = desk_table.rates_of(~strategic)
    edges = np.array(series.bin_edges)
    s_below = np.histogram(strategic_rates, bins=edges)[0][below].sum()
    p_below = np.histogram(population_rates, bins=edges)[0][below].sum()
    pooled = (s_below / len(strategic_rates)) / (p_below / len(population_rates))

    peak_bin = int(np.nanargmax(values))
    peak_percentile = (probs[peak_bin] + probs[peak_bin + 1]) / 2

    ok = (
        pooled < 1.0
        and fraction_under_parity > 0.5
        and 0.85 <= peak_percentile <= 0.99
        and elapsed < 600
    )
    line = report(
        "5 rate representation",
        ok,
        f"pooled below-63.2 ratio {pooled:.3f} (<1), {fraction_under_parity:.0%} of low bins "
        f"under parity (>50%), peak at {peak_percentile:.0%} (in 85-99%), run {elapsed:.0f}s (<600s)",
    )
    assert ok, line


def test_criterion_6_degree_representation(desk_table, strategic_split):
    strategic, _ = strategic_split
    series = degree_representation(desk_table, strategic)
    values = np.array(series.bin_values)
    occupied = [d for d in range(len(values)) if not math.isnan(values[d])]
    interior_min = min(values[d] for d in occupied[1:-1])
    degree9 = values[9]
    u_shaped = values[occupied[0]] > interior_min and values[occupied[-1]] > interior_min
    ok = (not math.isnan(degree9)) and degree9 > 1.0 and u_shaped
    line = report(
        "6 degree representation",
        ok,
        f"degree-9 ratio {degree9:.2f} (>1), endpoints "
        f"{values[occupied[0]]:.2f}/{values[occupied[-1]]:.2f} vs interior min {interior_min:.2f} (U-shape)",
    )
    assert ok, line


def test_criterion_7_stability_metric_signs(desk_table):
    rho_path = stability_vs_metric(desk_table, "mean_path_length").spearman
    rho_clust = stability_vs_metric(desk_table, "mean_local_clustering").spearman
    path_ok = rho_path < 0 and abs(rho_path) > 0.05
    clust_ok = rho_clust < 0 and abs(rho_clust) > 0.05
    ok = path_ok and clust_ok
    line = report(
        "7 stability-vs-metric signs",
        ok,
        f"spearman path {rho_path:+.4f} (need <-0.05: {'ok' if path_ok else 'VIOLATED'}), "
        f"clustering {rho_clust:+.4f} (need <-0.05: {'ok' if clust_ok else 'VIOLATED'})",
    )
    assert ok, line


def test_criterion_8_regression_signs(desk_table, tmp_path):
    fit = logistic_fit(desk_table)
    signs_ok = (
        fit.coef_preferential > 0 and fit.coef_path_length < 0 and fit.coef_clustering < 0
    )

    # self-inverse check: noise-free synthetic data must be recovered
    rng = np.random.default_rng(8008)
    beta = (0.3, 0.7, -0.9, 0.4)
    synthetic = []
    for i in range(300):
        x = (rng.uniform(0.5, 3.0), rng.uniform(1.2, 3.0), rng.uniform(0.0, 0.8))
        z = beta[0] + beta[1] * x[0] + beta[2] * x[1] + beta[3] * x[2]
        synthetic.append({
            "record_index": i,
            "graph_seed": 0,
            "rate_seed": 0,
            "stability": 1.0 / (1.0 + math.exp(-z)),
            "gradient_sq_sum": 0.0,
            # a 10-node ring's: a histogram counts its n nodes
            "degree_histogram": [0, 0, 10, 0, 0, 0, 0, 0, 0, 0],
            "degree_stddev": x[0],
            "mean_path_length": x[1],
            "mean_local_clustering": x[2],
            "outgoing_rates": [],
            "solver_converged": True,
        })
    write_records(synthetic, tmp_path / "synthetic.jsonl")
    recovered = logistic_fit(read_records(tmp_path / "synthetic.jsonl"))
    recovery_err = max(
        abs(recovered.intercept - beta[0]),
        abs(recovered.coef_preferential - beta[1]),
        abs(recovered.coef_path_length - beta[2]),
        abs(recovered.coef_clustering - beta[3]),
    )
    ok = signs_ok and recovery_err <= 1e-6
    line = report(
        "8 regression signs",
        ok,
        f"coefs pref {fit.coef_preferential:+.4f} (+), path {fit.coef_path_length:+.4f} (-), "
        f"clustering {fit.coef_clustering:+.4f} (-); synthetic recovery err {recovery_err:.2e} (<=1e-6)",
    )
    assert ok, line


def test_criterion_9_star_comparison(desk_table, desk_config):
    result = star_comparison(
        star_samples=1000,
        config=desk_config,
        fraction=0.01,
        ba_records=desk_table,
        direction="high",
    )
    exceeds = result.star_mean_stability > result.ba_hub_mean_stability
    ratio_ok = result.branch_hub_ratio > 1.0
    ok = exceeds and ratio_ok
    line = report(
        "9 star comparison",
        ok,
        f"star mean {result.star_mean_stability:.5f} vs hub-9 mean {result.ba_hub_mean_stability:.5f} "
        f"({result.stability_advantage:+.3%}, {result.ba_hub_count} hub graphs), "
        f"branch/hub ratio {result.branch_hub_ratio:.2f} (>1)",
    )
    assert ok, line


def test_criterion_10_coalition_sweep(desk_run, desk_config):
    records_path, _ = desk_run
    with open(records_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    ranked = sorted(records, key=lambda r: (-r["stability"], r["record_index"]))
    instance = graph = None
    for rec in ranked:
        g = generate_ba(desk_config.n, desk_config.k, rec["graph_seed"])
        a, b = pick_outlying_pair(g)
        if int(g.degrees[a] + g.degrees[b]) <= 5:
            instance, graph, pair = rec, g, (a, b)
            break
    assert instance is not None
    rates = sample_rates(graph, desk_config.rate_lambda, instance["rate_seed"])
    sweep = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    points = coalition_sweep(graph, rates, *pair, sweep, desk_config.solver)
    member_a = [p.member_a for p in points]
    member_b = [p.member_b for p in points]
    others = [p.others_mean for p in points]
    members_up = all(y >= x for x, y in zip(member_a, member_a[1:])) and all(
        y >= x for x, y in zip(member_b, member_b[1:])
    )
    others_down = all(y <= x for x, y in zip(others, others[1:]))
    ok = members_up and others_down and all(p.converged for p in points)
    line = report(
        "10 coalition sweep",
        ok,
        f"record {instance['record_index']}, pair {pair} (degrees "
        f"{int(graph.degrees[pair[0]])},{int(graph.degrees[pair[1]])}): members "
        f"{'non-decreasing' if members_up else 'NOT monotone'}, others "
        f"{'non-increasing' if others_down else 'NOT monotone'} over {sweep}",
    )
    assert ok, line


def test_criterion_11_reproducibility(tmp_path):
    config = EnsembleConfig(sample_count=150, master_seed=19)
    run_to_files(config, tmp_path / "first", workers=1)
    run_to_files(config, tmp_path / "second", workers=1)
    run_to_files(config, tmp_path / "parallel", workers=2)
    names = ("records.jsonl", "summary.json")
    rerun_identical = all(
        (tmp_path / "first" / n).read_bytes() == (tmp_path / "second" / n).read_bytes()
        for n in names
    )
    worker_identical = all(
        (tmp_path / "first" / n).read_bytes() == (tmp_path / "parallel" / n).read_bytes()
        for n in names
    )
    ok = rerun_identical and worker_identical
    line = report(
        "11 reproducibility",
        ok,
        f"re-run byte-identical: {rerun_identical}; workers 1 vs 2 byte-identical: {worker_identical} "
        "(canonical record order)",
    )
    assert ok, line
