"""The graph generator, the rate sampler and the record encoder against
frozen copies of their earlier, straightforward implementations.

Records store only their graph and rate seeds, so a rewrite of either
sampler must consume the same random stream and build the same graph
and rate matrix from every seed; old record files must still rebuild.
The generator grows a block of graphs at once; a seed's graph must not
depend on the block it is grown in.
compute_block builds, solves and encodes a whole block as arrays; its
lines must equal records assembled one at a time from the library's
single-system calls, and write_records must write the same bytes from
the decoded lines.
"""

import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from likenet import ensemble
from likenet.centrality import RateMatrix
from likenet.ensemble import (
    EnsembleConfig,
    compute_block,
    compute_record,
    record_seeds,
    sample_rates,
    write_records,
)
from likenet.graphs import Graph, _attach, compute_metrics, generate_ba
from likenet.stability import stability

from util import block_text


def reference_generate_ba(n, k, seed):
    """Edge list of the pool-and-choice generator: each attachment pops its
    target from the pool after one Generator.choice with degree weights."""
    rng = np.random.default_rng(seed)
    degrees = np.zeros(n, dtype=np.int64)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            degrees[i] += 1
            degrees[j] += 1
    for new in range(k, n):
        pool = list(range(new))
        targets = []
        for _ in range(k):
            weights = degrees[pool].astype(float)
            total = weights.sum()
            if total <= 0.0:
                probs = np.full(len(pool), 1.0 / len(pool))
            else:
                probs = weights / total
            pick = int(rng.choice(len(pool), p=probs))
            targets.append(pool.pop(pick))
        for t in targets:
            edges.append((min(new, t), max(new, t)))
            degrees[new] += 1
            degrees[t] += 1
    return tuple(sorted(edges))


def reference_sample_rates(g, rate_lambda, seed):
    """Rate matrix of the per-edge sampler: one size-2 draw per sorted edge."""
    rng = np.random.default_rng(seed)
    values = np.zeros((g.n, g.n))
    for i, j in g.edges:
        values[i, j], values[j, i] = rng.exponential(scale=1.0 / rate_lambda, size=2)
    return values


@pytest.mark.parametrize(
    "n, k, seeds",
    [(10, 2, 2000), pytest.param(40, 3, 2000, marks=pytest.mark.slow), (10, 1, 500),
     (25, 1, 200), (12, 5, 300), (5, 5, 50), (3, 1, 200), (1, 1, 5)],
)
def test_generate_ba_and_sample_rates_match_reference(n, k, seeds):
    expected = [reference_generate_ba(n, k, seed) for seed in range(seeds)]
    # the ensemble's default block, and blocks of 7 that put each seed at
    # another position in another block: a seed's edges depend on neither
    default = ensemble.block_records(k * (k - 1) + 2 * k * (n - k), n)
    grown = [
        np.concatenate([_attach(n, k, range(start, min(start + size, seeds)))
                        for start in range(0, seeds, size)])
        for size in (default, 7)
    ]
    assert np.array_equal(grown[0], grown[1]), (n, k)
    # each graph's edges (i, j), i < j, as sorted codes i * n + j
    codes = np.sort(grown[0][..., 0] * n + grown[0][..., 1], axis=1)
    assert np.array_equal(codes, [[i * n + j for i, j in edges] for edges in expected]), (n, k)
    for seed in range(seeds):
        rate_seed = 10_000 + seed
        # generate_ba, a block of one, on every 20th seed
        g = generate_ba(n, k, seed) if seed % 20 == 0 else Graph(n=n, edges=expected[seed])
        assert g.edges == expected[seed], (n, k, seed)
        assert np.array_equal(
            sample_rates(g, 1.7, rate_seed).values, reference_sample_rates(g, 1.7, rate_seed)
        ), (n, k, seed)


@pytest.mark.parametrize("n, k", [(10, 2), (40, 3)])
def test_write_records_matches_block_text(n, k, tmp_path):
    config = EnsembleConfig(n=n, k=k, master_seed=23)
    path = tmp_path / "records.jsonl"
    assert write_records([compute_record(config, index) for index in range(2, 5)], path) == 3
    assert path.read_bytes() == block_text(config, 2, 5).encode()


def reference_line(config, index):
    """Record index's line, assembled from one system's library calls."""
    graph_seed, rate_seed = record_seeds(config.master_seed, index)
    g = generate_ba(config.n, config.k, graph_seed)
    rates = sample_rates(g, config.rate_lambda, rate_seed)
    metrics = asdict(compute_metrics(g))
    del metrics["connected"]
    result = stability(g, rates, config.solver)
    gradient_sq_sum = math.fsum(grad * grad for grad in result.per_edge_gradients.values())
    directed = sorted(g.edges + tuple((j, i) for i, j in g.edges))
    record = {
        "record_index": index,
        "graph_seed": graph_seed,
        "rate_seed": rate_seed,
        "stability": math.exp(-gradient_sq_sum),
        "gradient_sq_sum": gradient_sq_sum,
        **metrics,
        "outgoing_rates": [[i, j, float(rates.values[i, j])] for i, j in directed],
        "solver_converged": result.solver_converged,
    }
    return json.dumps(record, separators=(",", ":")), g, rates


@pytest.mark.parametrize(
    "n, k, rate_lambda, start, stop",
    [(10, 2, 1.0, 5, 45), (40, 3, 1.0, 2, 5), (10, 1, 1.0, 0, 40), (25, 5, 1.0, 7, 12),
     (10, 2, 2.5, 11, 51)],
)
def test_block_text_matches_records_assembled_one_at_a_time(
    n, k, rate_lambda, start, stop, monkeypatch
):
    config = EnsembleConfig(n=n, k=k, rate_lambda=rate_lambda, master_seed=31)
    stacks = []

    def recording(adj, rates, *args):
        stacks.append((adj.copy(), rates.copy()))
        return gradient_block(adj, rates, *args)

    gradient_block = ensemble._gradient_block
    monkeypatch.setattr(ensemble, "_gradient_block", recording)
    lines = io.BytesIO()
    stabilities, non_converged = compute_block(config, start, stop, lines)
    (adj, rates), = stacks
    expected = []
    for b, index in enumerate(range(start, stop)):
        line, g, reference_rates = reference_line(config, index)
        expected.append(line + "\n")
        assert np.array_equal(adj[b], g.adjacency)
        # what RateMatrix and check_support require: finite, >= 0, zero off the edges
        RateMatrix(n=n, values=rates[b]).check_support(g)
        assert np.array_equal(rates[b], reference_rates.values)
    assert lines.getvalue().decode() == "".join(expected)
    records = [json.loads(line) for line in expected]
    assert stabilities == [r["stability"] for r in records]
    assert non_converged == sum(not r["solver_converged"] for r in records)
