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
The solver loop, the check of the perturbed rows at their series starts
and the normalization of the perturbed rows use operations chosen for
speed; their results must equal, value for value, those of the
straightforward loop frozen here, started where the live series starts
them.
"""

import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from likenet import centrality, ensemble
from likenet import stability as stability_module
from likenet.centrality import (
    POLISH_CONTRACTION,
    POLISH_RESIDUAL,
    RELAXATION,
    RateMatrix,
    SolverOptions,
    _each_matrix,
    _jacobian_stack,
    _normalized_at,
    _series_start,
)
from likenet.ensemble import (
    EnsembleConfig,
    compute_block,
    compute_record,
    record_seeds,
    sample_rates,
    write_records,
)
from likenet.graphs import Graph, _attach, compute_metrics, generate_ba
from likenet.stability import _gradient_block, stability

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
    default = ensemble.block_records(n)
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


def reference_fixed_map(rates, adj, values, scatter=None):
    """(F(v), A v) for rows (B, R, n), multiplied by swapped-axis views of
    the rates and adjacency; every quotient through a mask."""
    numer = values @ np.swapaxes(rates, 1, 2)
    if scatter is not None:
        into, source, deltas = scatter
        numer.reshape(-1)[into] += deltas * values.reshape(-1)[source]
    denom = values @ np.swapaxes(adj, 1, 2)
    safe = denom > 0.0
    return np.where(safe, numer / np.where(safe, denom, 1.0), 0.0), denom


def reference_solve_block(adj, rates, opts, start=None):
    """The fixed-point loop with row maxima along the node axis, swapped-axis
    product operands and boolean-mask gathers and scatters, from the
    uniform vector or from `start`."""
    count, n = rates.shape[0], rates.shape[2]
    if start is None:
        values = np.full((count, 1, n), 1.0 / n)
    else:
        values = start[:, None, :].copy()
    damped_only = np.zeros((count, 1), dtype=bool)
    shape = values.shape
    values[np.broadcast_to(~adj.any(axis=2)[:, None, :], shape)] = 0.0
    converged = np.zeros(shape[:2], dtype=bool)
    iterations = np.zeros(shape[:2], dtype=np.int64)
    polished = np.zeros(shape[:2], dtype=bool)
    previous = None

    for _ in range(opts.max_iterations + 1):
        fixed, denom = reference_fixed_map(rates, adj, values)
        residual = np.abs(fixed - values).max(axis=2)
        if polished.any():
            rejected = polished & ~(residual <= POLISH_CONTRACTION * previous[2])
            if rejected.any():
                damped_only |= rejected
                values[rejected] = previous[0][rejected]
                fixed[rejected] = previous[1][rejected]
                residual[rejected] = previous[2][rejected]

        converged |= residual <= opts.tolerance
        step = ~converged & (iterations < opts.max_iterations)
        if not step.any():
            break

        gap = fixed - values
        delta = RELAXATION * gap
        polished = step & ~damped_only & (residual < POLISH_RESIDUAL * np.abs(fixed).max(axis=2))
        if polished.any():
            record = np.flatnonzero(polished[:, 0])
            jac = _jacobian_stack(rates[record], adj[record], fixed[polished], denom[polished])
            solved, ok = _each_matrix(np.linalg.solve, np.eye(n) - jac, gap[polished][:, :, None])
            delta[record[ok], 0] = solved[ok, :, 0]
            damped_only[record[~ok], 0] = True
            polished[record[~ok], 0] = False
        delta[~step] = 0.0
        previous = (values, fixed, residual)
        values = values + delta
        iterations += step

    return values, converged, iterations


def reference_solve_perturbed(adj, rates, baseline, perturbation, opts, work=None):
    """Each perturbed row started at the live _series_start and checked there
    with the scattered rank-one F; the rows that miss the tolerance are
    solved by the reference loop as one block, each on its explicit rate
    matrix, from its record's baseline."""
    targets, agents, entries = perturbation
    (count, width), n = targets.shape, rates.shape[2]
    own = np.arange(count)[:, None]
    offsets = np.arange(count * width).reshape(count, width) * n
    deltas = entries - rates[own, targets, agents]
    scatter = ((offsets + targets).ravel(), (offsets + agents).ravel(), deltas.ravel())
    fixed, denom = reference_fixed_map(rates, adj, baseline[:, None, :])
    jac = _jacobian_stack(rates, adj, fixed[:, 0], denom[:, 0])
    chord, _ = _each_matrix(np.linalg.inv, np.eye(n) - jac)
    values = np.empty((count, width, n))
    rates_t, adj_t, chord_t = (
        np.ascontiguousarray(np.swapaxes(m, 1, 2)) for m in (rates, adj, chord)
    )
    _series_start(
        rates_t, adj_t, baseline, chord_t, (targets, agents, deltas), values, np.empty_like(values)
    )
    values[np.broadcast_to(~adj.any(axis=2)[:, None, :], values.shape)] = 0.0
    with np.errstate(all="ignore"):
        fixed, _ = reference_fixed_map(rates, adj, values, scatter)
        converged = np.abs(fixed - values).max(axis=2) <= opts.tolerance
    iterations = np.zeros((count, width), dtype=np.int64)
    missed = ~converged
    record = np.broadcast_to(own, missed.shape)[missed]
    explicit = rates[record]
    explicit[np.arange(len(record)), targets[missed], agents[missed]] = entries[missed]
    raw, conv, iters = reference_solve_block(adj[record], explicit, opts, baseline[record])
    values[missed], converged[missed], iterations[missed] = raw[:, 0], conv[:, 0], iters[:, 0]
    return values, converged, iterations


def reference_normalized_at(raw, index):
    """Every vector of raw (..., n) normalized to sum to 1, then the entry
    at index (...) taken from each."""
    total = raw.sum(axis=-1, keepdims=True)
    normalized = np.where(total > 0, raw / np.where(total > 0, total, 1.0), 0.0)
    return np.take_along_axis(normalized, index[..., None], axis=-1)[..., 0]


def ensemble_systems(n, k, count, seed=41):
    """(adj, rates, pairs) of records 0..count-1 of an ensemble."""
    config = EnsembleConfig(n=n, k=k, master_seed=seed)
    return ensemble._block_systems(config, ensemble.MAIN_STREAM, _attach, 0, count)[2:]


def with_isolated_node(adj, rates, pairs):
    """The systems with one more node, which has no edges."""
    pad = ((0, 0), (0, 1), (0, 1))
    return np.pad(adj, pad), np.pad(rates, pad), pairs


def all_ones(adj, rates, pairs):
    """The systems over the all-ones adjacency that eigenvector centrality solves."""
    return np.ones_like(adj), rates, pairs


# the default budget; one so short that rows stop unconverged; and a tolerance
# below the rounding floor, where polished steps are undone and rows run out
# of iterations
CAPPED = SolverOptions(max_iterations=3)
BELOW_ROUNDING = SolverOptions(tolerance=1e-16, max_iterations=40)


@pytest.mark.parametrize("scheme", ["forward", "central"])
@pytest.mark.parametrize(
    "n, k, count, shape, opts",
    [(10, 2, 300, None, SolverOptions()),
     pytest.param(40, 3, 9, None, SolverOptions(), marks=pytest.mark.slow),
     (6, 5, 200, None, SolverOptions()), (10, 1, 200, None, SolverOptions()),
     (10, 2, 100, all_ones, SolverOptions()), (6, 2, 100, with_isolated_node, SolverOptions()),
     (10, 2, 100, None, CAPPED), (10, 2, 100, None, BELOW_ROUNDING)],
    ids=["desk", "wide", "6-5", "10-1", "all-ones", "isolated-node", "capped", "below-rounding"],
)
def test_solver_loop_matches_reference(n, k, count, shape, opts, scheme, monkeypatch):
    adj, rates, pairs = ensemble_systems(n, k, count)
    if shape is not None:
        adj, rates, pairs = shape(adj, rates, pairs)
    calls, perturbed_calls = [], []

    def recording(adj, rates, opts, start=None):
        result = solve_block(adj, rates, opts, start)
        calls.append(((adj, rates, opts, start), result))
        return result

    def recording_perturbed(*args):
        result = solve_perturbed(*args)
        perturbed_calls.append((args, result))
        return result

    solve_block, solve_perturbed = centrality._solve_block, stability_module._solve_perturbed
    monkeypatch.setattr(stability_module, "_solve_block", recording)
    monkeypatch.setattr(centrality, "_solve_block", recording)
    monkeypatch.setattr(stability_module, "_solve_perturbed", recording_perturbed)
    _gradient_block(adj, rates, pairs, opts, scheme)
    # the baseline solve from the uniform vector, then the perturbed rows in
    # chunks, whose missed rows are solved from their baselines
    assert [start is None for (*_, start), _ in calls] == [True] + [False] * (len(calls) - 1)
    assert perturbed_calls
    for reference, recorded in ((reference_solve_block, calls),
                                (reference_solve_perturbed, perturbed_calls)):
        for args, result in recorded:
            for value, expected in zip(result, reference(*args)):
                assert np.array_equal(value, expected)
    for args, (raw, _, _) in perturbed_calls:
        agents = args[3][1]
        assert np.array_equal(_normalized_at(raw, agents), reference_normalized_at(raw, agents))
    every_row = np.concatenate(
        [converged.ravel() for _, (_, converged, _) in calls + perturbed_calls]
    )
    assert every_row.all() == (opts == SolverOptions())
