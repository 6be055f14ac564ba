"""Stability of a (rates, graph) system under rate perturbations.

The stability functional is

    stability = exp(-sum over directed edges (i, j) of d(value_i)/d(rates[j, i]) squared)

where rates[j, i] is agent i's outgoing rate toward agent j, so each
term measures how strongly an agent's own centrality responds to one
of its own rates. Vanishing sensitivities mean nobody gains by moving
a rate, and the stability is exactly 1.

Derivatives are finite-difference quotients on the sum-normalized
centrality vector: forward steps of 1% of the entry's value, with an
absolute fallback step for entries at the zero boundary. The baseline
is solved first; all the perturbed solves then run as one batch around
it, since each perturbed system differs from the baseline in one entry:
each starts on its target node's response series around the baseline
fixed point, where nearly all meet the solver tolerance, and the few
that do not are solved from the baseline (see
centrality._solve_perturbed). _gradient_block does this for a block of
systems at once, each against its own baseline, solving the perturbed
systems in chunks of the block's records; stability() is its block of
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .centrality import (
    RateMatrix,
    SolverOptions,
    _normalize_rows,
    _normalized_at,
    _solve_block,
    _solve_perturbed,
    solve_rate_batch,  # unused here; perfbench/tracing.py patches it at this call site
)
from .graphs import Graph, GraphError

__all__ = [
    "StabilityResult",
    "RELATIVE_STEP",
    "ZERO_RATE_FLOOR",
    "ABSOLUTE_STEP",
    "BLOCK_VALUES",
    "block_records",
    "chunk_records",
    "centrality_gradient",
    "stability",
    "stability_from_gradients",
    "check_strategic",
    "classify_strategic",
]

# forward perturbation: 1% of the entry, absolute fallback at the boundary
RELATIVE_STEP = 0.01
ZERO_RATE_FLOOR = 1e-8
ABSOLUTE_STEP = 1e-4

# central differences (validation mode) use 0.1% steps
CENTRAL_RELATIVE_STEP = 0.001

# The one memory budget: values in any one (records, ., n) array of a block.
# A block holds (B, n, n) stacks of adjacency, rates, the baseline solve's
# Jacobians and metric distances, so block_records(n) is the budget over n * n. Its
# perturbed solves run in chunks whose (records, R, n) arrays, R systems a
# record, hold as many, so chunk_records(R, n) is the budget over R * n;
# _gradient_block allocates the perturbed stage's four work arrays once
# per block, for its largest chunk. A block's graphs, rates, metrics, baseline
# solves and record lines are built as one batch, so their fixed costs are
# paid once per block. Serial compute_block (medians of 5 fresh processes
# over 10240 desk and 576 wide records, 2-vCPU VM) and a default block's
# traced peak, desk n=10, k=2 and wide n=40, k=3:
#   budget  desk block/chunk, ms, MiB   wide block/chunk, ms, MiB
#   12800   128/37,  0.062, 1.40         8/1, 0.85, 0.91
#   18240   182/53,  0.060, 2.00        11/2, 0.74, 1.63
#   25600   256/75,  0.058, 2.82        16/2, 0.68, 1.81
#   27360   273/80,  0.054, 3.01        17/3, 0.67, 2.46
#   38400   384/112, 0.055, 4.21        24/4, 0.61, 3.32
# Desk time is flat within the VM's noise from 18240 up. The peaks above
# held six work arrays a chunk; with four, 25600 traces 2.69 and 1.54 MiB
# and 27360 2.86 and 2.02, under the 3.2 and 2.1 MiB that
# tests/test_ensemble.py allows, and 38400 2.73 MiB wide, over.
BLOCK_VALUES = 25_600


def block_records(n: int) -> int:
    """Records per block on n nodes: BLOCK_VALUES over n * n, at least one."""
    return max(1, BLOCK_VALUES // (n * n))


def chunk_records(systems: int, n: int) -> int:
    """Records per chunk of perturbed solves when each record has `systems`
    perturbed systems on n nodes: BLOCK_VALUES over systems * n, at least one."""
    return max(1, BLOCK_VALUES // max(1, systems * n))


@dataclass(frozen=True)
class StabilityResult:
    """Stability of one system plus its per-edge sensitivities.

    per_edge_gradients maps the perturbed matrix entry (j, i), i.e.
    agent i's outgoing rate toward agent j, to d(value_i)/d(rates[j, i]).
    """

    stability: float
    gradient_sq_sum: float
    per_edge_gradients: dict[tuple[int, int], float]
    solver_converged: bool


def _directed_entries(g: Graph) -> list[tuple[int, int]]:
    """Perturbed entries (j, i) for every ordered adjacent pair, sorted."""
    return sorted(g.edges + tuple((b, a) for a, b in g.edges))


def _gradient_block(
    adj: np.ndarray,
    rates: np.ndarray,
    entries: np.ndarray,
    opts: SolverOptions,
    scheme: Literal["forward", "central"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-difference gradients d(value_i)/d(rates[j, i]) for a block of records.

    adj and rates are (B, n, n); entries (B, R, 2) holds each record's
    perturbed entries (j, i). Solves every record's baseline first, then
    the perturbed systems around their record's baseline
    (centrality._solve_perturbed: a perturbed system differs from its
    baseline in one entry), in chunks of chunk_records whole records that
    share one set of work arrays. A record's rows do not depend on the
    chunk it is solved in.
    Returns (gradients (B, R), all_solves_converged (B,), baseline
    centralities (B, n), normalized); non-convergence is flagged, never
    raised.
    """
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown difference scheme {scheme!r}")
    own = np.arange(len(rates))[:, None]
    targets, agents = entries[:, :, 0], entries[:, :, 1]
    rate = rates[own, targets, agents]
    if scheme == "forward":
        steps = np.where(rate < ZERO_RATE_FLOOR, ABSOLUTE_STEP, RELATIVE_STEP * rate)
        stencil = [rate + steps]
        divisor = steps
    else:
        # central steps shrink to fit above the nonnegative boundary; an
        # exactly-zero entry falls back to a one-sided stencil, same divisor
        steps = np.where(
            rate >= ZERO_RATE_FLOOR, CENTRAL_RELATIVE_STEP * rate, np.minimum(ABSOLUTE_STEP, rate)
        )
        one_sided = steps <= 0.0
        steps = np.where(one_sided, ABSOLUTE_STEP, steps)
        stencil = [
            np.where(one_sided, rate + 2 * steps, rate + steps),
            np.where(one_sided, rate, rate - steps),
        ]
        divisor = 2 * steps

    base_raw, base_conv, _ = _solve_block(adj, rates, opts)
    base_raw = base_raw[:, 0]
    centrality = _normalize_rows(base_raw)
    count, width = targets.shape
    # each perturbed system's normalized value at its entry's agent,
    # (B, stencil point, R)
    picked = np.empty((count, len(stencil), width))
    converged = base_conv[:, 0].copy()
    size = chunk_records(len(stencil) * width, rates.shape[2])
    # the perturbed stage's arrays, allocated once for the block's largest chunk
    work = np.empty((4, min(size, count), len(stencil) * width, rates.shape[2]))
    for start in range(0, count, size):
        chunk = slice(start, start + size)
        perturbation = (
            np.tile(targets[chunk], len(stencil)),
            np.tile(agents[chunk], len(stencil)),
            np.concatenate([point[chunk] for point in stencil], axis=1),
        )
        raw, conv, _ = _solve_perturbed(
            adj[chunk], rates[chunk], base_raw[chunk], perturbation, opts, work
        )
        picked[chunk] = _normalized_at(raw, perturbation[1]).reshape(len(raw), len(stencil), width)
        converged[chunk] &= conv.all(axis=1)
    if scheme == "forward":
        lower = centrality[own, agents]
    else:
        lower = picked[:, 1]
    return (picked[:, 0] - lower) / divisor, converged, centrality


def _gradient_batch(
    g: Graph,
    rates: RateMatrix,
    entries: Sequence[tuple[int, int]],
    opts: SolverOptions,
    scheme: Literal["forward", "central"],
) -> tuple[np.ndarray, bool]:
    """Gradients for entries (j, i) of one system: _gradient_block with a block of one.

    Returns (gradients, all_solves_converged).
    """
    block = np.array(entries, dtype=np.int64).reshape(1, -1, 2)
    grads, converged, _ = _gradient_block(
        g.adjacency[None], rates.values[None], block, opts, scheme
    )
    return grads[0], bool(converged[0])


def centrality_gradient(
    g: Graph,
    rates: RateMatrix,
    i: int,
    j: int,
    opts: SolverOptions | None = None,
    scheme: Literal["forward", "central"] = "forward",
) -> float:
    """Sensitivity of agent i's centrality to its outgoing rate toward j.

    Perturbs the matrix entry rates[j, i]. Solver non-convergence is
    tolerated (the best iterates are differenced); use stability() to
    get the convergence flag.
    """
    opts = opts or SolverOptions()
    rates.check_support(g)
    if not g.has_edge(i, j):
        raise GraphError(f"({i}, {j}) is not an edge")
    grads, _ = _gradient_batch(g, rates, [(j, i)], opts, scheme)
    return float(grads[0])


def _stability_columns(grads: np.ndarray) -> tuple[list[float], list[float]]:
    """(stability, gradient_sq_sum) of each row of a (B, R) gradient block:
    exp(-s) of s, the exactly rounded sum of the row's squares."""
    sq_sums = [math.fsum(row) for row in (grads * grads).tolist()]
    return [math.exp(-s) for s in sq_sums], sq_sums


def stability_from_gradients(
    per_edge_gradients: dict[tuple[int, int], float],
    solver_converged: bool = True,
) -> StabilityResult:
    """Assemble a StabilityResult from already-computed sensitivities."""
    grads = np.array(list(per_edge_gradients.values()), dtype=float)
    (stab,), (gss,) = _stability_columns(grads.reshape(1, -1))
    return StabilityResult(
        stability=stab,
        gradient_sq_sum=gss,
        per_edge_gradients=dict(per_edge_gradients),
        solver_converged=solver_converged,
    )


def stability(
    g: Graph,
    rates: RateMatrix,
    opts: SolverOptions | None = None,
    scheme: Literal["forward", "central"] = "forward",
) -> StabilityResult:
    """Stability of the system: exp(-sum of squared per-edge sensitivities).

    The sum runs over both directions of every edge (2|edges| terms).
    """
    opts = opts or SolverOptions()
    rates.check_support(g)
    entries = _directed_entries(g)
    grads, converged = _gradient_batch(g, rates, entries, opts, scheme)
    return stability_from_gradients(dict(zip(entries, grads.tolist())), converged)


def check_strategic(fraction: float, direction: str) -> None:
    """Reject a strategic fraction outside (0, 1) or a direction other than 'low' or 'high'."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if direction not in ("low", "high"):
        raise ValueError(f"direction must be 'low' or 'high', got {direction!r}")


def classify_strategic(
    stabilities: Sequence[float], fraction: float, direction: Literal["low", "high"] = "high"
) -> tuple[np.ndarray, float]:
    """Mark the strategic records of a stability column: (mask, threshold).

    The strategic class is the `fraction` of records with the highest
    stability, the systems nobody gains by leaving (direction="low"
    flips to lowest). Ties at the threshold break by record order: the
    sort is stable. The threshold returned is the extreme stability
    inside the strategic class.
    """
    stabilities = np.asarray(stabilities, dtype=float)
    if not len(stabilities):
        raise ValueError("no records to classify")
    check_strategic(fraction, direction)
    count = max(1, min(len(stabilities) - 1, int(round(fraction * len(stabilities)))))
    key = -stabilities if direction == "high" else stabilities
    chosen = np.argsort(key, kind="stable")[:count]
    mask = np.zeros(len(stabilities), dtype=bool)
    mask[chosen] = True
    threshold = stabilities[chosen].min() if direction == "high" else stabilities[chosen].max()
    return mask, float(threshold)
