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
is solved first; all the perturbed solves then run as one batch over
the shared graph, started from the baseline fixed point and stepped
with the baseline's Newton matrix (chord steps), since each perturbed
system differs from the baseline in one entry.
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
    newton_matrix,
    solve_rate_batch,
)
from .graphs import Graph, GraphError

__all__ = [
    "StabilityResult",
    "RELATIVE_STEP",
    "ZERO_RATE_FLOOR",
    "ABSOLUTE_STEP",
    "centrality_gradient",
    "stability",
    "stability_from_gradients",
    "check_direction",
    "classify_strategic",
]

# forward perturbation: 1% of the entry, absolute fallback at the boundary
RELATIVE_STEP = 0.01
ZERO_RATE_FLOOR = 1e-8
ABSOLUTE_STEP = 1e-4

# central differences (validation mode) use 0.1% steps
CENTRAL_RELATIVE_STEP = 0.001


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
    entries = []
    for a, b in g.edges:
        entries.append((a, b))
        entries.append((b, a))
    return sorted(entries)


def _gradient_batch(
    g: Graph,
    rates: RateMatrix,
    entries: Sequence[tuple[int, int]],
    opts: SolverOptions,
    scheme: Literal["forward", "central"],
) -> tuple[np.ndarray, bool]:
    """Finite-difference gradients d(value_i)/d(rates[j, i]) for entries (j, i).

    Solves the baseline system first, then every perturbed system in one
    batch started from the baseline fixed point and stepped with the
    baseline's Newton matrix (chord steps): each perturbed system differs
    from the baseline in one entry. Returns (gradients,
    all_solves_converged); non-convergence is flagged, never raised.
    """
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown difference scheme {scheme!r}")
    base = rates.values
    targets, agents = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    rate = base[targets, agents]
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

    base_raw, base_conv, _ = solve_rate_batch(g, base[None], opts)
    try:
        chord = newton_matrix(g, base, base_raw[0])
    except np.linalg.LinAlgError:
        chord = None  # each perturbed row takes its own Newton steps
    count = len(agents)
    pick = np.arange(count)
    stack = np.repeat(base[None], len(stencil) * count, axis=0)
    for block, perturbed in enumerate(stencil):
        stack[block * count + pick, targets, agents] = perturbed
    raw, conv, _ = solve_rate_batch(g, stack, opts, start=base_raw[0], step_matrix=chord)
    normalized = _normalize_rows(raw).reshape(len(stencil), count, g.n)
    upper = normalized[0, pick, agents]
    if scheme == "forward":
        lower = _normalize_rows(base_raw)[0, agents]
    else:
        lower = normalized[1, pick, agents]
    return (upper - lower) / divisor, bool(base_conv[0] and conv.all())


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


def stability_from_gradients(
    per_edge_gradients: dict[tuple[int, int], float],
    solver_converged: bool = True,
) -> StabilityResult:
    """Assemble a StabilityResult from already-computed sensitivities."""
    gss = math.fsum(grad * grad for grad in per_edge_gradients.values())
    return StabilityResult(
        stability=math.exp(-gss),
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
    grads, all_converged = _gradient_batch(g, rates, entries, opts, scheme)
    gradient_map = {entry: float(grad) for entry, grad in zip(entries, grads)}
    return stability_from_gradients(gradient_map, solver_converged=all_converged)


def check_direction(direction: str) -> None:
    """Reject a strategic direction other than 'low' or 'high'."""
    if direction not in ("low", "high"):
        raise ValueError(f"direction must be 'low' or 'high', got {direction!r}")


def classify_strategic(
    records: Sequence, fraction: float, direction: Literal["low", "high"] = "high"
) -> tuple[list, list, float]:
    """Split records into (strategic, population, threshold) by stability.

    The strategic class is the `fraction` of records with the highest
    stability, the systems nobody gains by leaving (direction="low"
    flips to lowest). Ties at the threshold break by record order. The
    threshold returned is the extreme stability inside the strategic
    class. Records need only a `stability` attribute.
    """
    if not records:
        raise ValueError("no records to classify")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    check_direction(direction)
    count = int(round(fraction * len(records)))
    count = max(1, min(len(records) - 1, count))
    indexed = list(enumerate(records))
    if direction == "high":
        ranked = sorted(indexed, key=lambda pair: (-pair[1].stability, pair[0]))
    else:
        ranked = sorted(indexed, key=lambda pair: (pair[1].stability, pair[0]))
    chosen = ranked[:count]
    chosen_ids = {idx for idx, _ in chosen}
    strategic = [rec for idx, rec in indexed if idx in chosen_ids]
    population = [rec for idx, rec in indexed if idx not in chosen_ids]
    threshold_fn = max if direction == "low" else min
    threshold = threshold_fn(rec.stability for _, rec in chosen)
    return strategic, population, float(threshold)
