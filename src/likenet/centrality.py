"""Likedness centrality solver and the eigenvector-centrality contrast model.

Likedness centrality is the fixed point of

    value[i] = sum_j rates[i, j] * value[j] / sum_j adjacency[i, j] * value[j]

where rates[i, j] is the rate at which agent j "likes" agent i. The
right-hand side is invariant to rescaling the whole vector, but the
equation itself pins the raw magnitudes to rate units; the reported
vector is normalized to sum to 1.

No closed form is available in general. The solver takes damped
successive-substitution steps while far from the fixed point, then
Newton steps with the Jacobian dF_i/dv_k = (R_ik - F_i A_ik) / (A v)_i
(Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995,
ch. 5). One loop solves a block of systems at once: several records,
each with its own graph and rates. It runs in one of two modes: each
record's own system from the uniform start (plain), or many systems that
each change one of a record's rate entries, started at that record's
solved baseline and stepped with the baseline's Newton matrix (chord
steps, around a baseline). The second mode is what makes
finite-difference stability sweeps cheap; a one-entry change enters the
map as a rank-one term, so no rate matrix is built per perturbed system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, content_lines, read_node_count

__all__ = [
    "RateMatrix",
    "CentralityVector",
    "SolverOptions",
    "SolverError",
    "DegenerateSystemError",
    "NonConvergenceError",
    "likedness_centrality",
    "eigenvector_centrality",
    "newton_matrix",
    "solve_rate_batch",
    "write_rates_dense",
    "write_rates_triplets",
    "read_rates",
]


class SolverError(ValueError):
    """Invalid solver inputs."""


class DegenerateSystemError(SolverError):
    """Every candidate denominator is zero (graph has no edges)."""


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted where the contract requires convergence."""


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver controls.

    tolerance bounds the fixed-point residual max|F(v) - v| at the
    returned raw iterate. `relaxation` is the damping factor of the
    successive-substitution steps taken far from the fixed point.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10_000
    relaxation: float = 0.5

    def __post_init__(self):
        if not self.tolerance > 0:
            raise SolverError(f"tolerance must be > 0, got {self.tolerance}")
        if not math.isfinite(self.tolerance):
            raise SolverError(f"tolerance must be finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise SolverError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.relaxation <= 1.0:
            raise SolverError(f"relaxation must be in (0, 1], got {self.relaxation}")


@dataclass(eq=False)
class RateMatrix:
    """Nonnegative directed like-rates supported on a companion graph's edges.

    values[i, j] is the rate at which agent j likes agent i. The
    diagonal is zero and entries off the companion edge set must be
    zero; zero rates on edges are allowed.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.n, self.n):
            raise SolverError(f"rate matrix shape {v.shape} != ({self.n}, {self.n})")
        if not np.isfinite(v).all():
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise SolverError(f"rate matrix entry ({i}, {j}) is not finite: {v[i, j]}")
        if (v < 0).any():
            raise SolverError("rate matrix entries must be nonnegative")
        if np.diag(v).any():
            raise SolverError("rate matrix diagonal must be zero")
        v = v.copy()
        v.flags.writeable = False
        self.values = v

    def check_support(self, g: Graph) -> None:
        """Raise unless entries are confined to g's edges."""
        if g.n != self.n:
            raise SolverError(f"graph has {g.n} nodes, rate matrix has {self.n}")
        off_support = self.values * (1.0 - g.adjacency)
        if off_support.any():
            i, j = np.argwhere(off_support)[0]
            raise SolverError(f"nonzero rate at non-edge ({i}, {j})")

    def replace_entry(self, row: int, col: int, value: float) -> "RateMatrix":
        v = self.values.copy()
        v[row, col] = value
        return RateMatrix(n=self.n, values=v)


@dataclass(frozen=True)
class CentralityVector:
    """Per-node centrality values.

    `values` is normalized to sum to 1 (all-zero vectors stay zero);
    `raw` carries the unnormalized fixed-point iterate in rate units,
    which is what the solver's residual guarantee refers to.
    """

    values: np.ndarray
    raw: np.ndarray
    converged: bool
    iterations: int


# A row switches from damped steps to Newton or chord steps once its
# residual is below POLISH_RESIDUAL times max|F(v)|; a polished step must
# at least halve the residual or it is undone.
POLISH_RESIDUAL = 0.03
POLISH_CONTRACTION = 0.5


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    """Each vector along the last axis divided by its sum; all-zero vectors stay zero."""
    total = raw.sum(axis=-1, keepdims=True)
    return np.where(total > 0, raw / np.where(total > 0, total, 1.0), 0.0)


def _fixed_map(
    rates: np.ndarray, adj: np.ndarray, values: np.ndarray, scatter: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(F(v), A v) for rows (B, R, n) over record b's (B, n, n) rates and adjacency.

    F is 0 where A v is 0 (isolated nodes). `scatter` = (into, source,
    deltas), flat indices into the rows: a perturbed row adds delta to one
    entry (t, a) of its record's rates, so its numerator gains
    delta * v_a at node t, and no rate matrix is built per row.
    """
    numer = values @ np.swapaxes(rates, 1, 2)
    if scatter is not None:
        into, source, deltas = scatter
        numer.reshape(-1)[into] += deltas * values.reshape(-1)[source]
    denom = values @ np.swapaxes(adj, 1, 2)
    safe = denom > 0.0
    return np.where(safe, numer / np.where(safe, denom, 1.0), 0.0), denom


def _jacobian_stack(
    rate_stack: np.ndarray, adj: np.ndarray, fixed: np.ndarray, denom: np.ndarray
) -> np.ndarray:
    """dF_i/dv_k = (R_ik - F_i * A_ik) / (A v)_i for each row; zero where (A v)_i = 0."""
    safe = denom > 0.0
    inv = np.where(safe, 1.0 / np.where(safe, denom, 1.0), 0.0)
    return (rate_stack - fixed[:, :, None] * adj) * inv[:, :, None]


def _each_matrix(op, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(op(*stacks), ok) for a LAPACK op over stacks of matrices.

    A batched call raises LinAlgError for the whole stack when any one
    matrix is singular. The stack is then retried one item at a time, so a
    singular matrix fails only its own item (NaN, ok False) and leaves
    every other item's result as it was, byte for byte.
    """
    try:
        return op(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full_like(stacks[-1], np.nan)
    ok = np.zeros(len(out), dtype=bool)
    for item in range(len(out)):
        try:
            out[item] = op(*(s[item : item + 1] for s in stacks))[0]
        except np.linalg.LinAlgError:
            continue
        ok[item] = True
    return out, ok


def _chord_matrices(
    adj: np.ndarray, rates: np.ndarray, raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """((I - dF/dv)^-1 at raw (B, n) for each record, invertible (B,)); see newton_matrix."""
    fixed, denom = _fixed_map(rates, adj, raw[:, None, :])
    jac = _jacobian_stack(rates, adj, fixed[:, 0], denom[:, 0])
    return _each_matrix(np.linalg.inv, np.eye(raw.shape[1]) - jac)


def newton_matrix(g: Graph, rates: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """(I - dF/dv)^-1 for one rate matrix at the raw iterate `raw`.

    At a fixed point this maps a change in F to the change in the fixed
    point, so it is both the Newton step matrix and the exact
    sensitivity operator. Raises numpy.linalg.LinAlgError when singular.
    """
    chord, invertible = _chord_matrices(g.adjacency[None], rates[None], raw[None])
    if not invertible[0]:
        raise np.linalg.LinAlgError("Singular matrix")
    return chord[0]


def _solve_block(
    adj: np.ndarray,
    rates: np.ndarray,
    opts: SolverOptions,
    around: tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the fixed point of R systems for each of B records in one loop.

    adj and rates are (B, n, n): record b's adjacency and rates. The block
    runs in one of two modes:

    - plain (`around` None): one row per record, its own system, started
      from the uniform vector and polished by Newton steps;
    - around = (baseline (B, n), (targets, agents, entries), each (B, R)):
      row (b, r) is record b's system with rates[b, targets[b, r],
      agents[b, r]] set to entries[b, r], started at the record's baseline
      fixed point and polished by chord steps with the record's
      (I - dF/dv)^-1 at that baseline. The change enters F as a rank-one
      term (see _fixed_map), so no rate matrix is built per row.

    Every row updates v <- v + P (F(v) - v). While its residual is at
    least POLISH_RESIDUAL * max|F(v)|, P = relaxation * I (damped
    substitution); below that P is the Newton or chord matrix. A polished
    step that fails to halve the row's residual is undone, and the row
    takes damped steps from then on; so does a row whose Newton system is
    singular, and every row of a record whose chord matrix is. A poor step
    matrix thus costs iterations, never the fixed point. Rows are frozen
    as soon as their residual max|F(v) - v| drops to opts.tolerance.

    Returns (raw_values, converged, iterations), shaped (B, R, n), (B, R)
    and (B, R), with R = 1 in plain mode. A row's steps depend on that row
    alone, so a record's rows do not depend on the other records of the
    block.
    """
    if not adj.any(axis=(1, 2)).all():
        raise DegenerateSystemError("graph has no edges; every denominator is zero")
    count, n = rates.shape[0], rates.shape[2]
    if around is None:
        scatter = None
        values = np.full((count, 1, n), 1.0 / n)
        damped_only = np.zeros((count, 1), dtype=bool)
    else:
        baseline, (targets, agents, entries) = around
        width = targets.shape[1]
        own = np.arange(count)[:, None]
        offsets = np.arange(count * width).reshape(count, width) * n
        deltas = entries - rates[own, targets, agents]
        scatter = ((offsets + targets).ravel(), (offsets + agents).ravel(), deltas.ravel())
        values = np.repeat(baseline[:, None, :], width, axis=1)
        chord, usable = _chord_matrices(adj, rates, baseline)
        chord_t = np.swapaxes(chord, 1, 2)
        damped_only = np.repeat(~usable[:, None], width, axis=1)
    shape = values.shape
    values[np.broadcast_to(~adj.any(axis=2)[:, None, :], shape)] = 0.0
    converged = np.zeros(shape[:2], dtype=bool)
    iterations = np.zeros(shape[:2], dtype=np.int64)
    polished = np.zeros(shape[:2], dtype=bool)
    previous = None  # (values, fixed, residual) before the last step

    for _ in range(opts.max_iterations + 1):
        fixed, denom = _fixed_map(rates, adj, values, scatter)
        residual = np.abs(fixed - values).max(axis=2)
        if polished.any():
            # undo polished steps that did not halve the residual
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
        delta = opts.relaxation * gap
        polished = step & ~damped_only & (residual < POLISH_RESIDUAL * np.abs(fixed).max(axis=2))
        if polished.any() and around is not None:
            # every record's rows in one product, so a row's arithmetic
            # does not depend on which other rows are polished
            delta[polished] = (gap @ chord_t)[polished]
        elif polished.any():
            record = np.flatnonzero(polished[:, 0])
            jac = _jacobian_stack(rates[record], adj[record], fixed[polished], denom[polished])
            solved, ok = _each_matrix(np.linalg.solve, np.eye(n) - jac, gap[polished][:, :, None])
            # a singular row keeps its damped step and stays damped
            delta[record[ok], 0] = solved[ok, :, 0]
            damped_only[record[~ok], 0] = True
            polished[record[~ok], 0] = False
        delta[~step] = 0.0
        previous = (values, fixed, residual)
        values = values + delta
        iterations += step

    return values, converged, iterations


def solve_rate_batch(
    g: Graph, rate_stack: np.ndarray, opts: SolverOptions
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the likedness fixed point for a stack of rate matrices.

    rate_stack has shape (batch, n, n), all sharing the graph g.
    Returns (raw_values, converged, iterations) with shapes
    (batch, n), (batch,), (batch,). Each matrix of the stack is a record
    of its own for _solve_block's plain mode, which does the work and
    describes the steps, so each row equals the corresponding single solve.
    """
    batch, n = rate_stack.shape[0], g.n
    adj = np.broadcast_to(g.adjacency, (batch, n, n))
    raw, converged, iterations = _solve_block(adj, rate_stack, opts)
    return raw[:, 0], converged[:, 0], iterations[:, 0]


def likedness_centrality(
    g: Graph, rates: RateMatrix, opts: SolverOptions | None = None
) -> CentralityVector:
    """Solve for likedness centrality (see solve_rate_batch).

    Starts from the uniform vector, holds isolated nodes at exactly
    zero, and normalizes the reported values to sum to 1. When the
    iteration budget runs out the best iterate is returned with
    converged=False rather than raising; ensemble records carry the
    flag.
    """
    opts = opts or SolverOptions()
    rates.check_support(g)
    raw, conv, iters = solve_rate_batch(g, rates.values[None, :, :], opts)
    return CentralityVector(
        values=_normalize_rows(raw)[0],
        raw=raw[0],
        converged=bool(conv[0]),
        iterations=int(iters[0]),
    )


def eigenvector_centrality(
    g: Graph, rates: RateMatrix, opts: SolverOptions | None = None
) -> CentralityVector:
    """Dominant-eigenvector centrality of the rate matrix, by power iteration.

    This is the inflation-prone reference model that likedness
    centrality replaces. The iteration runs on rates + shift*I (shift
    equal to the largest entry) so that periodic structures such as
    bipartite graphs cannot stall it; the shift leaves eigenvectors
    unchanged. Raises NonConvergenceError at the iteration cap.
    """
    opts = opts or SolverOptions()
    rates.check_support(g)
    matrix = rates.values
    shift = float(matrix.max())
    if shift <= 0.0:
        raise DegenerateSystemError("rate matrix is zero; no dominant eigenvector")
    shifted = matrix + shift * np.eye(g.n)
    vec = np.full(g.n, 1.0 / g.n)
    for it in range(1, opts.max_iterations + 1):
        nxt = shifted @ vec
        # entries are >= 0 and vec sums to 1, so the sum is at least shift > 0
        nxt /= nxt.sum()
        if np.abs(nxt - vec).max() <= opts.tolerance:
            return CentralityVector(values=nxt, raw=nxt, converged=True, iterations=it)
        vec = nxt
    raise NonConvergenceError(
        f"power iteration did not converge in {opts.max_iterations} iterations"
    )


def write_rates_dense(rates: RateMatrix, path) -> None:
    """Dense CSV: n rows of n comma-separated entries."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rates.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_rates_triplets(rates: RateMatrix, path) -> None:
    """Sparse text: one 'i j rate' line per nonzero entry, plus header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={rates.n}\n")
        rows, cols = np.nonzero(rates.values)
        for i, j in zip(rows, cols):
            fh.write(f"{i} {j} {float(rates.values[i, j])!r}\n")


def _check_rate(where: str, i: int, j: int, rate: float) -> None:
    """RateMatrix's rules for entry (i, j), read at `where` (path:line)."""
    if not 0.0 <= rate < math.inf:
        raise SolverError(f"{where}: rate {rate} is not finite and >= 0")
    if i == j and rate:
        raise SolverError(f"{where}: diagonal rate ({i}, {j}) must be zero, got {rate}")


def read_rates(path) -> RateMatrix:
    """Read a rate matrix from dense CSV (.csv) or sparse triplet text; each
    value is checked as it is read, so that a bad one names its line."""
    path = str(path)
    if path.endswith(".csv"):
        rows = []
        with open(path, encoding="utf-8") as fh:
            for where, line in content_lines(fh, path):
                try:
                    row = [float(x) for x in line.split(",")]
                except ValueError:
                    raise SolverError(f"{where}: non-numeric entry in {line!r}") from None
                if rows and len(row) != len(rows[0]):
                    raise SolverError(
                        f"{where}: row {len(rows) + 1} has {len(row)} entries, "
                        f"expected {len(rows[0])}"
                    )
                for j, rate in enumerate(row):
                    _check_rate(where, len(rows), j, rate)
                rows.append(row)
        values = np.array(rows)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise SolverError(f"{path}: dense rate CSV must be square, got {values.shape}")
        return RateMatrix(n=values.shape[0], values=values)
    with open(path, encoding="utf-8") as fh:
        n = read_node_count(fh, path, SolverError)
        values = np.zeros((n, n))
        seen = set()
        for where, line in content_lines(fh, path, start=2):
            parts = line.split()
            if len(parts) != 3:
                raise SolverError(f"{where}: expected 'i j rate', got {line!r}")
            try:
                i, j, rate = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise SolverError(f"{where}: non-numeric index or rate in {line!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise SolverError(f"{where}: triplet index ({i}, {j}) out of range for n={n}")
            if (i, j) in seen:
                raise SolverError(f"{where}: duplicate triplet for entry ({i}, {j})")
            _check_rate(where, i, j, rate)
            seen.add((i, j))
            values[i, j] = rate
    return RateMatrix(n=n, values=values)
