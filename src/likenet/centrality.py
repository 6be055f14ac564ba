"""Likedness centrality solver and the eigenvector-centrality contrast model.

Likedness centrality is the fixed point of

    value[i] = sum_j rates[i, j] * value[j] / sum_j adjacency[i, j] * value[j]

where rates[i, j] is the rate at which agent j "likes" agent i. The
right-hand side is invariant to rescaling the whole vector, but the
equation itself pins the raw magnitudes to rate units; the reported
vector is normalized to sum to 1. Eigenvector centrality, R v = lambda v
with v scaled to sum to lambda, is the same fixed point with an all-ones
adjacency, so both measures go through one solver.

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
    "likedness_centrality",
    "eigenvector_centrality",
    "newton_matrix",
    "solve_rate_batch",
    "read_rates",
]


class SolverError(ValueError):
    """Invalid solver inputs."""


class DegenerateSystemError(SolverError):
    """No nonzero solution: the graph has no edges, or the rates no cycle."""


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver controls, the same for every measure.

    tolerance bounds the fixed-point residual max|F(v) - v| at the
    returned raw iterate. A solve that does not reach it in
    max_iterations steps returns converged=False; it never raises.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise SolverError(f"tolerance must be > 0, got {self.tolerance}")
        if not math.isfinite(self.tolerance):
            raise SolverError(f"tolerance must be finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise SolverError(f"max_iterations must be >= 1, got {self.max_iterations}")


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


@dataclass(frozen=True)
class CentralityVector:
    """Per-node centrality values.

    `values` is normalized to sum to 1 (all-zero vectors stay zero);
    `raw` carries the unnormalized fixed-point iterate in rate units,
    which is what the solver's residual guarantee refers to, and for
    either measure `converged` says whether that guarantee was met.
    """

    values: np.ndarray
    raw: np.ndarray
    converged: bool
    iterations: int


# A row takes damped steps, RELAXATION times the fixed-point gap, until its
# residual is below POLISH_RESIDUAL times max|F(v)|, then Newton or chord
# steps; a polished step must at least halve the residual or it is undone.
RELAXATION = 0.5
POLISH_RESIDUAL = 0.03
POLISH_CONTRACTION = 0.5


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    """Each vector along the last axis divided by its sum; all-zero vectors stay zero."""
    total = raw.sum(axis=-1, keepdims=True)
    return np.where(total > 0, raw / np.where(total > 0, total, 1.0), 0.0)


def _normalized_at(raw: np.ndarray, index: np.ndarray) -> np.ndarray:
    """_normalize_rows(raw) at one entry per vector: raw (..., n), index (...);
    each vector's sum divides only its picked entry."""
    total = raw.sum(axis=-1)
    picked = np.take_along_axis(raw, index[..., None], axis=-1)[..., 0]
    return np.where(total > 0, picked / np.where(total > 0, total, 1.0), 0.0)


def _fixed_map(
    rates_t: np.ndarray,
    adj_t: np.ndarray,
    values: np.ndarray,
    scatter: tuple | None = None,
    out: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """(F(v), A v) for rows (B, R, n) over record b's transposed (B, n, n)
    rates and adjacency, rates_t[b] = R_b^T and adj_t[b] = A_b^T.

    F is 0 where A v is 0 (isolated nodes). `scatter` = (into, source,
    deltas), flat indices into the rows: a perturbed row adds delta to one
    entry (t, a) of its record's rates, so its numerator gains
    delta * v_a at node t, and no rate matrix is built per row. `out`
    names the arrays that receive F and A v; None allocates one.
    """
    numer = np.matmul(values, rates_t, out=out[0])
    if scatter is not None:
        into, source, deltas = scatter
        numer.reshape(-1)[into] += deltas * values.reshape(-1)[source]
    denom = np.matmul(values, adj_t, out=out[1])
    safe = denom > 0.0
    if safe.all():
        return np.divide(numer, denom, out=numer), denom
    np.divide(numer, denom, out=numer, where=safe)
    np.copyto(numer, 0.0, where=~safe)
    return numer, denom


def _row_max_abs(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """max |rows| along the last axis of (B, R, n), reduced over a node-major
    copy made in `scratch`, a contiguous array of rows' size: several times
    faster than a max along the short last axis, and exact in any order.
    The copy comes first, since |.| of the transposed view would take a
    64 KiB ufunc buffer."""
    node_major = scratch.reshape(rows.shape[2], *rows.shape[:2])
    np.copyto(node_major, rows.transpose(2, 0, 1))
    return np.abs(node_major, out=node_major).max(axis=0)


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
    fixed, denom = _fixed_map(np.swapaxes(rates, 1, 2), np.swapaxes(adj, 1, 2), raw[:, None, :])
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


class _Around(tuple):
    """_solve_block's `around` for the chunks of one block: it unpacks as
    (baseline, (targets, agents, entries)) and carries `work`, the loop's
    six float64 buffers (6, records, R, n) for the block's largest chunk,
    so that each chunk's loop writes into the same memory."""

    def __new__(cls, baseline, perturbation, work):
        around = super().__new__(cls, (baseline, perturbation))
        around.work = work
        return around


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
      term (see _fixed_map), so no rate matrix is built per row. An
      _Around also brings the loop's work buffers; otherwise the call
      allocates its own.

    Every row updates v <- v + P (F(v) - v). While its residual is at
    least POLISH_RESIDUAL * max|F(v)|, P = RELAXATION * I (damped
    substitution); below that P is the Newton or chord matrix. A polished
    step that fails to halve the row's residual is undone, and the row
    takes damped steps from then on; so does a row whose Newton system is
    singular, and every row of a record whose chord matrix is. A poor step
    matrix thus costs iterations, never the fixed point. Rows are frozen
    as soon as their residual max|F(v) - v| drops to opts.tolerance.

    Returns (raw_values, converged, iterations), shaped (B, R, n), (B, R)
    and (B, R), with R = 1 in plain mode; raw_values is a fresh array, not
    a work buffer. A row's steps depend on that row alone, so a record's
    rows do not depend on the other records of the block.
    """
    if not adj.any(axis=(1, 2)).all():
        raise DegenerateSystemError("graph has no edges; every denominator is zero")
    count, n = rates.shape[0], rates.shape[2]
    if around is None:
        scatter, width = None, 1
        # one row per record: the product keeps the swapped-axis views, since
        # a one-row product with contiguous operands can round differently
        rates_t, adj_t = np.swapaxes(rates, 1, 2), np.swapaxes(adj, 1, 2)
        start = 1.0 / n
        damped_only = np.zeros((count, 1), dtype=bool)
    else:
        baseline, (targets, agents, entries) = around
        width = targets.shape[1]
        own = np.arange(count)[:, None]
        offsets = np.arange(count * width).reshape(count, width) * n
        deltas = entries - rates[own, targets, agents]
        scatter = ((offsets + targets).ravel(), (offsets + agents).ravel(), deltas.ravel())
        start = baseline[:, None, :]
        chord, usable = _chord_matrices(adj, rates, baseline)
        # contiguous product operands: the same bits as swapped-axis views,
        # in about half the time; the loop keeps only the transposed chord
        rates_t, adj_t, chord_t = (
            np.ascontiguousarray(np.swapaxes(m, 1, 2)) for m in (rates, adj, chord)
        )
        del chord
        damped_only = np.repeat(~usable[:, None], width, axis=1)
    work = getattr(around, "work", None)
    own_work = work is None
    if own_work:
        # six arrays apart, so that the values returned hold only their own
        work = [np.empty((count, width, n)) for _ in range(6)]
    # every (B, R, n) array of the loop: the values and those before the
    # last step, F and F before the last step (swapped each pass), A v and
    # then the gap F - v, and one scratch array for node-major row maxima
    # and for the step
    values, before, fixed, fixed_before, gap, scratch = (buffer[:count] for buffer in work)
    shape = values.shape
    values[...] = start
    values[np.broadcast_to(~adj.any(axis=2)[:, None, :], shape)] = 0.0
    converged = np.zeros(shape[:2], dtype=bool)
    iterations = np.zeros(shape[:2], dtype=np.int64)
    polished = np.zeros(shape[:2], dtype=bool)
    residual_before = None

    for _ in range(opts.max_iterations + 1):
        # plain mode's Newton steps read A v after the gap is taken
        _, denom = _fixed_map(
            rates_t, adj_t, values, scatter, out=(fixed, None if around is None else gap)
        )
        np.subtract(fixed, values, out=gap)
        residual = _row_max_abs(gap, scratch)
        if polished.any():
            # undo polished steps that did not halve the residual
            rejected = polished & ~(residual <= POLISH_CONTRACTION * residual_before)
            if rejected.any():
                damped_only |= rejected
                np.copyto(values, before, where=rejected[:, :, None])
                np.copyto(fixed, fixed_before, where=rejected[:, :, None])
                np.copyto(residual, residual_before, where=rejected)
                np.subtract(fixed, values, out=gap)

        converged |= residual <= opts.tolerance
        step = ~converged & (iterations < opts.max_iterations)
        if not step.any():
            break

        largest = _row_max_abs(fixed, scratch)
        polished = step & ~damped_only & (residual < POLISH_RESIDUAL * largest)
        delta = np.multiply(RELAXATION, gap, out=scratch)
        if polished.any() and around is not None:
            # every record's rows in one product, so a row's arithmetic
            # does not depend on which other rows are polished; `before`
            # is free until the step is taken
            np.copyto(delta, np.matmul(gap, chord_t, out=before), where=polished[:, :, None])
        elif polished.any():
            record = np.flatnonzero(polished[:, 0])
            jac = _jacobian_stack(rates[record], adj[record], fixed[polished], denom[polished])
            solved, ok = _each_matrix(np.linalg.solve, np.eye(n) - jac, gap[polished][:, :, None])
            # a singular row keeps its damped step and stays damped
            delta[record[ok], 0] = solved[ok, :, 0]
            damped_only[record[~ok], 0] = True
            polished[record[~ok], 0] = False
        if not step.all():
            np.copyto(delta, 0.0, where=~step[:, :, None])
        residual_before = residual
        np.add(values, delta, out=before)
        values, before = before, values
        fixed, fixed_before = fixed_before, fixed
        iterations += step

    return (values if own_work else values.copy()), converged, iterations


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


def _centrality(adj: np.ndarray, rates: np.ndarray, opts: SolverOptions) -> CentralityVector:
    """The plain solve of one system, its values normalized to sum to 1."""
    raw, conv, iters = _solve_block(adj[None], rates[None], opts)
    return CentralityVector(
        values=_normalize_rows(raw[0, 0]),
        raw=raw[0, 0],
        converged=bool(conv[0, 0]),
        iterations=int(iters[0, 0]),
    )


def likedness_centrality(
    g: Graph, rates: RateMatrix, opts: SolverOptions | None = None
) -> CentralityVector:
    """Solve for likedness centrality (see _solve_block's plain mode).

    Starts from the uniform vector, holds isolated nodes at exactly
    zero, and normalizes the reported values to sum to 1. When the
    iteration budget runs out the best iterate is returned with
    converged=False rather than raising; ensemble records carry the
    flag.
    """
    rates.check_support(g)
    return _centrality(g.adjacency, rates.values, opts or SolverOptions())


def eigenvector_centrality(
    g: Graph, rates: RateMatrix, opts: SolverOptions | None = None
) -> CentralityVector:
    """Dominant-eigenvector centrality of the rate matrix, the inflation-prone
    reference model that likedness centrality replaces.

    R v = lambda v with sum(v) = lambda is the fixed point v = R v / sum(v),
    the likedness map over an all-ones adjacency (self-pairs included), so
    raw sums to the dominant eigenvalue. A support with no directed cycle
    (a zero n-th power) has spectral radius 0 and raises
    DegenerateSystemError. Entries are not clipped: a weaker component's
    entries sit within tolerance of 0 and can be slightly negative.
    """
    rates.check_support(g)
    if not np.linalg.matrix_power(rates.values > 0, g.n).any():
        raise DegenerateSystemError("rate support has no directed cycle; no dominant eigenvalue")
    return _centrality(np.ones((g.n, g.n)), rates.values, opts or SolverOptions())


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
