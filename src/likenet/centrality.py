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
each change one of a record's rate entries, around that record's solved
baseline (around). The second mode is what makes finite-difference
stability sweeps cheap. A one-entry change enters the map as a rank-one
term, so no rate matrix is built per perturbed system; its fixed point
lies on its target node's response curve, whose power series around the
baseline comes from the baseline's Newton matrix, so a record needs one
n x n series per target node, not one solve per entry (Blondel et al.,
arXiv:2105.15183). Each perturbed system starts on that series, where
nearly all meet the tolerance, and takes chord steps with the baseline's
Newton matrix from there.
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
# A perturbed row starts on its target's response series, summed to
# SERIES_ORDER, at the scalar step that SERIES_SWEEPS fixed-point sweeps give.
SERIES_ORDER = 4
SERIES_SWEEPS = 3


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


def _series_start(
    rates_t: np.ndarray,
    adj_t: np.ndarray,
    baseline: np.ndarray,
    chord_t: np.ndarray,
    usable: np.ndarray,
    perturbation: tuple[np.ndarray, np.ndarray, np.ndarray],
    out: np.ndarray,
    rows: np.ndarray,
    spare: tuple[np.ndarray, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write into out (B, R, n) where _solve_block starts its perturbed rows.

    Row (b, r) adds delta to entry (t, a) of record b's rates, so its
    fixed point solves v = F(v) + s e_t with s = delta v_a / (A v)_t: a
    point of target t's response curve. Around the baseline v* (residual
    r* = F(v*) - v*) that curve is v* + C r* + sum_k s^k x_k[:, t], with
    x_1 = C = (I - dF/dv)^-1 and (I - dF/dv) x_k = -(sum_{j<k} (A x_j) o
    f_{k-j}) / (A v*), f_1 = C - I and f_j = x_j: one n x n series per
    record, summed to SERIES_ORDER, serves all its targets. Each row's s
    starts at s0 = delta v*_a / (A v*)_t and takes SERIES_SWEEPS sweeps of
    s = delta v_a(s) / (A v(s))_t on the row's gathered coefficients. The
    rows of a record whose chord matrix is not usable, and rows whose start
    is not finite, start at the baseline.

    The series is built transposed, row t of each (B, n, n) array for
    target t, so that chord_t and adj_t serve as they are. `rows` is a
    (B, R, n) array for gathered rows; the n x n and (B, R) arrays are
    carved from `spare`, first come first served, or allocated when it runs
    out. The two returned (B, R) arrays are carved first, so the first spare
    array must be one that the loop's first pass leaves alone. No operation
    broadcasts over a (B, R, n) array, which would take a ufunc buffer.
    Returns (F(v*) (B, n), s0 (B, R), max|r* + s0 e_t| (B, R)): what a row
    needs to restart at its baseline, in closed form.
    """
    targets, agents, deltas = perturbation
    (count, width), n = targets.shape, baseline.shape[1]
    free = [buffer.reshape(-1) for buffer in spare]

    def carve(*shape):
        size = math.prod(shape)
        for index, flat in enumerate(free):
            if flat.size >= size:
                free[index] = flat[size:]
                return flat[:size].reshape(shape)
        return np.empty(shape)

    first, closed = carve(2, count, width)
    # coefficients[k - 1] holds x_k[a, t] and (A x_k)[t, t] of each row, and
    # anchor v*_a and (A v*)_t
    coefficients, anchor = carve(SERIES_ORDER, 2, count, width), carve(2, count, width)
    fixed, denom = (m[:, 0] for m in _fixed_map(rates_t, adj_t, baseline[:, None, :]))
    safe = denom > 0.0
    inv = np.where(safe, 1.0 / np.where(safe, denom, 1.0), 0.0)
    residual = fixed - baseline
    # row t of record b in a flat (B, n) or (B, n, n) array, and its (t, t) and (t, a)
    target_rows = np.arange(count)[:, None] * n + targets
    diagonal, entry = target_rows * n + targets, target_rows * n + agents
    baseline.take(target_rows - targets + agents, out=anchor[0], mode="clip")
    denom.take(target_rows, out=anchor[1], mode="clip")
    # s0, 0 where (A v*)_t is 0, as F is
    inv.take(target_rows, out=first, mode="clip")
    first *= anchor[0]
    first *= deltas
    # the baseline start's residual: the largest |r*| off t, or |r*_t + s0|
    total, term = carve(count, n, n), carve(count, n, n)
    np.copyto(total, np.abs(residual)[:, None, :])
    total.reshape(count, -1)[:, :: n + 1] = 0.0
    total.max(axis=2).take(target_rows, out=closed, mode="clip")
    np.maximum(closed, np.abs(residual.take(target_rows) + first), out=closed)

    with np.errstate(all="ignore"):
        # series[k - 1] is x_k transposed, images[k - 1] (A x_k) transposed and
        # factors[k - 1] f_k transposed, so that row t is target t's
        series, images, factors = [chord_t], [], [carve(count, n, n)]
        np.copyto(factors[0], chord_t)
        factors[0].reshape(count, -1)[:, :: n + 1] -= 1.0
        for order in range(1, SERIES_ORDER + 1):
            if order > 1:
                np.multiply(images[0], factors[order - 2], out=total)
                for j in range(2, order):
                    total += np.multiply(images[j - 1], factors[order - j - 1], out=term)
                np.einsum("btj,bj->btj", total, -inv, out=term)
                series.append(np.matmul(term, chord_t, out=carve(count, n, n)))
                factors.append(series[-1])
            images.append(np.matmul(series[-1], adj_t, out=carve(count, n, n)))
            series[-1].take(entry, out=coefficients[order - 1, 0], mode="clip")
            images[-1].take(diagonal, out=coefficients[order - 1, 1], mode="clip")

        # s = delta v_a(s) / (A v(s))_t, both sums by Horner's rule
        step, sums = carve(count, width), carve(2, count, width)
        np.copyto(step, first)
        for _ in range(SERIES_SWEEPS):
            np.copyto(sums, coefficients[-1])
            for coefficient in coefficients[-2::-1]:
                sums *= step
                sums += coefficient
            sums *= step
            sums += anchor
            np.divide(sums[0], sums[1], out=step)
            step *= deltas

        # out = v* + C r* + sum_k s^k x_k[:, t], by Horner's rule over gathered rows
        index, flat_out = target_rows.reshape(-1), out.reshape(-1, n)
        series[-1].reshape(-1, n).take(index, axis=0, out=flat_out, mode="clip")
        for x in series[-2::-1]:
            np.einsum("brn,br->brn", out, step, out=rows)
            x.reshape(-1, n).take(index, axis=0, out=flat_out, mode="clip")
            out += rows
        np.einsum("brn,br->brn", out, step, out=rows)
        corrected = baseline + np.matmul(residual[:, None, :], chord_t)[:, 0]
        np.copyto(out, corrected[:, None, :])
        out += rows
        usable_rows = usable[:, None] & np.isfinite(out.sum(axis=2))
    np.copyto(out, baseline[:, None, :], where=~usable_rows[:, :, None])
    return fixed, first, closed


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
      agents[b, r]] set to entries[b, r], started on its target's response
      series around the record's baseline fixed point (_series_start) and
      polished by chord steps with the record's (I - dF/dv)^-1 at that
      baseline. The change enters F as a rank-one term (see _fixed_map),
      so no rate matrix is built per row. Most rows meet the tolerance
      where they start, and the loop's first pass only verifies them. An
      _Around also brings the loop's work buffers; otherwise the call
      allocates its own.

    Every row updates v <- v + P (F(v) - v). While its residual is at
    least POLISH_RESIDUAL * max|F(v)|, P = RELAXATION * I (damped
    substitution); below that P is the Newton or chord matrix. A polished
    step that fails to halve the row's residual is undone, and the row
    takes damped steps from then on; so does a row whose Newton system is
    singular, and every row of a record whose chord matrix is, which
    starts at the baseline. A series start that fails to halve the
    residual of the baseline start is undone too: the row restarts at the
    baseline, with its chord steps. A poor step matrix thus costs
    iterations, never the fixed point. Rows are frozen as soon as their
    residual max|F(v) - v| drops to opts.tolerance.

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
        damped_only = np.zeros((count, 1), dtype=bool)
    else:
        baseline, (targets, agents, entries) = around
        width = targets.shape[1]
        own = np.arange(count)[:, None]
        offsets = np.arange(count * width).reshape(count, width) * n
        deltas = entries - rates[own, targets, agents]
        scatter = ((offsets + targets).ravel(), (offsets + agents).ravel(), deltas.ravel())
        chord, usable = _chord_matrices(adj, rates, baseline)
        # contiguous product operands: the same bits as swapped-axis views,
        # in about half the time; the loop keeps only the transposed chord
        rates_t, adj_t, chord_t = (
            np.ascontiguousarray(np.swapaxes(m, 1, 2)) for m in (rates, adj, chord)
        )
        del chord, offsets
        damped_only = np.repeat(~usable[:, None], width, axis=1)
    restart = None
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
    if around is None:
        values[...] = 1.0 / n
    else:
        # `before` and the arrays after it are free until the loop's first
        # step; what a row needs to restart stays in fixed_before
        restart = _series_start(
            rates_t, adj_t, baseline, chord_t, usable, (targets, agents, deltas), values,
            before, (fixed_before, fixed, gap, scratch),
        )
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
        if restart is not None:
            # a series start must halve the baseline start's residual, as a
            # polished step must, or the row restarts at the baseline, where
            # F(v*) + s0 e_t is its map in closed form
            fixed_star, first, closed = restart
            restart = None
            restarted = ~(residual <= POLISH_CONTRACTION * closed)
            if restarted.any():
                np.copyto(values, baseline[:, None, :], where=restarted[:, :, None])
                np.copyto(fixed, fixed_star[:, None, :], where=restarted[:, :, None])
                fixed.reshape(-1)[scatter[0][restarted.reshape(-1)]] += first[restarted]
                np.copyto(residual, closed, where=restarted)
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
