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
ch. 5). It solves a stack of rate matrices over one graph at once; a
caller that knows a nearby fixed point can start every row there and
share one Newton matrix (chord steps), which is what makes
finite-difference stability sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, read_node_count

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
    """Each row of a (batch, n) array divided by its sum; all-zero rows stay zero."""
    total = raw.sum(axis=1, keepdims=True)
    return np.where(total > 0, raw / np.where(total > 0, total, 1.0), 0.0)


def _fixed_map(
    rate_stack: np.ndarray, adj: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(F(v), A v) for each row; F is 0 where A v is 0 (isolated nodes)."""
    numer = np.einsum("bij,bj->bi", rate_stack, values)
    denom = values @ adj.T
    safe = denom > 0.0
    return np.where(safe, numer / np.where(safe, denom, 1.0), 0.0), denom


def _jacobian_stack(
    rate_stack: np.ndarray, adj: np.ndarray, fixed: np.ndarray, denom: np.ndarray
) -> np.ndarray:
    """dF_i/dv_k = (R_ik - F_i * A_ik) / (A v)_i for each row; zero where (A v)_i = 0."""
    safe = denom > 0.0
    inv = np.where(safe, 1.0 / np.where(safe, denom, 1.0), 0.0)
    return (rate_stack - fixed[:, :, None] * adj) * inv[:, :, None]


def newton_matrix(g: Graph, rates: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """(I - dF/dv)^-1 for one rate matrix at the raw iterate `raw`.

    At a fixed point this maps a change in F to the change in the fixed
    point, so it is both the Newton step matrix and the exact
    sensitivity operator. Raises numpy.linalg.LinAlgError when singular.
    """
    fixed, denom = _fixed_map(rates[None], g.adjacency, raw[None])
    jac = _jacobian_stack(rates[None], g.adjacency, fixed, denom)[0]
    return np.linalg.inv(np.eye(g.n) - jac)


def solve_rate_batch(
    g: Graph,
    rate_stack: np.ndarray,
    opts: SolverOptions,
    start: np.ndarray | None = None,
    step_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the likedness fixed point for a stack of rate matrices.

    rate_stack has shape (batch, n, n), all sharing the graph g.
    Returns (raw_values, converged, iterations) with shapes
    (batch, n), (batch,), (batch,). Rows are frozen as soon as their
    residual max|F(v) - v| drops to opts.tolerance, so each row equals
    the corresponding single solve.

    Every row updates v <- v + P (F(v) - v). While its residual is at
    least POLISH_RESIDUAL * max|F(v)|, P = relaxation * I (damped
    substitution). Below that, P = (I - dF/dv)^-1 with the row's own
    Jacobian at v (Newton), or P = `step_matrix` when given, one n x n
    matrix shared by every row (chord). A polished step that fails to
    halve the row's residual is undone, as is a singular Newton system,
    and the row takes damped steps from then on, so a poor step matrix
    costs iterations, never the fixed point.

    `start` (shape (n,) or (batch, n)) replaces the uniform start
    vector, e.g. a nearby fixed point.
    """
    if not g.edges:
        raise DegenerateSystemError("graph has no edges; every denominator is zero")
    adj = g.adjacency
    n = g.n
    batch = rate_stack.shape[0]

    if start is None:
        values = np.full((batch, n), 1.0 / n)
    else:
        values = np.array(np.broadcast_to(start, (batch, n)), dtype=float)
    values[:, g.degrees == 0] = 0.0
    active = np.ones(batch, dtype=bool)
    converged = np.zeros(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=np.int64)
    damped_only = np.zeros(batch, dtype=bool)
    polished = np.zeros(batch, dtype=bool)
    previous = None  # (values, fixed, residual, denom) before the last step

    for _ in range(opts.max_iterations + 1):
        fixed, denom = _fixed_map(rate_stack, adj, values)
        residual = np.abs(fixed - values).max(axis=1)
        if polished.any():
            # undo polished steps that did not halve the residual
            rejected = polished & ~(residual <= POLISH_CONTRACTION * previous[2])
            if rejected.any():
                damped_only |= rejected
                values[rejected] = previous[0][rejected]
                fixed[rejected] = previous[1][rejected]
                residual[rejected] = previous[2][rejected]
                denom[rejected] = previous[3][rejected]

        settled = active & (residual <= opts.tolerance)
        converged |= settled
        active &= ~settled
        step = active & (iterations < opts.max_iterations)
        if not step.any():
            break

        gap = fixed - values
        delta = opts.relaxation * gap
        polished = step & ~damped_only & (residual < POLISH_RESIDUAL * np.abs(fixed).max(axis=1))
        rows = np.flatnonzero(polished)
        if rows.size:
            if step_matrix is not None:
                delta[rows] = gap[rows] @ step_matrix.T
            else:
                jac = _jacobian_stack(rate_stack[rows], adj, fixed[rows], denom[rows])
                try:
                    delta[rows] = np.linalg.solve(np.eye(n) - jac, gap[rows, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    # the batched solve cannot say which row is singular:
                    # these rows keep their damped step and stay damped
                    damped_only[rows] = True
                    polished[rows] = False
        delta[~step] = 0.0
        previous = (values, fixed, residual, denom)
        values = values + delta
        iterations += step

    return values, converged, iterations


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
        total = nxt.sum()
        if total <= 0.0:
            raise DegenerateSystemError("power iteration collapsed to zero")
        nxt /= total
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


def read_rates(path) -> RateMatrix:
    """Read a rate matrix from dense CSV (.csv) or sparse triplet text."""
    path = str(path)
    if path.endswith(".csv"):
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = [float(x) for x in line.split(",")]
                except ValueError:
                    raise SolverError(f"{path}:{lineno}: non-numeric entry in {line!r}") from None
                if rows and len(row) != len(rows[0]):
                    raise SolverError(
                        f"{path}:{lineno}: row {len(rows) + 1} has {len(row)} entries, "
                        f"expected {len(rows[0])}"
                    )
                rows.append(row)
        values = np.array(rows)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise SolverError(f"dense rate CSV must be square, got {values.shape}")
        return RateMatrix(n=values.shape[0], values=values)
    with open(path, encoding="utf-8") as fh:
        n = read_node_count(fh, path, SolverError)
        values = np.zeros((n, n))
        seen = set()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise SolverError(f"{path}:{lineno}: expected 'i j rate', got {line!r}")
            try:
                i, j, rate = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise SolverError(
                    f"{path}:{lineno}: non-numeric index or rate in {line!r}"
                ) from None
            if not (0 <= i < n and 0 <= j < n):
                raise SolverError(
                    f"{path}:{lineno}: triplet index ({i}, {j}) out of range for n={n}"
                )
            if (i, j) in seen:
                raise SolverError(f"{path}:{lineno}: duplicate triplet for entry ({i}, {j})")
            seen.add((i, j))
            values[i, j] = rate
    return RateMatrix(n=n, values=values)
