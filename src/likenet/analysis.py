"""Analyses over persisted ensemble records.

Everything here is a deterministic function of the record set and its
parameters: representation ratios of strategic systems against the
population (rates and degrees), stability trends against discrete
graph metrics, a logistic regression of stability on the three
structural predictors by damped least squares, and the per-system
coalition experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .centrality import RateMatrix, SolverOptions, _normalize_rows, solve_rate_batch
from .ensemble import (
    STAR_STREAM,
    EnsembleConfig,
    RecordTable,
    _systems,
    block_records,
    check_rate_lambda,
)
from .graphs import Graph, GraphError, generate_star
from .seeding import spawned_seeds
from .stability import _gradient_block, _stability_columns, check_strategic, classify_strategic

__all__ = [
    "BinnedSeries",
    "LogisticFit",
    "MetricTrend",
    "CoalitionPoint",
    "StarComparison",
    "RankDeficientError",
    "exponential_quantile",
    "rate_representation",
    "degree_representation",
    "stability_vs_metric",
    "logistic_fit",
    "coalition_sweep",
    "pick_outlying_pair",
    "check_star_comparison",
    "star_comparison",
    "METRIC_FIELDS",
]

METRIC_FIELDS = ("mean_path_length", "mean_local_clustering", "degree_stddev")


class RankDeficientError(ValueError):
    """Predictor matrix has no full column rank (constant columns)."""


@dataclass(frozen=True)
class BinnedSeries:
    """Plot-ready binned data: len(values) == len(counts) == len(edges) - 1.

    Missing values (empty reference bins) are NaN, never zero. The fields
    take any sequences of numbers and hold them as tuples of Python floats
    and ints.
    """

    bin_edges: tuple[float, ...]
    bin_values: tuple[float, ...]
    bin_counts: tuple[int, ...]

    def __post_init__(self):
        for name, cast in (("bin_edges", float), ("bin_values", float), ("bin_counts", int)):
            object.__setattr__(self, name, tuple(map(cast, getattr(self, name))))
        values = len(self.bin_values)
        if values != len(self.bin_edges) - 1 or values != len(self.bin_counts):
            raise ValueError("inconsistent bin arrays")

    def rows(self) -> list[tuple[float, float, float, int]]:
        """(bin_low, bin_high, value, count) rows for CSV output."""
        return list(zip(self.bin_edges, self.bin_edges[1:], self.bin_values, self.bin_counts))


@dataclass(frozen=True)
class LogisticFit:
    intercept: float
    coef_preferential: float
    coef_path_length: float
    coef_clustering: float
    residual_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class MetricTrend:
    """Mean stability per distinct metric value plus a rank correlation."""

    metric: str
    series: BinnedSeries
    spearman: float


def exponential_quantile(p: float, rate_lambda: float) -> float:
    """Inverse CDF of Exp(rate_lambda)."""
    if p >= 1.0:
        return math.inf
    return -math.log1p(-p) / rate_lambda


def _percentile_edges(bins: int, rate_lambda: float) -> np.ndarray:
    """Rate edges of `bins` bins of equal Exp(rate_lambda) probability."""
    check_rate_lambda(rate_lambda)
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    return np.array([exponential_quantile(p, rate_lambda) for p in np.linspace(0.0, 1.0, bins + 1)])


def _representation(edges, strategic_counts: np.ndarray, counts: np.ndarray) -> BinnedSeries:
    """Strategic over population frequency ratio per bin, from each bin's
    strategic and total counts; NaN where the population has no count."""
    population_counts = counts - strategic_counts
    if not strategic_counts.any() or not population_counts.any():
        raise ValueError("both record sets must be non-empty")
    s_freq = strategic_counts / strategic_counts.sum()
    p_freq = population_counts / population_counts.sum()
    present = population_counts > 0
    values = np.where(present, s_freq / np.where(present, p_freq, 1.0), np.nan)
    return BinnedSeries(edges, values, strategic_counts)


def rate_representation(
    table: RecordTable, strategic: np.ndarray, rate_lambda: float = 1.0, bins: int = 50
) -> BinnedSeries:
    """Strategic over population frequency ratio per rate-percentile bin.

    `strategic` masks the strategic records; the rest are the
    population. Bins partition the Exp(rate_lambda) reference
    distribution by equal probability mass; ratio 1 means the strategic
    systems' outgoing rates look exactly like the population's in that bin.
    The edges span [0, inf], so every rate (the reader takes only finite,
    nonnegative ones) falls in a bin.
    """
    edges = _percentile_edges(bins, rate_lambda)
    strategic_counts = np.histogram(table.rates_of(strategic), bins=edges)[0]
    # counting the whole table's rates copies none of the population's
    return _representation(edges, strategic_counts, np.histogram(table.rates, bins=edges)[0])


def degree_representation(table: RecordTable, strategic: np.ndarray) -> BinnedSeries:
    """Strategic over population frequency ratio per vertex degree.

    `strategic` masks the strategic records; the rest are the population.
    """
    hist = table.degree_histogram
    edges = np.arange(hist.shape[1] + 1)
    return _representation(edges, hist[strategic].sum(axis=0), hist.sum(axis=0))


def stability_vs_metric(table: RecordTable, metric: str) -> MetricTrend:
    """Mean stability per distinct metric value, plus Spearman correlation.

    At small n the metric spectrum is discrete, so grouping by value
    (rounded to 12 decimals) is exact. The correlation is computed
    over records; constant inputs get correlation 0 by convention.
    """
    if metric not in METRIC_FIELDS:
        raise ValueError(f"metric must be one of {METRIC_FIELDS}, got {metric!r}")
    if not len(table):
        raise ValueError("no records")
    xs = getattr(table, metric)
    ys = table.stability
    # rounding keeps the sorted distinct values in order, so the values that
    # round to one key are neighbours; each NaN stays a value of its own
    values, inverse = np.unique(xs, return_inverse=True, equal_nan=False)
    rounded = [round(v, 12) for v in values.tolist()]
    starts = np.array([True] + [a != b for a, b in zip(rounded, rounded[1:])])
    keys = [key for key, start in zip(rounded, starts) if start]
    group = (np.cumsum(starts) - 1)[inverse]
    counts = np.bincount(group, minlength=len(keys))
    # each group's stabilities in record order
    members = np.split(ys[np.argsort(group, kind="stable")], np.cumsum(counts)[:-1])
    if _is_constant(xs) or _is_constant(ys):
        rho = 0.0
    elif np.isnan(xs).any() or np.isnan(ys).any():
        rho = math.nan
    else:
        ranks = np.column_stack((_average_ranks(xs), _average_ranks(ys)))
        rho = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    return MetricTrend(
        metric=metric,
        series=BinnedSeries(_discrete_edges(keys), [np.mean(m) for m in members], counts),
        spearman=rho,
    )


def _is_constant(column: np.ndarray) -> bool:
    """Fewer than two distinct values, a NaN being distinct from every value."""
    return len(column) < 2 or not (column != column[0]).any()


def _average_ranks(column: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _discrete_edges(keys: Sequence[float]) -> list[float]:
    """Bin edges putting each distinct value in its own bin."""
    if len(keys) == 1:
        return [keys[0] - 0.5, keys[0] + 0.5]
    edges = [keys[0] - (keys[1] - keys[0]) / 2]
    for a, b in zip(keys, keys[1:]):
        edges.append((a + b) / 2)
    edges.append(keys[-1] + (keys[-1] - keys[-2]) / 2)
    return edges


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# _lm_logistic starts at LM_DAMPING and takes at most LM_MAX_ITERATIONS
# steps; it stops when an accepted step lowers the cost by less than
# LM_COST_RTOL of it or moves beta by less than LM_STEP_ATOL.
LM_DAMPING = 1e-3
LM_MAX_ITERATIONS = 500
LM_COST_RTOL = 1e-10
LM_STEP_ATOL = 1e-12


def _lm_logistic(
    design: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Damped least squares for target ~ sigmoid(design @ beta).

    Damping is multiplied by 10 on a rejected step and divided by 10 on
    an accepted one; accepted steps never increase the residual norm.
    Returns (beta, residual_norm, iterations, converged, history).
    """
    damping = LM_DAMPING
    beta = np.zeros(design.shape[1])
    pred = _sigmoid(design @ beta)
    resid = target - pred
    cost = float(resid @ resid)
    history = [math.sqrt(cost)]
    iterations = 0
    converged = False
    for iterations in range(1, LM_MAX_ITERATIONS + 1):
        slope = pred * (1.0 - pred)
        jac = slope[:, None] * design
        gram = jac.T @ jac
        grad = jac.T @ resid
        try:
            delta = np.linalg.solve(gram + damping * np.eye(len(beta)), grad)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        trial = beta + delta
        trial_pred = _sigmoid(design @ trial)
        trial_resid = target - trial_pred
        trial_cost = float(trial_resid @ trial_resid)
        if trial_cost <= cost:
            rel_change = abs(cost - trial_cost) / max(cost, 1e-300)
            beta, pred, resid, cost = trial, trial_pred, trial_resid, trial_cost
            history.append(math.sqrt(cost))
            damping = max(damping / 10.0, 1e-300)
            if rel_change < LM_COST_RTOL or float(np.linalg.norm(delta)) < LM_STEP_ATOL:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e100:
                break
    return beta, math.sqrt(cost), iterations, converged, history


def logistic_fit(table: RecordTable) -> LogisticFit:
    """Regress stability on the three structural metrics via a logistic model.

    Model: stability ~ sigmoid(b0 + b1*degree_stddev + b2*mean_path_length
    + b3*mean_local_clustering), squared error minimized by
    Levenberg-Marquardt-style damped least squares, over the records
    whose stability and metrics are all finite.
    """
    predictors = [table.degree_stddev, table.mean_path_length, table.mean_local_clustering]
    finite = np.isfinite(table.stability)
    for column in predictors:
        finite &= np.isfinite(column)
    count = int(finite.sum())
    if count < 50:
        raise ValueError(f"need >= 50 records with finite metrics, got {count}")
    design = np.column_stack([np.ones(count)] + [column[finite] for column in predictors])
    names = ("intercept", "degree_stddev", "mean_path_length", "mean_local_clustering")
    constant = [n for n, col in zip(names, design.T) if n != "intercept" and np.ptp(col) == 0.0]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        detail = f" (constant columns: {', '.join(constant)})" if constant else ""
        raise RankDeficientError(f"predictor matrix is rank-deficient{detail}")
    target = table.stability[finite]
    beta, residual_norm, iterations, converged, _ = _lm_logistic(design, target)
    return LogisticFit(
        intercept=float(beta[0]),
        coef_preferential=float(beta[1]),
        coef_path_length=float(beta[2]),
        coef_clustering=float(beta[3]),
        residual_norm=residual_norm,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class CoalitionPoint:
    joint_rate: float
    member_a: float
    member_b: float
    others_mean: float
    converged: bool


def pick_outlying_pair(g: Graph) -> tuple[int, int]:
    """Adjacent pair of minimum degree; else the lowest degree-sum edge."""
    if not g.edges:
        raise GraphError("the graph has no edges; a coalition needs an adjacent pair")
    degrees = g.degrees
    dmin = int(degrees.min())
    both_min = [e for e in g.edges if degrees[e[0]] == dmin and degrees[e[1]] == dmin]
    if both_min:
        return both_min[0]
    return min(g.edges, key=lambda e: (int(degrees[e[0]] + degrees[e[1]]), e))


def coalition_sweep(
    g: Graph,
    rates: RateMatrix,
    a: int,
    b: int,
    joint_rates: Sequence[float],
    opts: SolverOptions | None = None,
) -> list[CoalitionPoint]:
    """Re-solve centralities as nodes a and b like each other at a joint rate.

    Both directed rates between a and b are set to each sweep value;
    all other rates stay fixed, and the sweep is solved as one batch.
    """
    if a == b:
        raise ValueError("coalition members must differ")
    if not g.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge; a coalition needs adjacency")
    for rho in joint_rates:
        if not (rho >= 0 and math.isfinite(rho)):
            raise ValueError(f"joint rate must be finite and nonnegative, got {rho}")
    rates.check_support(g)
    swept = np.repeat(rates.values[None], len(joint_rates), axis=0)
    swept[:, a, b] = swept[:, b, a] = joint_rates
    raw, converged, _ = solve_rate_batch(g, swept, opts or SolverOptions())
    others = [v for v in range(g.n) if v not in (a, b)]
    return [
        CoalitionPoint(
            joint_rate=float(rho),
            member_a=float(row[a]),
            member_b=float(row[b]),
            others_mean=float(np.mean(row[others])) if others else float("nan"),
            converged=bool(ok),
        )
        for rho, row, ok in zip(joint_rates, _normalize_rows(raw), converged)
    ]


@dataclass(frozen=True)
class StarComparison:
    star_count: int
    ba_hub_count: int
    star_mean_stability: float
    ba_hub_mean_stability: float
    stability_advantage: float
    branch_hub_ratio: float
    strategic_star_count: int
    warnings: tuple[str, ...]


def _sample_stars(count: int, config: EnsembleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stars 0..count-1 of the config's star seed stream, on config.n nodes
    with Exp(rate_lambda) rates: their stabilities (count,) and baseline
    centralities (count, n), normalized, hub first.

    The stars are solved in blocks, as the ensemble solves its records.
    """
    edges = np.array(generate_star(config.n).edges)
    size = block_records(2 * len(edges), config.n)
    stabilities, centralities = [], []
    for start in range(0, count, size):
        indices = range(start, min(start + size, count))
        _, seeds = spawned_seeds(config.master_seed, STAR_STREAM, indices)
        adj, rates, entries = _systems(
            config.n, np.broadcast_to(edges, (len(seeds), *edges.shape)), config.rate_lambda, seeds
        )
        grads, _, centrality = _gradient_block(adj, rates, entries, config.solver, "forward")
        stabilities += _stability_columns(grads)[0]
        centralities.append(centrality)
    return np.array(stabilities), np.concatenate(centralities)


def check_star_comparison(
    star_samples: int, fraction: float, direction: Literal["low", "high"]
) -> None:
    """Reject star_comparison's sample count and strategic class."""
    if star_samples < 1:
        raise ValueError("star_samples must be >= 1")
    check_strategic(fraction, direction)


def star_comparison(
    star_samples: int,
    ba_records: RecordTable,
    config: EnsembleConfig,
    fraction: float,
    direction: Literal["low", "high"] = "high",
) -> StarComparison:
    """Random-rate stars versus preferential-attachment graphs with a full hub.

    Stars are sampled fresh from a dedicated seed stream of the config.
    The comparison set is the subset of `ba_records` (a prior run of
    n-node graphs) with a vertex of degree n-1. Also reports, within
    the strategic stars (classify_strategic at `fraction` and
    `direction`), the ratio of mean branch centrality to mean hub
    centrality. The arguments and the records are checked before any
    star is sampled.
    """
    check_star_comparison(star_samples, fraction, direction)
    width = ba_records.degree_histogram.shape[1]
    if width != config.n:
        raise ValueError(f"the records are of {width}-node graphs, the stars of {config.n}")
    hub_degree = config.n - 1
    in_hub = ba_records.degree_histogram[:, hub_degree] > 0
    hub_count = int(in_hub.sum())
    if not hub_count:
        raise ValueError(
            f"no graphs with a degree-{hub_degree} hub among {len(ba_records)} samples; "
            "more samples required"
        )
    warnings = []
    if hub_count < 30:
        warnings.append(f"hub subset has only {hub_count} samples; wide uncertainty")
    if star_samples < 30:
        warnings.append(f"only {star_samples} star samples; wide uncertainty")

    star_stability, centrality = _sample_stars(star_samples, config)
    branch_centrality = centrality[:, 1:].mean(axis=1)
    hub_centrality = centrality[:, 0]
    star_mean = float(np.mean(star_stability))
    hub_mean = float(np.mean(ba_records.stability[in_hub]))

    strategic, _ = classify_strategic(star_stability, fraction, direction)
    branch_mean = float(np.mean(branch_centrality[strategic]))
    hub_centrality_mean = float(np.mean(hub_centrality[strategic]))
    ratio = branch_mean / hub_centrality_mean if hub_centrality_mean > 0 else float("inf")

    return StarComparison(
        star_count=star_samples,
        ba_hub_count=hub_count,
        star_mean_stability=star_mean,
        ba_hub_mean_stability=hub_mean,
        stability_advantage=star_mean / hub_mean - 1.0,
        branch_hub_ratio=ratio,
        strategic_star_count=int(strategic.sum()),
        warnings=tuple(warnings),
    )
