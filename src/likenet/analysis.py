"""Analyses over persisted ensemble records.

Everything here is a deterministic function of the record set and its
parameters: representation ratios of strategic systems against the
population (rates and degrees), stability trends against discrete
graph metrics, a logistic regression of stability on the three
structural predictors by damped least squares, and the per-system
reciprocity and coalition experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .centrality import RateMatrix, SolverOptions, likedness_centrality
from .ensemble import (
    EnsembleConfig,
    RecordTable,
    record_seeds,
    run_ensemble,
    sample_rates,
    STAR_STREAM,
)
from .graphs import Graph, generate_star
from .stability import check_direction, classify_strategic, stability

__all__ = [
    "BinnedSeries",
    "LogisticFit",
    "MetricTrend",
    "CoalitionPoint",
    "StarComparison",
    "RankDeficientError",
    "exponential_quantile",
    "exponential_cdf",
    "rate_representation",
    "degree_representation",
    "stability_vs_metric",
    "logistic_fit",
    "reciprocity_curve",
    "coalition_sweep",
    "pick_outlying_pair",
    "star_comparison",
    "METRIC_FIELDS",
]

METRIC_FIELDS = ("mean_path_length", "mean_local_clustering", "degree_stddev")


class RankDeficientError(ValueError):
    """Predictor matrix has no full column rank (constant columns)."""


@dataclass(frozen=True)
class BinnedSeries:
    """Plot-ready binned data: len(values) == len(counts) == len(edges) - 1.

    Missing values (empty reference bins) are NaN, never zero.
    """

    bin_edges: tuple[float, ...]
    bin_values: tuple[float, ...]
    bin_counts: tuple[int, ...]

    def __post_init__(self):
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


def exponential_cdf(x: float, rate_lambda: float) -> float:
    return -math.expm1(-rate_lambda * x)


def _percentile_edges(bins, rate_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """(probability_edges, rate_edges) for a percentile bin spec.

    `bins` is either an equal-probability bin count or an explicit
    increasing sequence of probabilities spanning [0, 1].
    """
    if isinstance(bins, int):
        if bins < 1:
            raise ValueError(f"need at least one bin, got {bins}")
        probs = np.linspace(0.0, 1.0, bins + 1)
    else:
        probs = np.asarray(bins, dtype=float)
        if probs.ndim != 1 or len(probs) < 2 or (np.diff(probs) <= 0).any():
            raise ValueError("bin probabilities must be increasing")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("bin probabilities must span [0, 1]")
    edges = np.array([exponential_quantile(p, rate_lambda) for p in probs])
    return probs, edges


def rate_representation(
    table: RecordTable, strategic: np.ndarray, rate_lambda: float = 1.0, bins=50
) -> BinnedSeries:
    """Strategic over population frequency ratio per rate-percentile bin.

    `strategic` masks the strategic records; the rest are the
    population. Bins partition the Exp(rate_lambda) reference
    distribution by equal probability mass; ratio 1 means the strategic
    systems' outgoing rates look exactly like the population's in that bin.
    """
    if strategic.all() or not strategic.any():
        raise ValueError("both record sets must be non-empty")
    _, edges = _percentile_edges(bins, rate_lambda)
    strategic_rates = table.rates_of(strategic)
    s_counts, _ = np.histogram(strategic_rates, bins=edges)
    # counts are integers: the population's are the whole table's minus the
    # strategic ones, without copying the population's rates
    p_counts = np.histogram(table.rates, bins=edges)[0] - s_counts
    s_freq = s_counts / len(strategic_rates)
    p_freq = p_counts / (len(table.rates) - len(strategic_rates))
    values = np.where(p_counts > 0, s_freq / np.where(p_counts > 0, p_freq, 1.0), np.nan)
    return BinnedSeries(
        bin_edges=tuple(float(e) for e in edges),
        bin_values=tuple(float(v) for v in values),
        bin_counts=tuple(int(c) for c in s_counts),
    )


def degree_representation(table: RecordTable, strategic: np.ndarray) -> BinnedSeries:
    """Strategic over population frequency ratio per vertex degree.

    `strategic` masks the strategic records; the rest are the population.
    """
    if strategic.all() or not strategic.any():
        raise ValueError("both record sets must be non-empty")
    s_hist = table.degree_histogram[strategic].sum(axis=0)
    p_hist = table.degree_histogram.sum(axis=0) - s_hist
    s_freq = s_hist / s_hist.sum()
    p_freq = p_hist / p_hist.sum()
    values = np.where(p_hist > 0, s_freq / np.where(p_hist > 0, p_freq, 1.0), np.nan)
    return BinnedSeries(
        bin_edges=tuple(float(d) for d in range(len(s_hist) + 1)),
        bin_values=tuple(float(v) for v in values),
        bin_counts=tuple(int(c) for c in s_hist),
    )


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
    groups: dict[float, list[float]] = {}
    for x, y in zip(xs.tolist(), ys.tolist()):
        groups.setdefault(round(x, 12), []).append(y)
    keys = sorted(groups)
    means = [float(np.mean(groups[k])) for k in keys]
    counts = [len(groups[k]) for k in keys]
    edges = _discrete_edges(keys)
    if len(set(xs.tolist())) < 2 or len(set(ys.tolist())) < 2:
        rho = 0.0
    else:
        rho = float(_scipy_stats.spearmanr(xs, ys).statistic)
    return MetricTrend(
        metric=metric,
        series=BinnedSeries(
            bin_edges=tuple(edges), bin_values=tuple(means), bin_counts=tuple(counts)
        ),
        spearman=rho,
    )


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


def _lm_logistic(
    design: np.ndarray,
    target: np.ndarray,
    damping: float = 1e-3,
    max_iterations: int = 500,
    cost_rtol: float = 1e-10,
    step_atol: float = 1e-12,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Damped least squares for target ~ sigmoid(design @ beta).

    Damping is multiplied by 10 on a rejected step and divided by 10 on
    an accepted one; accepted steps never increase the residual norm.
    Returns (beta, residual_norm, iterations, converged, history).
    """
    beta = np.zeros(design.shape[1])
    pred = _sigmoid(design @ beta)
    resid = target - pred
    cost = float(resid @ resid)
    history = [math.sqrt(cost)]
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
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
            if rel_change < cost_rtol or float(np.linalg.norm(delta)) < step_atol:
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


def reciprocity_curve(g: Graph, rates: RateMatrix, bins=10) -> BinnedSeries:
    """Mean like-rate received in return, binned by the outgoing rate.

    For every ordered adjacent pair (i, j) the outgoing rate is
    rates[j, i] (i likes j) and the return rate is rates[i, j].
    `bins` is an equal-width bin count over the occupied outgoing
    range, or explicit edges.
    """
    rates.check_support(g)
    pairs = [pair for a, b in g.edges for pair in ((a, b), (b, a))]
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    outgoing, incoming = rates.values[j, i], rates.values[i, j]
    if isinstance(bins, int):
        top = float(outgoing.max()) if outgoing.size and outgoing.max() > 0.0 else 1.0
        edges = np.linspace(0.0, top, bins + 1)
        edges[-1] = np.nextafter(edges[-1], np.inf)
    else:
        edges = np.asarray(bins, dtype=float)
    idx = np.clip(np.digitize(outgoing, edges) - 1, 0, len(edges) - 2)
    masks = [idx == b for b in range(len(edges) - 1)]
    return BinnedSeries(
        bin_edges=tuple(float(e) for e in edges),
        bin_values=tuple(float(incoming[m].mean()) if m.any() else float("nan") for m in masks),
        bin_counts=tuple(int(m.sum()) for m in masks),
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
    all other rates stay fixed.
    """
    if a == b:
        raise ValueError("coalition members must differ")
    if not g.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge; a coalition needs adjacency")
    opts = opts or SolverOptions()
    others = [v for v in range(g.n) if v not in (a, b)]
    points = []
    for rho in joint_rates:
        if rho < 0:
            raise ValueError(f"joint rate must be nonnegative, got {rho}")
        swept = rates.replace_entry(a, b, rho).replace_entry(b, a, rho)
        cv = likedness_centrality(g, swept, opts)
        points.append(
            CoalitionPoint(
                joint_rate=float(rho),
                member_a=float(cv.values[a]),
                member_b=float(cv.values[b]),
                others_mean=float(np.mean(cv.values[others])) if others else float("nan"),
                converged=cv.converged,
            )
        )
    return points


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


def star_comparison(
    star_samples: int,
    ba_samples: int | None = None,
    config: EnsembleConfig | None = None,
    ba_records: RecordTable | None = None,
    direction: Literal["low", "high"] = "high",
    workers: int = 1,
) -> StarComparison:
    """Random-rate stars versus preferential-attachment graphs with a full hub.

    Stars are sampled fresh from a dedicated seed stream of the config.
    The comparison set is the subset of BA records with a vertex of
    degree n-1, either taken from `ba_records` (a prior run of n-node
    graphs) or sampled fresh (`ba_samples`). Also reports, within the
    strategic stars (classify_strategic at the config's
    strategic_fraction), the ratio of mean branch centrality to mean hub
    centrality.
    """
    if star_samples < 1:
        raise ValueError("star_samples must be >= 1")
    check_direction(direction)
    config = config or EnsembleConfig()
    warnings = []

    star = generate_star(config.n)
    star_stability, branch_centrality, hub_centrality = np.empty((3, star_samples))
    for idx in range(star_samples):
        _, rate_seed = record_seeds(config.master_seed, idx, stream=STAR_STREAM)
        rates = sample_rates(star, config.rate_lambda, rate_seed)
        star_stability[idx] = stability(star, rates, config.solver).stability
        cv = likedness_centrality(star, rates, config.solver)
        branch_centrality[idx] = np.mean(cv.values[1:])
        hub_centrality[idx] = cv.values[0]

    if ba_records is None:
        if not ba_samples or ba_samples < 1:
            raise ValueError("need ba_samples >= 1 or an explicit ba_records set")
        ba_config = replace(config, sample_count=ba_samples)
        ba_records = RecordTable.from_records(run_ensemble(ba_config, workers=workers))
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
    if hub_count < 30:
        warnings.append(f"hub subset has only {hub_count} samples; wide uncertainty")
    if star_samples < 30:
        warnings.append(f"only {star_samples} star samples; wide uncertainty")

    star_mean = float(np.mean(star_stability))
    hub_mean = float(np.mean(ba_records.stability[in_hub]))

    strategic, _ = classify_strategic(star_stability, config.strategic_fraction, direction)
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
