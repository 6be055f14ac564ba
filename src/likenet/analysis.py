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
from typing import Literal, NamedTuple, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .centrality import RateMatrix, SolverOptions, likedness_centrality
from .ensemble import (
    EnsembleConfig,
    SystemRecord,
    record_seeds,
    run_ensemble,
    sample_rates,
    STAR_STREAM,
)
from .graphs import Graph, generate_star
from .stability import classify_strategic, stability

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
        if len(self.bin_values) != len(self.bin_edges) - 1 or len(self.bin_counts) != len(
            self.bin_values
        ):
            raise ValueError("inconsistent bin arrays")

    def rows(self) -> list[tuple[float, float, float, int]]:
        """(bin_low, bin_high, value, count) rows for CSV output."""
        return [
            (self.bin_edges[i], self.bin_edges[i + 1], self.bin_values[i], self.bin_counts[i])
            for i in range(len(self.bin_values))
        ]


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


def _all_rates(records: Sequence[SystemRecord]) -> np.ndarray:
    values = []
    for record in records:
        values.extend(record.rate_values())
    return np.array(values)


def rate_representation(
    strategic: Sequence[SystemRecord],
    population: Sequence[SystemRecord],
    rate_lambda: float = 1.0,
    bins=50,
) -> BinnedSeries:
    """Strategic over population frequency ratio per rate-percentile bin.

    Bins partition the Exp(rate_lambda) reference distribution by equal
    probability mass; ratio 1 means the strategic systems' outgoing
    rates look exactly like the population's in that bin.
    """
    if not strategic or not population:
        raise ValueError("both record sets must be non-empty")
    _, edges = _percentile_edges(bins, rate_lambda)
    strategic_rates = _all_rates(strategic)
    population_rates = _all_rates(population)
    s_counts, _ = np.histogram(strategic_rates, bins=edges)
    p_counts, _ = np.histogram(population_rates, bins=edges)
    s_freq = s_counts / len(strategic_rates)
    p_freq = p_counts / len(population_rates)
    values = np.where(p_counts > 0, s_freq / np.where(p_counts > 0, p_freq, 1.0), np.nan)
    return BinnedSeries(
        bin_edges=tuple(float(e) for e in edges),
        bin_values=tuple(float(v) for v in values),
        bin_counts=tuple(int(c) for c in s_counts),
    )


def degree_representation(
    strategic: Sequence[SystemRecord], population: Sequence[SystemRecord]
) -> BinnedSeries:
    """Strategic over population frequency ratio per vertex degree."""
    if not strategic or not population:
        raise ValueError("both record sets must be non-empty")
    n = len(strategic[0].degree_histogram)
    s_hist = np.zeros(n)
    p_hist = np.zeros(n)
    for record in strategic:
        s_hist += np.asarray(record.degree_histogram)
    for record in population:
        p_hist += np.asarray(record.degree_histogram)
    s_freq = s_hist / s_hist.sum()
    p_freq = p_hist / p_hist.sum()
    values = np.where(p_hist > 0, s_freq / np.where(p_hist > 0, p_freq, 1.0), np.nan)
    return BinnedSeries(
        bin_edges=tuple(float(d) for d in range(n + 1)),
        bin_values=tuple(float(v) for v in values),
        bin_counts=tuple(int(c) for c in s_hist),
    )


def stability_vs_metric(records: Sequence[SystemRecord], metric: str) -> MetricTrend:
    """Mean stability per distinct metric value, plus Spearman correlation.

    At small n the metric spectrum is discrete, so grouping by value
    (rounded to 12 decimals) is exact. The correlation is computed
    over records; constant inputs get correlation 0 by convention.
    """
    if metric not in METRIC_FIELDS:
        raise ValueError(f"metric must be one of {METRIC_FIELDS}, got {metric!r}")
    if not records:
        raise ValueError("no records")
    xs = np.array([getattr(r, metric) for r in records])
    ys = np.array([r.stability for r in records])
    groups: dict[float, list[float]] = {}
    for x, y in zip(xs, ys):
        groups.setdefault(round(float(x), 12), []).append(float(y))
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


def logistic_fit(records: Sequence[SystemRecord]) -> LogisticFit:
    """Regress stability on the three structural metrics via a logistic model.

    Model: stability ~ sigmoid(b0 + b1*degree_stddev + b2*mean_path_length
    + b3*mean_local_clustering), squared error minimized by
    Levenberg-Marquardt-style damped least squares.
    """
    finite = [
        r
        for r in records
        if all(math.isfinite(getattr(r, m)) for m in METRIC_FIELDS)
        and math.isfinite(r.stability)
    ]
    if len(finite) < 50:
        raise ValueError(f"need >= 50 records with finite metrics, got {len(finite)}")
    design = np.column_stack(
        [
            np.ones(len(finite)),
            [r.degree_stddev for r in finite],
            [r.mean_path_length for r in finite],
            [r.mean_local_clustering for r in finite],
        ]
    )
    names = ("intercept", "degree_stddev", "mean_path_length", "mean_local_clustering")
    constant = [n for n, col in zip(names, design.T) if n != "intercept" and np.ptp(col) == 0.0]
    if np.linalg.matrix_rank(design) < design.shape[1]:
        detail = f" (constant columns: {', '.join(constant)})" if constant else ""
        raise RankDeficientError(f"predictor matrix is rank-deficient{detail}")
    target = np.array([r.stability for r in finite])
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
    outgoing = []
    incoming = []
    for a, b in g.edges:
        for i, j in ((a, b), (b, a)):
            outgoing.append(rates.values[j, i])
            incoming.append(rates.values[i, j])
    outgoing = np.array(outgoing)
    incoming = np.array(incoming)
    if isinstance(bins, int):
        top = float(outgoing.max()) if outgoing.size else 1.0
        if top <= 0.0:
            top = 1.0
        edges = np.linspace(0.0, top, bins + 1)
        edges[-1] = np.nextafter(edges[-1], np.inf)
    else:
        edges = np.asarray(bins, dtype=float)
    idx = np.digitize(outgoing, edges) - 1
    idx = np.clip(idx, 0, len(edges) - 2)
    values = []
    counts = []
    for b in range(len(edges) - 1):
        mask = idx == b
        counts.append(int(mask.sum()))
        values.append(float(incoming[mask].mean()) if mask.any() else float("nan"))
    return BinnedSeries(
        bin_edges=tuple(float(e) for e in edges),
        bin_values=tuple(values),
        bin_counts=tuple(counts),
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


class _StarSample(NamedTuple):
    stability: float
    branch_mean: float
    hub: float


def star_comparison(
    star_samples: int,
    ba_samples: int | None = None,
    config: EnsembleConfig | None = None,
    ba_records: Sequence[SystemRecord] | None = None,
    direction: Literal["low", "high"] = "high",
    workers: int = 1,
) -> StarComparison:
    """Random-rate stars versus preferential-attachment graphs with a full hub.

    Stars are sampled fresh from a dedicated seed stream of the config.
    The comparison set is the subset of BA records whose maximum degree
    is n-1, either taken from `ba_records` (a prior run) or sampled
    fresh (`ba_samples`). Also reports, within the strategic stars
    (classify_strategic at the config's strategic_fraction), the ratio
    of mean branch centrality to mean hub centrality.
    """
    if star_samples < 1:
        raise ValueError("star_samples must be >= 1")
    config = config or EnsembleConfig()
    warnings = []

    star = generate_star(config.n)
    stars = []
    for idx in range(star_samples):
        _, rate_seed = record_seeds(config.master_seed, idx, stream=STAR_STREAM)
        rates = sample_rates(star, config.rate_lambda, rate_seed)
        result = stability(star, rates, config.solver)
        cv = likedness_centrality(star, rates, config.solver)
        stars.append(
            _StarSample(result.stability, float(np.mean(cv.values[1:])), float(cv.values[0]))
        )

    if ba_records is None:
        if not ba_samples or ba_samples < 1:
            raise ValueError("need ba_samples >= 1 or an explicit ba_records set")
        ba_config = replace(config, sample_count=ba_samples)
        ba_records = list(run_ensemble(ba_config, workers=workers))
    hub_degree = config.n - 1
    hub_records = [r for r in ba_records if r.max_degree == hub_degree]
    if not hub_records:
        raise ValueError(
            f"no graphs with a degree-{hub_degree} hub among {len(ba_records)} samples; "
            "more samples required"
        )
    if len(hub_records) < 30:
        warnings.append(f"hub subset has only {len(hub_records)} samples; wide uncertainty")
    if star_samples < 30:
        warnings.append(f"only {star_samples} star samples; wide uncertainty")

    star_mean = float(np.mean([s.stability for s in stars]))
    hub_mean = float(np.mean([r.stability for r in hub_records]))

    strategic, _, _ = classify_strategic(stars, config.strategic_fraction, direction)
    branch_mean = float(np.mean([s.branch_mean for s in strategic]))
    hub_centrality_mean = float(np.mean([s.hub for s in strategic]))
    ratio = branch_mean / hub_centrality_mean if hub_centrality_mean > 0 else float("inf")

    return StarComparison(
        star_count=star_samples,
        ba_hub_count=len(hub_records),
        star_mean_stability=star_mean,
        ba_hub_mean_stability=hub_mean,
        stability_advantage=star_mean / hub_mean - 1.0,
        branch_hub_ratio=ratio,
        strategic_star_count=len(strategic),
        warnings=tuple(warnings),
    )
