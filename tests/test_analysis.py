import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from likenet import analysis
from likenet.analysis import (
    BinnedSeries,
    RankDeficientError,
    _lm_logistic,
    _sigmoid,
    coalition_sweep,
    degree_representation,
    logistic_fit,
    percentile_edges,
    pick_outlying_pair,
    rate_representation,
    stability_vs_metric,
    star_comparison,
)
from likenet.centrality import RateMatrix, SolverOptions, likedness_centrality
from likenet.ensemble import (
    STAR_STREAM,
    EnsembleConfig,
    read_records,
    record_seeds,
    run_to_files,
    sample_rates,
    write_records,
)
from likenet.graphs import Graph, generate_ba, generate_star
import likenet.stability as stability_module
from likenet.stability import block_records, chunk_records, classify_strategic, stability
from util import child_env, random_rates, with_pair_rate


# the degree histogram of a 10-node ring, every node of degree 2: for records
# whose degrees a test does not read, since a histogram counts its n nodes
RING = [0, 0, 10, 0, 0, 0, 0, 0, 0, 0]
# the two nodes of one edge, which has two rates
PAIR = [0, 2]


def make_record(index, stability, degree_histogram, rates=None, **metrics):
    """A record dict, as a records.jsonl line decodes. A record has a rate for
    each degree its histogram counts: rates, or by default 1.0 each."""
    if rates is None:
        rates = [1.0] * sum(d * count for d, count in enumerate(degree_histogram))
    return {
        "record_index": index,
        "graph_seed": 0,
        "rate_seed": 0,
        "stability": stability,
        "gradient_sq_sum": -math.log(stability),
        "degree_histogram": list(degree_histogram),
        "degree_stddev": metrics.get("degree_stddev", 1.0),
        "mean_path_length": metrics.get("mean_path_length", 2.0),
        "mean_local_clustering": metrics.get("mean_local_clustering", 0.3),
        "outgoing_rates": [[0, 1, float(r)] for r in rates],
        "solver_converged": True,
    }


def table(records):
    """The RecordTable that read_records makes of the records' lines."""
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = Path(tmp) / "records.jsonl"
        write_records(records, jsonl)
        return read_records(jsonl)


def split(strategic, population):
    """A table of the strategic records then the population, and its strategic mask."""
    records = [*strategic, *population]
    return table(records), np.arange(len(records)) < len(strategic)


class TestExponentialReference:
    """percentile_edges(bins, rate_lambda)[k] is the Exp(rate_lambda) quantile at k / bins."""

    def test_rate_one_sits_at_63_2_percentile(self):
        edges = percentile_edges(1000, 1.0)
        assert edges[632] < 1.0 < edges[633]

    def test_95_3_percentile_rate(self):
        assert percentile_edges(1000, 1.0)[953] == pytest.approx(3.058, abs=1e-3)

    def test_quantile_cdf_inverse(self):
        for bins, rate_lambda in ((10, 2.0), (37, 1.3), (50, 1.0)):
            edges = percentile_edges(bins, rate_lambda)
            for k in range(1, bins):
                assert -math.expm1(-rate_lambda * edges[k]) == pytest.approx(k / bins)

    def test_edges_run_from_zero_to_infinity(self):
        edges = percentile_edges(4, 2.0)
        assert len(edges) == 5
        assert edges[0] == 0.0 and edges[-1] == math.inf


class TestRateRepresentation:
    def test_identical_sets_give_unity(self):
        rng = np.random.default_rng(0)
        # 10 nodes of degree 3 have 30 rates
        cubic = [0, 0, 0, 10, 0, 0, 0, 0, 0, 0]
        records = [make_record(i, 0.9, cubic, rates=rng.exponential(size=30)) for i in range(20)]
        series = rate_representation(*split(records, records), percentile_edges(10, 1.0))
        for value, count in zip(series.bin_values, series.bin_counts):
            if count > 0:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_empty_population_bins_are_nan(self):
        strategic = [make_record(0, 0.9, PAIR, rates=[5.0, 5.0])]
        population = [make_record(1, 0.9, PAIR, rates=[0.1, 0.2])]
        series = rate_representation(*split(strategic, population), percentile_edges(4, 1.0))
        # population occupies only the first quartile bin; the rest are
        # missing (NaN), even where strategic rates land
        assert series.bin_values[0] == 0.0
        assert all(math.isnan(v) for v in series.bin_values[1:])
        assert series.bin_counts == (0, 0, 0, 2)

    def test_last_edge_is_infinite(self):
        records = [make_record(0, 0.9, PAIR, rates=[1.0, 1.0])]
        series = rate_representation(*split(records, records), percentile_edges(5, 1.0))
        assert series.bin_edges[-1] == math.inf
        assert len(series.bin_values) == 5

    def test_requires_non_empty(self):
        records = [make_record(0, 0.9, PAIR, rates=[1.0, 1.0])]
        for sets in ([], records), (records, []):
            with pytest.raises(ValueError, match="both record sets must be non-empty"):
                rate_representation(*split(*sets), percentile_edges(50, 1.0))


class TestDegreeRepresentation:
    def test_identical_sets_give_unity(self):
        records = [make_record(i, 0.9, [0, 0, 5, 3, 2, 0, 0, 0, 0, 0]) for i in range(5)]
        series = degree_representation(*split(records, records))
        for d in (2, 3, 4):
            assert series.bin_values[d] == pytest.approx(1.0)

    def test_known_skew(self):
        # strategic twice as heavy on degree 3, absent on degree 4
        strategic = [make_record(0, 0.9, [0, 0, 4, 6, 0, 0, 0, 0, 0, 0])]
        population = [make_record(1, 0.9, [0, 0, 4, 3, 3, 0, 0, 0, 0, 0])]
        series = degree_representation(*split(strategic, population))
        assert series.bin_values[3] == pytest.approx((6 / 10) / (3 / 10))
        assert series.bin_values[4] == 0.0
        assert math.isnan(series.bin_values[5])

    def test_missing_population_degree_is_nan(self):
        strategic = [make_record(0, 0.9, [0, 0, 0, 0, 0, 0, 0, 0, 0, 10])]
        population = [make_record(1, 0.9, [0, 0, 10, 0, 0, 0, 0, 0, 0, 0])]
        series = degree_representation(*split(strategic, population))
        assert math.isnan(series.bin_values[9])

    def test_requires_non_empty(self):
        records = [make_record(0, 0.9, [0, 0, 10, 0, 0, 0, 0, 0, 0, 0])]
        for sets in ([], records), (records, []):
            with pytest.raises(ValueError, match="both record sets must be non-empty"):
                degree_representation(*split(*sets))


class TestStabilityVsMetric:
    def test_constant_stability_flat_with_zero_correlation(self):
        records = [
            make_record(i, 0.5, RING, mean_path_length=1.0 + 0.1 * i) for i in range(10)
        ]
        trend = stability_vs_metric(table(records), "mean_path_length")
        assert all(v == 0.5 for v in trend.series.bin_values)
        assert trend.spearman == 0.0

    def test_constant_metric_is_one_bin_with_zero_correlation(self):
        records = [make_record(i, 0.2 * (i + 1), RING, mean_path_length=2.0) for i in range(4)]
        trend = stability_vs_metric(table(records), "mean_path_length")
        assert trend.series.bin_edges == (1.5, 2.5)
        assert trend.series.bin_values == (pytest.approx(0.5),)
        assert trend.series.bin_counts == (4,)
        assert trend.spearman == 0.0

    def test_groups_by_distinct_value(self):
        records = [
            make_record(0, 0.4, RING, mean_path_length=1.5),
            make_record(1, 0.6, RING, mean_path_length=1.5),
            make_record(2, 0.9, RING, mean_path_length=2.0),
        ]
        trend = stability_vs_metric(table(records), "mean_path_length")
        assert trend.series.bin_values == (0.5, 0.9)
        assert trend.series.bin_counts == (2, 1)

    def test_rank_correlation_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        records = [
            make_record(i, float(s), RING, mean_path_length=float(m))
            for i, (s, m) in enumerate(zip(rng.uniform(0.1, 1, 60), rng.uniform(1, 3, 60)))
        ]
        base = stability_vs_metric(table(records), "mean_path_length").spearman
        cubed = [
            make_record(r["record_index"], r["stability"] ** 3, RING,
                        mean_path_length=r["mean_path_length"])
            for r in records
        ]
        assert stability_vs_metric(table(cubed), "mean_path_length").spearman == pytest.approx(base)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            stability_vs_metric(table([make_record(0, 0.5, RING)]), "stability")

    def test_empty_table_rejected(self):
        records = table([make_record(0, 0.5, RING)])
        empty = records.select(np.zeros(len(records), dtype=bool))
        with pytest.raises(ValueError, match="no records"):
            stability_vs_metric(empty, "mean_path_length")

    @pytest.mark.parametrize("seed, size", [(0, 2), (1, 2), (2, 3), (3, 40), (4, 300)])
    def test_spearman_matches_scipy_exactly(self, seed, size):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(seed)
        # few distinct values in both columns, so ties are the rule; neither is constant
        while True:
            paths = rng.choice([-math.inf, 1.0, 1.5, 2.0, math.inf], size)
            stabilities = np.round(rng.uniform(0.05, 1.0, size), 1)
            if len(set(paths)) > 1 and len(set(stabilities)) > 1:
                break
        records = [
            make_record(i, float(s), RING, mean_path_length=float(m))
            for i, (s, m) in enumerate(zip(stabilities, paths))
        ]
        expected = float(stats.spearmanr(paths, stabilities).statistic)
        assert stability_vs_metric(table(records), "mean_path_length").spearman == expected

    def test_group_means_are_np_mean_bit_for_bit(self, tmp_path):
        run_to_files(EnsembleConfig(sample_count=2000, master_seed=23), tmp_path)
        records = read_records(tmp_path / "records.jsonl")
        for metric in analysis.METRIC_FIELDS:
            groups = {}
            for x, s in zip(getattr(records, metric).tolist(), records.stability):
                groups.setdefault(round(x, 12), []).append(s)
            expected = tuple(float(np.mean(groups[key])) for key in sorted(groups))
            assert stability_vs_metric(records, metric).series.bin_values == expected, metric

    @pytest.mark.parametrize("column", ["metric", "stability"])
    def test_nan_gives_nan_correlation(self, column):
        records = [
            make_record(
                i,
                math.nan if column == "stability" and i == 3 else 0.1 * (i + 1),
                RING,
                mean_path_length=math.nan if column == "metric" and i == 3 else 1.0 + i % 4,
            )
            for i in range(8)
        ]
        assert math.isnan(stability_vs_metric(table(records), "mean_path_length").spearman)


class TestLogisticFit:
    @staticmethod
    def synthetic_records(beta, count=400, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(count):
            x = (rng.uniform(0.5, 3.0), rng.uniform(1.2, 3.0), rng.uniform(0.0, 0.8))
            z = beta[0] + beta[1] * x[0] + beta[2] * x[1] + beta[3] * x[2]
            s = 1.0 / (1.0 + math.exp(-z)) + (rng.normal(0, noise) if noise else 0.0)
            records.append(
                make_record(
                    i,
                    min(max(s, 1e-9), 1.0),
                    RING,
                    degree_stddev=x[0],
                    mean_path_length=x[1],
                    mean_local_clustering=x[2],
                )
            )
        return records

    def test_recovers_noise_free_coefficients(self):
        beta = (0.4, 0.8, -1.1, 0.6)
        fit = logistic_fit(table(self.synthetic_records(beta)))
        assert fit.converged
        recovered = (fit.intercept, fit.coef_preferential, fit.coef_path_length, fit.coef_clustering)
        assert recovered == pytest.approx(beta, abs=1e-6)
        assert fit.residual_norm < 1e-6

    def test_accepted_steps_never_increase_residual(self, monkeypatch):
        beta = (0.2, 0.5, -0.7, 0.3)
        records = self.synthetic_records(beta, noise=0.05, seed=4)
        design = np.column_stack(
            [
                np.ones(len(records)),
                [r["degree_stddev"] for r in records],
                [r["mean_path_length"] for r in records],
                [r["mean_local_clustering"] for r in records],
            ]
        )
        target = np.array([r["stability"] for r in records])
        x = np.random.default_rng(2).normal(size=(400, 3))
        labels = (x[:, 0] > 0).astype(float)
        separable = _lm_logistic(np.column_stack([np.ones(400), x]), labels)
        singular_solves = []
        solve = np.linalg.solve

        def counting_solve(*args):
            try:
                return solve(*args)
            except np.linalg.LinAlgError:
                singular_solves.append(args)
                raise

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        # three equal columns: once the damping has shrunk, the damped
        # system is singular, and the step is rejected as if it failed
        repeated = _lm_logistic(np.column_stack([x[:, 0]] * 3), labels)
        assert singular_solves
        for *_, history in (_lm_logistic(design, target), separable, repeated):
            assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
        # a separable target has no finite optimum, and some of its steps are rejected
        _, _, iterations, _, history = separable
        assert iterations > len(history) - 1

    def test_nan_target_gives_up(self):
        # every step is rejected, so the damping grows past its cap
        x = np.random.default_rng(2).normal(size=(400, 3))
        target = np.full(400, 0.5)
        target[0] = math.nan
        beta, residual_norm, iterations, converged, history = _lm_logistic(
            np.column_stack([np.ones(400), x]), target
        )
        assert not converged
        assert iterations == 103
        assert len(history) == 1
        assert not beta.any()
        assert math.isnan(residual_norm)

    def test_rank_deficient_reports_constant_column(self):
        records = self.synthetic_records((0.1, 0.3, -0.5, 0.2))
        flat = [
            make_record(
                r["record_index"],
                r["stability"],
                RING,
                degree_stddev=r["degree_stddev"],
                mean_path_length=r["mean_path_length"],
                mean_local_clustering=0.25,
            )
            for r in records
        ]
        with pytest.raises(RankDeficientError, match="mean_local_clustering"):
            logistic_fit(table(flat))

    def test_requires_fifty_records(self):
        with pytest.raises(ValueError):
            logistic_fit(table(self.synthetic_records((0, 1, 1, 1), count=20)))

    def test_sigmoid_stable_at_extremes(self):
        z = np.array([-800.0, 0.0, 800.0])
        out = _sigmoid(z)
        assert out == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)


class TestCoalitionSweep:
    def test_noop_at_baseline_rates(self):
        g = generate_ba(6, 2, 3)
        rng = np.random.default_rng(5)
        rates = random_rates(g, rng)
        a, b = g.edges[0]
        symmetric = with_pair_rate(rates, a, b, 0.8)
        baseline = likedness_centrality(g, symmetric)
        points = coalition_sweep(g, symmetric, a, b, [0.8])
        assert points[0].member_a == pytest.approx(baseline.values[a], abs=1e-12)
        assert points[0].member_b == pytest.approx(baseline.values[b], abs=1e-12)

    def test_zero_rate_matches_zeroed_matrix(self):
        g = generate_ba(6, 2, 3)
        rng = np.random.default_rng(6)
        rates = random_rates(g, rng)
        a, b = g.edges[0]
        zeroed = with_pair_rate(rates, a, b, 0.0)
        expected = likedness_centrality(g, zeroed)
        points = coalition_sweep(g, rates, a, b, [0.0])
        assert points[0].member_a == pytest.approx(expected.values[a], abs=1e-12)
        assert points[0].member_b == pytest.approx(expected.values[b], abs=1e-12)

    def test_points_equal_single_solves(self):
        g = generate_ba(10, 2, 4)
        rates = random_rates(g, np.random.default_rng(8))
        a, b = pick_outlying_pair(g)
        sweep = [0.0, 0.5, 2.0, 1e-9, 1e6]
        for rho, point in zip(sweep, coalition_sweep(g, rates, a, b, sweep)):
            single = likedness_centrality(g, with_pair_rate(rates, a, b, rho))
            assert (point.member_a, point.member_b) == (single.values[a], single.values[b])
            assert point.converged == single.converged

    def test_errors(self):
        g = Graph(3, ((0, 1), (1, 2)))
        rates = RateMatrix(3, g.adjacency * 1.0)
        with pytest.raises(ValueError):
            coalition_sweep(g, rates, 0, 0, [1.0])
        with pytest.raises(ValueError):
            coalition_sweep(g, rates, 0, 2, [1.0])
        with pytest.raises(ValueError):
            coalition_sweep(g, rates, 0, 1, [-1.0])


class TestPickOutlyingPair:
    def test_star_falls_back_to_degree_sum(self):
        # leaves all have minimum degree but are never adjacent
        assert pick_outlying_pair(generate_star(10)) == (0, 1)

    def test_triangle(self):
        assert pick_outlying_pair(generate_ba(3, 2, 0)) == (0, 1)

    def test_prefers_adjacent_minimum_degree_pair(self):
        # 0-1 both degree 1 after hanging off a 4-cycle
        g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)))
        assert pick_outlying_pair(g) == (0, 1)


def stars_one_at_a_time(count, config):
    """The stars of star_comparison, each sampled and solved as a system of its own:
    their stabilities and baseline centralities."""
    star = generate_star(config.n)
    stabilities, centralities = [], []
    for index in range(count):
        seed = record_seeds(config.master_seed, index, stream=STAR_STREAM)[1]
        rates = sample_rates(star, config.rate_lambda, seed)
        stabilities.append(stability(star, rates, config.solver).stability)
        centralities.append(likedness_centrality(star, rates, config.solver).values)
    return np.array(stabilities), np.array(centralities)


def hub_record(n):
    """A record of an n-node graph with one degree-(n-1) hub."""
    return make_record(0, 0.9, [0, n - 1] + [0] * (n - 3) + [1])


@pytest.fixture
def refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled stars before the arguments were checked")

    monkeypatch.setattr(analysis, "_sample_stars", refuse)


class TestStarComparison:
    def test_uniform_star_branches_symmetric(self):
        g = generate_star(10)
        rates = RateMatrix(10, g.adjacency * 1.0)
        cv = likedness_centrality(g, rates)
        assert np.ptp(cv.values[1:]) < 1e-12

    @pytest.mark.parametrize("n, rate_lambda", [(10, 1.0), (6, 1.0), (10, 2.5)])
    def test_stars_equal_stars_solved_one_at_a_time(self, n, rate_lambda, monkeypatch):
        config = EnsembleConfig(n=n, rate_lambda=rate_lambda, master_seed=7)
        # a budget of 20 stars' n x n values: 20-star blocks, solved in
        # chunks of the 11 (n=10) or 12 (n=6) stars whose 2(n-1) systems of
        # n values fit in it
        monkeypatch.setattr(stability_module, "BLOCK_VALUES", 20 * n * n)
        assert (block_records(n), chunk_records(2 * (n - 1), n)) == (20, {10: 11, 6: 12}[n])
        # one whole block of stars and part of the next
        count = block_records(n) + 3
        assert count == 23
        stabilities, centralities = stars_one_at_a_time(count, config)
        sampled = analysis._sample_stars(count, config)
        assert sampled[0].tobytes() == stabilities.tobytes()
        assert sampled[1].tobytes() == centralities.tobytes()

        result = star_comparison(count, table([hub_record(n)]), config, 0.05)
        strategic, _ = classify_strategic(stabilities, 0.05)
        assert result.star_mean_stability == float(np.mean(stabilities))
        branch = float(np.mean(centralities[strategic, 1:].mean(axis=1)))
        assert result.branch_hub_ratio == branch / float(np.mean(centralities[strategic, 0]))

    def test_stars_are_solved_in_default_blocks(self, monkeypatch):
        # stars on 10 nodes, 256 to a block as desk records
        sizes = []
        gradient_block = analysis._gradient_block

        def tracked(adj, *args):
            sizes.append(len(adj))
            return gradient_block(adj, *args)

        monkeypatch.setattr(analysis, "_gradient_block", tracked)
        analysis._sample_stars(300, EnsembleConfig())
        assert sizes == [256, 44]

    def test_empty_hub_subset_is_an_error(self, refuse_sampling):
        record = make_record(0, 0.9, [0, 0, 10, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="hub"):
            star_comparison(3, config=EnsembleConfig(), fraction=0.001, ba_records=table([record]))

    def test_degenerate_counts_warn_but_compute(self, tmp_path):
        run_to_files(EnsembleConfig(sample_count=40, master_seed=19), tmp_path)
        records = read_records(tmp_path / "records.jsonl")
        hubbed = records.select(records.degree_histogram[:, 9] > 0)
        assert len(hubbed), "expected at least one hub-9 sample in 40 draws"
        result = star_comparison(
            1, config=EnsembleConfig(master_seed=19), fraction=0.001, ba_records=hubbed
        )
        assert result.warnings
        assert 0.0 < result.star_mean_stability <= 1.0
        assert result.strategic_star_count == 1

    def test_non_converged_stars_are_a_warning(self):
        records = table([hub_record(10)])
        capped = EnsembleConfig(solver=SolverOptions(max_iterations=1))
        warnings = star_comparison(40, records, capped, 0.05).warnings
        assert any(re.fullmatch(r"\d+ of 40 stars have a solve that did not converge; "
                                "their stability is not reliable", w) for w in warnings)
        # the other warning is the one-record hub subset's
        assert len(star_comparison(40, records, EnsembleConfig(), 0.05).warnings) == 1

    def test_direction_checked_before_any_sample(self, refuse_sampling):
        with pytest.raises(ValueError, match="direction must be 'low' or 'high', got 'bogus'"):
            star_comparison(
                5, config=EnsembleConfig(), fraction=0.001, ba_records=table([hub_record(10)]),
                direction="bogus",
            )

    def test_records_must_match_the_star_size(self, refuse_sampling):
        record = make_record(0, 0.9, [0, 0, 10, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="10-node graphs, the stars of 12"):
            star_comparison(1, config=EnsembleConfig(n=12), fraction=0.001,
                            ba_records=table([record]))


class TestBinnedSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BinnedSeries(bin_edges=(0.0, 1.0), bin_values=(1.0, 2.0), bin_counts=(1, 2))

    def test_rows(self):
        series = BinnedSeries(bin_edges=(0.0, 1.0, 2.0), bin_values=(0.5, 0.7), bin_counts=(3, 4))
        assert series.rows() == [(0.0, 1.0, 0.5, 3), (1.0, 2.0, 0.7, 4)]

    def test_holds_python_numbers(self):
        series = BinnedSeries(
            bin_edges=np.arange(3), bin_values=np.array([0.5, np.nan]), bin_counts=np.array([3, 4])
        )
        assert series.bin_edges == (0.0, 1.0, 2.0)
        assert series.bin_counts == (3, 4)
        for row in series.rows():
            assert list(map(type, row)) == [float, float, float, int]


def test_import_loads_no_scipy():
    code = (
        "import sys, likenet, likenet.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
