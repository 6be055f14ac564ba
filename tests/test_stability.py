import math

import numpy as np
import pytest

from likenet.centrality import RateMatrix, SolverOptions, newton_matrix, solve_rate_batch
from likenet.ensemble import record_seeds, sample_rates
from likenet.graphs import Graph, GraphError, generate_ba
from likenet.stability import (
    ABSOLUTE_STEP,
    RELATIVE_STEP,
    ZERO_RATE_FLOOR,
    centrality_gradient,
    classify_strategic,
    stability,
    stability_from_gradients,
    _directed_entries,
)
from util import random_connected_graph, random_rates


def two_node(a, b):
    g = Graph(2, ((0, 1),))
    return g, RateMatrix(2, np.array([[0.0, a], [b, 0.0]]))


class TestCentralityGradient:
    def test_two_node_matches_analytic_derivative(self):
        # normalized value of node 0 is a/(a+b); derivative in b is -a/(a+b)^2
        a, b = 3.0, 1.0
        g, rates = two_node(a, b)
        grad = centrality_gradient(g, rates, 0, 1)
        analytic = -a / (a + b) ** 2
        assert grad == pytest.approx(analytic, rel=0.02)
        assert grad < 0

    def test_triangle_uniform_gradients_all_equal(self):
        g = generate_ba(3, 2, 0)
        rates = RateMatrix(3, g.adjacency * 1.3)
        result = stability(g, rates)
        grads = list(result.per_edge_gradients.values())
        assert len(grads) == 6
        assert max(grads) - min(grads) < 1e-9

    def test_requires_edge(self):
        g = Graph(3, ((0, 1), (1, 2)))
        rates = RateMatrix(3, g.adjacency * 1.0)
        with pytest.raises(GraphError):
            centrality_gradient(g, rates, 0, 2)

    def test_zero_rate_uses_absolute_step(self):
        # zero rate on an existing edge: the 1% rule degenerates, the
        # absolute fallback keeps the quotient defined
        g = Graph(3, ((0, 1), (1, 2)))
        values = np.zeros((3, 3))
        values[0, 1] = 1.5
        values[1, 0] = 0.0
        values[1, 2] = 0.7
        values[2, 1] = 0.9
        rates = RateMatrix(3, values)
        grad = centrality_gradient(g, rates, 0, 1)  # perturbs entry (1, 0), currently 0
        assert math.isfinite(grad)

    def test_halving_tolerance_changes_less_than_truncation(self):
        rng = np.random.default_rng(55)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        i, j = g.edges[0]
        tight = SolverOptions(tolerance=1e-10)
        tighter = SolverOptions(tolerance=5e-11)
        fwd = centrality_gradient(g, rates, i, j, tight)
        fwd_half = centrality_gradient(g, rates, i, j, tighter)
        central = centrality_gradient(g, rates, i, j, tight, scheme="central")
        truncation = abs(fwd - central)
        assert truncation > 0
        assert abs(fwd - fwd_half) < truncation
        assert abs(fwd - fwd_half) < 1e-7

    def test_forward_vs_central_close(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        i, j = g.edges[0]
        fwd = centrality_gradient(g, rates, i, j)
        ctr = centrality_gradient(g, rates, i, j, scheme="central")
        assert fwd == pytest.approx(ctr, rel=0.05, abs=1e-3)


def exact_gradients(g, rates, entries):
    """d(value_i)/d(rates[j, i]) by implicit differentiation at the fixed point.

    dv/dR[j, i] = M[:, j] v_i / (A v)_j with M = (I - dF/dv)^-1, carried
    through the sum normalization u = v / sum(v).
    """
    opts = SolverOptions()
    raw, conv, _ = solve_rate_batch(g, rates.values[None], opts)
    assert conv.all()
    v = raw[0]
    m = newton_matrix(g, rates.values, v)
    av = g.adjacency @ v
    total = v.sum()
    out = []
    for j, i in entries:
        dv = m[:, j] * v[i] / av[j]
        out.append((dv[i] - v[i] / total * dv.sum()) / total)
    return np.array(out)


def forward_step(rate):
    return ABSOLUTE_STEP if rate < ZERO_RATE_FLOOR else RELATIVE_STEP * rate


class TestExactDerivativeOracle:
    def test_forward_differences_within_truncation_budget(self):
        # A first-order difference with a 1% relative step is off by O(1%)
        # of the record's gradient scale; the solver adds up to 4*tol/h.
        # Measured over these records: the squared sum at most 0.77% off,
        # single gradients at most half the budget below.
        tol = SolverOptions().tolerance
        worst_gss = 0.0
        for index in range(200):
            graph_seed, rate_seed = record_seeds(19, index)
            g = generate_ba(10, 2, graph_seed)
            rates = sample_rates(g, 1.0, rate_seed)
            result = stability(g, rates)
            entries = list(result.per_edge_gradients)
            fd = np.array([result.per_edge_gradients[e] for e in entries])
            exact = exact_gradients(g, rates, entries)
            noise = np.array([4 * tol / forward_step(rates.values[e]) for e in entries])
            budget = 2 * RELATIVE_STEP * np.abs(exact).max() + noise
            assert (np.abs(fd - exact) <= budget).all(), index
            exact_gss = float((exact**2).sum())
            worst_gss = max(worst_gss, abs(result.gradient_sq_sum - exact_gss) / exact_gss)
        assert worst_gss <= 2 * RELATIVE_STEP

    def test_small_rate_gradient_independent_of_start_vector(self):
        # a 1.4e-5 rate gets a 1.4e-7 step, so solver error is amplified
        # 7e6-fold; cold and warm starts must still agree within 4*tol/h
        opts = SolverOptions()
        graph_seed, rate_seed = record_seeds(19, 0)
        g = generate_ba(10, 2, graph_seed)
        values = sample_rates(g, 1.0, rate_seed).values.copy()
        a, b = g.edges[0]
        values[b, a] = 1.4e-5
        rates = RateMatrix(g.n, values)
        step = forward_step(values[b, a])
        warm = centrality_gradient(g, rates, a, b, opts)
        perturbed = values.copy()
        perturbed[b, a] += step
        raw, conv, _ = solve_rate_batch(g, np.array([values, perturbed]), opts)
        assert conv.all()
        normalized = raw / raw.sum(axis=1, keepdims=True)
        cold = (normalized[1, a] - normalized[0, a]) / step
        assert abs(warm - cold) <= 4 * opts.tolerance / step


class TestStability:
    def test_all_zero_gradients_gives_exactly_one(self):
        result = stability_from_gradients({(0, 1): 0.0, (1, 0): 0.0})
        assert result.stability == 1.0
        assert result.gradient_sq_sum == 0.0

    def test_unit_gradient_sum_gives_inverse_e(self):
        result = stability_from_gradients({(0, 1): 1.0})
        assert result.stability == pytest.approx(math.exp(-1), abs=1e-15)

    def test_monotone_decreasing_in_gradient_sum(self):
        values = [stability_from_gradients({(0, 1): g}).stability for g in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)
        assert all(0.0 < v <= 1.0 for v in values)

    def test_sum_counts_both_directions_of_every_edge(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        result = stability(g, rates)
        assert set(result.per_edge_gradients) == set(_directed_entries(g))
        assert len(result.per_edge_gradients) == 2 * len(g.edges)
        assert result.gradient_sq_sum == pytest.approx(
            sum(v * v for v in result.per_edge_gradients.values()), rel=1e-12
        )
        assert 0.0 < result.stability <= 1.0

    def test_two_node_matches_closed_form(self):
        a, b = 1.4, 0.6
        g, rates = two_node(a, b)
        result = stability(g, rates)
        exact = math.exp(-((a * a + b * b) / (a + b) ** 4))
        # forward differences at 1% steps: O(1%) truncation error
        assert result.stability == pytest.approx(exact, rel=0.01)

    def test_relabeling_leaves_stability_unchanged(self):
        rng = np.random.default_rng(31)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        perm = rng.permutation(g.n)
        g2 = Graph(g.n, tuple((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges))
        values2 = np.zeros((g.n, g.n))
        for i in range(g.n):
            for j in range(g.n):
                values2[perm[i], perm[j]] = rates.values[i, j]
        s1 = stability(g, rates)
        s2 = stability(g2, RateMatrix(g.n, values2))
        assert s2.stability == pytest.approx(s1.stability, rel=1e-6)

    def test_nonconvergence_is_flagged_not_raised(self):
        g, rates = two_node(2.0, 1.0)
        result = stability(g, rates, SolverOptions(max_iterations=1))
        assert not result.solver_converged
        assert math.isfinite(result.stability)


def sorted_rule(stabilities, fraction, direction):
    """The selection rule classify_strategic implements, kept frozen as an oracle.

    Python's sorted() on the key (-stability, index) for "high" and
    (stability, index) for "low"; returns (mask, threshold).
    """
    count = max(1, min(len(stabilities) - 1, int(round(fraction * len(stabilities)))))
    sign = -1.0 if direction == "high" else 1.0
    ranked = sorted(range(len(stabilities)), key=lambda i: (sign * stabilities[i], i))
    chosen = ranked[:count]
    mask = np.zeros(len(stabilities), dtype=bool)
    mask[chosen] = True
    extreme = min if direction == "high" else max
    return mask, extreme(stabilities[i] for i in chosen)


class TestClassifyStrategic:
    def test_exact_count(self):
        strategic, _ = classify_strategic(np.linspace(0.1, 0.9, 1000), 0.1)
        assert strategic.dtype == bool
        assert strategic.sum() == 100
        assert (~strategic).sum() == 900

    def test_highest_stability_selected_by_default(self):
        stabilities = np.array([0.9, 0.1, 0.5, 0.2])
        strategic, threshold = classify_strategic(stabilities, 0.5)
        assert sorted(stabilities[strategic]) == [0.5, 0.9]
        assert threshold == 0.5

    def test_direction_switch_selects_lowest(self):
        stabilities = np.array([0.9, 0.1, 0.5, 0.2])
        strategic, threshold = classify_strategic(stabilities, 0.5, direction="low")
        assert sorted(stabilities[strategic]) == [0.1, 0.2]
        assert threshold == 0.2

    def test_ties_break_by_record_index(self):
        strategic, threshold = classify_strategic([0.5] * 10, 0.3)
        assert np.flatnonzero(strategic).tolist() == [0, 1, 2]
        assert threshold == 0.5

    @pytest.mark.parametrize("direction", ["high", "low"])
    def test_planted_ties_across_the_cut(self, direction):
        # three records tie at the cut value and only two fit: the earlier two win
        extreme, cut, rest = (0.9, 0.5, 0.1) if direction == "high" else (0.1, 0.5, 0.9)
        stabilities = [rest, cut, extreme, rest, cut, rest, cut, extreme, rest, rest]
        strategic, threshold = classify_strategic(stabilities, 0.4, direction)
        assert np.flatnonzero(strategic).tolist() == [1, 2, 4, 7]
        assert threshold == cut

    @pytest.mark.parametrize("fraction", [0.001, 0.01, 0.1, 0.5])
    @pytest.mark.parametrize("direction", ["high", "low"])
    def test_matches_sorted_rule_under_heavy_ties(self, fraction, direction):
        rng = np.random.default_rng(int(fraction * 1000))
        stabilities = np.round(rng.uniform(0, 1, 3000), 2)
        strategic, threshold = classify_strategic(stabilities, fraction, direction)
        expected_mask, expected_threshold = sorted_rule(stabilities.tolist(), fraction, direction)
        assert np.array_equal(strategic, expected_mask)
        assert threshold == expected_threshold

    def test_threshold_is_class_extreme(self):
        rng = np.random.default_rng(0)
        stabilities = rng.uniform(0, 1, 200)
        strategic, threshold = classify_strategic(stabilities, 0.05, direction="low")
        assert threshold == stabilities[strategic].max()

    def test_errors(self):
        with pytest.raises(ValueError):
            classify_strategic([], 0.1)
        with pytest.raises(ValueError):
            classify_strategic([0.5], 1.5)
