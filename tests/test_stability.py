import json
import math
import subprocess
import sys

import numpy as np
import pytest

from likenet.centrality import (
    RateMatrix,
    SolverOptions,
    likedness_centrality,
    newton_matrix,
    solve_rate_batch,
)
from likenet.ensemble import EnsembleConfig, record_seeds, sample_rates
from likenet.graphs import Graph, GraphError, generate_ba, generate_star
import likenet.stability as stability_module
from likenet.stability import (
    ABSOLUTE_STEP,
    CENTRAL_RELATIVE_STEP,
    RELATIVE_STEP,
    ZERO_RATE_FLOOR,
    centrality_gradient,
    chunk_records,
    classify_strategic,
    stability,
    stability_from_gradients,
    _directed_entries,
    _gradient_block,
)
from conftest import DESK_SEED
from util import block_text, child_env, random_connected_graph, random_rates


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


def equal_rate_graphs():
    """Graph groups of one shape each: 50 desk BA graphs, 5 wide ones, a
    10-node star, K7, and a 5-node graph with three degree-1 nodes."""
    return [
        [generate_ba(10, 2, seed) for seed in range(50)],
        [generate_ba(40, 3, seed) for seed in range(5)],
        [generate_star(10)],
        [Graph(7, tuple((i, j) for i in range(7) for j in range(i + 1, 7)))],
        [Graph(5, ((0, 1), (1, 2), (2, 3), (2, 4)))],
    ]


class TestEqualRateClosedForms:
    # At equal rates rho every F_i is rho whatever v, so v is rho everywhere.
    # Raising entry (t, a) by h raises only v_t, by h / d_t, so agent a's
    # normalized value moves from 1/n to rho / (n rho + h / d_t): both
    # difference quotients have closed forms in n, rho, d_t and the step.
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_differences_match_closed_form(self, scheme, rho):
        for graphs in equal_rate_graphs():
            adj = np.stack([g.adjacency for g in graphs])
            entries = np.array([_directed_entries(g) for g in graphs])
            grads, converged, _ = _gradient_block(adj, rho * adj, entries, SolverOptions(), scheme)
            assert converged.all()
            n = adj.shape[1]
            # d_t, the degree of each perturbed entry's target t
            degree = adj.sum(axis=2)[np.arange(len(adj))[:, None], entries[..., 0]]
            if scheme == "forward":
                h = RELATIVE_STEP * rho
                expected = -1 / (n * (n * rho * degree + h))
            else:
                h = CENTRAL_RELATIVE_STEP * rho
                expected = -1 / (n**2 * rho * degree) / (1 - (h / (n * rho * degree)) ** 2)
            np.testing.assert_allclose(grads, expected, rtol=1e-9, atol=0)


def star_gradients(values):
    """The exact gradients of a star (hub 0) at any rates, keyed by entry.

    Leaf l's value is rho_l0 whatever v, and the hub's is
    v_0 = sum_l rho_0l rho_l0 / D with D = sum_l rho_l0; normalized by
    S = v_0 + D, the hub's gradient in entry (l, 0) is (rho_0l - 2 v_0) / S^2
    and leaf l's in entry (0, l) is -rho_l0^2 / (D S^2).
    """
    to_leaf, to_hub = values[1:, 0], values[0, 1:]
    total = to_leaf.sum()
    hub = (to_hub * to_leaf).sum() / total
    scale = (hub + total) ** 2
    exact = {}
    for leaf, (rho_l0, rho_0l) in enumerate(zip(to_leaf, to_hub), start=1):
        exact[leaf, 0] = (rho_0l - 2 * hub) / scale
        exact[0, leaf] = -(rho_l0**2) / (total * scale)
    return exact


class TestStarClosedForms:
    # The first exact oracle at unequal rates on more than two nodes. A
    # central difference at a step of CENTRAL_RELATIVE_STEP of the rate is
    # off by an O(step^2) term, so each star's gradients are held within
    # CENTRAL_RELATIVE_STEP^2 of its largest |gradient|. Measured over these
    # 60 stars: at most 0.40 of that, and the summed error falls 4.000-fold
    # when the step halves.
    @staticmethod
    def errors(n):
        g = generate_star(n)
        rng = np.random.default_rng(n)
        values = np.stack([random_rates(g, rng).values for _ in range(20)])
        entries = np.array([_directed_entries(g)] * len(values))
        adj = np.broadcast_to(g.adjacency, values.shape)
        grads, converged, _ = _gradient_block(adj, values, entries, SolverOptions(), "central")
        assert converged.all()
        exact = np.array([[star_gradients(v)[tuple(e)] for e in entries[0]] for v in values])
        return np.abs(grads - exact), np.abs(exact).max(axis=1, keepdims=True)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_central_differences_match_closed_form(self, n):
        error, largest = self.errors(n)
        assert (error <= CENTRAL_RELATIVE_STEP**2 * largest).all()

    def test_error_is_the_step_squared_term(self, monkeypatch):
        error = sum(self.errors(n)[0].sum() for n in (3, 6, 10))
        monkeypatch.setattr(stability_module, "CENTRAL_RELATIVE_STEP", CENTRAL_RELATIVE_STEP / 2)
        halved = sum(self.errors(n)[0].sum() for n in (3, 6, 10))
        assert 3.9 < error / halved < 4.1


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

    def test_halving_the_rates_doubles_the_gradients(self):
        """A record at lambda = 2 has half the rates of the same seed at lambda = 1.
        Its centralities do not change and each sensitivity doubles, so
        gradient_sq_sum grows 4-fold; its graph and strategic class stay."""

        def run(rate_lambda):
            config = EnsembleConfig(rate_lambda=rate_lambda, master_seed=DESK_SEED)
            records = [json.loads(line) for line in block_text(config, 0, 500).splitlines()]
            moved = [[record.pop(name) for record in records]
                     for name in ("outgoing_rates", "stability", "gradient_sq_sum")]
            return records, *moved

        records_1, rates_1, stability_1, sq_sums_1 = run(1.0)
        records_2, rates_2, stability_2, sq_sums_2 = run(2.0)
        assert rates_2 == [[[i, j, rate / 2] for i, j, rate in rates] for rates in rates_1]
        assert records_2 == records_1
        assert np.array(sq_sums_2) / np.array(sq_sums_1) == pytest.approx(4.0, rel=1e-4)
        for fraction in (0.001, 0.01, 0.05):
            for direction in ("low", "high"):
                assert (classify_strategic(stability_2, fraction, direction)[0]
                        == classify_strategic(stability_1, fraction, direction)[0]).all()


def desk_systems(count, seed=19):
    systems = []
    for index in range(count):
        graph_seed, rate_seed = record_seeds(seed, index)
        g = generate_ba(10, 2, graph_seed)
        systems.append((g, sample_rates(g, 1.0, rate_seed)))
    return systems


def gradient_block(systems, scheme="forward"):
    """_gradient_block over the systems as (B, n, n) stacks, at default solver options."""
    graphs, rates = zip(*systems)
    return _gradient_block(
        np.stack([g.adjacency for g in graphs]),
        np.stack([r.values for r in rates]),
        np.array([_directed_entries(g) for g in graphs]),
        SolverOptions(),
        scheme,
    )


def solved_alone(g, rates, scheme="forward"):
    """A system's stability() and its likedness centrality, each solved on its own."""
    return stability(g, rates, scheme=scheme), likedness_centrality(g, rates).values


def assert_same_bytes(grads, converged, centrality, expected):
    """One record of a gradient block agrees to the last bit with the system alone."""
    result, expected_centrality = expected
    assert grads.tolist() == list(result.per_edge_gradients.values())
    assert converged == result.solver_converged
    assert centrality.tobytes() == expected_centrality.tobytes()


class TestStabilityBlock:
    @pytest.mark.parametrize("scheme", ["forward", "central"])
    def test_block_equals_blocks_of_one(self, scheme):
        systems = desk_systems(12)
        for *row, (g, r) in zip(*gradient_block(systems, scheme), systems):
            assert_same_bytes(*row, solved_alone(g, r, scheme))

    @pytest.mark.parametrize("scheme, points", [("forward", 1), ("central", 2)])
    def test_chunks_change_nothing(self, monkeypatch, scheme, points):
        # 20 records in chunks of 1, of 7 (7, 7 and 6) and of all 20; a desk
        # record has 34 perturbed entries, one system per stencil point each
        systems = desk_systems(20)
        results = []
        for chunk in (1, 7, 20):
            monkeypatch.setattr(stability_module, "BLOCK_VALUES", chunk * points * 34 * 10)
            assert chunk_records(points * 34, 10) == chunk
            results.append([part.tobytes() for part in gradient_block(systems, scheme)])
        assert results[1] == results[0] and results[2] == results[0]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown difference scheme 'backward'"):
            gradient_block(desk_systems(1), "backward")

    def test_singular_system_affects_only_its_own_record(self, monkeypatch):
        # LAPACK fails a whole batched inv or solve for one singular matrix;
        # that must not change the other records of the block
        systems = desk_systems(7)
        expected = [solved_alone(g, r) for g, r in systems]
        marked = 3
        pattern = (systems[marked][0].adjacency + np.eye(10)) != 0
        matches = [((g.adjacency + np.eye(10)) != 0) == pattern for g, _ in systems]
        assert [bool(m.all()) for m in matches].count(True) == 1

        def singular_on_marked(op):
            def patched(matrices, *rest):
                # I - dF/dv has the sparsity of A + I for every perturbed row
                if ((matrices != 0) == pattern).all(axis=(-2, -1)).any():
                    raise np.linalg.LinAlgError("Singular matrix")
                return op(matrices, *rest)

            return patched

        monkeypatch.setattr(np.linalg, "inv", singular_on_marked(np.linalg.inv))
        monkeypatch.setattr(np.linalg, "solve", singular_on_marked(np.linalg.solve))
        grads, converged, centrality = gradient_block(systems)
        for index, row in enumerate(zip(grads, converged, centrality)):
            if index != marked:
                assert_same_bytes(*row, expected[index])
        # the marked record lost its chord and Newton steps, not its fixed points
        assert converged[marked]
        assert float(grads[marked] @ grads[marked]) == pytest.approx(
            expected[marked][0].gradient_sq_sum, rel=1e-6
        )


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


def test_package_root_imports_no_submodule():
    """The package re-exports nothing, so likenet.stability is this module,
    whichever way it is imported, and never its stability function."""
    code = ("import sys, likenet; "
            "print(sorted(m for m in sys.modules if m.startswith('likenet.'))); "
            "import likenet.stability as m; print(m is sys.modules['likenet.stability'])")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "True"]
    assert stability_module is sys.modules["likenet.stability"]
