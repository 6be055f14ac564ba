import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from likenet import centrality
from likenet.centrality import (
    DegenerateSystemError,
    RateMatrix,
    SolverError,
    SolverOptions,
    eigenvector_centrality,
    likedness_centrality,
    newton_matrix,
    read_rates,
    solve_rate_batch,
)
from likenet import ensemble
from likenet import stability as stability_module
from likenet.ensemble import EnsembleConfig, sample_rates
from likenet.graphs import Graph, _attach, generate_ba, generate_star
from likenet.stability import _gradient_block
from util import random_connected_graph, random_rates, undamped_fixed_point


def two_node_system(a, b):
    g = Graph(2, ((0, 1),))
    rates = RateMatrix(2, np.array([[0.0, a], [b, 0.0]]))
    return g, rates


def uniform_rates(g, rate):
    return RateMatrix(g.n, g.adjacency * rate)


class TestLikednessSolver:
    def test_two_node_forced_values(self):
        g, rates = two_node_system(3.0, 1.0)
        cv = likedness_centrality(g, rates)
        assert cv.converged
        assert cv.values == pytest.approx([0.75, 0.25], abs=1e-9)
        assert cv.raw == pytest.approx([3.0, 1.0], abs=1e-9)

    def test_triangle_uniform_rates(self):
        g = generate_ba(3, 2, 0)
        cv = likedness_centrality(g, uniform_rates(g, 1.7))
        assert cv.values == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_matches_independent_oracle_four_nodes(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(4, rng)
        rates = random_rates(g, rng)
        cv = likedness_centrality(g, rates, SolverOptions())
        oracle_raw, ok = undamped_fixed_point(g, rates, tol=1e-11)
        assert ok
        assert cv.values == pytest.approx(oracle_raw / oracle_raw.sum(), abs=1e-8)

    def test_residual_bounded_by_tolerance(self):
        rng = np.random.default_rng(5)
        opts = SolverOptions(tolerance=1e-10)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(3, 8)), rng)
            rates = random_rates(g, rng)
            cv = likedness_centrality(g, rates, opts)
            assert cv.converged
            numer = rates.values @ cv.raw
            denom = g.adjacency @ cv.raw
            live = denom > 0
            residual = np.abs(numer[live] / denom[live] - cv.raw[live]).max()
            assert residual <= opts.tolerance

    def test_rate_unit_covariance(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        scale = 3.7
        cv1 = likedness_centrality(g, rates)
        cv2 = likedness_centrality(g, RateMatrix(g.n, rates.values * scale))
        assert cv2.raw == pytest.approx(cv1.raw * scale, rel=1e-8)
        assert cv2.values == pytest.approx(cv1.values, abs=1e-9)

    def test_vertex_transitive_uniform(self):
        for n in (4, 6, 9):
            g = Graph(n, tuple((i, (i + 1) % n) for i in range(n)))
            cv = likedness_centrality(g, uniform_rates(g, 0.9))
            assert cv.values == pytest.approx([1 / n] * n, abs=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=3, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(n, rng)
        rates = random_rates(g, rng)
        perm = rng.permutation(n)
        g_perm = Graph(n, tuple((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges))
        values_perm = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                values_perm[perm[i], perm[j]] = rates.values[i, j]
        cv = likedness_centrality(g, rates)
        cv_perm = likedness_centrality(g_perm, RateMatrix(n, values_perm))
        assert cv_perm.values[perm] == pytest.approx(cv.values, abs=1e-9)

    def test_isolated_node_exactly_zero(self):
        g = Graph(3, ((0, 1),))
        rates = RateMatrix(3, np.array([[0, 2.0, 0], [1.0, 0, 0], [0, 0, 0]]))
        cv = likedness_centrality(g, rates)
        assert cv.values[2] == 0.0
        assert cv.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_returns_best_iterate(self):
        g, rates = two_node_system(3.0, 1.0)
        cv = likedness_centrality(g, rates, SolverOptions(max_iterations=2))
        assert not cv.converged
        assert cv.iterations == 2
        assert np.isfinite(cv.values).all()

    def test_no_edges_is_degenerate(self):
        g = Graph(3, ())
        rates = RateMatrix(3, np.zeros((3, 3)))
        with pytest.raises(DegenerateSystemError):
            likedness_centrality(g, rates)

    def test_dimension_mismatch(self):
        g = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(SolverError):
            likedness_centrality(g, RateMatrix(2, np.array([[0, 1.0], [1.0, 0]])))

    def test_support_violation(self):
        g = Graph(3, ((0, 1),))
        values = np.zeros((3, 3))
        values[0, 1] = 1.0
        values[2, 1] = 1.0  # (1,2) is not an edge
        with pytest.raises(SolverError):
            likedness_centrality(g, RateMatrix(3, values))

    def test_batch_rows_equal_single_solves(self):
        rng = np.random.default_rng(13)
        g = random_connected_graph(6, rng)
        stack = np.array([random_rates(g, rng).values for _ in range(4)])
        raw, conv, iters = solve_rate_batch(g, stack, SolverOptions())
        for row in range(4):
            single = likedness_centrality(g, RateMatrix(g.n, stack[row]))
            assert (raw[row] == single.raw).all()
            assert bool(conv[row]) == single.converged
            assert int(iters[row]) == single.iterations


def independent_residual(g, rates, raw):
    """max_i |F_i(v) - v_i| written out entry by entry, sharing no solver code."""
    worst = 0.0
    for i in range(g.n):
        denom = sum(g.adjacency[i, j] * raw[j] for j in range(g.n))
        numer = sum(rates[i, j] * raw[j] for j in range(g.n))
        fixed = numer / denom if denom > 0 else 0.0
        worst = max(worst, abs(fixed - raw[i]))
    return worst


def ba_systems(count, n=10, k=2, seed=0):
    for index in range(count):
        g = generate_ba(n, k, seed + index)
        yield g, sample_rates(g, 1.0, 1000 + seed + index)


def solve_around(systems, scales, opts):
    """_solve_perturbed on one-entry perturbations of each system, around
    its solved baseline.

    Every directed entry (t, a) of a system's rates is set to
    rates[t, a] * scale for each scale; the systems must share their node
    and edge counts. Returns (raw, converged, iterations), shaped (B, R, n),
    (B, R) and (B, R), and the perturbed rate matrices (B, R, n, n).
    """
    adj = np.stack([g.adjacency for g, _ in systems])
    rates = np.stack([r.values for _, r in systems])
    entries = np.array([np.argwhere(g.adjacency) for g, _ in systems])
    targets = np.tile(entries[:, :, 0], len(scales))
    agents = np.tile(entries[:, :, 1], len(scales))
    own = np.arange(len(systems))[:, None]
    values = rates[own, targets, agents] * np.repeat(scales, entries.shape[1])
    perturbed = np.repeat(rates[:, None], targets.shape[1], axis=1)
    perturbed[own, np.arange(targets.shape[1]), targets, agents] = values
    base, base_conv, _ = centrality._solve_block(adj, rates, opts)
    assert base_conv.all()
    solved = centrality._solve_perturbed(adj, rates, base[:, 0], (targets, agents, values), opts)
    return solved, perturbed


def cold_solves(g, perturbed, opts):
    """Each perturbed system solved on its own from the uniform start."""
    raw, conv, iters = solve_rate_batch(g, perturbed, opts)
    assert conv.all()
    return raw, iters


def wrong_chord(matrix):
    """A _chord_matrices replacement that hands every record `matrix` as usable."""

    def chord_matrices(adj, rates, raw):
        return np.array(np.broadcast_to(matrix, adj.shape)), np.ones(len(adj), dtype=bool)

    return chord_matrices


class TestSolverContract:
    @pytest.mark.parametrize("around", [False, True])
    def test_converged_rows_meet_tolerance(self, around):
        opts = SolverOptions()
        rng = np.random.default_rng(17)
        systems = list(ba_systems(15)) + list(ba_systems(3, n=25, k=3))
        systems += [(g, random_rates(g, rng)) for g in
                    (random_connected_graph(int(rng.integers(3, 9)), rng) for _ in range(10))]
        for g, rates in systems:
            if around:
                (raw, conv, _), stack = solve_around([(g, rates)], [1.5, 0.2], opts)
                raw, conv, stack = raw[0], conv[0], stack[0]
            else:
                stack = np.array([rates.values, rates.values * 1.5, rates.values ** 2])
                raw, conv, _ = solve_rate_batch(g, stack, opts)
            assert conv.all()
            for row in range(len(stack)):
                assert independent_residual(g, stack[row], raw[row]) <= opts.tolerance

    @pytest.mark.parametrize("wrong", ["scaled_identity", "other_rates", "nan"])
    def test_wrong_step_matrix_still_reaches_the_fixed_point(self, wrong, monkeypatch):
        opts = SolverOptions()
        for g, rates in ba_systems(10, seed=40):
            if wrong == "scaled_identity":
                step = 10.0 * np.eye(g.n)
            elif wrong == "other_rates":
                other = sample_rates(g, 1.0, 7)
                other_raw, _, _ = solve_rate_batch(g, other.values[None], opts)
                step = newton_matrix(g, other.values, other_raw[0])
            else:
                step = np.full((g.n, g.n), np.nan)
            with monkeypatch.context() as patch:
                patch.setattr(centrality, "_chord_matrices", wrong_chord(step))
                (raw, conv, _), stack = solve_around([(g, rates)], [1.01, 1.5], opts)
            reference, _ = cold_solves(g, stack[0], opts)
            assert conv.all()
            for row in range(len(stack[0])):
                assert independent_residual(g, stack[0, row], raw[0, row]) <= opts.tolerance
            assert raw[0] == pytest.approx(reference, rel=1e-8, abs=1e-9)

    def test_singular_newton_systems_fall_back_to_damped_steps(self, monkeypatch):
        g, rates = next(ba_systems(1, seed=3))
        expected = likedness_centrality(g, rates)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        raw, conv, iters = solve_rate_batch(g, rates.values[None], SolverOptions())
        assert conv.all()
        assert iters[0] > expected.iterations
        assert raw[0] == pytest.approx(expected.raw, rel=1e-8, abs=1e-9)

    def test_unusable_chord_matrix_falls_back_to_damped_steps(self, monkeypatch):
        # a record without a usable chord matrix (NaN, as _each_matrix leaves
        # a singular one) gets non-finite series starts: its perturbed rows
        # miss the check and are solved from its baseline, to the cold
        # solves' fixed points; the other records of the block keep their bytes
        opts = SolverOptions()
        systems = list(ba_systems(4, seed=90))
        (chorded, _, chorded_iters), _ = solve_around(systems, [1.01], opts)
        marked = 2
        usable_chord = centrality._chord_matrices

        def unusable_on_marked(adj, rates, raw):
            matrices, usable = usable_chord(adj, rates, raw)
            matrices[marked], usable[marked] = np.nan, False
            return matrices, usable

        monkeypatch.setattr(centrality, "_chord_matrices", unusable_on_marked)
        (raw, conv, iters), stack = solve_around(systems, [1.01], opts)
        assert conv.all()
        reference, _ = cold_solves(systems[marked][0], stack[marked], opts)
        assert raw[marked] == pytest.approx(reference, rel=1e-8, abs=1e-9)
        assert (iters[marked] > chorded_iters[marked]).all()
        others = np.arange(len(systems)) != marked
        assert raw[others].tobytes() == chorded[others].tobytes()
        assert (iters[others] == chorded_iters[others]).all()

    def test_warm_start_at_nearby_fixed_point_takes_fewer_iterations(self):
        opts = SolverOptions()
        for g, rates in ba_systems(10, seed=60):
            (_, warm_conv, warm), stack = solve_around([(g, rates)], [1.01, 1.02, 1.03], opts)
            _, cold = cold_solves(g, stack[0], opts)
            assert warm_conv.all()
            assert (warm[0] < cold).all()

    @pytest.mark.parametrize("cap", [3, 40])
    def test_around_call_holds_few_row_sized_arrays(self, cap):
        # one wide record's 2|E| perturbed rows: the stage's four work arrays,
        # plus per-row and n x n arrays and the groups of rows that miss their
        # start (at cap 3 the baseline has not converged, and every row
        # misses), which come to less than three more
        opts = SolverOptions(max_iterations=cap)
        g, rates = next(ba_systems(1, n=40, k=3, seed=5))
        adj, stack = g.adjacency[None], rates.values[None]
        entries = np.argwhere(g.adjacency)[None]
        targets, agents = entries[:, :, 0], entries[:, :, 1]
        base, _, _ = centrality._solve_block(adj, stack, opts)
        perturbation = (targets, agents, stack[0, targets, agents] * 1.01)
        tracemalloc.start()
        try:
            raw, _, _ = centrality._solve_perturbed(adj, stack, base[:, 0], perturbation, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raw.shape == (1, 228, 40)
        assert peak <= 7 * raw.nbytes

    @pytest.mark.parametrize("cap", [1, 2])
    def test_iteration_cap_reports_nonconvergence(self, cap):
        opts = SolverOptions(max_iterations=cap)
        g, rates = next(ba_systems(1, seed=80))
        stack = np.array([rates.values, rates.values * 2.0])
        raw, conv, iters = solve_rate_batch(g, stack, opts)
        assert not conv.any()
        assert (iters == cap).all()
        assert np.isfinite(raw).all()


def series_starts(g, rates, scale):
    """_series_start's rows for every directed entry (t, a) of one system
    set to rates[t, a] * scale, around its solved baseline: (entries,
    scaled rates, baseline, chord matrix, starts (R, n))."""
    entries = np.argwhere(g.adjacency)
    targets, agents = entries[None, :, 0], entries[None, :, 1]
    scaled = rates.values[targets, agents] * scale
    baseline = likedness_centrality(g, rates).raw
    chord = newton_matrix(g, rates.values, baseline)
    starts = np.empty((1, len(entries), g.n))
    transposed = [np.ascontiguousarray(m.T)[None] for m in (rates.values, g.adjacency, chord)]
    centrality._series_start(
        transposed[0], transposed[1], baseline[None], transposed[2],
        (targets, agents, scaled - rates.values[targets, agents]), starts, np.empty_like(starts),
    )
    return entries, scaled[0], baseline, chord, starts[0]


class TestSeriesStarts:
    @pytest.mark.parametrize("n, k, count", [(10, 2, 512), (40, 3, 24)], ids=["desk", "wide"])
    def test_rows_start_within_tolerance(self, n, k, count, monkeypatch):
        # an ensemble block's forward-difference rows meet the tolerance where
        # they start, and take no step
        config = EnsembleConfig(n=n, k=k, master_seed=19)
        adj, rates, pairs = ensemble._block_systems(
            config, ensemble.MAIN_STREAM, _attach, 0, count
        )[2:]
        iterations = []

        def recording(*args):
            result = solve_perturbed(*args)
            iterations.append(result[2].ravel())
            return result

        solve_perturbed = stability_module._solve_perturbed
        monkeypatch.setattr(stability_module, "_solve_perturbed", recording)
        _gradient_block(adj, rates, pairs, SolverOptions(), "forward")
        iterations = np.concatenate(iterations)
        assert len(iterations) == pairs.shape[0] * pairs.shape[1]
        assert (iterations == 0).mean() >= 0.999

    def test_first_order_truncation_is_the_first_chord_iterate(self, monkeypatch):
        # to order 1, at s0, a row starts where one chord step from the
        # baseline takes it: v* + C (F(v*) - v*) with the perturbed F
        monkeypatch.setattr(centrality, "SERIES_ORDER", 1)
        monkeypatch.setattr(centrality, "SERIES_SWEEPS", 0)
        for g, rates in ba_systems(5, seed=20):
            entries, scaled, baseline, chord, starts = series_starts(g, rates, 1.01)
            for row, (t, a) in enumerate(entries):
                perturbed = rates.values.copy()
                perturbed[t, a] = scaled[row]
                mapped = perturbed @ baseline / (g.adjacency @ baseline)
                expected = baseline + chord @ (mapped - baseline)
                assert starts[row] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_higher_orders_start_nearer_the_fixed_point(self):
        # to SERIES_ORDER, each row starts nearer its fixed point than the
        # first chord iterate does
        for g, rates in ba_systems(5, seed=20):
            entries, scaled, baseline, chord, starts = series_starts(g, rates, 1.01)
            for row, (t, a) in enumerate(entries):
                perturbed = rates.values.copy()
                perturbed[t, a] = scaled[row]
                mapped = perturbed @ baseline / (g.adjacency @ baseline)
                chord_step = baseline + chord @ (mapped - baseline)
                assert independent_residual(g, perturbed, starts[row]) < independent_residual(
                    g, perturbed, chord_step
                )

    @pytest.mark.parametrize("scales", [(1.5, 0.2), (20.0, 0.0)], ids=["moderate", "large"])
    def test_large_steps_reach_the_fixed_point(self, scales):
        # test_converged_rows_meet_tolerance's scales, and steps so large that
        # some series starts miss the tolerance: those rows are solved from
        # the baseline and reach the fixed point that a cold solve reaches
        opts = SolverOptions()
        for g, rates in ba_systems(10, seed=40):
            (raw, conv, _), stack = solve_around([(g, rates)], list(scales), opts)
            reference, _ = cold_solves(g, stack[0], opts)
            assert conv.all()
            for row in range(len(stack[0])):
                assert independent_residual(g, stack[0, row], raw[0, row]) <= opts.tolerance
            assert raw[0] == pytest.approx(reference, rel=1e-8, abs=1e-9)

    def test_missed_rows_equal_plain_solves_from_the_baseline(self):
        # a row that misses the tolerance at its start is its explicit system
        # solved alone by _solve_block from its record's baseline, bit for bit
        opts = SolverOptions()
        systems = list(ba_systems(10, seed=40))
        (raw, conv, iters), stack = solve_around(systems, [20.0, 0.0], opts)
        adj = np.stack([g.adjacency for g, _ in systems])
        base, _, _ = centrality._solve_block(adj, np.stack([r.values for _, r in systems]), opts)
        missed = np.argwhere(iters > 0)
        assert 0 < len(missed) < iters.size
        for b, r in missed:
            alone = centrality._solve_block(adj[b][None], stack[b, r][None], opts, start=base[b])
            assert raw[b, r].tobytes() == alone[0][0, 0].tobytes()
            assert (conv[b, r], iters[b, r]) == (alone[1][0, 0], alone[2][0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_starts_raise_no_warning(self, bad, monkeypatch):
        # every other row starts at a non-finite vector: its check warns of
        # nothing (warnings fail tests here), it is solved from the baseline
        # to the cold solve's fixed point, and the other rows keep their bytes
        opts = SolverOptions()
        systems = [next(ba_systems(1, seed=7))]
        (kept, _, _), _ = solve_around(systems, [1.01], opts)
        series_start = centrality._series_start

        def non_finite_rows(*args):
            series_start(*args)
            args[5][:, ::2, 0] = bad

        monkeypatch.setattr(centrality, "_series_start", non_finite_rows)
        (raw, conv, iters), stack = solve_around(systems, [1.01], opts)
        assert conv.all()
        assert (iters[0, ::2] > 0).all()
        reference, _ = cold_solves(systems[0][0], stack[0], opts)
        assert raw[0] == pytest.approx(reference, rel=1e-8, abs=1e-9)
        assert raw[0, 1::2].tobytes() == kept[0, 1::2].tobytes()


class TestRateMatrixType:
    def test_rejects_negative(self):
        with pytest.raises(SolverError):
            RateMatrix(2, np.array([[0, -1.0], [1.0, 0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(SolverError):
            RateMatrix(2, np.array([[0.5, 1.0], [1.0, 0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(SolverError):
            RateMatrix(3, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SolverError, match=r"entry \(0, 1\) is not finite"):
            RateMatrix(2, np.array([[0, bad], [1.0, 0]]))

    def test_values_read_only(self):
        rates = RateMatrix(2, np.array([[0, 1.0], [2.0, 0]]))
        with pytest.raises(ValueError):
            rates.values[0, 1] = 5.0


class TestSolverOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1e-3},
            {"max_iterations": 0},
            {"tolerance": math.nan},
            {"max_iterations": -1},
            {"tolerance": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SolverError):
            SolverOptions(**kwargs)


class TestEigenvectorCentrality:
    def test_symmetric_triangle(self):
        g = generate_ba(3, 2, 0)
        cv = eigenvector_centrality(g, uniform_rates(g, 2.5))
        assert cv.values == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_two_node_dominant_vector(self):
        g, rates = two_node_system(4.0, 1.0)
        cv = eigenvector_centrality(g, rates)
        assert cv.values == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_two_node_sqrt3_ratio(self):
        g, rates = two_node_system(3.0, 1.0)
        cv = eigenvector_centrality(g, rates)
        s = math.sqrt(3)
        assert cv.values == pytest.approx([s / (1 + s), 1 / (1 + s)], abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        cv1 = eigenvector_centrality(g, rates)
        cv2 = eigenvector_centrality(g, RateMatrix(g.n, rates.values * 11.0))
        assert cv2.values == pytest.approx(cv1.values, abs=1e-8)

    def test_nonconvergence_is_flagged(self):
        g, rates = two_node_system(4.0, 1.0)
        cv = eigenvector_centrality(g, rates, SolverOptions(tolerance=1e-16, max_iterations=1))
        assert cv.converged is False
        assert cv.iterations == 1

    def test_zero_matrix_degenerate(self):
        g = Graph(2, ((0, 1),))
        with pytest.raises(DegenerateSystemError):
            eigenvector_centrality(g, RateMatrix(2, np.zeros((2, 2))))

    @pytest.mark.parametrize(
        "n, entries",
        [(2, [(0, 1)]), (3, [(0, 1), (1, 2)])],
        ids=["one_way_pair", "one_way_path"],
    )
    def test_acyclic_support_degenerate_without_iterating(self, monkeypatch, n, entries):
        # an acyclic support has spectral radius 0: no dominant eigenvector
        values = np.zeros((n, n))
        for i, j in entries:
            values[i, j] = 1.0
        g = Graph(n, tuple((min(i, j), max(i, j)) for i, j in entries))

        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(centrality, "_solve_block", refuse)
        with pytest.raises(DegenerateSystemError):
            eigenvector_centrality(g, RateMatrix(n, values))

    @pytest.mark.parametrize("n, k", [(10, 2), (40, 3)], ids=["desk", "wide"])
    def test_matches_the_perron_pair_of_eig(self, n, k):
        opts = SolverOptions()
        for seed in range(200):
            g = generate_ba(n, k, seed)
            rates = sample_rates(g, 1.0, seed)
            cv = eigenvector_centrality(g, rates, opts)
            eigenvalues, vectors = np.linalg.eig(rates.values)
            top = np.argmax(eigenvalues.real)
            perron = np.abs(vectors[:, top].real)
            assert cv.converged
            assert np.abs(cv.values - perron / perron.sum()).max() <= 1e-10, seed
            assert cv.raw.sum() == pytest.approx(eigenvalues[top].real, rel=1e-9), seed
            # the tolerance bounds the residual of v = R v / sum(v), as for likedness
            residual = rates.values @ cv.raw / cv.raw.sum() - cv.raw
            assert np.abs(residual).max() <= opts.tolerance, seed


class TestRateMatrixIO:
    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        path = tmp_path / "rates.csv"
        np.savetxt(path, rates.values, delimiter=",")
        loaded = read_rates(path)
        assert (loaded.values == rates.values).all()

    def test_triplet_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = generate_star(6)
        rates = random_rates(g, rng)
        path = tmp_path / "rates.txt"
        lines = [f"{i} {j} {rate!r}" for i, row in enumerate(rates.values.tolist())
                 for j, rate in enumerate(row) if rate]
        path.write_text("\n".join([f"n={rates.n}", *lines]) + "\n")
        loaded = read_rates(path)
        assert (loaded.values == rates.values).all()

    def test_dense_must_be_square(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text("0.0,1.0,2.0\n1.0,0.0,3.0\n")
        with pytest.raises(SolverError):
            read_rates(path)

    @pytest.mark.parametrize("line", ["-1 1 0.5", "0 -2 0.5", "3 1 0.5", "1 3 0.5"])
    def test_triplet_rejects_out_of_range_index(self, tmp_path, line):
        path = tmp_path / "rates.txt"
        path.write_text(f"n=3\n{line}\n")
        with pytest.raises(SolverError, match="out of range"):
            read_rates(path)

    def test_triplet_rejects_duplicate_entries(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("n=3\n0 1 0.5\n1 0 0.2\n0 1 0.7\n")
        with pytest.raises(SolverError, match=r"duplicate triplet for entry \(0, 1\)"):
            read_rates(path)

    @pytest.mark.parametrize(
        "name, text, lineno, detail",
        [
            ("rates.txt", "n=3\n0 1\n", 2, "expected 'i j rate', got '0 1'"),
            ("rates.txt", "n=3\n0 x 0.5\n", 2, "non-numeric index or rate in '0 x 0.5'"),
            ("rates.txt", "n=3\n0 1 fast\n", 2, "non-numeric index or rate in '0 1 fast'"),
            ("rates.txt", "n=3.5\n0 1 0.5\n", 1, "node count must be an integer, got 'n=3.5'"),
            ("rates.csv", "0.0,1.0\nx,0.0\n", 2, "non-numeric entry in 'x,0.0'"),
            ("rates.csv", "0.0,1.0\n\n1.0\n", 3, "row 2 has 1 entries, expected 2"),
            ("rates.txt", "n=2\n1 0 1.0\n0 1 -1.0\n", 3, "rate -1.0 is not finite and >= 0"),
            ("rates.txt", "n=2\n0 1 nan\n", 2, "rate nan is not finite and >= 0"),
            ("rates.txt", "n=2\n0 1 inf\n", 2, "rate inf is not finite and >= 0"),
            ("rates.txt", "n=2\n1 1 1.0\n", 2, "diagonal rate (1, 1) must be zero, got 1.0"),
            ("rates.csv", "0.0,1.0\n-1.0,0.0\n", 2, "rate -1.0 is not finite and >= 0"),
            ("rates.csv", "0.0,nan\n1.0,0.0\n", 1, "rate nan is not finite and >= 0"),
            ("rates.csv", "0.0,1.0\n\n1.0,2.0\n", 3, "diagonal rate (1, 1) must be zero, got 2.0"),
        ],
        ids=["triplet_fields", "triplet_index", "triplet_rate", "header", "dense_entry",
             "dense_ragged", "triplet_negative", "triplet_nan", "triplet_inf",
             "triplet_diagonal", "dense_negative", "dense_nan", "dense_diagonal"],
    )
    def test_malformed_file_reports_path_and_line(self, tmp_path, name, text, lineno, detail):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SolverError) as info:
            read_rates(path)
        assert str(info.value) == f"{path}:{lineno}: {detail}"

    def test_nan_rate_on_an_edge_is_reported_as_non_finite(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text("n=2\n0 1 nan\n1 0 1.0\n")
        with pytest.raises(SolverError, match="not finite"):
            read_rates(path)
