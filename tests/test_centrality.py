import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from likenet.centrality import (
    DegenerateSystemError,
    NonConvergenceError,
    RateMatrix,
    SolverError,
    SolverOptions,
    eigenvector_centrality,
    likedness_centrality,
    newton_matrix,
    read_rates,
    solve_rate_batch,
    write_rates_dense,
    write_rates_triplets,
)
from likenet.ensemble import sample_rates
from likenet.graphs import Graph, generate_ba, generate_star
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


class TestSolverContract:
    @pytest.mark.parametrize("shared", [False, True])
    def test_converged_rows_meet_tolerance(self, shared):
        opts = SolverOptions()
        rng = np.random.default_rng(17)
        systems = list(ba_systems(15)) + list(ba_systems(3, n=25, k=3))
        systems += [(g, random_rates(g, rng)) for g in
                    (random_connected_graph(int(rng.integers(3, 9)), rng) for _ in range(10))]
        for g, rates in systems:
            stack = np.array([rates.values, rates.values * 1.5, rates.values ** 2])
            step = None
            if shared:
                raw0, _, _ = solve_rate_batch(g, stack[:1], opts)
                step = newton_matrix(g, stack[0], raw0[0])
            raw, conv, _ = solve_rate_batch(g, stack, opts, step_matrix=step)
            assert conv.all()
            for row in range(len(stack)):
                assert independent_residual(g, stack[row], raw[row]) <= opts.tolerance

    @pytest.mark.parametrize("wrong", ["scaled_identity", "other_rates", "nan"])
    def test_wrong_step_matrix_still_reaches_the_fixed_point(self, wrong):
        opts = SolverOptions()
        for g, rates in ba_systems(10, seed=40):
            reference, ok, _ = solve_rate_batch(g, rates.values[None], opts)
            assert ok.all()
            if wrong == "scaled_identity":
                step = 10.0 * np.eye(g.n)
            elif wrong == "other_rates":
                other = sample_rates(g, 1.0, 7)
                other_raw, _, _ = solve_rate_batch(g, other.values[None], opts)
                step = newton_matrix(g, other.values, other_raw[0])
            else:
                step = np.full((g.n, g.n), np.nan)
            raw, conv, _ = solve_rate_batch(g, rates.values[None], opts, step_matrix=step)
            assert conv.all()
            assert independent_residual(g, rates.values, raw[0]) <= opts.tolerance
            assert raw[0] == pytest.approx(reference[0], rel=1e-8, abs=1e-9)

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

    def test_warm_start_at_nearby_fixed_point_takes_fewer_iterations(self):
        opts = SolverOptions()
        for g, rates in ba_systems(10, seed=60):
            base, _, _ = solve_rate_batch(g, rates.values[None], opts)
            nearby = np.array([rates.values * (1 + 0.01 * g.adjacency * k) for k in (1, 2, 3)])
            _, cold_conv, cold = solve_rate_batch(g, nearby, opts)
            _, warm_conv, warm = solve_rate_batch(g, nearby, opts, start=base[0])
            assert cold_conv.all() and warm_conv.all()
            assert (warm < cold).all()

    @pytest.mark.parametrize("cap", [1, 2])
    def test_iteration_cap_reports_nonconvergence(self, cap):
        opts = SolverOptions(max_iterations=cap)
        g, rates = next(ba_systems(1, seed=80))
        stack = np.array([rates.values, rates.values * 2.0])
        raw, conv, iters = solve_rate_batch(g, stack, opts)
        assert not conv.any()
        assert (iters == cap).all()
        assert np.isfinite(raw).all()


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
            {"relaxation": 0.0},
            {"relaxation": 1.5},
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

    def test_nonconvergence_raises(self):
        g, rates = two_node_system(4.0, 1.0)
        with pytest.raises(NonConvergenceError):
            eigenvector_centrality(g, rates, SolverOptions(tolerance=1e-16, max_iterations=1))

    def test_zero_matrix_degenerate(self):
        g = Graph(2, ((0, 1),))
        with pytest.raises(DegenerateSystemError):
            eigenvector_centrality(g, RateMatrix(2, np.zeros((2, 2))))


class TestRateMatrixIO:
    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = random_connected_graph(5, rng)
        rates = random_rates(g, rng)
        path = tmp_path / "rates.csv"
        write_rates_dense(rates, path)
        loaded = read_rates(path)
        assert (loaded.values == rates.values).all()

    def test_triplet_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        g = generate_star(6)
        rates = random_rates(g, rng)
        path = tmp_path / "rates.txt"
        write_rates_triplets(rates, path)
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
        ],
        ids=["triplet_fields", "triplet_index", "triplet_rate", "header", "dense_entry",
             "dense_ragged"],
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
