import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from likenet import graphs
from likenet.graphs import (
    Graph,
    GraphError,
    GraphMetrics,
    _attach,
    _metric_columns,
    compute_metrics,
    generate_ba,
    generate_star,
    read_edge_list,
    write_edge_list,
)
from likenet.centrality import read_rates
from likenet.cli import read_config_file
from likenet.ensemble import read_records


def complete_graph(n):
    return Graph(n=n, edges=tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n):
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    return Graph(n=n, edges=tuple((i, (i + 1) % n) for i in range(n)))


class TestGenerateBa:
    def test_n3_k2_is_triangle(self):
        for seed in (0, 1, 99):
            g = generate_ba(3, 2, seed)
            assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_edge_count_formula(self):
        # complete seed on k nodes plus k edges per arriving node
        for n, k, seed in ((10, 2, 5), (12, 3, 1), (6, 1, 2), (8, 4, 3)):
            g = generate_ba(n, k, seed)
            assert len(g.edges) == k * (k - 1) // 2 + k * (n - k)

    def test_n10_k2_has_17_edges(self):
        g = generate_ba(10, 2, 123)
        assert len(g.edges) == 17

    def test_deterministic_given_seed(self):
        assert generate_ba(10, 2, 7).edges == generate_ba(10, 2, 7).edges
        assert generate_ba(10, 2, 7).edges != generate_ba(10, 2, 8).edges

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            generate_ba(1, 2, 0)
        with pytest.raises(GraphError):
            generate_ba(5, 0, 0)

    @pytest.mark.parametrize("n, k", [(5, 0), (5, -1), (5, 6), (1, 2)])
    def test_attach_rejects_n_and_k_before_any_draw(self, n, k, monkeypatch):
        def refuse(seeds):
            raise AssertionError("the seeds' generators were made")

        monkeypatch.setattr(graphs, "generators", refuse)
        with pytest.raises(GraphError, match=re.escape(f"require n >= k >= 1, got n={n}, k={k}")):
            _attach(n, k, [0, 1])

    @given(
        n=st.integers(min_value=2, max_value=25),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, n, k, seed):
        if n < k:
            n, k = k, n
        if k < 1:
            k = 1
        g = generate_ba(n, k, seed)
        assert compute_metrics(g).connected
        assert int(g.degrees.sum()) == 2 * len(g.edges)
        # arriving nodes carry exactly k attachment edges
        if n > k:
            assert all(g.degrees[v] >= 1 for v in range(n))
            assert g.degrees[n - 1] == k


class TestGenerateStar:
    def test_two_nodes(self):
        assert generate_star(2).edges == ((0, 1),)

    def test_ten_nodes(self):
        g = generate_star(10)
        assert len(g.edges) == 9
        assert g.degrees[0] == 9
        assert all(g.degrees[i] == 1 for i in range(1, 10))

    def test_too_small(self):
        with pytest.raises(GraphError):
            generate_star(1)


class TestMeanPathLength:
    def test_triangle(self):
        assert compute_metrics(complete_graph(3)).mean_path_length == 1.0

    def test_path_of_three(self):
        assert compute_metrics(path_graph(3)).mean_path_length == pytest.approx(4 / 3, abs=1e-15)

    def test_ten_star(self):
        # 9 hub-leaf pairs at distance 1, 36 leaf pairs at distance 2
        assert compute_metrics(generate_star(10)).mean_path_length == pytest.approx(1.8, abs=1e-15)

    def test_exactly_one_iff_complete(self):
        for n in (3, 4, 5, 6):
            assert compute_metrics(complete_graph(n)).mean_path_length == 1.0
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
        assert compute_metrics(g).mean_path_length > 1.0

    def test_disconnected_is_flagged_with_infinite_length(self):
        metrics = compute_metrics(Graph(4, ((0, 1), (2, 3))))
        assert metrics.connected is False
        assert metrics.mean_path_length == math.inf

    def test_edge_deletion_never_shortens_paths(self):
        rng = np.random.default_rng(4)
        from util import random_connected_graph

        for _ in range(25):
            g = random_connected_graph(int(rng.integers(4, 9)), rng)
            base = compute_metrics(g).mean_path_length
            drop = tuple(g.edges[int(rng.integers(len(g.edges)))])
            smaller = Graph(g.n, tuple(e for e in g.edges if e != drop))
            # a disconnected graph's length is inf
            assert compute_metrics(smaller).mean_path_length >= base - 1e-12


class TestClustering:
    def test_triangle(self):
        assert compute_metrics(complete_graph(3)).mean_local_clustering == 1.0

    def test_star_is_zero(self):
        for n in (3, 5, 10):
            assert compute_metrics(generate_star(n)).mean_local_clustering == 0.0

    def test_k4_minus_edge(self):
        g = Graph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        assert compute_metrics(g).mean_local_clustering == pytest.approx(5 / 6, abs=1e-15)


class TestDegreeStats:
    def test_regular_graphs_zero_stddev(self):
        assert compute_metrics(complete_graph(3)).degree_stddev == 0.0
        assert compute_metrics(cycle_graph(10)).degree_stddev == 0.0

    def test_ten_star(self):
        assert compute_metrics(generate_star(10)).degree_stddev == pytest.approx(2.4, abs=1e-12)

    def test_histogram_sums_to_n(self):
        hist = compute_metrics(generate_ba(10, 2, 3)).degree_histogram
        assert sum(hist) == 10
        assert hist[0] == 0


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 3),))

    def test_rejects_no_nodes(self):
        with pytest.raises(GraphError, match="node count must be positive, got 0"):
            Graph(n=0, edges=())

    def test_degrees_are_read_only_int64(self):
        degrees = generate_star(5).degrees
        assert degrees.dtype == np.int64 and degrees.tolist() == [4, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            degrees[0] = 0

    def test_has_edge_is_false_outside_the_node_range(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 2)))
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        for i, j in [(-1, 0), (0, -1), (-1, 1), (3, 0), (0, 3), (99, 0)]:
            assert not g.has_edge(i, j), (i, j)

    def test_canonical_edge_order(self):
        g = Graph(3, ((2, 1), (1, 0)))
        assert g.edges == ((0, 1), (1, 2))

    def test_adjacency_symmetric(self):
        g = generate_ba(8, 2, 1)
        assert (g.adjacency == g.adjacency.T).all()

    def test_metrics_pure_function_of_edges(self):
        g1 = generate_ba(10, 2, 11)
        g2 = Graph(10, g1.edges)
        assert compute_metrics(g1) == compute_metrics(g2)


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = generate_ba(10, 2, 42)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g
        lines = path.read_text().splitlines()
        assert lines[0] == "n=10"
        assert len(lines) == 1 + len(g.edges)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nodes=3\n0 1\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=x\n0 1\n", ":1: node count must be an integer, got 'n=x'"),
            ("n=3\n0 1\n# note\n2\n", ":4: expected 'i j', got '2'"),
            ("n=3\n0 1 2\n", ":2: expected 'i j', got '0 1 2'"),
            ("n=3\n0 b\n", ":2: expected 'i j', got '0 b'"),
            ("zz\n0 1\n", ":1: expected 'n=<N>' header, got 'zz'"),
        ],
    )
    def test_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(GraphError, match=re.escape(f"{path}{message}")):
            read_edge_list(path)


def two_node_record(stability):
    """A records.jsonl line of a 2-node graph, with the fields read_records reads."""
    return json.dumps({
        "stability": stability, "degree_stddev": 0.0, "mean_path_length": 1.0,
        "mean_local_clustering": 0.0, "solver_converged": True, "degree_histogram": [0, 2],
        "outgoing_rates": [[0, 1, 0.5], [1, 0, 2.0]],
    })


# each text input: its file name, its reader, the read result as plain values,
# the lines before and after the bad line, the bad line and its error
TEXT_INPUTS = {
    "edge_list": ("graph.txt", read_edge_list, lambda g: g,
                  ["n=3", "0 1"], ["1 2"], "2", "expected 'i j', got '2'"),
    "triplet_rates": ("rates.txt", read_rates, lambda r: r.values.tolist(),
                      ["n=2", "0 1 0.5"], ["1 0 2.0"], "0 1", "expected 'i j rate', got '0 1'"),
    "dense_rates": ("rates.csv", read_rates, lambda r: r.values.tolist(),
                    ["0.0,0.5"], ["2.0,0.0"], "x,0.0", "non-numeric entry in 'x,0.0'"),
    "config": ("run.cfg", read_config_file, lambda values: values,
               ["sample_count = 55"], ["master_seed = 3"], "seed 3",
               "expected 'key = value', got 'seed 3'"),
    "records": ("records.jsonl", read_records,
                lambda t: {f.name: getattr(t, f.name).tolist() for f in fields(t)},
                [two_node_record(0.5)], [two_node_record(0.25)], "[1, 2]",
                "expected a JSON object, got list"),
}


@pytest.mark.parametrize("name, read, plain, before, after, bad, message",
                         TEXT_INPUTS.values(), ids=list(TEXT_INPUTS))
def test_every_text_input_skips_blank_and_comment_lines(
    tmp_path, name, read, plain, before, after, bad, message
):
    path = tmp_path / name

    def read_lines(lines):
        path.write_text("".join(line + "\n" for line in lines))
        return read(path)

    with pytest.raises(ValueError) as info:
        read_lines([*before, "", "# note", bad, *after])
    assert str(info.value) == f"{path}:{len(before) + 3}: {message}"
    assert plain(read_lines([*before, "", "# note", *after])) == plain(read_lines([*before, *after]))


class TestNetworkxOracle:
    @pytest.mark.parametrize("n, k", [(10, 2), pytest.param(40, 3, marks=pytest.mark.slow)])
    def test_metrics_match_networkx(self, n, k):
        nx = pytest.importorskip("networkx")
        for seed in range(1000):
            g = generate_ba(n, k, seed)
            reference = nx.Graph(list(g.edges))
            reference.add_nodes_from(range(n))
            assert g.degrees.tolist() == [reference.degree(v) for v in range(n)]
            if seed < 100:
                for i in range(-1, n + 1):
                    for j in range(-1, n + 1):
                        assert g.has_edge(i, j) == reference.has_edge(i, j), (i, j)
            metrics = compute_metrics(g)
            assert metrics.connected == nx.is_connected(reference)
            assert metrics.mean_path_length == pytest.approx(
                nx.average_shortest_path_length(reference), rel=1e-12
            )
            assert metrics.mean_local_clustering == pytest.approx(
                nx.average_clustering(reference), rel=1e-12, abs=1e-15
            )
            hist = nx.degree_histogram(reference)
            assert list(metrics.degree_histogram) == hist + [0] * (n - len(hist))
            degrees = [d for _, d in reference.degree()]
            assert metrics.degree_stddev == pytest.approx(np.std(degrees), rel=1e-12)


class TestMetricsBlock:
    def test_block_equals_each_graph_alone(self):
        # disconnected and edgeless graphs ride in the same block as BA graphs
        rng = np.random.default_rng(5)
        graphs = [generate_ba(10, 2, seed) for seed in range(200)]
        graphs += [Graph(10, ((0, 1), (2, 3))), Graph(10, ()), path_graph(10),
                   complete_graph(10), generate_star(10)]
        graphs = [graphs[i] for i in rng.permutation(len(graphs))]
        columns = _metric_columns(np.stack([g.adjacency for g in graphs]))
        block = [GraphMetrics(tuple(histogram), *rest)
                 for histogram, *rest in zip(*(column.tolist() for column in columns))]
        assert block == [compute_metrics(g) for g in graphs]
        assert [m.connected for m in block].count(False) == 2
