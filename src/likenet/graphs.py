"""Undirected graph construction and structural metrics.

Graphs here are small (tens of nodes), immutable, and always indexed
0..n-1. Generators cover the two topologies used by the ensemble
experiments: preferential-attachment graphs and stars. A block of
preferential-attachment graphs is grown at once, each draw one set of
array operations over all of them, one graph being a block of one.
Metrics are exact and computed as columns of a stack of adjacency
matrices, one graph being a stack of one: path lengths by a
breadth-first search from all nodes at once, clustering from the
diagonal of A^3. content_lines is the line reader of every text input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .seeding import generators

__all__ = [
    "Graph",
    "GraphMetrics",
    "GraphError",
    "generate_ba",
    "generate_star",
    "compute_metrics",
    "write_edge_list",
    "read_edge_list",
    "content_lines",
]


class GraphError(ValueError):
    """Invalid graph construction or incompatible graph arguments."""


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph on nodes 0..n-1.

    Edges are stored once as (i, j) with i < j, sorted. Instances are
    immutable and safe to share between worker processes.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"node count must be positive, got {self.n}")
        seen = set()
        for edge in self.edges:
            _add_edge(self.n, edge, seen)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (float, read-only)."""
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """The adjacency's row sums (int64, read-only)."""
        d = self.adjacency.sum(axis=1).astype(np.int64)
        d.flags.writeable = False
        return d

    def has_edge(self, i: int, j: int) -> bool:
        """Whether {i, j} is an edge; False for a node outside 0..n-1."""
        return 0 <= i < self.n and 0 <= j < self.n and bool(self.adjacency[i, j])


def _add_edge(n: int, edge: tuple[int, int], seen: set[tuple[int, int]]) -> None:
    """Add edge to seen as (min, max), enforcing the rules of a Graph's edges."""
    i, j = edge
    if i == j:
        raise GraphError(f"self-loop at node {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise GraphError(f"edge {edge} out of range for n={n}")
    key = (min(i, j), max(i, j))
    if key in seen:
        raise GraphError(f"duplicate edge {key}")
    seen.add(key)


def generate_ba(n: int, k: int, seed) -> Graph:
    """Grow a preferential-attachment graph on n nodes.

    Starts from a complete graph on the first k nodes (a single edge
    for k=2). Each subsequent node attaches to k distinct existing
    nodes, drawn sequentially without replacement with probability
    proportional to current degree. Deterministic for a given seed.
    It is _attach's graph for a block of one seed.
    """
    return Graph(n=n, edges=tuple(map(tuple, _attach(n, k, [seed])[0].tolist())))


def _attach(n: int, k: int, seeds: Sequence) -> np.ndarray:
    """generate_ba's edges for each seed, grown as one block: a (B, E, 2)
    array holding, per graph, the first k nodes' clique as (i, j), i < j,
    then each new node's (target, new) pairs in the order they are drawn.
    Seeds are non-negative ints, or a uint64 array, as seeding.generators
    takes them."""
    if k < 1 or n < k:
        raise GraphError(f"require n >= k >= 1, got n={n}, k={k}")
    count = len(seeds)
    rows = np.arange(count)
    # Each draw repeats Generator.choice(m, p=probs) on every graph at once:
    # one uniform u, cdf = cumsum(probs) / cdf[-1], index = searchsorted(cdf,
    # u, 'right'), the count of cdf entries <= u. Drawing a graph's uniforms
    # at once consumes the same stream. The totals are sums of integer
    # degrees, so exact in any order; np.add.accumulate adds in sequence.
    uniforms = np.empty((count, n - k, k))
    for row, rng in zip(uniforms, generators(seeds)):
        rng.random(out=row)
    degrees = np.zeros((count, n))
    degrees[:, :k] = k - 1
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = np.empty((count, len(clique) + k * (n - k), 2), dtype=np.intp)
    edges[:, :len(clique)] = np.reshape(clique, (-1, 2))
    edges[:, len(clique):, 1] = np.repeat(np.arange(k, n), k)
    targets = np.empty((count, n - k, k), dtype=np.intp)
    for new in range(k, n):
        # only k=1's first new node meets all-zero degrees: its one
        # candidate has no edge yet, and it picks uniformly rather than
        # divide 0 by 0
        weights = degrees[:, :new].copy() if new > 1 else np.ones((count, 1))
        for draw in range(k):
            probs = weights / np.add.reduce(weights, axis=1, keepdims=True)
            cdf = np.add.accumulate(probs, axis=1)
            pick = np.add.reduce(cdf / cdf[:, -1:] <= uniforms[:, new - k, draw, None], axis=1)
            # a picked node keeps its slot with weight 0: adding 0.0 leaves
            # the cumulative sums unchanged, so the same node is picked as
            # if it had been removed from the pool
            weights[rows, pick] = 0.0
            targets[:, new - k, draw] = pick
        degrees[rows[:, None], targets[:, new - k]] += 1.0
        degrees[:, new] = k
    edges[:, len(clique):, 0] = targets.reshape(count, -1)
    return edges


def generate_star(n: int) -> Graph:
    """Star on n nodes: node 0 is the hub, nodes 1..n-1 are leaves."""
    if n < 2:
        raise GraphError(f"star requires n >= 2, got n={n}")
    return Graph(n=n, edges=tuple((0, i) for i in range(1, n)))


def _distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs geodesic distances in each graph of a (B, n, n) adjacency
    stack, by a breadth-first search from every node at once; -1 marks
    unreachable pairs."""
    n = adj.shape[1]
    dist = np.broadcast_to(np.where(np.eye(n, dtype=bool), 0, -1), adj.shape).copy()
    frontier = np.broadcast_to(np.eye(n), adj.shape)
    for depth in range(1, n):
        reached = (frontier @ adj > 0.0) & (dist < 0)
        if not reached.any():
            break
        dist[reached] = depth
        frontier = reached.astype(float)
    return dist


@dataclass(frozen=True)
class GraphMetrics:
    """Structural summary used by the ensemble records."""

    degree_histogram: tuple[int, ...]
    degree_stddev: float
    mean_path_length: float
    mean_local_clustering: float
    connected: bool


def compute_metrics(g: Graph) -> GraphMetrics:
    """The graph's metrics, computed as a block of one graph."""
    histogram, stddev, path_length, clustering, connected = (
        column.tolist()[0] for column in _metric_columns(g.adjacency[None])
    )
    return GraphMetrics(tuple(histogram), stddev, path_length, clustering, connected)


def _metric_columns(adj: np.ndarray) -> tuple[np.ndarray, ...]:
    """The GraphMetrics fields of each graph of a (B, n, n) adjacency stack, as
    columns: degree histograms (B, n), then degree stddevs, mean path lengths
    (inf when disconnected), mean local clusterings and connected flags (B,)."""
    count, n, _ = adj.shape
    degrees = adj.sum(axis=2).astype(np.int64)
    dist = _distances(adj)
    connected = (dist >= 0).all(axis=(1, 2))
    # each unordered pair counted twice
    path_lengths = np.where(connected & (n > 1), dist.sum(axis=(1, 2)) / max(1, n * (n - 1)),
                            np.inf)
    # np.bincount counts all graphs at once when graph b's degrees are offset by b * n
    histograms = np.bincount((degrees + n * np.arange(count)[:, None]).ravel(),
                             minlength=count * n).reshape(count, n)
    # node i's clustering is (A^3)_ii / (d_i (d_i - 1)), 0 below degree 2
    closed = ((adj @ adj) * adj).sum(axis=2)
    pairs = degrees * (degrees - 1)
    clusterings = np.where(pairs > 0, closed / np.maximum(pairs, 1), 0.0).mean(axis=1)
    return histograms, np.std(degrees, axis=1), path_lengths, clusterings, connected


def write_edge_list(g: Graph, path) -> None:
    """Write the text edge-list format: header 'n=<N>', one 'i j' per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={g.n}\n")
        for i, j in g.edges:
            fh.write(f"{i} {j}\n")


def read_node_count(fh, path, error: type[ValueError] = GraphError) -> int:
    """N from the 'n=<N>' header line of a text graph or rate file."""
    header = fh.readline().strip()
    if not header.startswith("n="):
        raise error(f"{path}:1: expected 'n=<N>' header, got {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise error(f"{path}:1: node count must be an integer, got {header!r}") from None
    if n < 1:
        raise error(f"{path}:1: node count must be positive, got {n}")
    return n


def content_lines(fh, path, start: int = 1) -> Iterator[tuple[str, str]]:
    """('path:line', stripped text) for each line of fh, numbered from start,
    that is neither blank nor a '#' comment: the line rule of every text input."""
    for lineno, line in enumerate(fh, start=start):
        line = line.strip()
        if line and not line.startswith("#"):
            yield f"{path}:{lineno}", line


def read_edge_list(path) -> Graph:
    """Read the text edge-list format; errors name the file and line."""
    with open(path, encoding="utf-8") as fh:
        n = read_node_count(fh, path)
        seen = set()
        for where, line in content_lines(fh, path, start=2):
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise GraphError(f"{where}: expected 'i j', got {line!r}") from None
            try:
                _add_edge(n, (i, j), seen)
            except GraphError as exc:
                raise GraphError(f"{where}: {exc}") from None
    return Graph(n=n, edges=tuple(seen))
