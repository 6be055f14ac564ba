"""Undirected graph construction and structural metrics.

Graphs here are small (tens of nodes), immutable, and always indexed
0..n-1. Generators cover the two topologies used by the ensemble
experiments: preferential-attachment graphs and stars. Metrics are
exact and computed on the adjacency matrix: path lengths by a
breadth-first search from all nodes at once, clustering from the
diagonal of A^3.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "Graph",
    "GraphMetrics",
    "GraphError",
    "DisconnectedGraphError",
    "generate_ba",
    "generate_star",
    "mean_path_length",
    "mean_local_clustering",
    "degree_stddev",
    "degree_histogram",
    "compute_metrics",
    "write_edge_list",
    "read_edge_list",
]


class GraphError(ValueError):
    """Invalid graph construction or incompatible graph arguments."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph."""


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
        canonical = []
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge {edge} out of range for n={self.n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

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
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(b)) for b in nbrs)

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.array([len(b) for b in self.neighbors], dtype=np.int64)
        d.flags.writeable = False
        return d

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        return bool((_distances(self)[0] >= 0).all())


def generate_ba(n: int, k: int, seed) -> Graph:
    """Grow a preferential-attachment graph on n nodes.

    Starts from a complete graph on the first k nodes (a single edge
    for k=2). Each subsequent node attaches to k distinct existing
    nodes, drawn sequentially without replacement with probability
    proportional to current degree. Deterministic for a given seed.
    """
    if k < 1 or n < k:
        raise GraphError(f"require n >= k >= 1, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    # Each draw repeats Generator.choice(m, p=probs) on plain floats: one
    # uniform u, cdf = cumsum(probs) / cdf[-1], index = searchsorted(cdf, u,
    # 'right'). Drawing all uniforms at once consumes the same stream.
    uniforms = iter(rng.random(k * (n - k)).tolist())
    degrees = [k - 1] * k + [0] * (n - k)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for new in range(k, n):
        # a picked node keeps its slot with weight 0: adding 0.0 leaves the
        # cumulative sums unchanged, so the same node is picked as if it
        # had been removed from the pool
        weights = [float(d) for d in degrees[:new]]
        targets = []
        for _ in range(k):
            total = sum(weights)
            if total > 0.0:
                probs = [w / total for w in weights]
            else:
                # all-zero degrees (k=1 seed, whose one pick per node leaves
                # nothing picked yet): fall back to uniform
                probs = [1.0 / new] * new
            cdf = list(accumulate(probs))
            last = cdf[-1]
            pick = bisect_right(cdf, next(uniforms), key=lambda c: c / last)
            targets.append(pick)
            weights[pick] = 0.0
        for t in targets:
            edges.append((t, new))
            degrees[new] += 1
            degrees[t] += 1
    return Graph(n=n, edges=tuple(edges))


def generate_star(n: int) -> Graph:
    """Star on n nodes: node 0 is the hub, nodes 1..n-1 are leaves."""
    if n < 2:
        raise GraphError(f"star requires n >= 2, got n={n}")
    return Graph(n=n, edges=tuple((0, i) for i in range(1, n)))


def _distances(g: Graph) -> np.ndarray:
    """All-pairs geodesic distances by a breadth-first search from every
    node at once; -1 marks unreachable pairs."""
    dist = np.where(np.eye(g.n, dtype=bool), 0, -1)
    frontier = np.eye(g.n)
    for depth in range(1, g.n):
        reached = (frontier @ g.adjacency > 0.0) & (dist < 0)
        if not reached.any():
            break
        dist[reached] = depth
        frontier = reached.astype(float)
    return dist


def _mean_path_length(dist: np.ndarray) -> float:
    n = dist.shape[0]
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected")
    # each unordered pair counted twice
    return int(dist.sum()) / (n * (n - 1))


def mean_path_length(g: Graph) -> float:
    """Average geodesic distance over all unordered distinct pairs."""
    if g.n < 2:
        raise GraphError("mean path length undefined for n < 2")
    return _mean_path_length(_distances(g))


def mean_local_clustering(g: Graph) -> float:
    """Mean local clustering coefficient; degree-<2 nodes contribute 0.

    A node's coefficient is (A^3)_ii / (d_i (d_i - 1)): the diagonal of
    A^3 counts each triangle through i twice.
    """
    adj = g.adjacency
    closed = ((adj @ adj) * adj).sum(axis=1)
    pairs = g.degrees * (g.degrees - 1)
    coeffs = np.where(pairs > 0, closed / np.maximum(pairs, 1), 0.0)
    return float(np.mean(coeffs))


def degree_stddev(g: Graph) -> float:
    """Population standard deviation of the degree sequence."""
    return float(np.std(g.degrees))


def degree_histogram(g: Graph) -> list[int]:
    """Count of nodes per degree value, indexed 0..n-1."""
    return np.bincount(g.degrees, minlength=g.n).tolist()


@dataclass(frozen=True)
class GraphMetrics:
    """Structural summary used by the ensemble records."""

    degree_histogram: tuple[int, ...]
    degree_stddev: float
    mean_path_length: float
    mean_local_clustering: float
    connected: bool


def compute_metrics(g: Graph) -> GraphMetrics:
    dist = _distances(g)
    connected = bool((dist >= 0).all())
    return GraphMetrics(
        degree_histogram=tuple(degree_histogram(g)),
        degree_stddev=degree_stddev(g),
        mean_path_length=_mean_path_length(dist) if connected and g.n > 1 else float("inf"),
        mean_local_clustering=mean_local_clustering(g),
        connected=connected,
    )


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
        return int(header[2:])
    except ValueError:
        raise error(f"{path}:1: node count must be an integer, got {header!r}") from None


def read_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        n = read_node_count(fh, path)
        edges = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise GraphError(f"{path}:{lineno}: expected 'i j', got {line!r}") from None
            edges.append((i, j))
    return Graph(n=n, edges=tuple(edges))
