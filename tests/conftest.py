import numpy as np
import pytest

from edgeprompt.graph import Graph


def rel_err(a, b):
    """Max-norm relative error with an absolute floor for tiny gradients."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / denom)


def random_graph(rng, num_nodes, edge_prob=0.5, feature_dim=3):
    """Erdos-Renyi graph with uniform features; may be edgeless."""
    mask = np.triu(rng.random((num_nodes, num_nodes)) < edge_prob, k=1)
    edges = np.argwhere(mask)
    feats = rng.uniform(-1.0, 1.0, size=(num_nodes, feature_dim))
    return Graph(num_nodes, edges, feats)


def random_connected_graph(rng, num_nodes, edge_prob=0.5, feature_dim=3):
    """As random_graph but guaranteed at least one edge."""
    while True:
        g = random_graph(rng, num_nodes, edge_prob, feature_dim)
        if g.num_edges:
            return g


def graph_with_isolated_nodes(rng, num_nodes, edge_prob, feature_dim=3, isolated=2):
    """A sparse random graph with at least ``isolated`` edgeless nodes,
    placed at random ids."""
    base = random_graph(rng, num_nodes - isolated, edge_prob, feature_dim)
    new_id = rng.permutation(num_nodes)
    feats = rng.uniform(-1.0, 1.0, size=(num_nodes, feature_dim))
    feats[new_id[: base.num_nodes]] = base.features
    return Graph(num_nodes, new_id[base.undirected_edges()], feats)


def bfs_field(g, rows, hops):
    """Sorted ids of the nodes within ``hops`` edges of ``rows``, by
    breadth-first search over the dense adjacency matrix."""
    a = g.dense_adjacency() > 0
    reached = np.zeros(g.num_nodes, dtype=bool)
    reached[rows] = True
    for _ in range(hops):
        reached |= a[reached].any(axis=0)
    return np.flatnonzero(reached)


def isolated_and_hub_rows(rng, g, extra=3):
    """Row ids holding an isolated node, the node of maximum degree and
    ``extra`` other nodes."""
    deg = g.degrees()
    rows = {int(np.flatnonzero(deg == 0)[0]), int(np.argmax(deg))}
    rows.update(int(i) for i in rng.choice(g.num_nodes, size=extra, replace=False))
    return np.array(sorted(rows), dtype=np.int64)


def all_edge_subsets(num_nodes):
    """Every undirected edge set on num_nodes nodes (use only for n <= 5)."""
    pairs = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)]
    for bits in range(1 << len(pairs)):
        yield [pairs[k] for k in range(len(pairs)) if bits >> k & 1]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
