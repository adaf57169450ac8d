"""The benchmark's three workloads: input generation and run settings.

Inputs are generated here, with numpy only, from the workload seed; the
program receives nothing but the dataset container written to disk.  The
generated edge lists, features and labels are kept so that the
reference forward in ``reference.py`` never depends on the program's
CSR arrays.

Every workload is a fixed amount of work: node and class counts are
constants, and ``node-sparse-wide`` draws an exact number of distinct
edges.  Only ``node-dense`` and ``graph-batch`` edge counts vary with
the seed, by well under 1%, because they are Bernoulli block draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Inputs:
    """What the benchmark generated: graphs as undirected edge lists."""

    task: str
    num_classes: int
    num_nodes: list[int]
    edges: list[np.ndarray]  # per graph, m x 2 with a < b, no duplicates
    features: list[np.ndarray]
    node_labels: np.ndarray | None = None  # node task: one graph
    graph_labels: np.ndarray | None = None  # graph task: one per graph

    def labels(self) -> np.ndarray:
        return self.node_labels if self.task == "node" else self.graph_labels

    def write(self, path) -> None:
        """The program's JSON container format (see ``edgeprompt.data``)."""
        graphs = []
        for k, n in enumerate(self.num_nodes):
            entry = {"num_nodes": int(n), "edges": self.edges[k].tolist(),
                     "features": self.features[k].tolist()}
            if self.task == "node":
                entry["node_labels"] = self.node_labels.tolist()
            else:
                entry["graph_label"] = int(self.graph_labels[k])
            graphs.append(entry)
        payload = {"num_classes": self.num_classes, "task": self.task,
                   "graphs": graphs}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # seed -> Inputs
    model_kind: str
    hidden: int
    pretrain_strategy: str
    pretrain_kwargs: dict
    shots: int
    tune_kwargs: dict  # lr, anchors, batch_size
    tune_epochs: int  # epochs per timed tuning unit


def _dedup_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct (a < b) pairs, self-loops removed."""
    a = np.minimum(pairs[:, 0], pairs[:, 1])
    b = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique((a * n + b)[a != b])
    return np.stack([keys // n, keys % n], axis=1).astype(np.int64)


def _csbm_blocks(rng, sizes, p: float, q: float) -> np.ndarray:
    """Bernoulli edges of a block model: p within a block, q across."""
    n = int(sum(sizes))
    block = np.repeat(np.arange(len(sizes)), sizes)
    prob = np.where(block[:, None] == block[None, :], p, q)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    return np.argwhere(upper).astype(np.int64)


def gen_node_dense(seed: int) -> Inputs:
    """The criterion-6 graph: 2 x 500 nodes, p=0.8, q=0.2, 8 features."""
    rng = np.random.default_rng([int(seed), 0xD3])
    n, dim = 500, 8
    edges = _csbm_blocks(rng, [n, n], 0.8, 0.2)
    mu = np.zeros((2, dim))
    mu[0, 0], mu[1, 0] = 0.5, -0.5
    labels = np.repeat(np.arange(2, dtype=np.int64), n)
    feats = rng.normal(size=(2 * n, dim)) + mu[labels]
    return Inputs("node", 2, [2 * n], [edges], [feats], node_labels=labels)


SPARSE_NODES = 20_000
SPARSE_CLASSES = 4
SPARSE_EDGES = 40_000  # undirected; 80,000 directed CSR entries
SPARSE_DIM = 64


def gen_node_sparse_wide(seed: int) -> Inputs:
    """A sparse planted-partition graph with wide features.

    Each edge picks a uniform source; its other end is in the same class
    with probability 0.8, otherwise in a uniform other class.  Exactly
    ``SPARSE_EDGES`` distinct edges are kept.
    """
    rng = np.random.default_rng([int(seed), 0x5A])
    n, c, dim = SPARSE_NODES, SPARSE_CLASSES, SPARSE_DIM
    labels = rng.permutation(np.arange(n, dtype=np.int64) % c)
    members = [np.flatnonzero(labels == k) for k in range(c)]
    edges = np.zeros((0, 2), np.int64)
    while edges.shape[0] < SPARSE_EDGES:
        draw = 2 * (SPARSE_EDGES - edges.shape[0]) + 64
        src = rng.integers(0, n, size=draw)
        shift = np.where(rng.random(draw) < 0.8, 0, rng.integers(1, c, size=draw))
        dst_class = (labels[src] + shift) % c
        dst = np.empty(draw, np.int64)
        for k in range(c):
            sel = dst_class == k
            dst[sel] = members[k][rng.integers(0, members[k].size, size=sel.sum())]
        edges = _dedup_pairs(np.concatenate([edges, np.stack([src, dst], 1)]), n)
    keep = np.sort(rng.choice(edges.shape[0], size=SPARSE_EDGES, replace=False))
    edges = edges[keep]
    mu = rng.normal(scale=0.5, size=(c, dim))
    feats = np.round(rng.normal(size=(n, dim)) + mu[labels], 6)
    return Inputs("node", c, [n], [edges], [feats], node_labels=labels)


BATCH_GRAPHS = 400
BATCH_BLOCK_SIZES = (8, 10, 12, 14, 16)  # nodes per block; graphs have two blocks


def gen_graph_batch(seed: int) -> Inputs:
    """Small two-block CSBM graphs from two regimes, one per class.

    Regime 0 is assortative (p=0.5, q=0.1), regime 1 mixed (p=0.3,
    q=0.3); their expected edge counts are close, so the class is not
    given away by size.  Graph k has blocks of
    ``BATCH_BLOCK_SIZES[(k // 2) % 5]`` nodes, so both classes see the
    same sizes.
    """
    rng = np.random.default_rng([int(seed), 0x6B])
    dim = 8
    mu = np.zeros((2, dim))
    mu[0, 0], mu[1, 0] = 0.5, -0.5
    sizes, edges, feats = [], [], []
    labels = np.arange(BATCH_GRAPHS, dtype=np.int64) % 2
    for k in range(BATCH_GRAPHS):
        half = BATCH_BLOCK_SIZES[(k // 2) % len(BATCH_BLOCK_SIZES)]
        p, q = (0.5, 0.1) if labels[k] == 0 else (0.3, 0.3)
        edges.append(_csbm_blocks(rng, [half, half], p, q))
        block = np.repeat([0, 1], half)
        feats.append(np.round(rng.normal(size=(2 * half, dim)) + mu[block], 6))
        sizes.append(2 * half)
    return Inputs("graph", 2, sizes, edges, feats, graph_labels=labels)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="node-dense",
            generate=gen_node_dense,
            model_kind="gcn",
            hidden=4,
            pretrain_strategy="graphcl",
            pretrain_kwargs=dict(node_batch=256, lr=5e-3),
            shots=5,
            tune_kwargs=dict(lr=1e-2, anchors=10),
            tune_epochs=1,
        ),
        Workload(
            name="node-sparse-wide",
            generate=gen_node_sparse_wide,
            model_kind="gcn",
            hidden=64,
            pretrain_strategy="ep-gppt",
            pretrain_kwargs=dict(lr=1e-3, mask_ratio=0.2),
            shots=5,
            tune_kwargs=dict(lr=1e-2, anchors=10),
            tune_epochs=1,
        ),
        Workload(
            name="graph-batch",
            generate=gen_graph_batch,
            model_kind="gin",
            hidden=16,
            pretrain_strategy="graphcl",
            pretrain_kwargs=dict(batch_size=32, lr=1e-3),
            shots=50,
            tune_kwargs=dict(lr=1e-2, anchors=5, batch_size=32),
            tune_epochs=2,
        ),
    )
}
