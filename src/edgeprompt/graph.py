"""CSR-encoded undirected graphs with node features.

Graphs are stored as symmetric directed pairs: for every undirected edge
{a, b} both (a, b) and (b, a) appear in the CSR arrays.  Self-loops are
never stored (layers that need a self contribution add it themselves)
and duplicate edges collapse at construction time.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ShapeError


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``.

    One sort and a neighbour comparison: numpy's hash-table ``unique``
    is several times slower on 10^5-10^6 keys, and its random access
    makes its time swing with cache contention.
    """
    s = np.sort(values, axis=None)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


class Graph:
    """Immutable sparse graph: CSR structure plus an N x D feature matrix.

    ``csr_offsets`` has length N+1; the slice ``csr_targets[offsets[i]:
    offsets[i+1]]`` lists the neighbors of node i in ascending order.
    ``csr_owners`` is the matching row index per entry (so entry k is the
    directed pair owners[k] <- targets[k], a message from targets[k] into
    owners[k]).
    """

    def __init__(self, num_nodes: int, edges, features):
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != num_nodes:
            raise ShapeError(
                f"features must be ({num_nodes}, D), got {feats.shape}"
            )
        if isinstance(edges, np.ndarray):
            pairs = edges.astype(np.int64, copy=False).reshape(-1, 2)
        else:
            pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= num_nodes):
            bad = pairs[(pairs < 0) | (pairs >= num_nodes)].flat[0]
            raise IndexError(f"edge endpoint {bad} out of range [0, {num_nodes})")

        loops = pairs[:, 0] == pairs[:, 1]
        self.dropped_self_loops = int(loops.sum())
        if self.dropped_self_loops:  # no E x 2 copy of loop-free input
            pairs = pairs[~loops]
        # dedup and sort via packed integer keys; much faster than
        # row-wise unique/lexsort on large edge lists
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = unique_sorted(lo * np.int64(num_nodes) + hi)
        self.collapsed_duplicates = int(pairs.shape[0] - keys.shape[0])

        # both directions' keys, sorted, are the owner-major CSR entries
        n = np.int64(num_nodes)
        lo, hi = keys // n, keys % n
        entries = np.sort(np.concatenate([keys, hi * n + lo]))
        owners = entries // n

        self.num_nodes = int(num_nodes)
        self.csr_targets = entries % n
        counts = np.bincount(owners, minlength=num_nodes)
        self.csr_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.csr_owners = owners
        self.features = feats
        self.num_edges = int(keys.shape[0])
        self._adjacency: dict[str, Adjacency] = {}

    def adjacency(self, kind: str) -> "Adjacency":
        """The cached message-passing operator for model kind 'gcn' or 'gin'."""
        if kind not in self._adjacency:
            self._adjacency[kind] = Adjacency.of(self, kind)
        return self._adjacency[kind]

    @property
    def num_directed_edges(self) -> int:
        return int(self.csr_targets.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr_offsets)

    def undirected_edges(self) -> np.ndarray:
        """The m x 2 canonical (min, max) edge list, sorted: the entries
        whose owner is below the target, already in that order."""
        keep = self.csr_owners < self.csr_targets
        return np.stack([self.csr_owners[keep], self.csr_targets[keep]], axis=1)

    def dense_adjacency(self) -> np.ndarray:
        a = np.zeros((self.num_nodes, self.num_nodes))
        a[self.csr_owners, self.csr_targets] = 1.0
        return a


class Adjacency:
    """The message-passing operator of one model kind, n_in rows to n_out.

    Entry k sends from input row ``targets[k]`` into output row
    ``owners[k]`` with weight ``coeffs[k]``: 1/sqrt((d_i+1)(d_j+1)) for
    ``"gcn"``, whose self-loop weights 1/(d_i+1) are ``self_coeffs``, and
    1 for ``"gin"``, d being the whole graph's degrees.  Owners are sorted
    and ``offsets`` is the CSR row table; ``counts`` (entries per output
    row, 0 for isolated nodes), ``rows`` (output rows with entries) and
    ``starts`` (their first entries) are the layout that
    ``tensor.propagate`` and ``edge_softmax_sum`` chunk and reduce with.
    ``Graph.adjacency`` is the square operator over every node (``inputs``
    and ``outputs`` None); :meth:`blocks` cuts blocks from it that hold
    their rows' node ids and the output rows' positions among the input
    rows (``own``, which self terms read; None when square).
    """

    def __init__(self, owners, targets, offsets, coeffs, self_coeffs=None,
                 inputs=None, outputs=None):
        self.num_out = int(offsets.shape[0] - 1)
        self.num_in = self.num_out if inputs is None else int(inputs.size)
        self.owners = owners
        self.targets = targets
        self.offsets = offsets
        self.counts = np.diff(offsets)
        self.rows = np.flatnonzero(self.counts)
        self.starts = offsets[self.rows]
        self.coeffs, self.self_coeffs = coeffs, self_coeffs
        self.inputs, self.outputs = inputs, outputs
        self.own = np.searchsorted(inputs, outputs) if self.num_in > self.num_out else None

    @classmethod
    def of(cls, g: "Graph", kind: str) -> "Adjacency":
        """The operator of model kind ``kind`` over all of ``g``."""
        if kind not in ("gcn", "gin"):
            raise ConfigError(f"adjacency kind must be 'gcn' or 'gin', got {kind!r}")
        if kind == "gin":
            return cls(g.csr_owners, g.csr_targets, g.csr_offsets,
                       np.ones(g.num_directed_edges))
        inv_sqrt = 1.0 / np.sqrt(g.degrees() + 1.0)
        return cls(g.csr_owners, g.csr_targets, g.csr_offsets,
                   inv_sqrt[g.csr_owners] * inv_sqrt[g.csr_targets], inv_sqrt * inv_sqrt)

    @functools.cached_property
    def coeff_sums(self) -> np.ndarray:
        """sum_j c_ij per output row, as an n_out x 1 column."""
        out = np.zeros((self.num_out, 1))
        out[self.rows, 0] = np.add.reduceat(self.coeffs, self.starts)
        return out

    @functools.cached_property
    def transpose(self) -> "Adjacency":
        """The operator from the output rows back to the input rows."""
        order = np.argsort(self.targets, kind="stable")
        owners = self.targets[order]
        return Adjacency(owners, self.owners[order],
                         np.searchsorted(owners, np.arange(self.num_in + 1)),
                         self.coeffs[order], inputs=self.outputs, outputs=self.inputs)

    def blocks(self, rows, layers: int) -> "list[Adjacency]":
        """The blocks an L-layer model runs on to give this whole-graph
        operator's outputs at ``rows``: block l maps rows B^l to B^{l+1}.
        B^L is ``rows`` (sorted if not distinct); B^l is B^{l+1} if those
        rows are whole components (the block is then their disjoint union's
        operator, in their order, and serves every layer left), else them
        and their neighbours, sorted.  Any B^l whose rows own all but 1/64
        of the entries is every node, in id order: sums over its rows (as
        weight gradients) may then round unlike those in B^{l+1}'s order.
        Block l holds this operator's entries owned by B^{l+1}, row by row
        in CSR order; one that outputs every node is this operator itself.
        """
        def widen(mask):  # copying nearly every entry would save little: take all nodes
            mask |= 64 * self.counts[~mask].sum() < self.owners.size
            return np.count_nonzero(mask)  # the rows it now holds

        rows = np.asarray(rows, dtype=np.int64)
        inside = np.zeros(self.num_out, dtype=bool)
        inside[rows] = True
        outputs = rows if widen(inside) == rows.size else np.flatnonzero(inside)
        chain = []
        while len(chain) < layers:
            block = self
            if outputs.size < self.num_out:
                starts = self.offsets[outputs]
                counts = self.offsets[outputs + 1] - starts
                offsets = np.concatenate(([0], np.cumsum(counts)))
                entries = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
                inside = np.zeros(self.num_out, dtype=bool)
                inside[outputs] = inside[self.targets[entries]] = True
                inputs = outputs if widen(inside) == outputs.size else np.flatnonzero(inside)
                local = np.zeros(self.num_out, dtype=np.int64)  # position among the inputs
                local[inputs] = np.arange(inputs.size)
                self_coeffs = None if self.self_coeffs is None else self.self_coeffs[outputs]
                block = Adjacency(np.repeat(np.arange(outputs.size), counts),
                                  local[self.targets[entries]], offsets, self.coeffs[entries],
                                  self_coeffs, inputs, outputs)
                outputs = inputs
            chain.append(block)
            if block.num_in == block.num_out:  # square: every layer left runs on it too
                chain += [block] * (layers - len(chain))
        return chain[::-1]


def disjoint_union(graphs: list[Graph]) -> tuple[Graph, np.ndarray]:
    """Stack graphs block-diagonally.

    Returns the batched graph and an offset table of length len(graphs)+1;
    nodes of source graph k occupy [offsets[k], offsets[k+1]).
    """
    if not graphs:
        raise ValueError("disjoint_union: need at least one graph")
    dim = graphs[0].feature_dim
    for g in graphs:
        if g.feature_dim != dim:
            raise ShapeError(
                f"disjoint_union: feature dims differ, {g.feature_dim} vs {dim}"
            )
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edge_blocks = [g.undirected_edges() + offsets[k] for k, g in enumerate(graphs)]
    edges = np.concatenate(edge_blocks) if edge_blocks else np.zeros((0, 2), np.int64)
    features = np.concatenate([g.features for g in graphs], axis=0)
    return Graph(int(offsets[-1]), edges, features), offsets


def membership_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """Node -> source-graph table for a disjoint union."""
    sizes = np.diff(offsets)
    return np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
