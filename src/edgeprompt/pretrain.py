"""Self-supervised pre-training: two contrastive and two edge-prediction
strategies, each producing a frozen-backbone checkpoint.

Strategy tags (used in checkpoint metadata and on the CLI):

* ``graphcl``: agreement between two augmented graph views
* ``simgrace``: agreement between the model and a weight-perturbed copy
* ``ep-gppt``: masked-edge link prediction on dot-product scores
* ``ep-graphprompt``: neighbor vs non-neighbor contrast on cosine similarity

Node-task datasets are treated as one large graph (multi-graph inputs are
disjoint-unioned first, by ``LabeledDataset.node_graph``), and so are
graph datasets under the two edge-prediction strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseEstimator, check_positive, check_unit_interval, seeded_rng
from .checkpoint import checkpoint_from_model
from .data import LabeledDataset
from .errors import ConfigError
from .graph import Graph, disjoint_union, membership_from_offsets, unique_sorted
from .models import MLP, GNNModel, model_forward, readout
from .optim import Adam, overflow_guard, train_step
from . import tensor as T
from .tensor import Tensor

_DIAG_MASK = -1e9


def _node_drop_view(g: Graph, ratio: float, rng) -> tuple[Graph, np.ndarray]:
    """Drop floor(ratio * N) nodes; returns the view and the kept original ids."""
    n_drop = min(int(ratio * g.num_nodes), g.num_nodes - 1)
    dropped = rng.choice(g.num_nodes, size=n_drop, replace=False)
    keep_mask = np.ones(g.num_nodes, dtype=bool)
    keep_mask[dropped] = False
    new_index = np.cumsum(keep_mask) - 1
    edges = g.undirected_edges()
    kept = edges[keep_mask[edges[:, 0]] & keep_mask[edges[:, 1]]]
    view = Graph(int(keep_mask.sum()), new_index[kept], g.features[keep_mask])
    return view, np.flatnonzero(keep_mask)


def augment_graph(g: Graph, kind: str, ratio: float, seed: int) -> Graph:
    """One stochastic view of a graph.

    ``node-drop`` removes floor(ratio * N) uniformly chosen nodes (at
    least one node always survives) and reindexes the rest;
    ``edge-perturb`` removes floor(ratio * |E|) undirected edges and adds
    the same number of uniformly sampled non-edges, so |E| is preserved
    exactly.
    """
    check_unit_interval("ratio", ratio)
    rng = seeded_rng(seed, 0xA06)
    if kind == "node-drop":
        view, _ = _node_drop_view(g, ratio, rng)
        return view
    if kind == "edge-perturb":
        edges = g.undirected_edges()
        m = edges.shape[0]
        n_flip = int(ratio * m)
        removed = rng.choice(m, size=n_flip, replace=False)
        keep_mask = np.ones(m, dtype=bool)
        keep_mask[removed] = False
        kept = edges[keep_mask]
        present = kept[:, 0] * np.int64(g.num_nodes) + kept[:, 1]
        added = _sample_non_edges(rng, g.num_nodes, present, n_flip)
        new_edges = np.concatenate([kept, added]) if added.size else kept
        return Graph(g.num_nodes, new_edges, g.features)
    raise ConfigError(f"augmentation kind must be 'node-drop' or 'edge-perturb', got {kind!r}")


def _sample_non_edges(rng, num_nodes: int, present_keys: np.ndarray, count: int) -> np.ndarray:
    """Uniformly sample ``count`` distinct absent pairs.

    ``present_keys`` are packed ``min * num_nodes + max`` keys of the
    existing edges.  Batched rejection sampling, with an exhaustive
    fallback for graphs too dense to hit absent pairs by chance.
    """
    if count <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    n = np.int64(num_nodes)
    # n^2 exceeds every key, so a key's search position always holds a value
    taken = np.sort(np.append(np.asarray(present_keys, dtype=np.int64), n * n))
    chosen: list[np.ndarray] = []
    have = 0
    for _ in range(12):
        draw = rng.integers(0, num_nodes, size=(2 * (count - have) + 8, 2))
        a = np.minimum(draw[:, 0], draw[:, 1])
        b = np.maximum(draw[:, 0], draw[:, 1])
        keys = a * n + b
        absent = taken[np.searchsorted(taken, keys)] != keys
        keys = unique_sorted(keys[(a != b) & absent])[: count - have]
        chosen.append(keys)
        have += keys.size
        if have == count:
            break
        taken = np.sort(np.concatenate([taken, keys]))
    if have < count:
        a, b = np.triu_indices(num_nodes, 1)
        pool = np.setdiff1d(a * n + b, taken, assume_unique=True)
        extra = min(count - have, pool.shape[0])
        if extra:
            chosen.append(rng.choice(pool, size=extra, replace=False))
            have += extra
    keys = np.concatenate(chosen)
    return np.stack([keys // num_nodes, keys % num_nodes], axis=1)


def ntxent_loss(z1: Tensor, z2: Tensor, temperature: float) -> Tensor:
    """Normalized-temperature cross entropy over cosine similarities.

    Row i of z1 pairs with row i of z2; all other rows in the stacked
    2B batch are negatives.  Self-similarities are masked out of the
    softmax.
    """
    check_positive("temperature", temperature)
    if z1.shape != z2.shape:
        raise ConfigError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    b = z1.shape[0]
    if b < 2:
        raise ConfigError("NT-Xent needs a batch of >= 2 pairs (no negatives otherwise)")
    y = T.l2_normalize_rows(T.concat_rows(z1, z2))
    sims = T.scale(T.matmul(y, T.transpose(y)), 1.0 / temperature)
    sims = T.add(sims, Tensor(np.diag(np.full(2 * b, _DIAG_MASK))))
    partners = np.concatenate([np.arange(b) + b, np.arange(b)])
    return T.cross_entropy_with_logits(sims, partners)


def perturbed_copy(model: GNNModel, scale: float, rng) -> GNNModel:
    """A weight-noised clone; per-tensor noise std is scale x that
    tensor's empirical std, so constant tensors stay constant.  The
    source model is never touched."""
    clone = model.copy()
    for _, t in clone.named_parameters():
        std = float(t.data.std())
        if std > 0.0 and scale > 0.0:
            t.data = t.data + rng.normal(0.0, scale * std, size=t.data.shape)
    return clone


@dataclass(eq=False, kw_only=True)
class _Pretrainer(BaseEstimator):
    """Shared skeleton: build a fresh backbone, train it for ``epochs``
    through the guarded ``train_step``, freeze the result into
    ``checkpoint_``.

    A strategy's ``_prepare`` supplies its extra trainables, metadata
    beyond the ``_recorded`` parameters, and a per-epoch source of
    ``(weight, loss_fn)`` batches; an epoch's loss is the weighted mean
    of its batches'.
    """

    strategy = ""
    _recorded = ()  # parameters kept in checkpoint metadata

    model_kind: str = "gcn"
    num_layers: int = 2
    hidden_dim: int = 128
    epochs: int = 100
    lr: float = 1e-3
    seed: int = 0

    def fit(self, dataset: LabeledDataset) -> "_Pretrainer":
        if not dataset.graphs:
            raise ConfigError("cannot pre-train on an empty dataset")
        check_positive("epochs", self.epochs)
        check_positive("lr", self.lr)
        dims = (dataset.feature_dim,) + (self.hidden_dim,) * self.num_layers
        model = GNNModel.create(self.model_kind, dims, seed=self.seed)
        rng = seeded_rng(self.seed, 0x9E7)
        extra, metadata, batches = self._prepare(model, dataset, rng)
        opt = Adam(model.parameters() + extra, lr=self.lr)
        history = []
        for epoch in range(self.epochs):
            where = f"{self.strategy}, epoch {epoch + 1} of {self.epochs}"
            losses, weights = [], []
            # the guard also covers the batch source (SimGRACE's noised twin)
            with overflow_guard(where):
                for weight, loss_fn in batches():
                    loss, _ = train_step(opt, loss_fn, where)
                    losses.append(loss.item())
                    weights.append(weight)
            history.append(float(np.average(losses, weights=weights)))
        self.model_ = model
        self.history_ = history
        self.checkpoint_ = checkpoint_from_model(
            model, strategy=self.strategy, seed=self.seed,
            metadata={"epochs": int(self.epochs),
                      **{name: getattr(self, name) for name in self._recorded}, **metadata},
        )
        return self

    def _prepare(self, model, dataset, rng):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(eq=False, kw_only=True)
class _ContrastivePretrainer(_Pretrainer):
    """GraphCL / SimGRACE: per-epoch batches of view pairs, mean readout,
    shared projection head, NT-Xent.

    On a node dataset each epoch is one batch of ``node_batch`` nodes of
    the one graph (:meth:`_node_views`); on a graph dataset it is the
    shuffled graphs in batches of ``batch_size``, dropping a batch of one
    (:meth:`_graph_views`).  Either returns a function that builds the
    two views' rows on the tape.
    """

    batch_size: int = 32
    temperature: float = 0.5
    node_batch: int = 256

    def _prepare(self, model, dataset, rng):
        if dataset.task == "node" and self.node_batch < 2:
            raise ConfigError("node_batch must be >= 2 for single-graph datasets")
        if dataset.task == "graph" and min(self.batch_size, len(dataset.graphs)) < 2:
            raise ConfigError(f"{self.strategy} needs batches of >= 2 graphs, got batch_size "
                              f"{self.batch_size} over {len(dataset.graphs)} graph(s)")
        proj = MLP.create(rng, model.output_dim, model.output_dim)

        def loss_of(build_views):
            def loss_fn():
                z1, z2 = build_views()
                return ntxent_loss(proj(z1), proj(z2), self.temperature)
            return loss_fn

        def batches():
            if dataset.task == "node":
                size, build = self._node_views(model, dataset.node_graph(), rng)
                yield size, loss_of(build)
                return
            order = rng.permutation(len(dataset.graphs))
            for start in range(0, len(order), self.batch_size):
                batch = [dataset.graphs[i] for i in order[start : start + self.batch_size]]
                if len(batch) >= 2:
                    yield len(batch), loss_of(self._graph_views(model, batch, rng))

        return [proj.w1, proj.b1, proj.w2, proj.b2], {}, batches

    def _embed(self, model, union, offsets):
        """Mean readouts of the graphs of a ``disjoint_union``."""
        h = model_forward(model, union)
        return readout(h, membership_from_offsets(offsets), "mean")


@dataclass(eq=False, kw_only=True)
class GraphCLPretrainer(_ContrastivePretrainer):
    """Contrast node-drop and edge-perturb views of the same graph.

    Graph datasets contrast whole-graph readouts across a batch.  On a
    single large graph (node datasets) the instances are nodes: the
    positive pair is the same node's representation in the two views,
    over ``node_batch`` sampled surviving nodes per epoch.  (Whole-graph
    readouts of a single graph's views nearly coincide, which pins
    NT-Xent at its ln(2B-1) plateau with vanishing gradient.)
    """

    strategy = "graphcl"
    _recorded = ("drop_ratio", "perturb_ratio", "temperature")

    drop_ratio: float = 0.2
    perturb_ratio: float = 0.2

    def _prepare(self, model, dataset, rng):
        check_unit_interval("drop_ratio", self.drop_ratio)
        check_unit_interval("perturb_ratio", self.perturb_ratio)
        return super()._prepare(model, dataset, rng)

    def _node_views(self, model, g, rng):
        view_a, kept = _node_drop_view(
            g, self.drop_ratio, np.random.default_rng([int(rng.integers(2**31)), 0xA06]))
        view_b = augment_graph(g, "edge-perturb", self.perturb_ratio, int(rng.integers(2**31)))
        batch = min(self.node_batch, kept.size)
        anchors = np.sort(rng.choice(kept, size=batch, replace=False))
        pos_a = np.searchsorted(kept, anchors)
        return batch, lambda: (T.gather_rows(model_forward(model, view_a), pos_a),
                               T.gather_rows(model_forward(model, view_b), anchors))

    def _graph_views(self, model, graphs, rng):
        v1 = [augment_graph(g, "node-drop", self.drop_ratio, int(rng.integers(2**31)))
              for g in graphs]
        v2 = [augment_graph(g, "edge-perturb", self.perturb_ratio, int(rng.integers(2**31)))
              for g in graphs]
        return lambda: (self._embed(model, *disjoint_union(v1)),
                        self._embed(model, *disjoint_union(v2)))


@dataclass(eq=False, kw_only=True)
class SimGRACEPretrainer(_ContrastivePretrainer):
    """Augmentation-free: the second view comes from a weight-perturbed
    copy of the model; the original weights are never modified.

    Graph datasets pair whole-graph readouts under the two models; a
    single large graph pairs per-node representations over
    ``node_batch`` sampled nodes.
    """

    strategy = "simgrace"
    _recorded = ("noise_scale", "temperature")

    noise_scale: float = 0.1

    def _prepare(self, model, dataset, rng):
        if not 0.0 <= self.noise_scale < np.inf:  # NaN fails both
            raise ConfigError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        return super()._prepare(model, dataset, rng)

    def _node_views(self, model, g, rng):
        twin = perturbed_copy(model, self.noise_scale, rng)
        batch = min(self.node_batch, g.num_nodes)
        anchors = np.sort(rng.choice(g.num_nodes, size=batch, replace=False))
        return batch, lambda: (T.gather_rows(model_forward(model, g), anchors),
                               T.gather_rows(model_forward(twin, g), anchors))

    def _graph_views(self, model, graphs, rng):
        twin = perturbed_copy(model, self.noise_scale, rng)
        union = disjoint_union(graphs)  # both models read the one union
        return lambda: (self._embed(model, *union), self._embed(twin, *union))


@dataclass(eq=False, kw_only=True)
class LinkPredictionPretrainer(_Pretrainer):
    """Masked-edge link prediction (the EP-GPPT strategy).

    A fixed fraction of edges is hidden from message passing; every
    original edge is a positive, matched 1:1 with per-epoch uniformly
    resampled non-edges, scored by sigmoid(h_i . h_j).
    """

    strategy = "ep-gppt"
    _recorded = ("mask_ratio",)

    mask_ratio: float = 0.2

    def _prepare(self, model, dataset, rng):
        check_unit_interval("mask_ratio", self.mask_ratio)
        g = dataset.node_graph()
        edges = g.undirected_edges()
        m = edges.shape[0]
        if m == 0:
            raise ConfigError("ep-gppt needs a graph with at least one edge")
        # each epoch pairs every edge with one sampled non-edge
        non_edges = g.num_nodes * (g.num_nodes - 1) // 2 - m
        if non_edges < m:
            raise ConfigError(f"ep-gppt needs at least as many non-edges as edges, "
                              f"but the graph has {m} edges and {non_edges} non-edges")
        n_mask = int(self.mask_ratio * m)
        masked = rng.choice(m, size=n_mask, replace=False) if n_mask else np.zeros(0, np.int64)
        visible = np.ones(m, dtype=bool)
        visible[masked] = False
        train_graph = Graph(g.num_nodes, edges[visible], g.features)
        present = edges[:, 0] * np.int64(g.num_nodes) + edges[:, 1]
        targets = np.concatenate([np.ones(m), np.zeros(m)])

        def batches():
            pairs = np.concatenate([edges, _sample_non_edges(rng, g.num_nodes, present, m)])

            def loss_fn():
                h = model_forward(model, train_graph)
                scores = T.pair_scores(h, pairs[:, 0], pairs[:, 1])
                return T.binary_cross_entropy_with_logits(scores, targets)

            yield 1, loss_fn

        return [], {"masked_edges": np.sort(masked).tolist()}, batches


@dataclass(eq=False, kw_only=True)
class NeighborContrastPretrainer(_Pretrainer):
    """Neighbor vs non-neighbor contrast (the EP-GraphPrompt strategy).

    Each epoch pairs every eligible anchor node with one sampled neighbor
    (positive) and one sampled non-neighbor (negative); the loss is a
    temperature-scaled two-way softmax over cosine similarities.  Isolated
    anchors and anchors with no non-neighbor are skipped.
    """

    strategy = "ep-graphprompt"
    _recorded = ("temperature",)

    temperature: float = 0.5

    def _prepare(self, model, dataset, rng):
        check_positive("temperature", self.temperature)
        g = dataset.node_graph()
        deg = g.degrees()
        anchors = np.flatnonzero((deg >= 1) & (deg < g.num_nodes - 1))
        if anchors.size == 0:
            raise ConfigError("no anchor node has both a neighbor and a non-neighbor")
        labels = np.zeros(anchors.size, dtype=np.int64)

        def batches():
            pos = np.empty(anchors.size, dtype=np.int64)
            neg = np.empty(anchors.size, dtype=np.int64)
            for k, a in enumerate(anchors):
                lo, hi = g.csr_offsets[a], g.csr_offsets[a + 1]
                nbrs = g.csr_targets[lo:hi]
                pos[k] = nbrs[rng.integers(nbrs.size)]
                while True:
                    cand = int(rng.integers(g.num_nodes))
                    if cand != a and cand not in nbrs:
                        neg[k] = cand
                        break

            def loss_fn():
                hn = T.l2_normalize_rows(model_forward(model, g))
                ha = T.gather_rows(hn, anchors)
                s_pos = T.rowsum(T.mul(ha, T.gather_rows(hn, pos)))
                s_neg = T.rowsum(T.mul(ha, T.gather_rows(hn, neg)))
                logits = T.scale(T.concat_cols(s_pos, s_neg), 1.0 / self.temperature)
                return T.cross_entropy_with_logits(logits, labels)

            yield 1, loss_fn

        return [], {}, batches


PRETRAINERS = {
    cls.strategy: cls
    for cls in (GraphCLPretrainer, SimGRACEPretrainer,
                LinkPredictionPretrainer, NeighborContrastPretrainer)
}
