"""Datasets: JSON container IO, few-shot splits, and CSBM generation.

Container format (UTF-8 JSON)::

    {
      "num_classes": int,
      "task": "node" | "graph",
      "graphs": [
        {
          "num_nodes": int,
          "edges": [[i, j], ...],          # undirected, 0-based
          "features": [[f, ...] x num_nodes],
          "node_labels": [int x num_nodes],   # node task only
          "graph_label": int                  # graph task only
        },
        ...
      ]
    }

The loader rejects unknown keys, enforces label ranges, and surfaces
self-loop/duplicate-edge cleanup counts in ``LabeledDataset.load_stats``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .base import atomic_write, seeded_rng
from .errors import (ConfigError, DatasetError, FormatError, InsufficientDataError,
                     ShapeError)
from .graph import Graph, disjoint_union

logger = logging.getLogger(__name__)

_TOP_KEYS = {"num_classes", "task", "graphs"}
_GRAPH_KEYS = {"num_nodes", "edges", "features", "node_labels", "graph_label"}


@dataclass
class LabeledDataset:
    """A list of graphs with either per-node or per-graph labels."""

    graphs: list[Graph]
    num_classes: int
    node_labels: list[np.ndarray] | None = None
    graph_labels: np.ndarray | None = None
    load_stats: dict = field(default_factory=dict)
    _node_union: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.node_labels is None) == (self.graph_labels is None):
            raise DatasetError(
                "exactly one of node_labels / graph_labels must be present"
            )
        for arr in self.node_labels or []:
            if arr.size and (arr.min() < 0 or arr.max() >= self.num_classes):
                raise DatasetError(
                    f"node label out of range [0, {self.num_classes})"
                )
        if self.graph_labels is not None:
            gl = self.graph_labels
            if gl.shape[0] != len(self.graphs):
                raise DatasetError(
                    f"{gl.shape[0]} graph labels for {len(self.graphs)} graphs"
                )
            if gl.size and (gl.min() < 0 or gl.max() >= self.num_classes):
                raise DatasetError(
                    f"graph label out of range [0, {self.num_classes})"
                )

    @property
    def task(self) -> str:
        return "node" if self.node_labels is not None else "graph"

    def all_labels(self) -> np.ndarray:
        """Labels in instance order: concatenated nodes, or graphs."""
        if self.node_labels is not None:
            return np.concatenate(self.node_labels)
        return self.graph_labels

    def node_graph(self) -> Graph:
        """All of the dataset's nodes as one graph, in instance order: the
        one graph, or the disjoint union of several.  Its nodes are a node
        task's instances and its components a graph task's; tuning,
        prediction and edge-prediction pre-training all run on it."""
        return self.node_union()[0]

    def node_union(self) -> tuple[Graph, np.ndarray]:
        """``node_graph()`` and its offset table, built once: graph k's
        nodes are its rows from ``offsets[k]`` up to ``offsets[k + 1]``."""
        if self._node_union is None:
            g = self.graphs[0]
            self._node_union = ((g, np.array([0, g.num_nodes])) if len(self.graphs) == 1
                                else disjoint_union(self.graphs))
        return self._node_union

    @property
    def feature_dim(self) -> int:
        return self.graphs[0].feature_dim


def load_dataset(path) -> LabeledDataset:
    """Parse a container file into a validated LabeledDataset."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise DatasetError(f"{path}: unknown top-level keys {sorted(unknown)}")
    missing = _TOP_KEYS - set(raw)
    if missing:
        raise DatasetError(f"{path}: missing keys {sorted(missing)}")
    task = raw["task"]
    if task not in ("node", "graph"):
        raise DatasetError(f"{path}: task must be 'node' or 'graph', got {task!r}")
    num_classes = raw["num_classes"]
    if type(num_classes) is not int or num_classes < 1:
        raise DatasetError(f"{path}: num_classes must be a positive int")

    graphs: list[Graph] = []
    node_labels: list[np.ndarray] = []
    graph_labels: list[int] = []
    dropped = collapsed = 0
    if not isinstance(raw["graphs"], list):
        raise FormatError(f"{path}: graphs must be a list of objects")
    for k, entry in enumerate(raw["graphs"]):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: graph {k}: entry must be an object, "
                              f"got {type(entry).__name__}")
        unknown = set(entry) - _GRAPH_KEYS
        if unknown:
            raise DatasetError(f"{path}: graph {k}: unknown keys {sorted(unknown)}")
        try:
            n = entry["num_nodes"]
            g = Graph(n, _edge_pairs(entry["edges"]), entry["features"])
        except KeyError as exc:
            raise DatasetError(f"{path}: graph {k}: missing field {exc}") from exc
        except (ShapeError, IndexError, ValueError, TypeError, OverflowError) as exc:
            raise DatasetError(f"{path}: graph {k}: {exc}") from exc
        if not np.isfinite(g.features).all():
            raise FormatError(f"{path}: graph {k}: features contain NaN or Inf")
        dropped += g.dropped_self_loops
        collapsed += g.collapsed_duplicates
        graphs.append(g)
        if task == "node":
            if "node_labels" not in entry:
                raise DatasetError(f"{path}: graph {k}: node task needs node_labels")
            labels = _class_ids(entry["node_labels"], num_classes,
                                f"{path}: graph {k}: node_labels")
            if labels.shape != (n,):
                raise DatasetError(
                    f"{path}: graph {k}: node labels of shape {labels.shape} for {n} nodes"
                )
            node_labels.append(labels)
        else:
            if "graph_label" not in entry:
                raise DatasetError(f"{path}: graph {k}: graph task needs graph_label")
            graph_labels.append(int(_class_ids([entry["graph_label"]], num_classes,
                                               f"{path}: graph {k}: graph_label")[0]))
    if not graphs:
        raise DatasetError(f"{path}: container holds no graphs")
    if dropped:
        logger.warning("%s: dropped %d self-loop(s) at load", path, dropped)
    stats = {"dropped_self_loops": dropped, "collapsed_duplicates": collapsed}
    if task == "node":
        return LabeledDataset(graphs, num_classes, node_labels=node_labels,
                              load_stats=stats)
    return LabeledDataset(graphs, num_classes,
                          graph_labels=np.asarray(graph_labels, dtype=np.int64),
                          load_stats=stats)


def _class_ids(values, num_classes: int, where: str) -> np.ndarray:
    """A JSON list of class ids as int64; each must be an int (not a
    bool) in [0, num_classes), else ``DatasetError``."""
    if not (isinstance(values, list)
            and all(type(v) is int and 0 <= v < num_classes for v in values)):
        raise DatasetError(f"{where}: expected class ids, ints in [0, {num_classes})")
    return np.asarray(values, dtype=np.int64)


def _edge_pairs(edges) -> np.ndarray:
    """A JSON list of [i, j] node ids as an E x 2 int64 array; each id
    must be an int (not a bool), else ``DatasetError``.  ``Graph``
    checks the range."""
    if edges == []:
        return np.zeros((0, 2), dtype=np.int64)
    try:
        pairs = np.asarray(edges if isinstance(edges, list) else None)
    except ValueError:  # rows of different lengths
        pairs = np.asarray(None)
    ok = pairs.dtype.kind == "i" and pairs.shape[1:] == (2,)
    # numpy reads true and false among ints as 1 and 0, so only rows
    # holding a 0 or 1 need a look at the JSON values
    suspects = np.flatnonzero(((pairs == 0) | (pairs == 1)).any(axis=1)) if ok else []
    if not ok or any(type(v) is bool for k in suspects for v in edges[k]):
        raise DatasetError("edges must be [i, j] pairs of int node ids")
    return pairs


def save_dataset(ds: LabeledDataset, path) -> None:
    payload = {"num_classes": ds.num_classes, "task": ds.task, "graphs": []}
    for k, g in enumerate(ds.graphs):
        entry = {
            "num_nodes": g.num_nodes,
            "edges": g.undirected_edges().tolist(),
            "features": g.features.tolist(),
        }
        if ds.task == "node":
            entry["node_labels"] = ds.node_labels[k].tolist()
        else:
            entry["graph_label"] = int(ds.graph_labels[k])
        payload["graphs"].append(entry)
    atomic_write(path, json.dumps(payload).encode("utf-8"))


@dataclass
class FewShotSplit:
    """Exactly k training instances per class; everything else is test."""

    train_ids: np.ndarray
    test_ids: np.ndarray
    shots_per_class: int
    seed: int


def kshot_sample(ds: LabeledDataset, k: int, seed: int) -> FewShotSplit:
    """Stratified k-shot split, a pure function of (dataset, k, seed).

    Instances are nodes (in concatenated graph order) for node tasks and
    graphs for graph tasks.  Sampling is uniform without replacement
    within each class; a class with fewer than k instances raises.
    """
    if k < 0:
        raise InsufficientDataError(f"shots must be >= 0, got {k}")
    labels = ds.all_labels()
    rng = seeded_rng(seed, 0x5E17)
    train: list[np.ndarray] = []
    for c in range(ds.num_classes):
        members = np.flatnonzero(labels == c)
        if members.shape[0] < k:
            raise InsufficientDataError(
                f"class {c} has {members.shape[0]} labeled instances, need {k}"
            )
        picked = rng.choice(members, size=k, replace=False)
        train.append(np.sort(picked))
    train_ids = np.sort(np.concatenate(train)) if train else np.zeros(0, np.int64)
    mask = np.ones(labels.shape[0], dtype=bool)
    mask[train_ids] = False
    return FewShotSplit(
        train_ids=train_ids.astype(np.int64),
        test_ids=np.flatnonzero(mask).astype(np.int64),
        shots_per_class=k,
        seed=seed,
    )


@dataclass
class CSBMParams:
    """Two-class contextual stochastic block model.

    Nodes of class c draw features from N(mu_c, I); an unordered pair is
    connected with probability ``p`` within a class and ``q`` across.
    """

    mu1: np.ndarray
    mu2: np.ndarray
    p: float
    q: float
    n_per_class: int

    def __post_init__(self):
        self.mu1 = np.asarray(self.mu1, dtype=np.float64).reshape(-1)
        self.mu2 = np.asarray(self.mu2, dtype=np.float64).reshape(-1)
        if self.mu1.shape != self.mu2.shape:
            raise ConfigError(
                f"mu1/mu2 dims differ: {self.mu1.shape} vs {self.mu2.shape}"
            )
        if not (np.isfinite(self.mu1).all() and np.isfinite(self.mu2).all()):
            raise ConfigError("CSBM means must be finite")
        if np.array_equal(self.mu1, self.mu2):
            raise ConfigError("CSBM needs mu1 != mu2")
        for name, v in (("p", self.p), ("q", self.q)):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.n_per_class < 1:
            raise ConfigError(f"n_per_class must be >= 1, got {self.n_per_class}")


def _block_pairs(rng, rows, cols, prob, triangular):
    """Sampled index pairs of a Bernoulli block; upper triangle if square."""
    draws = rng.random((rows, cols))
    if triangular:
        mask = np.triu(draws < prob, k=1)
    else:
        mask = draws < prob
    return np.argwhere(mask)


def csbm_generate(params: CSBMParams, seed: int) -> tuple[Graph, np.ndarray]:
    """Sample a graph and its node labels from the CSBM.

    Draw order is fixed (class-1 block, class-2 block, cross block, then
    features) so a seed pins the sample exactly.
    """
    rng = seeded_rng(seed, 0xC5B3)
    n = params.n_per_class
    blocks = []
    intra1 = _block_pairs(rng, n, n, params.p, triangular=True)
    if intra1.size:
        blocks.append(intra1)
    intra2 = _block_pairs(rng, n, n, params.p, triangular=True)
    if intra2.size:
        blocks.append(intra2 + n)
    cross = _block_pairs(rng, n, n, params.q, triangular=False)
    if cross.size:
        cross = cross.copy()
        cross[:, 1] += n
        blocks.append(cross)
    edges = np.concatenate(blocks) if blocks else np.zeros((0, 2), np.int64)
    dim = params.mu1.shape[0]
    feats = np.empty((2 * n, dim))
    feats[:n] = rng.normal(size=(n, dim)) + params.mu1
    feats[n:] = rng.normal(size=(n, dim)) + params.mu2
    labels = np.repeat(np.array([0, 1], dtype=np.int64), n)
    return Graph(2 * n, edges, feats), labels


def csbm_node_dataset(params: CSBMParams, seed: int) -> LabeledDataset:
    """One CSBM graph wrapped as a 2-class node-classification dataset."""
    g, labels = csbm_generate(params, seed)
    return LabeledDataset([g], num_classes=2, node_labels=[labels])


def csbm_graph_dataset(params_class0: CSBMParams, params_class1: CSBMParams,
                       num_graphs: int, seed: int) -> LabeledDataset:
    """Graph-classification dataset: class = which CSBM regime generated it.

    Graphs alternate between the two regimes so both classes get
    ceil/floor(num_graphs / 2) instances.
    """
    if num_graphs < 1:
        raise ConfigError(f"num_graphs must be >= 1, got {num_graphs}")
    graphs: list[Graph] = []
    labels: list[int] = []
    for k in range(num_graphs):
        cls = k % 2
        params = params_class1 if cls else params_class0
        g, _ = csbm_generate(params, seed=(int(seed) * 100003 + k))
        graphs.append(g)
        labels.append(cls)
    return LabeledDataset(graphs, num_classes=2,
                          graph_labels=np.asarray(labels, dtype=np.int64))
