"""GCN and GIN backbones with a node- and an edge-prompt injection point.

A layer is one map of its aggregate: ``layer_forward`` adds Â h, the
self term and the prompt term, and the layer maps the sum (a GCN layer
affinely, then ReLU; a GIN-0 layer by its MLP).  ``parameter_shapes`` is
the one table of a backbone's tensor names and shapes, in draw order:
models are drawn, named and rebuilt, and checkpoints checked, from it.

Node prompts add to the input features.  Edge prompts enter aggregation
as ``c_ij (h_j + e_ij)`` per directed entry (i <- j), computed as sum_j
c_ij (h_j + e_ij) = (Â h)_i + sum_j c_ij e_ij: one ``propagate`` plus an
N x D prompt term per layer (``prompts.EdgePromptPlusParams.aggregate``),
so no per-edge prompt row exists.  Self terms (the GCN self-loop, the
GIN ``h_i``) never carry a prompt.
"""

from __future__ import annotations

import numpy as np

from .base import seeded_rng
from .errors import ConfigError, ShapeError
from .graph import Adjacency, Graph
from .prompts import NodePromptParams
from . import tensor as T
from .tensor import Tensor

GCN = "gcn"
GIN = "gin"


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))


def _tables(kind: str, dims) -> list[list[tuple[str, str, tuple[int, int]]]]:
    """Each layer's tensors in draw order: (layer attribute, name, shape)."""
    if kind not in (GCN, GIN):
        raise ConfigError(f"unknown model kind {kind!r}")
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"a model needs two or more layer widths, each >= 1, got {dims}")
    return [[("weight", f"layers.{l}.weight", (i, o)), ("bias", f"layers.{l}.bias", (1, o))]
            if kind == GCN else
            [("w1", f"layers.{l}.mlp.0.weight", (i, o)), ("b1", f"layers.{l}.mlp.0.bias", (1, o)),
             ("w2", f"layers.{l}.mlp.1.weight", (o, o)), ("b2", f"layers.{l}.mlp.1.bias", (1, o))]
            for l, (i, o) in enumerate(zip(dims, dims[1:]))]


def parameter_shapes(kind: str, dims) -> dict[str, tuple[int, int]]:
    """Tensor name -> shape of a ``kind`` model of layer widths ``dims``, in draw order."""
    return {name: shape for table in _tables(kind, dims) for _, name, shape in table}


def check_arrays(kind: str, dims, arrays: dict) -> dict[str, tuple[int, int]]:
    """``parameter_shapes(kind, dims)``, once ``arrays`` hold exactly its
    tensors, each of its shape; else a ConfigError that names the first not."""
    shapes = parameter_shapes(kind, dims)
    if set(shapes) != set(arrays):
        raise ConfigError(f"tensor names do not match a {kind} model with dims "
                          f"{tuple(dims)}: {sorted(set(shapes) ^ set(arrays))}")
    for name, shape in shapes.items():
        if np.shape(arrays[name]) != shape:
            raise ConfigError(f"tensor {name!r} has shape {np.shape(arrays[name])}, "
                              f"expected {shape}")
    return shapes


def _draw(rng, shapes: dict[str, tuple[int, int]]) -> list[Tensor]:
    """Glorot-uniform weights, in order, and zero biases (no draw)."""
    return [Tensor.zeros(*shape) if name.endswith("bias") else glorot_uniform(rng, *shape)
            for name, shape in shapes.items()]


class GCNLayer:
    """Symmetric-normalized graph convolution, after aggregation: an affine
    map, then ReLU if ``activation``."""

    def __init__(self, weight: Tensor, bias: Tensor, activation: bool):
        self.weight = weight
        self.bias = bias
        self.activation = activation

    def __call__(self, agg: Tensor) -> Tensor:
        out = T.add_row(T.matmul(agg, self.weight), self.bias)
        return T.relu(out) if self.activation else out


class MLP:
    """Two affine maps with a ReLU between: relu(x W1 + b1) W2 + b2.  A GIN-0
    layer (Xu et al., 2019; epsilon fixed at 0) is the MLP of its aggregate."""

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def create(cls, rng, d_in: int, d_out: int) -> "MLP":
        return cls(*_draw(rng, parameter_shapes(GIN, (d_in, d_out))))

    def __call__(self, x: Tensor) -> Tensor:
        hidden = T.relu(T.add_row(T.matmul(x, self.w1), self.b1))
        return T.add_row(T.matmul(hidden, self.w2), self.b2)


class GNNModel:
    """An ordered stack of GCN or GIN layers with declared widths, built
    from ``tensors`` in ``parameter_shapes`` order."""

    def __init__(self, kind: str, dims, tensors: list[Tensor]):
        tables, tensors = _tables(kind, dims), iter(tensors)
        self.kind = kind
        self.dims = tuple(int(d) for d in dims)
        self.layers = []
        for l, table in enumerate(tables):
            own = {attr: next(tensors) for attr, _, _ in table}
            self.layers.append(GCNLayer(**own, activation=l < len(tables) - 1)
                               if kind == GCN else MLP(**own))

    @classmethod
    def create(cls, kind: str, dims, seed: int = 0) -> "GNNModel":
        """Fresh model: Glorot-uniform weights drawn from ``seed``, zero biases."""
        return cls(kind, dims, _draw(seeded_rng(seed, 0x6E4E), parameter_shapes(kind, dims)))

    @classmethod
    def from_arrays(cls, kind: str, dims, arrays: dict[str, np.ndarray]) -> "GNNModel":
        """The model holding copies of ``arrays`` (see ``check_arrays``)."""
        return cls(kind, dims, [Tensor(np.array(arrays[name], dtype=np.float64))
                                for name in check_arrays(kind, dims, arrays)])

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(layer, attr))
                for layer, table in zip(self.layers, _tables(self.kind, self.dims))
                for attr, name, _ in table]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def copy(self) -> "GNNModel":
        return GNNModel.from_arrays(self.kind, self.dims, self.state_arrays())


def layer_forward(layer: GCNLayer | MLP, h: Tensor, adj: Adjacency,
                  prompt_term: Tensor | None = None) -> Tensor:
    """One GCN or GIN layer: ``layer`` of Â h plus the self term (the output
    rows' own input rows, scaled by ``adj.self_coeffs`` if it has them) plus
    the prompt term."""
    agg = T.propagate(h, adj)
    own = h if adj.own is None else T.gather_rows(h, adj.own)
    if adj.self_coeffs is not None:
        own = T.scale_rows(own, adj.self_coeffs)
    agg = T.add(agg, own)
    if prompt_term is not None:
        agg = T.add(agg, prompt_term)
    return layer(agg)


def model_forward(model: GNNModel, g: Graph, prompts=None,
                  blocks: list[Adjacency] | None = None) -> Tensor:
    """Run all layers; h^(0) is the graph's feature matrix.

    ``prompts`` is None or a prompt family: a ``NodePromptParams`` (the
    GPF baselines) adds to h^(0), an ``EdgePromptPlusParams`` with one
    anchor set per layer adds its term in each layer.  ``blocks`` (from
    ``Adjacency.blocks``) runs layer l on block l instead of the graph's
    operator; h^(0) is then block 0's input rows, the result the last
    output rows.
    """
    blocks = blocks or [g.adjacency(model.kind)] * model.num_layers
    h = Tensor(g.features if blocks[0].inputs is None else g.features[blocks[0].inputs])
    if h.shape != (blocks[0].num_in, model.input_dim):
        raise ShapeError(
            f"input features {h.shape} vs expected ({blocks[0].num_in}, {model.input_dim})"
        )
    if isinstance(prompts, NodePromptParams):
        h, prompts = prompts.apply(h), None
    if prompts is not None and len(prompts.anchors) != model.num_layers:
        raise ShapeError(
            f"prompts have {len(prompts.anchors)} layers, model has {model.num_layers}"
        )
    for l, (layer, adj) in enumerate(zip(model.layers, blocks, strict=True)):
        term = None if prompts is None else prompts.aggregate(h, adj, l)
        h = layer_forward(layer, h, adj, term)
    return h


def readout(h: Tensor, membership, kind: str = "sum") -> Tensor:
    """Permutation-invariant per-graph aggregation of node rows."""
    member = np.asarray(membership, dtype=np.int64).reshape(-1)
    if member.shape[0] != h.shape[0]:
        raise ShapeError(f"membership covers {member.shape[0]} of {h.shape[0]} rows")
    num_graphs = int(member.max()) + 1 if member.size else 0
    total = T.scatter_add_rows(h, member, num_graphs)
    if kind == "sum":
        return total
    if kind == "mean":
        counts = np.bincount(member, minlength=num_graphs).astype(np.float64)
        return T.scale_rows(total, 1.0 / np.maximum(counts, 1.0))
    raise ConfigError(f"readout kind must be 'sum' or 'mean', got {kind!r}")


class LinearHead:
    """The linear probe: an affine map from representations to logits."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    @classmethod
    def create(cls, rng, d_in: int, num_classes: int) -> "LinearHead":
        return cls(glorot_uniform(rng, d_in, num_classes), Tensor.zeros(1, num_classes))

    def parameters(self):
        return [("head.weight", self.weight), ("head.bias", self.bias)]


def classifier_forward(head: LinearHead, reps: Tensor) -> Tensor:
    return T.add_row(T.matmul(reps, head.weight), head.bias)
