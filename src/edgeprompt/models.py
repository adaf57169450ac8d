"""GCN and GIN backbones with an edge-prompt injection point.

Edge prompts enter aggregation as ``c_ij (h_j + e_ij)`` per directed
entry (i <- j), computed as sum_j c_ij (h_j + e_ij) = (Â h)_i + sum_j
c_ij e_ij: one ``propagate`` plus an N x D prompt term per layer (from
``prompts.EdgePromptPlusParams.aggregate``), so no per-edge prompt row
exists.  Self terms (the GCN self-loop, the GIN ``h_i``) never carry a
prompt.
"""

from __future__ import annotations

import numpy as np

from .base import seeded_rng
from .errors import ConfigError, ShapeError
from .graph import Adjacency, Graph
from . import tensor as T
from .tensor import Tensor

GCN = "gcn"
GIN = "gin"


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))


class GCNLayer:
    """Symmetric-normalized graph convolution: aggregate, transform, ReLU."""

    def __init__(self, weight: Tensor, bias: Tensor, activation: bool):
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @classmethod
    def create(cls, rng, d_in: int, d_out: int, activation: bool) -> "GCNLayer":
        return cls(glorot_uniform(rng, d_in, d_out), Tensor.zeros(1, d_out), activation)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class MLP:
    """Two affine maps with a ReLU between: relu(x W1 + b1) W2 + b2."""

    def __init__(self, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def create(cls, rng, d_in: int, d_out: int) -> "MLP":
        return cls(glorot_uniform(rng, d_in, d_out), Tensor.zeros(1, d_out),
                   glorot_uniform(rng, d_out, d_out), Tensor.zeros(1, d_out))

    def parameters(self):
        return [("0.weight", self.w1), ("0.bias", self.b1),
                ("1.weight", self.w2), ("1.bias", self.b2)]

    def __call__(self, x: Tensor) -> Tensor:
        hidden = T.relu(T.add_row(T.matmul(x, self.w1), self.b1))
        return T.add_row(T.matmul(hidden, self.w2), self.b2)


class GINLayer:
    """GIN-0 (Xu et al., 2019): the MLP of the sum over the neighbours and
    the node itself, with epsilon fixed at 0."""

    def __init__(self, mlp: MLP):
        self.mlp = mlp

    @classmethod
    def create(cls, rng, d_in: int, d_out: int) -> "GINLayer":
        return cls(MLP.create(rng, d_in, d_out))

    def parameters(self):
        return [(f"mlp.{name}", t) for name, t in self.mlp.parameters()]


class GNNModel:
    """An ordered stack of GCN or GIN layers with declared widths."""

    def __init__(self, kind: str, layers: list, dims: tuple[int, ...]):
        if kind not in (GCN, GIN):
            raise ConfigError(f"unknown model kind {kind!r}")
        if len(layers) < 1 or len(dims) != len(layers) + 1:
            raise ConfigError(
                f"{len(layers)} layers need {len(layers) + 1} dims, got {len(dims)}"
            )
        self.kind = kind
        self.layers = layers
        self.dims = tuple(int(d) for d in dims)

    @classmethod
    def create(cls, kind: str, dims, seed: int = 0) -> "GNNModel":
        """Fresh model with Glorot-uniform weights drawn from ``seed``."""
        dims = tuple(int(d) for d in dims)
        if min(dims, default=0) < 1:
            raise ConfigError(f"layer widths must be >= 1, got {dims}")
        rng = seeded_rng(seed, 0x6E4E)
        last = len(dims) - 2
        # __init__ rejects an unknown kind
        layers = [GCNLayer.create(rng, dims[l], dims[l + 1], activation=l < last)
                  if kind == GCN else GINLayer.create(rng, dims[l], dims[l + 1])
                  for l in range(len(dims) - 1)]
        return cls(kind, layers, dims)

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
        out = []
        for l, layer in enumerate(self.layers):
            for name, t in layer.parameters():
                out.append((f"layers.{l}.{name}", t))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        named = dict(self.named_parameters())
        if set(named) != set(arrays):
            missing = sorted(set(named) ^ set(arrays))
            raise ConfigError(f"parameter names do not match model: {missing}")
        for name, t in named.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ShapeError(
                    f"{name}: stored shape {arr.shape} vs model {t.data.shape}"
                )
            t.data = arr.copy()

    def copy(self) -> "GNNModel":
        clone = GNNModel.create(self.kind, self.dims, seed=0)
        clone.load_state_arrays(self.state_arrays())
        return clone


def _own_rows(h: Tensor, adj: Adjacency) -> Tensor:
    """The output rows' own input rows: what a layer's self term reads."""
    return h if adj.own is None else T.gather_rows(h, adj.own)


def gcn_layer_forward(layer: GCNLayer, h: Tensor, adj: Adjacency,
                      prompt_term: Tensor | None = None) -> Tensor:
    """One GCN layer: Â h plus the self-loop term and the prompt term."""
    agg = T.add(T.propagate(h, adj), T.scale_rows(_own_rows(h, adj), adj.self_coeffs))
    if prompt_term is not None:
        agg = T.add(agg, prompt_term)
    out = T.add_row(T.matmul(agg, layer.weight), layer.bias)
    if layer.activation:
        out = T.relu(out)
    return out


def gin_layer_forward(layer: GINLayer, h: Tensor, adj: Adjacency,
                      prompt_term: Tensor | None = None) -> Tensor:
    """One GIN layer: the MLP of A h + h plus the prompt term."""
    agg = T.add(T.propagate(h, adj), _own_rows(h, adj))
    if prompt_term is not None:
        agg = T.add(agg, prompt_term)
    return layer.mlp(agg)


def model_forward(model: GNNModel, g: Graph, prompts=None, features: Tensor | None = None,
                  blocks: list[Adjacency] | None = None) -> Tensor:
    """Run all layers; h^(0) is the graph's feature matrix.

    ``prompts`` is None or an ``EdgePromptPlusParams`` with one anchor
    set per layer.  ``features`` substitutes h^(0) (used by the
    node-feature prompt baselines).  ``blocks`` (from ``Adjacency.blocks``)
    runs layer l on block l instead of the graph's operator; ``features``
    then holds block 0's input rows and the result the last output rows.
    """
    blocks = blocks or [g.adjacency(model.kind)] * model.num_layers
    h = Tensor(g.features) if features is None else features
    if h.shape != (blocks[0].num_in, model.input_dim):
        raise ShapeError(
            f"input features {h.shape} vs expected ({blocks[0].num_in}, {model.input_dim})"
        )
    if prompts is not None and len(prompts.anchors) != model.num_layers:
        raise ShapeError(
            f"prompts have {len(prompts.anchors)} layers, model has {model.num_layers}"
        )
    layer_forward = gcn_layer_forward if model.kind == GCN else gin_layer_forward
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
