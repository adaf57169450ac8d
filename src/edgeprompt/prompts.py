"""Learnable prompt families for frozen backbones.

Edge prompts attach to directed CSR entries and ride along message
passing; node prompts (the GPF / GPF-plus baselines) add to the input
features.  All prompt vectors initialize to zero so that step 0 of any
tuning run coincides exactly with the unprompted model; only the
attention score weights start at small random values.

EdgePrompt+ gives entry (i <- j) the prompt e_ij = S_ij P, a mix of the
layer's M anchors P by scores S_ij = softmax(LeakyReLU([h_i || h_j] W)),
so the two directions of an edge may differ; the LeakyReLU slope is
GAT's fixed ``LEAKY_SLOPE`` = 0.2.  EdgePrompt is the unscored
case, one anchor and S = 1.  Layers take the prompts summed per node,
sum_j c_ij e_ij = (sum_j c_ij S_ij) P: scores are summed (N x M) before
they meet the anchors, so no E x D prompt tensor exists.  One fused tape
op, ``tensor.edge_softmax_sum``, makes that sum from the N x 2M products
h [W_top | W_bot]; the only edge-sized arrays it keeps are the M x E
scores and LeakyReLU gate its backward needs; off the tape (prediction,
frozen representations) no M x E array exists, only chunk buffers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .graph import Adjacency
from . import tensor as T
from .tensor import Tensor

LEAKY_SLOPE = 0.2  # negative slope of the score function's LeakyReLU


class EdgePromptPlusParams:
    """Per-layer anchor sets, mixed per entry by attention scores; without
    ``score_weights``, EdgePrompt's one shared vector per layer."""

    def __init__(self, anchors: list[Tensor], score_weights: list[Tensor] | None = None):
        if score_weights is not None and len(anchors) != len(score_weights):
            raise ShapeError(
                f"{len(anchors)} anchor sets vs {len(score_weights)} score weights"
            )
        for l, p in enumerate(anchors):
            m, d = p.shape
            if m < 1:
                raise ConfigError(f"layer {l}: need at least one anchor prompt")
            if score_weights is not None and score_weights[l].shape != (2 * d, m):
                raise ShapeError(
                    f"layer {l}: score weights {score_weights[l].shape} "
                    f"vs expected ({2 * d}, {m})"
                )
        self.anchors = anchors
        self.score_weights = score_weights

    @classmethod
    def shared(cls, input_dims) -> "EdgePromptPlusParams":
        """EdgePrompt: a zero prompt vector per layer, no scores."""
        return cls([Tensor.zeros(1, int(d)) for d in input_dims])

    @classmethod
    def create(cls, input_dims, anchors_per_layer,
               rng: np.random.Generator) -> "EdgePromptPlusParams":
        dims = [int(d) for d in input_dims]
        if isinstance(anchors_per_layer, int):
            counts = [anchors_per_layer] * len(dims)
        else:
            counts = [int(m) for m in anchors_per_layer]
        if len(counts) != len(dims):
            raise ShapeError(
                f"{len(counts)} anchor counts for {len(dims)} layers"
            )
        anchors = [Tensor.zeros(m, d) for m, d in zip(counts, dims)]
        weights = [Tensor(rng.uniform(-0.1, 0.1, size=(2 * d, m)))
                   for m, d in zip(counts, dims)]
        return cls(anchors, weights)

    def trainable(self) -> list[Tensor]:
        return list(self.anchors) + list(self.score_weights or [])

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        if self.score_weights is None:
            return [(f"prompt.{l}.vector", p) for l, p in enumerate(self.anchors)]
        out = []
        for l, (p, w) in enumerate(zip(self.anchors, self.score_weights)):
            out.append((f"prompt.{l}.anchors", p))
            out.append((f"prompt.{l}.score_weights", w))
        return out

    def _score_logits(self, h_prev: Tensor, layer: int) -> Tensor:
        """h_prev [W_top | W_bot] (N x 2M): the owner and neighbor halves
        of [h_i || h_j] W, so only N x M products exist before the edges."""
        w = self.score_weights[layer]
        d = h_prev.shape[1]
        if d * 2 != w.shape[0]:
            raise ShapeError(
                f"layer {layer}: representations of width {d} "
                f"vs score weights {w.shape}"
            )
        halves = T.concat_cols(T.slice_rows(w, 0, d), T.slice_rows(w, d, 2 * d))
        return T.matmul(h_prev, halves)

    def scores(self, h_prev: Tensor, adj: Adjacency, layer: int) -> Tensor:
        """Per-entry mixing weights Softmax(LeakyReLU([h_i || h_j] W)) (E x M,
        a constant; training takes them through :meth:`aggregate`).

        Entry k is the directed pair owners[k] <- targets[k]; h_i is the
        owner's row, h_j the neighbor's.  Rows sum to 1.
        """
        logits = self._score_logits(h_prev, layer)
        return Tensor(T.edge_softmax(logits, adj, LEAKY_SLOPE))

    def aggregate(self, h_prev: Tensor, adj: Adjacency, layer: int) -> Tensor:
        """The layer's prompt term per output row, sum_j c_ij e_ij (n_out x D).

        Scores reach the anchors already summed per node by the fused
        ``edge_softmax_sum``, whose gradients flow into both W and h_prev.
        One shared prompt mixes by the operator's constant sum_j c_ij.
        """
        if self.score_weights is None:
            mix = Tensor(adj.coeff_sums)
        else:
            mix = T.edge_softmax_sum(self._score_logits(h_prev, layer), adj, LEAKY_SLOPE)
        return T.matmul(mix, self.anchors[layer])


class NodePromptParams:
    """Feature-space prompts: GPF-plus, X + softmax(X S) B over a basis B.
    Without ``score_map`` it is GPF, one basis vector p added to every
    row (the softmax over one column is 1)."""

    def __init__(self, basis: Tensor, score_map: Tensor | None = None):
        if score_map is None and basis.shape[0] != 1:
            raise ShapeError(f"gpf needs one prompt vector, got basis {basis.shape}")
        if score_map is not None and score_map.shape != (score_map.shape[0], basis.shape[0]):
            raise ShapeError(f"score map {score_map.shape} vs basis {basis.shape}")
        self.basis = basis
        self.score_map = score_map

    @classmethod
    def shared(cls, feature_dim: int) -> "NodePromptParams":
        """GPF: a zero prompt vector, no scores."""
        return cls(Tensor.zeros(1, int(feature_dim)))

    @classmethod
    def create(cls, feature_dim: int, num_basis: int,
               rng: np.random.Generator) -> "NodePromptParams":
        d = int(feature_dim)
        return cls(Tensor.zeros(int(num_basis), d),
                   Tensor(rng.uniform(-0.1, 0.1, size=(d, int(num_basis)))))

    def trainable(self) -> list[Tensor]:
        return [self.basis] + ([] if self.score_map is None else [self.score_map])

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        if self.score_map is None:
            return [("prompt.vector", self.basis)]
        return [("prompt.basis", self.basis), ("prompt.score_map", self.score_map)]

    def apply(self, x: Tensor) -> Tensor:
        """Prompted features: X + 1·p for gpf, or X + softmax(X S) B."""
        if self.score_map is None:
            if self.basis.shape[1] != x.shape[1]:
                raise ShapeError(f"prompt width {self.basis.shape[1]} vs features {x.shape}")
            return T.add_row(x, self.basis)
        if self.score_map.shape[0] != x.shape[1]:
            raise ShapeError(
                f"score map {self.score_map.shape} vs features {x.shape}"
            )
        mix = T.softmax_rows(T.matmul(x, self.score_map))
        return T.add(x, T.matmul(mix, self.basis))
