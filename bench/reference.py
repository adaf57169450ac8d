"""A numpy-only reference forward, independent of the program's code.

It recomputes a prompted backbone's logits from the benchmark's own
undirected edge list, so neither the program's CSR layout nor its tape
ops enter the result.  Parameters (backbone weights, prompt tensors, the
linear head) come in as plain arrays keyed by the program's on-disk
tensor names, which are a stable, documented format.

Semantics (from the paper's method and the program's README):

* GCN layer: h'_i = act(W^T [sum_j c_ij (h_j + e_ij) + c_ii h_i] + b)
  with c_ij = 1/sqrt((d_i+1)(d_j+1)), c_ii = 1/(d_i+1); ReLU on every
  layer but the last.
* GIN layer: h'_i = MLP(sum_j (h_j + e_ij) + h_i), MLP = W2 relu(W1 x + b1) + b2.
* EdgePrompt: e_ij = p_l for every directed pair.
* EdgePrompt+: e_ij = softmax_m(LeakyReLU([h_i || h_j] A_l)) P_l, where
  i is the receiving node.
* GPF-plus: x' = x + softmax(x S) B before the first layer.
"""

from __future__ import annotations

import numpy as np


def directed_pairs(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(receiver, sender) for both directions of every undirected edge."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    recv = np.concatenate([edges[:, 0], edges[:, 1]])
    send = np.concatenate([edges[:, 1], edges[:, 0]])
    return recv, send


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _edge_prompts(method: str, tensors: dict, layer: int, h: np.ndarray,
                  recv: np.ndarray, send: np.ndarray,
                  slope: float) -> np.ndarray | None:
    if method == "edgeprompt":
        return np.broadcast_to(tensors[f"prompt.{layer}.vector"], (recv.size, h.shape[1]))
    if method == "edgeprompt+":
        w = tensors[f"prompt.{layer}.score_weights"]
        pairs = np.concatenate([h[recv], h[send]], axis=1)
        logits = pairs @ w
        logits = np.where(logits >= 0, logits, slope * logits)
        return _softmax(logits) @ tensors[f"prompt.{layer}.anchors"]
    return None


def node_representations(kind: str, backbone: dict, num_layers: int,
                         num_nodes: int, edges: np.ndarray, features: np.ndarray,
                         method: str | None = None, prompts: dict | None = None,
                         slope: float = 0.2) -> np.ndarray:
    """Final-layer node representations of one graph."""
    prompts = prompts or {}
    recv, send = directed_pairs(edges)
    h = np.asarray(features, dtype=np.float64)
    if method == "gpf-plus":
        h = h + _softmax(h @ prompts["prompt.score_map"]) @ prompts["prompt.basis"]
    deg = np.bincount(recv, minlength=num_nodes).astype(np.float64)
    for l in range(num_layers):
        e = _edge_prompts(method, prompts, l, h, recv, send, slope)
        msgs = h[send] if e is None else h[send] + e
        if kind == "gcn":
            coeff = 1.0 / np.sqrt((deg[recv] + 1.0) * (deg[send] + 1.0))
            msgs = msgs * coeff[:, None]
        agg = np.zeros_like(h)
        np.add.at(agg, recv, msgs)
        if kind == "gcn":
            agg += h / (deg + 1.0)[:, None]
            h = agg @ backbone[f"layers.{l}.weight"] + backbone[f"layers.{l}.bias"]
            if l < num_layers - 1:
                h = np.maximum(h, 0.0)
        else:
            agg += h
            hid = np.maximum(agg @ backbone[f"layers.{l}.mlp.0.weight"]
                             + backbone[f"layers.{l}.mlp.0.bias"], 0.0)
            h = hid @ backbone[f"layers.{l}.mlp.1.weight"] + backbone[f"layers.{l}.mlp.1.bias"]
    return h


def logits(kind: str, backbone: dict, num_layers: int, graphs: list,
           method: str | None, prompts: dict, readout: str = "sum",
           slope: float = 0.2) -> np.ndarray:
    """Head logits for a node task (one graph) or per graph (graph task).

    ``graphs`` is a list of (num_nodes, edges, features); a single entry
    with ``readout=None`` yields per-node logits.
    """
    rows = []
    for n, edges, feats in graphs:
        h = node_representations(kind, backbone, num_layers, n, edges, feats,
                                 method, prompts, slope)
        if readout is None:
            rows.append(h)
        elif readout == "sum":
            rows.append(h.sum(axis=0, keepdims=True))
        else:
            rows.append(h.mean(axis=0, keepdims=True))
    reps = np.concatenate(rows, axis=0)
    return reps @ prompts["head.weight"] + prompts["head.bias"]
