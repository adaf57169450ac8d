"""Frozen-backbone prompt tuning and evaluation.

:class:`PromptTuner` is the one estimator for both downstream tasks: it
learns prompt parameters (per ``method``) and a linear probe on top of a
checkpointed backbone whose weights are never touched.  A batch of
instances (``_Batch``) is a set of node rows of the dataset's one cached
graph (``LabeledDataset.node_graph``): a node task's ids, or a graph
task's graphs' nodes.  It runs layer l on block l of their message-flow
chain (``Adjacency.blocks``), only the rows that they read through the
layers left, and gives the probe one input row per instance (a graph
task's read out per graph).

Methods: ``edgeprompt``, ``edgeprompt+``, ``gpf``, ``gpf-plus``, and
``classifier-only`` (no prompts; the probing baseline).
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .base import BaseEstimator, check_is_fitted, check_positive, seeded_rng
from .checkpoint import Checkpoint, LearnedPrompts, build_model
from .data import FewShotSplit, LabeledDataset
from .errors import ConfigError, FormatError
from .graph import Adjacency, unique_sorted
from .models import GNNModel, LinearHead, classifier_forward, model_forward, readout
from .optim import Adam, train_step
from .prompts import LEAKY_SLOPE, EdgePromptPlusParams, NodePromptParams
from . import tensor as T
from .tensor import Tensor

METHODS = ("edgeprompt", "edgeprompt+", "gpf", "gpf-plus", "classifier-only")

_EVAL_CHUNK = 128  # graphs per batch during evaluation


# ``model_forward`` under the name that callers outside the package use
prompted_representations = model_forward


class _Batch:
    """Instances ``ids`` for ``model``: the ``rows`` of ``ds.node_graph()``
    that their chain runs on (a graph task's graphs' nodes in id order,
    whose chain is their disjoint union), the rows read out in id order
    (``reads``) and their graphs' positions in ``ids`` (``member``, graph
    task only)."""

    def __init__(self, ds: LabeledDataset, ids, model: GNNModel):
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        self.graph, offsets = ds.node_union()
        count = offsets[-1] if ds.task == "node" else offsets.size - 1
        if self.ids.size and (self.ids.min() < 0 or self.ids.max() >= count):
            raise ConfigError(f"ids fall outside the dataset's {count} instances")
        self.model = model
        # a node task reads its ids out of the chain of their sorted rows
        self.rows, self.reads, self.member = unique_sorted(self.ids), self.ids, None
        if ds.task == "graph":
            sizes = offsets[self.ids + 1] - offsets[self.ids]
            self.member = np.repeat(np.arange(self.ids.size), sizes)
            firsts = offsets[self.ids] - np.cumsum(sizes) + sizes
            self.rows = self.reads = firsts[self.member] + np.arange(self.member.size)

    @functools.cached_property
    def chain(self) -> tuple[list[Adjacency], np.ndarray]:
        """The rows' blocks and the read rows' positions among the last block's outputs."""
        blocks = self.graph.adjacency(self.model.kind).blocks(self.rows, self.model.num_layers)
        at, outputs = self.reads, blocks[-1].outputs  # None: every node
        if outputs is not None:
            order = np.argsort(outputs)
            at = order[np.searchsorted(outputs, self.reads, sorter=order)]
        return blocks, at

    def representations(self, prompts, readout_kind: str) -> Tensor:
        """The probe's inputs: one row per instance (a graph task's read out per graph)."""
        blocks, at = self.chain
        reps = T.gather_rows(model_forward(self.model, self.graph, prompts, blocks), at)
        return reps if self.member is None else readout(reps, self.member, readout_kind)


def evaluate_accuracy(model: GNNModel, prompt_params, head: LinearHead,
                      ds: LabeledDataset, ids, readout_kind: str = "sum") -> float:
    """Argmax accuracy over the given instance ids (pure; no training state).

    Ties at the argmax resolve to the lowest class index.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size == 0:
        raise ConfigError("evaluate_accuracy: empty id list")
    preds = predict_labels(model, prompt_params, head, ds, ids, readout_kind)
    return float(np.mean(preds == ds.all_labels()[ids]))


def predict_labels(model: GNNModel, prompt_params, head: LinearHead,
                   ds: LabeledDataset, ids, readout_kind: str = "sum") -> np.ndarray:
    """Argmax labels of instances ``ids``: a node task's in one batch, a
    graph task's in batches of ``_EVAL_CHUNK`` graphs."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    preds = np.empty(ids.size, dtype=np.int64)
    chunk = max(ids.size, 1) if ds.task == "node" else _EVAL_CHUNK
    for start in range(0, ids.size, chunk):
        batch = _Batch(ds, ids[start : start + chunk], model)
        logits = classifier_forward(head, batch.representations(prompt_params, readout_kind))
        preds[start : start + chunk] = np.argmax(logits.data, axis=1)
    return preds


@dataclass(eq=False)
class PromptTuner(BaseEstimator):
    """Learn prompts + a linear probe for a frozen checkpointed backbone.

    Parameters
    ----------
    checkpoint : Checkpoint
        The pre-trained backbone; its tensors are bit-identical before
        and after tuning.  The one positional parameter; the rest are
        keyword-only.
    method : one of METHODS
    epochs, lr, batch_size : training loop knobs (batch_size applies to
        graph classification only; node tuning steps once per epoch on
        all labeled nodes).
    anchors : anchor prompts per layer for edgeprompt+ (int, per-layer
        list, or None for the task default: 10 node / 5 graph).  Doubles
        as the basis size for gpf-plus.
    readout : 'sum' or 'mean', graph classification only.
    seed : drives head init, score-weight init, and batch order.

    Fitted attributes: ``model_``, ``prompts_``, ``head_``, ``history_``
    (per-epoch ``loss``, ``train_acc`` and ``grad_norm``, the L2 norm of
    the gradient over all trainable tensors; graph tuning averages loss
    and gradient norm over the epoch's batches, weighted by batch size),
    ``anchors_``.
    """

    checkpoint: Checkpoint
    _: KW_ONLY
    method: str = "edgeprompt+"
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 32
    anchors: int | list[int] | None = None
    readout: str = "sum"
    seed: int = 0

    # ------------------------------------------------------------------

    def _resolve_anchors(self, task: str, num_layers: int) -> list[int]:
        a = self.anchors
        if a is None:
            a = 10 if task == "node" else 5
        counts = [a] * num_layers if isinstance(a, int) else [int(m) for m in a]
        if len(counts) != num_layers:
            raise ConfigError(f"{len(counts)} anchor counts for {num_layers} layers")
        if any(m < 1 for m in counts):
            raise ConfigError(f"anchor counts must be >= 1, got {counts}")
        return counts

    def fit(self, dataset: LabeledDataset, split: FewShotSplit) -> "PromptTuner":
        check_positive("epochs", self.epochs)
        check_positive("lr", self.lr)
        check_positive("batch_size", self.batch_size)
        if not isinstance(self.checkpoint, Checkpoint):
            raise ConfigError("checkpoint must be a Checkpoint instance")
        model = build_model(self.checkpoint)
        if dataset.feature_dim != model.input_dim:
            raise ConfigError(f"dataset feature dim {dataset.feature_dim} does not match "
                              f"checkpoint input dim {model.input_dim}")
        train = _Batch(dataset, split.train_ids, model)
        if train.ids.size == 0:
            raise ConfigError("split has no training instances")

        task = dataset.task
        self.anchors_ = self._resolve_anchors(task, model.num_layers)
        prompt_rng = seeded_rng(self.seed, 0x9201)
        prompts = _new_prompts(self.method, model, self.anchors_, prompt_rng)
        head_rng = seeded_rng(self.seed, 0x4EAD)
        head = LinearHead.create(head_rng, model.output_dim, dataset.num_classes)

        trainable = ([] if prompts is None else prompts.trainable())
        opt = Adam(trainable + [t for _, t in head.parameters()], lr=self.lr)
        history = {"loss": [], "train_acc": [], "grad_norm": []}
        labels = dataset.all_labels()
        # without prompts the probe's inputs never change: compute the training set's once
        frozen = train.representations(None, self.readout) if prompts is None else None
        # a node task steps once per epoch on all labeled nodes, weight 1;
        # a graph task on shuffled batches of batch_size, weighted by size
        batch_rng = None if task == "node" else seeded_rng(self.seed, 0xBA7C)
        step = train.ids.size if task == "node" else self.batch_size
        logits = None

        def loss_fn():  # on the current batch
            nonlocal logits
            logits = classifier_forward(head, T.gather_rows(frozen, at) if prompts is None
                                        else batch.representations(prompts, self.readout))
            return T.cross_entropy_with_logits(logits, y)

        for epoch in range(self.epochs):
            where = f"{self.method}, epoch {epoch + 1} of {self.epochs}"
            order = (np.arange(train.ids.size) if task == "node"
                     else batch_rng.permutation(train.ids.size))
            losses, norms, weights, correct = [], [], [], 0
            for start in range(0, order.size, step):
                at = order[start : start + step]  # the batch's positions among the training ids
                batch = train if task == "node" else _Batch(dataset, train.ids[at], model)
                y = labels[batch.ids]
                loss, grad_norm = train_step(opt, loss_fn, where)
                losses.append(loss.item())
                norms.append(grad_norm)
                weights.append(1 if task == "node" else batch.ids.size)
                correct += int(np.sum(np.argmax(logits.data, axis=1) == y))
            history["loss"].append(float(np.average(losses, weights=weights)))
            history["train_acc"].append(correct / order.size)
            history["grad_norm"].append(float(np.average(norms, weights=weights)))

        self.model_, self.prompts_, self.head_, self.history_ = model, prompts, head, history
        self.num_classes_, self.task_, self.split_ = dataset.num_classes, task, split
        return self

    # ------------------------------------------------------------------

    def predict(self, dataset: LabeledDataset, ids) -> np.ndarray:
        check_is_fitted(self, "model_", "head_")
        return predict_labels(self.model_, self.prompts_, self.head_,
                              dataset, ids, self.readout)

    def score(self, dataset: LabeledDataset, ids) -> float:
        check_is_fitted(self, "model_", "head_")
        return evaluate_accuracy(self.model_, self.prompts_, self.head_,
                                 dataset, ids, self.readout)

    def to_learned_prompts(self) -> LearnedPrompts:
        """Package the tuned tensors for persistence (omits classifier-only)."""
        check_is_fitted(self, "model_", "head_")
        if self.prompts_ is None:
            raise ConfigError("classifier-only runs have no prompt artifact to save")
        tensors = {name: t.data.copy() for name, t in self.prompts_.named_tensors()}
        for name, t in self.head_.parameters():
            tensors[name] = t.data.copy()
        metadata = {"epochs": int(self.epochs), "lr": self.lr,
                    "seed": int(self.seed), "num_classes": int(self.num_classes_)}
        if self.method == "edgeprompt+":
            metadata["leaky_slope"] = LEAKY_SLOPE
        return LearnedPrompts(
            method=self.method,
            task=self.task_,
            shots=int(self.split_.shots_per_class),
            split_seed=int(self.split_.seed),
            anchors=list(self.anchors_),
            readout=self.readout,
            backbone_digest=self.checkpoint.digest(),
            tensors=tensors,
            metadata=metadata,
        )


def _new_prompts(method: str, model: GNNModel, counts: list[int],
                 rng: np.random.Generator):
    """Freshly initialised prompts of a method (None for classifier-only)."""
    if method == "classifier-only":
        return None
    if method == "edgeprompt":
        return EdgePromptPlusParams.shared(model.dims[:-1])
    if method == "edgeprompt+":
        return EdgePromptPlusParams.create(model.dims[:-1], counts, rng)
    if method == "gpf":
        return NodePromptParams.shared(model.input_dim)
    if method == "gpf-plus":
        return NodePromptParams.create(model.input_dim, counts[0], rng)
    raise ConfigError(f"unknown tuning method {method!r}; choose from {METHODS}")


def prompts_from_artifact(lp: LearnedPrompts, model: GNNModel):
    """Rebuild (prompt params, head) from a learned-prompt file.

    The file must hold, finite and of the same shape, every tensor that
    tuning makes for its method, anchor counts and this model; otherwise
    a ``FormatError`` names the tensor.  A recorded score slope other
    than ``LEAKY_SLOPE`` is a ``FormatError`` too.
    """
    slope, counts = lp.metadata.get("leaky_slope", LEAKY_SLOPE), lp.anchors
    if slope != LEAKY_SLOPE:
        raise FormatError(f"prompt file leaky_slope {slope!r} is not {LEAKY_SLOPE}")
    if not (isinstance(counts, list) and len(counts) == model.num_layers
            and all(type(m) is int and m >= 1 for m in counts)):
        raise FormatError(f"prompt file anchors {counts!r} do not fit {model.num_layers} layers")
    prompts = _new_prompts(lp.method, model, counts, np.random.default_rng(0))
    if prompts is None:
        raise ConfigError("a classifier-only run has no prompt file")
    weight = lp.tensors.get("head.weight")
    classes = 1 if weight is None else max(weight.shape[1], 1)
    head = LinearHead(Tensor.zeros(model.output_dim, classes), Tensor.zeros(1, classes))
    for name, t in prompts.named_tensors() + head.parameters():
        arr = lp.tensors.get(name)
        if arr is None or arr.shape != t.shape or not np.isfinite(arr).all():
            raise FormatError(f"{lp.method} prompt file: tensor {name!r} is missing, "
                              f"not finite or not of shape {t.shape}")
        t.data = arr
    return prompts, head
