import re
import warnings

import numpy as np
import pytest

from edgeprompt import tensor as T
from edgeprompt import tuning
from edgeprompt.checkpoint import checkpoint_from_model, serialize_checkpoint
from edgeprompt.data import CSBMParams, FewShotSplit, LabeledDataset, csbm_graph_dataset, kshot_sample
from edgeprompt.errors import ConfigError, FormatError, NonFiniteError, NotFittedError
from edgeprompt.graph import Adjacency, Graph, disjoint_union, membership_from_offsets
from edgeprompt.models import GNNModel, LinearHead, classifier_forward, readout
from edgeprompt.optim import Adam
from edgeprompt.pretrain import GraphCLPretrainer
from edgeprompt.prompts import LEAKY_SLOPE
from edgeprompt.tensor import Tape, Tensor, finite_difference_gradient
from edgeprompt.tuning import (
    METHODS,
    PromptTuner,
    evaluate_accuracy,
    prompted_representations,
    prompts_from_artifact,
)

from conftest import graph_with_isolated_nodes, isolated_and_hub_rows, rel_err
from test_pretrain import tiny_graph_dataset, two_cliques


def node_checkpoint(feature_dim=4, hidden=8, seed=0):
    model = GNNModel.create("gcn", (feature_dim, hidden, hidden), seed=seed)
    return checkpoint_from_model(model, strategy="graphcl", seed=seed)


def graph_checkpoint(feature_dim=2, hidden=8, seed=0):
    model = GNNModel.create("gin", (feature_dim, hidden, hidden), seed=seed)
    return checkpoint_from_model(model, strategy="graphcl", seed=seed)


@pytest.fixture(scope="module")
def clique_ds():
    return two_cliques(k=5, dim=4, seed=0)


@pytest.fixture(scope="module")
def clique_split(clique_ds):
    return kshot_sample(clique_ds, 2, seed=0)


class TestNodeTuning:
    def test_classifier_only_fits_separable_toy(self, clique_ds, clique_split):
        tuner = PromptTuner(node_checkpoint(), method="classifier-only",
                            epochs=200, lr=0.01, seed=0)
        tuner.fit(clique_ds, clique_split)
        assert tuner.history_["train_acc"][-1] == 1.0

    def test_backbone_bytes_unchanged_by_every_method(self, clique_ds, clique_split):
        for method in METHODS:
            ckpt = node_checkpoint(seed=3)
            before = serialize_checkpoint(ckpt)
            PromptTuner(ckpt, method=method, epochs=3, anchors=2,
                        seed=1).fit(clique_ds, clique_split)
            assert serialize_checkpoint(ckpt) == before, method

    def test_step_zero_loss_equals_classifier_only(self, clique_ds, clique_split):
        # zero-initialized prompts make epoch 0 coincide with the unprompted run
        losses = {}
        for method in METHODS:
            tuner = PromptTuner(node_checkpoint(seed=5), method=method,
                                epochs=1, anchors=3, seed=9)
            tuner.fit(clique_ds, clique_split)
            losses[method] = tuner.history_["loss"][0]
        base = losses["classifier-only"]
        for method, value in losses.items():
            assert value == pytest.approx(base, abs=1e-12), method

    def test_single_anchor_matches_edgeprompt_exactly(self, clique_ds, clique_split):
        ckpt = node_checkpoint(seed=2)
        shared = PromptTuner(ckpt, method="edgeprompt", epochs=25, seed=4)
        shared.fit(clique_ds, clique_split)
        plus = PromptTuner(ckpt, method="edgeprompt+", epochs=25, anchors=1, seed=4)
        plus.fit(clique_ds, clique_split)
        np.testing.assert_allclose(shared.history_["loss"], plus.history_["loss"],
                                   atol=1e-12, rtol=0)
        g = clique_ds.graphs[0]
        from edgeprompt.tuning import prompted_representations

        out_shared = prompted_representations(shared.model_, g, shared.prompts_)
        out_plus = prompted_representations(plus.model_, g, plus.prompts_)
        np.testing.assert_allclose(out_shared.data, out_plus.data, atol=1e-12, rtol=0)

    def test_learned_prompts_roundtrip_reproduce_predictions(self, tmp_path,
                                                             clique_ds, clique_split):
        ckpt = node_checkpoint(seed=6)
        tuner = PromptTuner(ckpt, method="edgeprompt+", epochs=10, anchors=2, seed=0)
        tuner.fit(clique_ds, clique_split)
        artifact = tuner.to_learned_prompts()
        from edgeprompt.checkpoint import load_prompts, save_prompts

        path = tmp_path / "p.bin"
        save_prompts(artifact, path)
        lp = load_prompts(path)
        model = tuner.model_
        prompts, head = prompts_from_artifact(lp, model)
        acc_direct = tuner.score(clique_ds, clique_split.test_ids)
        acc_loaded = evaluate_accuracy(model, prompts, head, clique_ds,
                                       clique_split.test_ids)
        assert acc_direct == acc_loaded

    def test_artifact_reproduces_tuner(self, tmp_path, clique_ds, clique_split):
        from edgeprompt.checkpoint import load_prompts, save_prompts
        from edgeprompt.tuning import prompted_representations

        ckpt = node_checkpoint(seed=6)
        g = clique_ds.graphs[0]
        ids = np.arange(g.num_nodes)
        for method in ("edgeprompt", "edgeprompt+", "gpf", "gpf-plus"):
            tuner = PromptTuner(ckpt, method=method, epochs=30, lr=0.05, anchors=3,
                                seed=0).fit(clique_ds, clique_split)
            path = tmp_path / f"{method}.prompts"
            save_prompts(tuner.to_learned_prompts(), path)
            prompts, head = prompts_from_artifact(load_prompts(path), tuner.model_)
            np.testing.assert_array_equal(
                prompted_representations(tuner.model_, g, prompts).data,
                prompted_representations(tuner.model_, g, tuner.prompts_).data)
            loaded = PromptTuner(ckpt, method=method)
            loaded.model_, loaded.prompts_, loaded.head_ = tuner.model_, prompts, head
            np.testing.assert_array_equal(loaded.predict(clique_ds, ids),
                                          tuner.predict(clique_ds, ids))

    def test_artifact_tensors_checked_against_model(self, clique_ds, clique_split):
        ckpt = node_checkpoint(seed=6)
        tuner = PromptTuner(ckpt, method="edgeprompt+", epochs=1, anchors=2,
                            seed=0).fit(clique_ds, clique_split)
        good = tuner.to_learned_prompts()
        cases = {
            "head.bias": lambda t: t.pop("head.bias"),
            "prompt.1.anchors": lambda t: t.update({"prompt.1.anchors": np.zeros((2, 3))}),
            "prompt.0.score_weights": lambda t: t.update(
                {"prompt.0.score_weights": np.zeros((8, 3))}),
        }
        for name, corrupt in cases.items():
            lp = tuner.to_learned_prompts()
            corrupt(lp.tensors)
            with pytest.raises(FormatError, match=re.escape(repr(name))):
                prompts_from_artifact(lp, tuner.model_)
        prompts_from_artifact(good, tuner.model_)

    def test_recorded_slope_other_than_the_constant_is_a_format_error(self, clique_ds,
                                                                      clique_split):
        tuner = PromptTuner(node_checkpoint(seed=6), method="edgeprompt+", epochs=1,
                            anchors=2, seed=0).fit(clique_ds, clique_split)
        lp = tuner.to_learned_prompts()
        assert lp.metadata["leaky_slope"] == LEAKY_SLOPE == 0.2
        prompts_from_artifact(lp, tuner.model_)
        lp.metadata["leaky_slope"] = 0.9
        with pytest.raises(FormatError, match="leaky_slope 0.9"):
            prompts_from_artifact(lp, tuner.model_)

    def test_feature_dim_mismatch_rejected_before_training(self, clique_ds, clique_split):
        with pytest.raises(ConfigError):
            PromptTuner(node_checkpoint(feature_dim=7), epochs=1).fit(
                clique_ds, clique_split)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_train_ids_outside_the_dataset_rejected(self, clique_ds, bad):
        # a negative id would otherwise wrap to the last node
        split = FewShotSplit(np.array([0, bad]), np.array([1]), 1, 0)
        with pytest.raises(ConfigError, match="outside"):
            PromptTuner(node_checkpoint(), method="edgeprompt", epochs=1).fit(clique_ds, split)

    def test_empty_train_split_rejected(self, clique_ds):
        empty = FewShotSplit(np.zeros(0, np.int64), np.arange(10), 0, 0)
        with pytest.raises(ConfigError):
            PromptTuner(node_checkpoint(), epochs=1).fit(clique_ds, empty)

    def test_classifier_only_has_no_prompt_artifact(self, clique_ds, clique_split):
        tuner = PromptTuner(node_checkpoint(), method="classifier-only",
                            epochs=2, seed=0)
        tuner.fit(clique_ds, clique_split)
        assert tuner.prompts_ is None
        with pytest.raises(ConfigError):
            tuner.to_learned_prompts()

    # classifier-only is left out: at lr 1e300 its probe loss stays finite
    @pytest.mark.parametrize("method", ["edgeprompt", "edgeprompt+", "gpf", "gpf-plus"])
    def test_divergence_stops_naming_method_and_epoch(self, clique_ds, clique_split,
                                                      method):
        tuner = PromptTuner(node_checkpoint(), method=method, epochs=5, lr=1e300,
                            anchors=2, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError, match=rf"{re.escape(method)}, epoch \d of 5"):
                tuner.fit(clique_ds, clique_split)
        assert not hasattr(tuner, "history_")

    @pytest.mark.parametrize("method", ["edgeprompt", "edgeprompt+", "gpf", "gpf-plus"])
    def test_overflow_stops_at_once_without_a_warning(self, clique_ds, clique_split, method):
        tuner = PromptTuner(node_checkpoint(), method=method, epochs=5, lr=1e300,
                            anchors=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=rf"^{re.escape(method)}, epoch \d of 5: "
                                                     r"overflow encountered in \w+$"):
                tuner.fit(clique_ds, clique_split)

    def test_unfitted_estimator_raises(self, clique_ds):
        with pytest.raises(NotFittedError):
            PromptTuner(node_checkpoint()).predict(clique_ds, [0])


@pytest.fixture(scope="module")
def graph_ds():
    return tiny_graph_dataset(num_graphs=24, n_per_class=4, seed=5)


@pytest.fixture(scope="module")
def graph_split(graph_ds):
    return kshot_sample(graph_ds, 6, seed=1)


class TestGraphTuning:
    def test_batch_of_one_equals_unbatched(self, graph_ds, graph_split):
        ckpt = graph_checkpoint(seed=1)
        tuner = PromptTuner(ckpt, method="edgeprompt", epochs=4, batch_size=1,
                            seed=2).fit(graph_ds, graph_split)
        ids = graph_split.test_ids[:5]
        one_by_one = np.array([tuner.predict(graph_ds, [i])[0] for i in ids])
        np.testing.assert_array_equal(tuner.predict(graph_ds, ids), one_by_one)

    def test_divergence_stops_naming_method_and_epoch(self, graph_ds, graph_split):
        tuner = PromptTuner(graph_checkpoint(), method="edgeprompt+", epochs=5,
                            lr=1e300, anchors=2, batch_size=4, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError, match=r"edgeprompt\+, epoch \d of 5"):
                tuner.fit(graph_ds, graph_split)

    def test_frozen_backbone(self, graph_ds, graph_split):
        ckpt = graph_checkpoint(seed=4)
        before = serialize_checkpoint(ckpt)
        PromptTuner(ckpt, method="edgeprompt+", epochs=3, anchors=2,
                    seed=0).fit(graph_ds, graph_split)
        assert serialize_checkpoint(ckpt) == before

    def test_edgeprompt_plus_train_accuracy_not_below_classifier_only(self):
        # paired runs over 5 seeds on 60 two-regime CSBM graphs
        ds = csbm_graph_dataset(
            CSBMParams([1.0, 0.0], [0.0, 1.0], p=0.8, q=0.2, n_per_class=4),
            CSBMParams([1.0, 0.0], [0.0, 1.0], p=0.2, q=0.8, n_per_class=4),
            num_graphs=60, seed=11,
        )
        pre = GraphCLPretrainer(model_kind="gin", num_layers=2, hidden_dim=8,
                                epochs=5, batch_size=16, seed=0).fit(ds)
        finals = {"edgeprompt+": [], "classifier-only": []}
        for seed in range(5):
            split = kshot_sample(ds, 15, seed=seed)
            for method in finals:
                tuner = PromptTuner(pre.checkpoint_, method=method, epochs=30,
                                    lr=0.01, anchors=3, seed=seed)
                tuner.fit(ds, split)
                finals[method].append(tuner.history_["train_acc"][-1])
        assert np.mean(finals["edgeprompt+"]) >= np.mean(finals["classifier-only"])


class TestEvaluate:
    def test_perfect_head_on_onehot_reps(self):
        # edgeless graph + identity single GCN layer => reps are the
        # one-hot features; a head reading them off scores 1.0
        g = Graph(4, [], np.eye(4))
        labels = np.array([0, 1, 0, 1], dtype=np.int64)
        ds = LabeledDataset([g], 2, node_labels=[labels])
        model = GNNModel.create("gcn", (4, 4), seed=0)
        model.layers[0].weight = Tensor(np.eye(4))
        model.layers[0].bias = Tensor(np.zeros((1, 4)))
        head = LinearHead(Tensor(np.array([[1.0, 0], [0, 1.0], [1, 0], [0, 1.0]])),
                          Tensor(np.zeros((1, 2))))
        assert evaluate_accuracy(model, None, head, ds, [0, 1, 2, 3]) == 1.0

    def test_random_head_on_balanced_classes_near_half(self):
        rng = np.random.default_rng(0)
        n = 500
        g = Graph(n, [(i, (i + 1) % n) for i in range(n - 1)],
                  rng.standard_normal((n, 6)))
        labels = rng.permutation(np.repeat([0, 1], n // 2)).astype(np.int64)
        ds = LabeledDataset([g], 2, node_labels=[labels])
        model = GNNModel.create("gcn", (6, 8), seed=1)
        head = LinearHead.create(rng, 8, 2)
        acc = evaluate_accuracy(model, None, head, ds, np.arange(n))
        assert 0.4 <= acc <= 0.6

    def test_evaluation_is_pure(self, clique_ds, clique_split):
        tuner = PromptTuner(node_checkpoint(), method="edgeprompt", epochs=3,
                            seed=0).fit(clique_ds, clique_split)
        a = tuner.score(clique_ds, clique_split.test_ids)
        b = tuner.score(clique_ds, clique_split.test_ids)
        assert a == b

    def test_empty_ids_rejected(self, clique_ds):
        model = GNNModel.create("gcn", (4, 8), seed=0)
        head = LinearHead.create(np.random.default_rng(0), 8, 2)
        with pytest.raises(ConfigError):
            evaluate_accuracy(model, None, head, clique_ds, [])

    def test_argmax_ties_break_to_lowest_class(self):
        # zero head logits tie every class; predictions must be class 0
        g = Graph(3, [(0, 1)], np.eye(3))
        ds = LabeledDataset([g], 3, node_labels=[np.array([0, 1, 2])])
        model = GNNModel.create("gcn", (3, 4), seed=0)
        head = LinearHead(Tensor(np.zeros((4, 3))), Tensor(np.zeros((1, 3))))
        from edgeprompt.tuning import predict_labels

        preds = predict_labels(model, None, head, ds, [0, 1, 2])
        np.testing.assert_array_equal(preds, [0, 0, 0])


def test_get_params_includes_checkpoint():
    ckpt = node_checkpoint()
    tuner = PromptTuner(ckpt, method="gpf", epochs=7)
    params = tuner.get_params()
    assert params["checkpoint"] is ckpt
    assert params["method"] == "gpf"
    tuner.set_params(epochs=3)
    assert tuner.epochs == 3


# ---------------------------------------------------------------------------
# node tuning on the labeled rows' message-flow chain

FIELD_CASES = [(kind, layers) for kind in ("gcn", "gin") for layers in (1, 2, 3)]


def sparse_node_task(kind, layers, seed=0):
    """A 40-node sparse graph with isolated nodes; the training rows hold
    an isolated node and the node of maximum degree, in shuffled order."""
    rng = np.random.default_rng([seed, layers, kind == "gin"])
    g = graph_with_isolated_nodes(rng, 40, 0.05)
    rows = rng.permutation(isolated_and_hub_rows(rng, g))
    labels = rng.integers(0, 2, size=g.num_nodes)
    labels[rows[:2]] = [0, 1]
    ds = LabeledDataset([g], 2, node_labels=[labels])
    split = FewShotSplit(rows, np.setdiff1d(np.arange(g.num_nodes), rows), 1, seed)
    model = GNNModel.create(kind, (3,) + (4,) * layers, seed=seed)
    return ds, split, checkpoint_from_model(model, strategy="graphcl", seed=seed)


def tuned_tensors(tuner):
    named = [] if tuner.prompts_ is None else tuner.prompts_.named_tensors()
    return {name: t.data for name, t in named + tuner.head_.parameters()}


def full_graph_fits(monkeypatch, fit):
    """``fit`` for every method on the whole-graph reference chain: every
    layer runs on the graph's own operator every epoch and the labeled
    rows are gathered after."""
    with monkeypatch.context() as mp:
        mp.setattr(Adjacency, "blocks", lambda self, rows, layers: [self] * layers)
        return {method: fit(method) for method in METHODS}


class TestReceptiveField:
    """Node tuning on the labeled rows' receptive field, one block of
    their message-flow chain per layer."""

    @pytest.mark.parametrize("kind,layers", FIELD_CASES)
    def test_rows_equal_full_graph_rows(self, kind, layers):
        ds, split, ckpt = sparse_node_task(kind, layers)
        g = ds.graphs[0]
        for method in METHODS:
            # a few steps so that every prompt tensor is non-zero
            tuner = PromptTuner(ckpt, method=method, epochs=3, lr=0.1, anchors=2,
                                seed=1).fit(ds, split)
            blocks = g.adjacency(tuner.model_.kind).blocks(split.train_ids, layers)
            assert all(b.num_in < g.num_nodes for b in blocks)
            part = prompted_representations(tuner.model_, g, tuner.prompts_, blocks).data
            full = prompted_representations(tuner.model_, g, tuner.prompts_).data
            np.testing.assert_array_equal(blocks[-1].outputs, split.train_ids)
            assert rel_err(part, full[blocks[-1].outputs]) < 1e-12, method

    @pytest.mark.parametrize("kind,layers", FIELD_CASES)
    def test_restricted_loss_gradients(self, kind, layers):
        ds, split, ckpt = sparse_node_task(kind, layers)
        g, y = ds.graphs[0], ds.all_labels()[split.train_ids]
        for method in METHODS:
            tuner = PromptTuner(ckpt, method=method, epochs=2, lr=0.1, anchors=2,
                                seed=2).fit(ds, split)
            model, prompts, head = tuner.model_, tuner.prompts_, tuner.head_
            # the tuner's chain: that of the sorted rows
            blocks = g.adjacency(model.kind).blocks(np.sort(split.train_ids), layers)
            at = np.searchsorted(blocks[-1].outputs, split.train_ids)

            def loss_fn():
                reps = T.gather_rows(prompted_representations(model, g, prompts, blocks), at)
                return T.cross_entropy_with_logits(classifier_forward(head, reps), y)

            trainable = ([] if prompts is None else prompts.trainable())
            trainable = trainable + [t for _, t in head.parameters()]
            with Tape() as tape:
                tape.watch(*trainable)
                grads = tape.backward(loss_fn())
                auto = [grads[t] for t in trainable]
            for p, ga in zip(trainable, auto):
                base = p.data.copy()

                def f(x):
                    p.data = x.data
                    try:
                        return loss_fn().item()
                    finally:
                        p.data = base

                assert rel_err(ga, finite_difference_gradient(f, Tensor(base))) < 1e-4, method

    @pytest.mark.parametrize("kind,layers", FIELD_CASES)
    def test_twenty_epochs_match_full_graph_loop(self, kind, layers, monkeypatch):
        ds, split, ckpt = sparse_node_task(kind, layers)

        def fit(method):
            return PromptTuner(ckpt, method=method, epochs=20, lr=0.05, anchors=2,
                               seed=3).fit(ds, split)

        full = full_graph_fits(monkeypatch, fit)
        for method in METHODS:
            tuner = fit(method)
            for key in ("loss", "train_acc", "grad_norm"):
                np.testing.assert_allclose(tuner.history_[key], full[method].history_[key],
                                           rtol=1e-12, atol=1e-12, err_msg=method)
            ref = tuned_tensors(full[method])
            for name, arr in tuned_tensors(tuner).items():
                assert rel_err(arr, ref[name]) < 1e-12, (method, name)

    def test_whole_graph_first_block_is_the_graph_operator(self, clique_ds, clique_split,
                                                            monkeypatch):
        # the labeled rows' neighbours are every node: layer 0 runs on the
        # cached operator itself, the last layer on the labeled rows only
        ckpt = node_checkpoint(seed=6)
        g = clique_ds.graphs[0]
        adj = g.adjacency("gcn")
        first, last = adj.blocks(clique_split.train_ids, 2)
        assert first is adj
        assert last.num_out == clique_split.train_ids.size and last.num_in == g.num_nodes

        def fit(method):
            return PromptTuner(ckpt, method=method, epochs=20, lr=0.05, anchors=2,
                               seed=3).fit(clique_ds, clique_split)

        full = full_graph_fits(monkeypatch, fit)
        for method in METHODS:
            tuner = fit(method)
            for key in ("loss", "train_acc", "grad_norm"):
                np.testing.assert_allclose(tuner.history_[key], full[method].history_[key],
                                           rtol=1e-12, atol=1e-12, err_msg=method)
            ref = tuned_tensors(full[method])
            for name, arr in tuned_tensors(tuner).items():
                assert rel_err(arr, ref[name]) < 1e-12, (method, name)


def test_node_task_union_is_built_once(monkeypatch):
    a, b = two_cliques(k=3, dim=4, seed=0), two_cliques(k=4, dim=4, seed=1)
    ds = LabeledDataset(a.graphs + b.graphs, 2, node_labels=a.node_labels + b.node_labels)
    split = kshot_sample(ds, 2, seed=0)
    seen = []
    forward = tuning.model_forward

    def spy(model, g, *args, **kwargs):
        seen.append(g)
        return forward(model, g, *args, **kwargs)

    monkeypatch.setattr(tuning, "model_forward", spy)
    tuner = PromptTuner(node_checkpoint(), method="edgeprompt", epochs=2,
                        seed=0).fit(ds, split)
    tuner.predict(ds, split.test_ids)
    tuner.score(ds, split.test_ids)
    assert len(seen) == 4
    assert all(g is ds.node_graph() for g in seen)
    assert ds.node_graph().num_nodes == 14


def test_grad_norm_is_each_steps_gradient_norm(clique_ds, clique_split, graph_ds,
                                               graph_split, monkeypatch):
    norms = []
    step = Adam.step

    def spy(self, grads):
        norms.append(np.sqrt(sum(np.sum(g * g) for g in grads)))
        return step(self, grads)

    monkeypatch.setattr(Adam, "step", spy)
    node = PromptTuner(node_checkpoint(), method="edgeprompt+", epochs=4, anchors=2,
                       seed=0).fit(clique_ds, clique_split)
    np.testing.assert_array_equal(node.history_["grad_norm"], norms)
    assert len(norms) == 4 and min(norms) > 0.0
    norms.clear()
    # 12 training graphs in batches of 4: three equal batches per epoch
    graph = PromptTuner(graph_checkpoint(), method="gpf-plus", epochs=2, batch_size=4,
                        anchors=2, seed=0).fit(graph_ds, graph_split)
    np.testing.assert_allclose(graph.history_["grad_norm"],
                               np.reshape(norms, (2, 3)).mean(axis=1), rtol=1e-12)


# ---------------------------------------------------------------------------
# graph tasks: a batch is rows of the dataset's one cached graph


def union_logits(ds):
    """The per-batch forward that graph tasks ran before they ran on the
    blocks of ``ds.node_graph()``: a new disjoint union of the batch's
    graphs, read out per graph."""
    def logits(batch, model, prompts, head, readout_kind, blocks=None, reps=None):
        union, offsets = disjoint_union([ds.graphs[i] for i in batch.ids])
        h = prompted_representations(model, union, prompts)
        return classifier_forward(head, readout(h, membership_from_offsets(offsets),
                                                readout_kind))
    return logits


GRAPH_CASES = [(kind, how) for kind in ("gcn", "gin") for how in ("sum", "mean")]


class TestGraphBatches:
    @pytest.mark.parametrize("kind,readout_kind", GRAPH_CASES)
    def test_logits_on_blocks_equal_the_batch_union(self, graph_ds, graph_split, kind,
                                                    readout_kind):
        ckpt = checkpoint_from_model(GNNModel.create(kind, (2, 8, 8), seed=1),
                                     strategy="graphcl", seed=0)
        ids = np.random.default_rng(4).permutation(len(graph_ds.graphs))[:9]
        reference = union_logits(graph_ds)
        for method in METHODS:
            # a few steps so that every prompt tensor is non-zero
            tuner = PromptTuner(ckpt, method=method, epochs=3, lr=0.1, anchors=2,
                                batch_size=4, readout=readout_kind, seed=1).fit(graph_ds,
                                                                               graph_split)
            batch = tuning._Batch(graph_ds, ids)
            args = (tuner.model_, tuner.prompts_, tuner.head_, readout_kind)
            np.testing.assert_array_equal(batch.logits(*args).data,
                                          reference(batch, *args).data, err_msg=method)

    # 12 training graphs: three batches an epoch, or one
    @pytest.mark.parametrize("batch_size", [5, 12])
    @pytest.mark.parametrize("kind,readout_kind", GRAPH_CASES)
    def test_twenty_epochs_match_the_batch_union_loop(self, graph_ds, graph_split, kind,
                                                      readout_kind, batch_size, monkeypatch):
        ckpt = checkpoint_from_model(GNNModel.create(kind, (2, 8, 8), seed=1),
                                     strategy="graphcl", seed=0)

        def fit(method):
            return PromptTuner(ckpt, method=method, epochs=20, lr=0.05, anchors=2,
                               batch_size=batch_size, readout=readout_kind,
                               seed=3).fit(graph_ds, graph_split)

        with monkeypatch.context() as mp:
            mp.setattr(tuning._Batch, "logits", union_logits(graph_ds))
            union = {method: fit(method) for method in METHODS}
        for method in METHODS:
            tuner = fit(method)
            for key in ("loss", "train_acc", "grad_norm"):
                np.testing.assert_allclose(tuner.history_[key], union[method].history_[key],
                                           rtol=1e-12, atol=1e-12, err_msg=method)
            ref = tuned_tensors(union[method])
            for name, arr in tuned_tensors(tuner).items():
                assert rel_err(arr, ref[name]) < 1e-12, (method, name)

    def test_fit_and_predict_build_one_graph(self, monkeypatch):
        ds = tiny_graph_dataset(num_graphs=24, n_per_class=4, seed=5)
        split = kshot_sample(ds, 6, seed=1)
        built = []
        init = Graph.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", spy)
        tuner = PromptTuner(graph_checkpoint(), method="edgeprompt+", epochs=2, anchors=2,
                            batch_size=4, seed=0).fit(ds, split)
        tuner.predict(ds, split.test_ids)
        assert len(built) == 1 and built[0] is ds.node_graph()

    def test_batch_rows_are_the_graphs_nodes_in_id_order(self, graph_ds):
        offsets = graph_ds.node_union()[1]
        batch = tuning._Batch(graph_ds, [3, 0, 3])
        expected = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in (3, 0, 3)])
        np.testing.assert_array_equal(batch.rows, expected)
        np.testing.assert_array_equal(batch.member, np.repeat([0, 1, 2],
                                                             np.diff(offsets)[[3, 0, 3]]))


class TestInstanceIds:
    @pytest.mark.parametrize("bad", [-1, 24])
    def test_graph_ids_outside_the_dataset_rejected(self, graph_ds, graph_split, bad):
        # a negative id would otherwise read the last graph
        tuner = PromptTuner(graph_checkpoint(), method="edgeprompt", epochs=1,
                            seed=0).fit(graph_ds, graph_split)
        for call in (tuner.predict, tuner.score):
            with pytest.raises(ConfigError, match="outside"):
                call(graph_ds, [0, bad])

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_node_ids_outside_the_dataset_rejected(self, clique_ds, clique_split, bad):
        tuner = PromptTuner(node_checkpoint(), method="edgeprompt", epochs=1,
                            seed=0).fit(clique_ds, clique_split)
        for call in (tuner.predict, tuner.score):
            with pytest.raises(ConfigError, match="outside"):
                call(clique_ds, [0, bad])
