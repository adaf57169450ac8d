import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprompt.checkpoint import serialize_checkpoint
from edgeprompt.data import CSBMParams, LabeledDataset, csbm_graph_dataset, csbm_node_dataset
from edgeprompt.errors import ConfigError, NonFiniteError
from edgeprompt.graph import Graph
from edgeprompt.pretrain import (
    PRETRAINERS,
    GraphCLPretrainer,
    LinkPredictionPretrainer,
    NeighborContrastPretrainer,
    SimGRACEPretrainer,
    _sample_non_edges,
    augment_graph,
    ntxent_loss,
    perturbed_copy,
)
from edgeprompt.models import GNNModel, model_forward
from edgeprompt.tensor import Tensor
from edgeprompt.tuning import PromptTuner

from conftest import random_connected_graph


def tiny_graph_dataset(num_graphs=4, n_per_class=4, seed=0):
    p0 = CSBMParams([1.5, 0.0], [0.0, 1.5], p=0.9, q=0.1, n_per_class=n_per_class)
    p1 = CSBMParams([1.5, 0.0], [0.0, 1.5], p=0.1, q=0.9, n_per_class=n_per_class)
    return csbm_graph_dataset(p0, p1, num_graphs=num_graphs, seed=seed)


def two_cliques(k=4, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    edges += [(a + k, b + k) for a, b in edges]
    feats = np.zeros((2 * k, dim))
    feats[:k, 0] = 1.0
    feats[k:, 1] = 1.0
    feats += 0.05 * rng.standard_normal((2 * k, dim))
    g = Graph(2 * k, edges, feats)
    labels = np.repeat([0, 1], k).astype(np.int64)
    return LabeledDataset([g], 2, node_labels=[labels])


class TestAugment:
    def test_ratio_zero_is_identity(self, rng):
        g = random_connected_graph(rng, 8, feature_dim=2)
        for kind in ("node-drop", "edge-perturb"):
            out = augment_graph(g, kind, 0.0, seed=1)
            np.testing.assert_array_equal(out.csr_targets, g.csr_targets)
            np.testing.assert_array_equal(out.features, g.features)

    def test_full_node_drop_keeps_one_node(self, rng):
        g = random_connected_graph(rng, 10, feature_dim=2)
        out = augment_graph(g, "node-drop", 1.0, seed=2)
        assert out.num_nodes == 1

    def test_node_drop_count_and_reindex(self, rng):
        g = random_connected_graph(rng, 10, feature_dim=2)
        out = augment_graph(g, "node-drop", 0.3, seed=3)
        assert out.num_nodes == 7
        # surviving features are a subset of the originals, order-preserved
        rows = {tuple(r) for r in g.features.round(12)}
        assert all(tuple(r) in rows for r in out.features.round(12))

    def test_unknown_kind(self, rng):
        g = random_connected_graph(rng, 4)
        with pytest.raises(ConfigError):
            augment_graph(g, "attr-mask", 0.2, seed=0)

    @given(st.integers(0, 2**32 - 1), st.integers(4, 12))
    @settings(max_examples=30, deadline=None)
    def test_edge_perturb_preserves_edge_count(self, seed, n):
        r = np.random.default_rng(seed)
        g = random_connected_graph(r, n, edge_prob=0.4, feature_dim=2)
        out = augment_graph(g, "edge-perturb", 0.5, seed=seed)
        assert out.num_edges == g.num_edges
        assert out.num_nodes == g.num_nodes

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_node_drop_has_no_dangling_indices(self, seed):
        r = np.random.default_rng(seed)
        g = random_connected_graph(r, 9, feature_dim=2)
        out = augment_graph(g, "node-drop", 0.4, seed=seed)
        if out.num_directed_edges:
            assert out.csr_targets.max() < out.num_nodes
        assert out.csr_offsets[-1] == out.num_directed_edges


class TestNTXent:
    def test_aligned_orthonormal_views_low_temperature(self):
        z = Tensor(np.eye(4))
        loss = ntxent_loss(z, Tensor(np.eye(4)), temperature=0.05)
        assert loss.item() < 1e-6

    def test_two_pair_batch_matches_enumeration(self, rng):
        z1 = rng.uniform(-1, 1, (2, 3))
        z2 = rng.uniform(-1, 1, (2, 3))
        loss = ntxent_loss(Tensor(z1), Tensor(z2), temperature=0.5)
        z = np.concatenate([z1, z2])
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        sims = z @ z.T / 0.5
        partners = [2, 3, 0, 1]
        total = 0.0
        for i in range(4):
            others = [j for j in range(4) if j != i]
            denom = np.logaddexp.reduce([sims[i, j] for j in others])
            total += denom - sims[i, partners[i]]
        np.testing.assert_allclose(loss.item(), total / 4.0, atol=1e-12)

    def test_invariant_to_common_row_rescaling(self, rng):
        z1 = rng.uniform(0.1, 1, (3, 4))
        z2 = rng.uniform(0.1, 1, (3, 4))
        a = ntxent_loss(Tensor(z1), Tensor(z2), 0.5).item()
        b = ntxent_loss(Tensor(7.0 * z1), Tensor(7.0 * z2), 0.5).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_pair_rejected(self):
        with pytest.raises(ConfigError):
            ntxent_loss(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0]]), 0.5)

    def test_temperature_validated(self):
        with pytest.raises(ConfigError):
            ntxent_loss(Tensor(np.eye(2)), Tensor(np.eye(2)), 0.0)


class TestGraphCL:
    def _pretrainer(self, **kw):
        defaults = dict(model_kind="gcn", num_layers=2, hidden_dim=8,
                        epochs=1, lr=1e-3, batch_size=8, node_batch=64, seed=0)
        defaults.update(kw)
        return GraphCLPretrainer(**defaults)

    def test_smoke_one_epoch(self):
        ds = tiny_graph_dataset(4)
        est = self._pretrainer().fit(ds)
        assert len(est.history_) == 1
        assert np.isfinite(est.history_[0])
        assert est.checkpoint_.strategy == "graphcl"
        # projection head is not in the checkpoint
        assert all(name.startswith("layers.") for name in est.checkpoint_.tensors)

    def test_loss_trends_down_on_csbm_graphs(self):
        ds = tiny_graph_dataset(32, n_per_class=5, seed=3)
        est = self._pretrainer(epochs=50, lr=5e-3, seed=1).fit(ds)
        assert est.history_[-1] < est.history_[0]

    def test_fixed_seed_reproduces_checkpoint_bytes(self):
        ds = tiny_graph_dataset(6)
        a = self._pretrainer(epochs=2, seed=7).fit(ds).checkpoint_
        b = self._pretrainer(epochs=2, seed=7).fit(ds).checkpoint_
        assert serialize_checkpoint(a) == serialize_checkpoint(b)

    def test_node_dataset_uses_whole_graph_views(self):
        ds = two_cliques()
        est = self._pretrainer(epochs=2, node_batch=64).fit(ds)
        assert len(est.history_) == 2
        assert all(np.isfinite(v) for v in est.history_)

    def test_empty_dataset_rejected(self):
        ds = tiny_graph_dataset(4)
        ds.graphs = []
        with pytest.raises(ConfigError):
            self._pretrainer().fit(ds)

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf"), 1.5])
    @pytest.mark.parametrize("name", ["drop_ratio", "perturb_ratio"])
    def test_ratios_must_be_in_the_unit_interval(self, name, value):
        # a node dataset once raised numpy's ValueError or OverflowError
        for ds in (tiny_graph_dataset(4), two_cliques()):
            with pytest.raises(ConfigError, match=name):
                self._pretrainer(**{name: value}).fit(ds)


class TestSimGRACE:
    def _pretrainer(self, **kw):
        defaults = dict(model_kind="gcn", num_layers=2, hidden_dim=8,
                        epochs=1, lr=1e-3, batch_size=8, node_batch=64, seed=0)
        defaults.update(kw)
        return SimGRACEPretrainer(**defaults)

    def test_zero_noise_views_identical(self, rng):
        model = GNNModel.create("gcn", (3, 4), seed=0)
        twin = perturbed_copy(model, 0.0, rng)
        for (_, a), (_, b) in zip(model.named_parameters(), twin.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_perturbation_never_mutates_original(self, rng):
        model = GNNModel.create("gin", (3, 4, 4), seed=1)
        before = {n: t.data.tobytes() for n, t in model.named_parameters()}
        perturbed_copy(model, 0.5, rng)
        after = {n: t.data.tobytes() for n, t in model.named_parameters()}
        assert before == after

    @pytest.mark.parametrize("scale", [float("nan"), -1.0, float("inf")])
    def test_noise_scale_must_be_finite_and_non_negative(self, scale):
        # a negative or NaN scale once made both views the same model
        for ds in (tiny_graph_dataset(4), two_cliques()):
            with pytest.raises(ConfigError, match="noise_scale"):
                self._pretrainer(noise_scale=scale).fit(ds)

    def test_zero_noise_scale_is_allowed(self):
        est = self._pretrainer(noise_scale=0.0).fit(two_cliques())
        assert len(est.history_) == 1

    def test_loss_trends_down_on_csbm_graphs(self):
        ds = tiny_graph_dataset(32, n_per_class=5, seed=4)
        est = self._pretrainer(epochs=50, lr=5e-3, noise_scale=0.1, seed=2).fit(ds)
        assert est.history_[-1] < est.history_[0]

    def test_deterministic(self):
        ds = tiny_graph_dataset(6)
        a = self._pretrainer(epochs=2, seed=3).fit(ds).checkpoint_
        b = self._pretrainer(epochs=2, seed=3).fit(ds).checkpoint_
        assert serialize_checkpoint(a) == serialize_checkpoint(b)


class TestSampleNonEdges:
    def test_exhaustive_fallback_draws_distinct_absent_pairs(self, monkeypatch):
        # all but 12 of the 435 pairs of 30 nodes are edges, so rejection sampling
        # rarely meets an absent pair and the exhaustive pool supplies the rest
        n = 30
        a, b = np.triu_indices(n, 1)
        keys = a * n + b
        # the fallback's pool is in this order, so a seed's draws stay fixed
        assert keys.tolist() == [i * n + j for i in range(n) for j in range(i + 1, n)]
        absent = np.random.default_rng(0).choice(keys, size=12, replace=False)
        present = np.setdiff1d(keys, absent)
        pools = []
        triu_indices = np.triu_indices
        monkeypatch.setattr(np, "triu_indices",
                            lambda *args: pools.append(args) or triu_indices(*args))
        pairs = _sample_non_edges(np.random.default_rng(1), n, present, 10)
        assert pools == [(n, 1)]
        drawn = pairs[:, 0] * n + pairs[:, 1]
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert np.unique(drawn).size == 10 and np.isin(drawn, absent).all()
        again = _sample_non_edges(np.random.default_rng(1), n, present, 10)
        np.testing.assert_array_equal(pairs, again)


class TestLinkPrediction:
    def test_positive_scores_beat_negative_after_training(self):
        ds = two_cliques(k=5, seed=1)
        est = LinkPredictionPretrainer(model_kind="gcn", num_layers=2,
                                       hidden_dim=8, epochs=60, lr=1e-2,
                                       mask_ratio=0.2, seed=0).fit(ds)
        g = ds.graphs[0]
        pos = g.undirected_edges()
        adjacent = g.dense_adjacency()
        rng = np.random.default_rng(0)
        neg = []
        while len(neg) < pos.shape[0]:
            a, b = rng.integers(0, g.num_nodes, 2)
            if a != b and not adjacent[a, b]:
                neg.append((min(a, b), max(a, b)))
        h = model_forward(est.model_, g).data

        def mean_score(pairs):
            return np.mean(1.0 / (1.0 + np.exp(-np.sum(h[pairs[:, 0]] * h[pairs[:, 1]], axis=1))))

        assert mean_score(pos) > mean_score(np.array(neg))

    def test_mask_ratio_zero_trains_on_all_edges(self):
        ds = two_cliques()
        est = LinkPredictionPretrainer(hidden_dim=8, epochs=2, mask_ratio=0.0,
                                       seed=0).fit(ds)
        assert est.checkpoint_.metadata["masked_edges"] == []

    def test_masked_edges_recorded_in_metadata(self):
        ds = two_cliques()
        m = ds.graphs[0].num_edges
        est = LinkPredictionPretrainer(hidden_dim=8, epochs=1, mask_ratio=0.5,
                                       seed=0).fit(ds)
        assert len(est.checkpoint_.metadata["masked_edges"]) == int(0.5 * m)

    def test_edgeless_graph_rejected(self):
        g = Graph(3, [], np.zeros((3, 2)))
        ds = LabeledDataset([g], 1, node_labels=[np.zeros(3, np.int64)])
        with pytest.raises(ConfigError):
            LinkPredictionPretrainer(hidden_dim=4, epochs=1).fit(ds)

    def test_more_edges_than_non_edges_rejected(self):
        # each epoch pairs every edge with one sampled non-edge
        params = CSBMParams([1.0, 0.0], [0.0, 1.0], p=0.9, q=0.5, n_per_class=30)
        ds = csbm_node_dataset(params, seed=0)
        with pytest.raises(ConfigError, match="1226 edges and 544 non-edges"):
            LinkPredictionPretrainer(hidden_dim=4, epochs=1).fit(ds)

    def test_as_many_non_edges_as_edges_accepted(self):
        # the path 0-1-2-3 has 3 edges and 3 non-edges
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], np.eye(4))
        ds = LabeledDataset([g], 1, node_labels=[np.zeros(4, np.int64)])
        est = LinkPredictionPretrainer(hidden_dim=4, epochs=2, mask_ratio=0.0).fit(ds)
        assert np.isfinite(est.history_).all()

    def test_deterministic(self):
        ds = two_cliques()
        mk = lambda: LinkPredictionPretrainer(hidden_dim=8, epochs=3, seed=5).fit(ds)
        assert serialize_checkpoint(mk().checkpoint_) == serialize_checkpoint(mk().checkpoint_)


class TestNeighborContrast:
    def test_separable_features_reach_low_loss(self):
        ds = two_cliques(k=5, seed=2)
        est = NeighborContrastPretrainer(model_kind="gcn", num_layers=2,
                                         hidden_dim=8, epochs=30, lr=1e-2,
                                         temperature=0.5, seed=0).fit(ds)
        assert est.history_[-1] < est.history_[0]
        assert est.history_[-1] < 0.45  # close to the two-way floor

    def test_fully_connected_node_skipped_without_error(self):
        # node 0 neighbors everyone (no non-neighbor) and must be skipped
        edges = [(0, k) for k in range(1, 5)] + [(1, 2)]
        g = Graph(5, edges, np.random.default_rng(0).uniform(-1, 1, (5, 2)))
        ds = LabeledDataset([g], 1, node_labels=[np.zeros(5, np.int64)])
        est = NeighborContrastPretrainer(hidden_dim=4, epochs=1, seed=0).fit(ds)
        assert np.isfinite(est.history_[0])

    def test_deterministic(self):
        ds = two_cliques()
        mk = lambda: NeighborContrastPretrainer(hidden_dim=8, epochs=3, seed=6).fit(ds)
        assert serialize_checkpoint(mk().checkpoint_) == serialize_checkpoint(mk().checkpoint_)


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("strategy", sorted(PRETRAINERS))
def test_divergence_stops_naming_strategy_and_epoch(strategy, task):
    ds = two_cliques() if task == "node" else tiny_graph_dataset(6)
    est = PRETRAINERS[strategy](hidden_dim=8, epochs=5, lr=1e300, seed=0)
    if task == "graph" and hasattr(est, "batch_size"):
        est.set_params(batch_size=3)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError, match=rf"^{re.escape(strategy)}, epoch \d of 5: "):
            est.fit(ds)
    assert not hasattr(est, "checkpoint_")


@pytest.mark.parametrize("strategy", sorted(PRETRAINERS))
def test_overflow_stops_at_once_without_a_warning(strategy):
    # each strategy once printed 2-11 numpy RuntimeWarnings first; SimGRACE's
    # overflow happens in the batch source, outside the training step
    mu = np.zeros(4)
    mu[0] = 1.0
    ds = csbm_node_dataset(CSBMParams(mu, -mu, p=0.5, q=0.1, n_per_class=20), seed=0)
    est = PRETRAINERS[strategy](hidden_dim=8, epochs=5, lr=1e300, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=rf"^{re.escape(strategy)}, epoch \d of 5: "
                                                 r"overflow encountered in \w+$"):
            est.fit(ds)


@pytest.mark.parametrize("cls", [GraphCLPretrainer, SimGRACEPretrainer])
@pytest.mark.parametrize("num_graphs,batch_size", [(1, 8), (4, 1), (4, 0)])
def test_contrastive_graph_batches_of_one_rejected(cls, num_graphs, batch_size):
    # no batch of two graphs once ended in a ZeroDivisionError (or a
    # ValueError from range() for batch_size 0)
    est = cls(hidden_dim=4, epochs=1, batch_size=batch_size)
    with pytest.raises(ConfigError, match="batches of >= 2 graphs"):
        est.fit(tiny_graph_dataset(num_graphs))


def test_get_params_roundtrip():
    est = GraphCLPretrainer(hidden_dim=16, epochs=9, seed=4)
    params = est.get_params()
    assert params["hidden_dim"] == 16 and params["epochs"] == 9
    est.set_params(epochs=11)
    assert est.epochs == 11
    with pytest.raises(ConfigError):
        est.set_params(bogus=1)


@pytest.mark.parametrize("cls", [*PRETRAINERS.values(), PromptTuner],
                         ids=lambda cls: cls.__name__)
def test_parameters_are_the_dataclass_fields(cls):
    names = cls._param_names()
    assert names == [f.name for f in dataclasses.fields(cls)]
    assert "strategy" not in names and "_recorded" not in names
    if cls is not PromptTuner:
        assert names[:6] == ["model_kind", "num_layers", "hidden_dim", "epochs", "lr", "seed"]
    # only the tuner's checkpoint is positional
    args = (None, "gcn") if cls is PromptTuner else ("gcn",)
    with pytest.raises(TypeError):
        cls(*args)
