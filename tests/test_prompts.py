import numpy as np
import pytest

import edgeprompt.tensor as T
from edgeprompt.errors import ConfigError, ShapeError
from edgeprompt.models import GNNModel, model_forward
from edgeprompt.prompts import EdgePromptPlusParams, NodePromptParams
from edgeprompt.tensor import Tape, Tensor, finite_difference_gradient

from conftest import random_connected_graph, rel_err


def per_entry_sum(adj, rows):
    """Loop re-statement of the prompt term: sum_j c_ij e_ij per node."""
    out = np.zeros((adj.num_out, rows.shape[1]))
    for k in range(rows.shape[0]):
        out[adj.owners[k]] += adj.coeffs[k] * rows[k]
    return out


class TestEdgePrompt:
    def test_three_edge_graph_broadcasts_to_six_rows(self, rng):
        # every one of the six directed entries carries p, so under unit
        # weights node i gains deg_i * p and the terms add up to six p
        from edgeprompt.graph import Graph

        g = Graph(4, [(0, 1), (1, 2), (2, 3)], rng.uniform(-1, 1, (4, 2)))
        params = EdgePromptPlusParams([Tensor([[0.5, -1.0]])])
        term = params.aggregate(Tensor(g.features), g.adjacency("gin"), 0).data
        assert term.shape == (4, 2)
        np.testing.assert_array_equal(term, np.outer([1, 2, 2, 1], [0.5, -1.0]))
        np.testing.assert_array_equal(term.sum(axis=0), [3.0, -6.0])

    def test_zero_vector_gives_zero_bundle(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        params = EdgePromptPlusParams.shared([3])
        term = params.aggregate(Tensor(g.features), g.adjacency("gcn"), 0)
        assert not term.data.any()

    def test_gradient_is_sum_of_per_edge_gradients(self, rng):
        # d loss / d p == sum over entries of d loss / d e_k, and entry k
        # (i <- j) reaches the loss as c_ij * e_k in node i's term
        g = random_connected_graph(rng, 5, feature_dim=3)
        adj = g.adjacency("gcn")
        weights = rng.uniform(-1, 1, (g.num_nodes, 3))
        params = EdgePromptPlusParams.shared([3])
        p = params.anchors[0]
        with Tape() as tape:
            tape.watch(p)
            term = params.aggregate(Tensor(g.features), adj, 0)
            loss = T.sum_all(T.mul(term, Tensor(weights)))
            g_p = tape.backward(loss)[p]
        per_edge = adj.coeffs[:, None] * weights[adj.owners]
        np.testing.assert_allclose(g_p, per_edge.sum(axis=0, keepdims=True), atol=1e-12)


class TestScoreVectors:
    def _plus(self, rng, dims, anchors):
        return EdgePromptPlusParams.create(dims, anchors, rng)

    def test_single_anchor_scores_are_one(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        params = self._plus(rng, [3], 1)
        scores = params.scores(Tensor(g.features), g.adjacency("gcn"), 0)
        np.testing.assert_array_equal(scores.data,
                                      np.ones((g.num_directed_edges, 1)))

    def test_zero_weights_give_uniform_scores(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        params = EdgePromptPlusParams([Tensor.zeros(4, 3)], [Tensor.zeros(6, 4)])
        scores = params.scores(Tensor(g.features), g.adjacency("gcn"), 0)
        np.testing.assert_allclose(scores.data,
                                   np.full((g.num_directed_edges, 4), 0.25),
                                   atol=1e-15)

    def test_matches_brute_force_formula(self, rng):
        g = random_connected_graph(rng, 6, feature_dim=2)
        params = self._plus(rng, [2], 3)
        h = rng.uniform(-1, 1, (6, 2))
        scores = params.scores(Tensor(h), g.adjacency("gcn"), 0).data
        w = params.score_weights[0].data
        for k in range(g.num_directed_edges):
            i, j = int(g.csr_owners[k]), int(g.csr_targets[k])
            z = np.concatenate([h[i], h[j]])[None, :] @ w
            z = np.where(z >= 0, z, 0.2 * z)
            expected = np.exp(z - z.max())
            expected /= expected.sum()
            np.testing.assert_allclose(scores[k], expected[0], atol=1e-12)

    def test_rows_are_probability_vectors(self, rng):
        g = random_connected_graph(rng, 7, feature_dim=3)
        params = self._plus(rng, [3], 5)
        scores = params.scores(Tensor(rng.uniform(-3, 3, (7, 3))),
                               g.adjacency("gcn"), 0).data
        assert (scores >= 0).all()
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            EdgePromptPlusParams([Tensor.zeros(2, 3)], [Tensor.zeros(5, 2)])
        with pytest.raises(ConfigError):
            EdgePromptPlusParams([Tensor.zeros(0, 3)], [Tensor.zeros(6, 0)])


class TestEdgePromptPlusMaterialization:
    def test_single_anchor_reproduces_edgeprompt(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        vec = rng.uniform(-1, 1, (1, 3))
        plus = EdgePromptPlusParams([Tensor(vec.copy())],
                                    [Tensor(rng.uniform(-0.1, 0.1, (6, 1)))])
        shared = EdgePromptPlusParams([Tensor(vec.copy())])
        h = Tensor(g.features)
        adj = g.adjacency("gcn")
        out_plus = plus.aggregate(h, adj, 0).data
        out_shared = shared.aggregate(h, adj, 0).data
        np.testing.assert_array_equal(out_plus, out_shared)

    def test_identical_anchors_collapse(self, rng):
        # scores sum to 1, so identical anchors give (sum_j c_ij) * row
        g = random_connected_graph(rng, 5, feature_dim=2)
        adj = g.adjacency("gcn")
        row = rng.uniform(-1, 1, (1, 2))
        anchors = Tensor(np.repeat(row, 4, axis=0))
        params = EdgePromptPlusParams([anchors], [Tensor(rng.uniform(-1, 1, (4, 4)))])
        out = params.aggregate(Tensor(g.features), adj, 0).data
        ones = np.ones((g.num_directed_edges, 1))
        np.testing.assert_allclose(out, per_entry_sum(adj, ones) * row, atol=1e-12)

    def test_matches_brute_force_weighted_average(self, rng):
        # the aggregated term equals summing per-entry prompts S_k P
        g = random_connected_graph(rng, 6, feature_dim=2)
        params = EdgePromptPlusParams.create([2], 3, rng)
        params.anchors[0].data[:] = rng.uniform(-1, 1, (3, 2))
        h = Tensor(g.features)
        for kind in ("gcn", "gin"):
            adj = g.adjacency(kind)
            scores = params.scores(h, adj, 0).data
            out = params.aggregate(h, adj, 0).data
            expected = per_entry_sum(adj, scores @ params.anchors[0].data)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_prompts_lie_in_anchor_convex_hull(self, rng):
        # with unit weights node i's term is deg_i times a convex mix
        g = random_connected_graph(rng, 6, feature_dim=2)
        params = EdgePromptPlusParams.create([2], 4, rng)
        params.anchors[0].data[:] = rng.uniform(-2, 2, (4, 2))
        out = params.aggregate(Tensor(g.features), g.adjacency("gin"), 0).data
        out = out / g.degrees()[:, None]
        lo = params.anchors[0].data.min(axis=0) - 1e-12
        hi = params.anchors[0].data.max(axis=0) + 1e-12
        assert (out >= lo).all() and (out <= hi).all()


class TestNodePrompts:
    def test_zero_gpf_is_identity(self, rng):
        x = rng.uniform(-1, 1, (5, 3))
        params = NodePromptParams.shared(3)
        np.testing.assert_array_equal(params.apply(Tensor(x)).data, x)

    def test_gpf_adds_vector_to_every_row(self, rng):
        x = rng.uniform(-1, 1, (4, 2))
        params = NodePromptParams(Tensor([[1.0, -2.0]]))
        np.testing.assert_allclose(params.apply(Tensor(x)).data,
                                   x + np.array([1.0, -2.0]), atol=1e-15)

    def test_gpf_has_one_vector(self):
        with pytest.raises(ShapeError, match="one prompt vector"):
            NodePromptParams(Tensor.zeros(2, 3))

    def test_gpf_plus_single_basis_reduces_to_gpf(self, rng):
        x = rng.uniform(-1, 1, (5, 3))
        row = rng.uniform(-1, 1, (1, 3))
        plus = NodePromptParams(Tensor(row.copy()), Tensor(rng.uniform(-1, 1, (3, 1))))
        gpf = NodePromptParams(Tensor(row.copy()))
        np.testing.assert_allclose(plus.apply(Tensor(x)).data,
                                   gpf.apply(Tensor(x)).data, atol=1e-15)

    def test_gpf_plus_matches_formula(self, rng):
        x = rng.uniform(-1, 1, (4, 3))
        params = NodePromptParams.create(3, 2, rng)
        params.basis.data[:] = rng.uniform(-1, 1, (2, 3))
        s, b = params.score_map.data, params.basis.data
        z = x @ s
        mix = np.exp(z - z.max(axis=1, keepdims=True))
        mix /= mix.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(params.apply(Tensor(x)).data, x + mix @ b,
                                   atol=1e-12)

    def test_dimension_mismatch(self, rng):
        params = NodePromptParams.shared(3)
        with pytest.raises(ShapeError):
            params.apply(Tensor(np.zeros((2, 4))))


def test_prompted_forward_gradients_match_finite_differences(rng):
    # gradients of a full prompted forward pass w.r.t. every prompt
    # parameter, for each prompt family, on a small graph
    g = random_connected_graph(rng, 6, feature_dim=3)
    model = GNNModel.create("gcn", (3, 4, 4), seed=0)
    weights = rng.uniform(-1, 1, (6, 4))

    def run(params_obj):
        if isinstance(params_obj, NodePromptParams):
            out = model_forward(model, g, features=params_obj.apply(Tensor(g.features)))
        else:
            out = model_forward(model, g, prompts=params_obj)
        return T.sum_all(T.mul(out, Tensor(weights)))

    families = [
        EdgePromptPlusParams.shared([3, 4]),
        EdgePromptPlusParams.create([3, 4], 2, rng),
        NodePromptParams.shared(3),
        NodePromptParams.create(3, 2, rng),
    ]
    for fam in families:
        params = fam.trainable()
        with Tape() as tape:
            tape.watch(*params)
            grads = tape.backward(run(fam))
            auto = [grads[p] for p in params]
        for p, ga in zip(params, auto):
            base = p.data.copy()

            def f(t):
                p.data = t.data
                try:
                    return run(fam).item()
                finally:
                    p.data = base

            fd = finite_difference_gradient(f, Tensor(base))
            assert rel_err(ga, fd) < 1e-5, type(fam).__name__
