import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeprompt.tensor as T
from edgeprompt.errors import ConfigError, ShapeError
from edgeprompt.graph import Graph
from edgeprompt.models import (
    GINLayer,
    GNNModel,
    LinearHead,
    classifier_forward,
    gcn_layer_forward,
    gin_layer_forward,
    model_forward,
    readout,
)
from edgeprompt.prompts import EdgePromptPlusParams
from edgeprompt.tensor import Tape, Tensor, finite_difference_gradient

from conftest import all_edge_subsets, random_connected_graph, random_graph, rel_err


def dense_gcn_reference(g, h, weight, bias, prompts=None, activation=False):
    """Loop-and-matrix re-statement of the prompted GCN layer."""
    n = g.num_nodes
    a = g.dense_adjacency() + np.eye(n)
    d = a.sum(axis=1)
    coeff = 1.0 / np.sqrt(np.outer(d, d))
    agg = np.zeros_like(h)
    for i in range(n):
        agg[i] += coeff[i, i] * h[i]
    for k in range(g.num_directed_edges):
        i, j = int(g.csr_owners[k]), int(g.csr_targets[k])
        msg = h[j] + (prompts[k] if prompts is not None else 0.0)
        agg[i] += coeff[i, j] * msg
    out = agg @ weight + bias
    return np.maximum(out, 0.0) if activation else out


def dense_gin_aggregate_reference(g, h, prompts=None):
    agg = h.copy()
    for k in range(g.num_directed_edges):
        i, j = int(g.csr_owners[k]), int(g.csr_targets[k])
        agg[i] += h[j] + (prompts[k] if prompts is not None else 0.0)
    return agg


def prompt_term(values, adj):
    """sum_j c_ij v_ij per node, for one row of ``values`` per entry of ``adj``."""
    return T.scatter_add_rows(T.scale_rows(Tensor(values), adj.coeffs), adj.owners,
                              adj.num_out)


class TestGCNLayer:
    def test_zero_prompts_equal_no_prompts(self, rng):
        g = random_connected_graph(rng, 6, feature_dim=3)
        model = GNNModel.create("gcn", (3, 4), seed=0)
        adj = g.adjacency("gcn")
        h = Tensor(g.features)
        plain = gcn_layer_forward(model.layers[0], h, adj)
        zeros = prompt_term(np.zeros((g.num_directed_edges, 3)), adj)
        prompted = gcn_layer_forward(model.layers[0], h, adj, zeros)
        np.testing.assert_array_equal(plain.data, prompted.data)

    def test_two_node_hand_computation(self):
        # identity weight, no bias/activation, all-ones prompt:
        # node 0 receives 0.5*h_0 (self) + 0.5*(h_1 + 1)
        g = Graph(2, [(0, 1)], np.eye(2))
        layer_model = GNNModel.create("gcn", (2, 2), seed=0)
        layer = layer_model.layers[0]
        layer.weight = Tensor(np.eye(2))
        layer.bias = Tensor(np.zeros((1, 2)))
        layer.activation = False
        adj = g.adjacency("gcn")
        prompts = prompt_term(np.ones((2, 2)), adj)
        out = gcn_layer_forward(layer, Tensor(g.features), adj, prompts)
        expected0 = 0.5 * g.features[0] + 0.5 * (g.features[1] + 1.0)
        expected1 = 0.5 * g.features[1] + 0.5 * (g.features[0] + 1.0)
        np.testing.assert_allclose(out.data, [expected0, expected1], atol=1e-15)

    def test_prompt_row_count_checked(self, rng):
        g = random_connected_graph(rng, 4, feature_dim=2)
        model = GNNModel.create("gcn", (2, 2), seed=0)
        adj = g.adjacency("gcn")
        with pytest.raises(ShapeError):
            gcn_layer_forward(model.layers[0], Tensor(g.features), adj,
                              Tensor(np.zeros((g.num_nodes + 1, 2))))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_reference(self, seed, n):
        r = np.random.default_rng(seed)
        g = random_graph(r, n, feature_dim=3)
        w = r.uniform(-1, 1, (3, 2))
        b = r.uniform(-1, 1, (1, 2))
        prompts = r.uniform(-1, 1, (g.num_directed_edges, 3))
        model = GNNModel.create("gcn", (3, 2), seed=0)
        layer = model.layers[0]
        layer.weight, layer.bias, layer.activation = Tensor(w), Tensor(b), True
        adj = g.adjacency("gcn")
        out = gcn_layer_forward(layer, Tensor(g.features), adj,
                                prompt_term(prompts, adj))
        ref = dense_gcn_reference(g, g.features, w, b, prompts, activation=True)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)


class TestGINLayer:
    def test_isolated_node_is_mlp_of_features(self):
        g = Graph(1, [], np.array([[0.3, -0.7]]))
        model = GNNModel.create("gin", (2, 3), seed=1)
        out = gin_layer_forward(model.layers[0], Tensor(g.features), g.adjacency("gin"))
        expected = model.layers[0].mlp(Tensor(g.features)).data
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_shared_prompt_adds_degree_times_prompt(self, rng):
        # the GIN prompt term of a shared prompt p is deg_i * p, whether p
        # sits on every entry or is the one anchor of an EdgePrompt
        g = random_connected_graph(rng, 6, feature_dim=3)
        adj = g.adjacency("gin")
        p = rng.uniform(-1, 1, (1, 3))
        per_entry = prompt_term(np.repeat(p, g.num_directed_edges, axis=0), adj)
        shared = EdgePromptPlusParams([Tensor(p)]).aggregate(Tensor(g.features), adj, 0)
        deg = g.degrees().astype(float)[:, None]
        np.testing.assert_allclose(per_entry.data, deg * p, atol=1e-12)
        np.testing.assert_array_equal(shared.data, deg * p)

    def test_linear_transform_identity_with_weight(self, rng):
        # (plain + [deg_i] p) W == prompted aggregate @ W to 1e-10
        g = random_connected_graph(rng, 5, feature_dim=2)
        p = rng.uniform(-1, 1, (1, 2))
        w = rng.uniform(-1, 1, (2, 4))
        h = Tensor(g.features)
        adj = g.adjacency("gin")
        prompts = prompt_term(np.repeat(p, g.num_directed_edges, axis=0), adj)
        lhs = T.add(T.propagate(h, adj), prompts).data @ w
        deg = g.degrees().astype(float)[:, None]
        rhs = T.propagate(h, adj).data @ w + (deg * p) @ w
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_aggregate_matches_dense_reference(self, seed, n):
        r = np.random.default_rng(seed)
        g = random_graph(r, n, feature_dim=2)
        prompts = r.uniform(-1, 1, (g.num_directed_edges, 2))
        layer = GINLayer.create(r, 2, 3)
        adj = g.adjacency("gin")
        out = gin_layer_forward(layer, Tensor(g.features), adj,
                                prompt_term(prompts, adj))
        ref = dense_gin_aggregate_reference(g, g.features, prompts)
        np.testing.assert_allclose(out.data, layer.mlp(Tensor(ref)).data, atol=1e-12)


@pytest.mark.parametrize("dims", [(3, 0), (3, -3), (0, 2), (3, 4, 0)])
def test_widths_below_one_rejected(dims):
    # hidden 0 once ended in a ZeroDivisionError, -3 in an OverflowError
    for kind in ("gcn", "gin"):
        with pytest.raises(ConfigError, match="widths"):
            GNNModel.create(kind, dims, seed=0)


class TestModelForward:
    def test_single_layer_reduces_to_layer_op(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        model = GNNModel.create("gcn", (3, 4), seed=2)
        via_model = model_forward(model, g)
        direct = gcn_layer_forward(model.layers[0], Tensor(g.features),
                                   g.adjacency("gcn"))
        np.testing.assert_array_equal(via_model.data, direct.data)

    def test_deterministic(self, rng):
        g = random_connected_graph(rng, 6, feature_dim=3)
        model = GNNModel.create("gin", (3, 8, 8), seed=3)
        a = model_forward(model, g).data
        b = model_forward(model, g).data
        np.testing.assert_array_equal(a, b)

    def test_two_layer_gcn_matches_dense_rollout(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        model = GNNModel.create("gcn", (3, 4, 2), seed=4)
        out = model_forward(model, g)
        h = g.features
        for l, layer in enumerate(model.layers):
            h = dense_gcn_reference(g, h, layer.weight.data, layer.bias.data,
                                    activation=layer.activation)
        np.testing.assert_allclose(out.data, h, atol=1e-10)

    def test_exhaustive_small_graphs_match_dense(self):
        model = GNNModel.create("gcn", (2, 3, 2), seed=5)
        gin = GNNModel.create("gin", (2, 3, 3), seed=6)
        r = np.random.default_rng(0)
        for n in range(1, 5):
            for edges in all_edge_subsets(n):
                feats = r.uniform(-1, 1, (n, 2))
                g = Graph(n, edges, feats)
                out = model_forward(model, g)
                h = feats
                for layer in model.layers:
                    h = dense_gcn_reference(g, h, layer.weight.data,
                                            layer.bias.data,
                                            activation=layer.activation)
                np.testing.assert_allclose(out.data, h, atol=1e-10)
                out_gin = model_forward(gin, g)
                hg = Tensor(feats)
                for layer in gin.layers:
                    agg = dense_gin_aggregate_reference(g, hg.data)
                    hg = layer.mlp(Tensor(agg))
                np.testing.assert_allclose(out_gin.data, hg.data, atol=1e-10)

    def test_bundle_layer_count_checked(self, rng):
        g = random_connected_graph(rng, 4, feature_dim=2)
        model = GNNModel.create("gcn", (2, 3, 3), seed=0)
        with pytest.raises(ShapeError):
            model_forward(model, g, prompts=EdgePromptPlusParams.shared([2]))

    def test_feature_dim_checked(self, rng):
        g = random_connected_graph(rng, 4, feature_dim=5)
        model = GNNModel.create("gcn", (3, 3), seed=0)
        with pytest.raises(ShapeError):
            model_forward(model, g)

    def test_permutation_equivariance(self, rng):
        g = random_connected_graph(rng, 7, feature_dim=3)
        perm = rng.permutation(7)
        edges = g.undirected_edges()
        g_perm = Graph(7, perm[edges], g.features[np.argsort(perm)])
        for kind, dims in (("gcn", (3, 4, 4)), ("gin", (3, 4, 4))):
            model = GNNModel.create(kind, dims, seed=7)
            out = model_forward(model, g).data
            out_perm = model_forward(model, g_perm).data
            np.testing.assert_allclose(out_perm[perm], out, atol=1e-10)
            # readout over the whole graph is permutation invariant
            member = np.zeros(7, dtype=np.int64)
            r1 = readout(Tensor(out), member, "sum").data
            r2 = readout(Tensor(out_perm), member, "sum").data
            np.testing.assert_allclose(r1, r2, atol=1e-10)


def test_union_forward_equals_concatenated_per_graph_forwards(rng):
    from edgeprompt.graph import disjoint_union

    graphs = [random_connected_graph(rng, int(n), feature_dim=3)
              for n in rng.integers(2, 6, size=4)]
    union, offsets = disjoint_union(graphs)
    for kind in ("gcn", "gin"):
        model = GNNModel.create(kind, (3, 4, 4), seed=9)
        batched = model_forward(model, union).data
        separate = np.concatenate([model_forward(model, g).data for g in graphs])
        np.testing.assert_allclose(batched, separate, atol=1e-12)


def test_all_zero_bundle_reproduces_prompt_free_output_bitwise(rng):
    g = random_connected_graph(rng, 6, feature_dim=3)
    for kind in ("gcn", "gin"):
        model = GNNModel.create(kind, (3, 4, 4), seed=10)
        plain = model_forward(model, g).data
        for zeros in (EdgePromptPlusParams.shared(model.dims[:-1]),
                      EdgePromptPlusParams.create(model.dims[:-1], 3, rng)):
            prompted = model_forward(model, g, prompts=zeros).data
            assert plain.tobytes() == prompted.tobytes()


class TestReadout:
    def test_single_graph_sum(self):
        out = readout(Tensor([[1.0, 2.0], [3.0, 4.0]]), [0, 0], "sum")
        np.testing.assert_array_equal(out.data, [[4.0, 6.0]])

    def test_mean_of_identical_rows(self):
        out = readout(Tensor([[2.0, 5.0], [2.0, 5.0]]), [0, 0], "mean")
        np.testing.assert_allclose(out.data, [[2.0, 5.0]], atol=1e-15)

    def test_multiple_graphs(self):
        h = Tensor([[1.0], [2.0], [10.0]])
        out = readout(h, [0, 0, 1], "mean")
        np.testing.assert_allclose(out.data, [[1.5], [10.0]], atol=1e-15)

    def test_membership_must_cover_rows(self):
        with pytest.raises(ShapeError):
            readout(Tensor(np.zeros((3, 2))), [0, 0], "sum")


class TestClassifier:
    def test_zero_head_gives_zero_logits(self):
        head = LinearHead(Tensor(np.zeros((3, 2))), Tensor(np.zeros((1, 2))))
        out = classifier_forward(head, Tensor(np.ones((4, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_identity_weights_pass_through(self):
        head = LinearHead(Tensor(np.eye(3)), Tensor(np.zeros((1, 3))))
        reps = Tensor([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(classifier_forward(head, reps).data, reps.data)

    def test_gradient_through_classifier_and_loss(self, rng):
        reps = Tensor(rng.uniform(-1, 1, (4, 3)))
        w0 = rng.uniform(-1, 1, (3, 2))
        b0 = rng.uniform(-1, 1, (1, 2))
        labels = [0, 1, 1, 0]

        def loss_for(wd, bd):
            head = LinearHead(Tensor(wd), Tensor(bd))
            return T.cross_entropy_with_logits(classifier_forward(head, reps), labels)

        w, b = Tensor(w0), Tensor(b0)
        with Tape() as tape:
            tape.watch(w, b)
            head = LinearHead(w, b)
            loss = T.cross_entropy_with_logits(classifier_forward(head, reps), labels)
            grads = tape.backward(loss)
            gw, gb = grads[w], grads[b]
        fw = finite_difference_gradient(lambda t: loss_for(t.data, b0).item(), Tensor(w0))
        fb = finite_difference_gradient(lambda t: loss_for(w0, t.data).item(), Tensor(b0))
        assert rel_err(gw, fw) < 1e-6
        assert rel_err(gb, fb) < 1e-6


def test_full_two_layer_gcn_gradients_match_finite_differences(rng):
    # every backbone parameter of a 2-layer GCN, against the FD oracle
    g = random_connected_graph(rng, 6, feature_dim=3)
    model = GNNModel.create("gcn", (3, 4, 2), seed=8)
    labels = rng.integers(0, 2, size=6)

    def loss_value():
        out = model_forward(model, g)
        return T.cross_entropy_with_logits(out, labels)

    params = model.parameters()
    with Tape() as tape:
        tape.watch(*params)
        grads = tape.backward(loss_value())
        auto = [grads[p] for p in params]
    for p, g_auto in zip(params, auto):
        base = p.data.copy()

        def f(t):
            p.data = t.data
            try:
                return loss_value().item()
            finally:
                p.data = base

        fd = finite_difference_gradient(f, Tensor(base))
        assert rel_err(g_auto, fd) < 1e-5
