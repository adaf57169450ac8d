import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeprompt.tensor as T
from edgeprompt.errors import NonFiniteError, ShapeError
from edgeprompt.graph import Graph
from edgeprompt.tensor import Tape, Tensor, finite_difference_gradient

from conftest import rel_err


def grad_of(build, *param_arrays):
    """Autodiff gradients of build(*tensors) w.r.t. each parameter array."""
    params = [Tensor(a) for a in param_arrays]
    with Tape() as tape:
        tape.watch(*params)
        loss = build(*params)
        grads = tape.backward(loss)
        return [grads[p] for p in params]


def fd_of(build, *param_arrays, h=1e-6):
    """Finite-difference gradients of the same scalar, one parameter at a time."""
    out = []
    arrays = [np.asarray(a, dtype=np.float64) for a in param_arrays]
    for k in range(len(arrays)):
        def f(x, k=k):
            tensors = [Tensor(a) for a in arrays]
            tensors[k] = x
            return build(*tensors).item()

        out.append(finite_difference_gradient(f, Tensor(arrays[k]), h=h))
    return out


def check_grads(build, *param_arrays, tol=1e-5):
    for ad, fd in zip(grad_of(build, *param_arrays), fd_of(build, *param_arrays)):
        assert rel_err(ad, fd) < tol


class TestTensorBasics:
    def test_promotes_scalars_and_rows(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
        assert Tensor([[1.0], [2.0]]).shape == (2, 1)

    def test_rejects_rank_3(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([np.nan, 1.0])
        with pytest.raises(ValueError):
            Tensor([np.inf])


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]))
        np.testing.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        assert out.item() == pytest.approx(11.0)

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self, rng):
        a = rng.uniform(-1, 1, (4, 3))
        b = rng.uniform(-1, 1, (3, 2))
        check_grads(lambda x, y: T.sum_all(T.matmul(x, y)), a, b, tol=1e-6)


class TestScatterAdd:
    def test_hand_sum(self):
        out = T.scatter_add_rows(Tensor([[1.0], [2.0], [3.0]]), [0, 0, 1], 2)
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])

    def test_empty_messages(self):
        out = T.scatter_add_rows(Tensor(np.zeros((0, 1))), [], 2)
        np.testing.assert_array_equal(out.data, [[0.0], [0.0]])

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.scatter_add_rows(Tensor([[1.0]]), [5], 2)

    def test_unsorted_targets(self, rng):
        msgs = rng.uniform(-1, 1, (7, 3))
        targets = np.array([4, 0, 2, 0, 4, 1, 2])
        out = T.scatter_add_rows(Tensor(msgs), targets, 5)
        expected = np.zeros((5, 3))
        for row, t in zip(msgs, targets):
            expected[t] += row
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_equals_dense_adjacency_matmul(self, rng):
        # scatter-add of neighbor features reproduces A @ X on a random graph
        from conftest import random_connected_graph

        g = random_connected_graph(rng, 5, feature_dim=3)
        x = g.features
        out = T.scatter_add_rows(Tensor(x[g.csr_targets]), g.csr_owners, g.num_nodes)
        np.testing.assert_allclose(out.data, g.dense_adjacency() @ x, atol=1e-12)

    def test_exhaustive_small_graphs_match_dense(self):
        # every edge subset on up to 4 nodes, then seeded 5..8-node graphs
        from edgeprompt.graph import Graph

        from conftest import all_edge_subsets, random_graph

        r = np.random.default_rng(1)

        def check(g):
            x = r.uniform(-1, 1, (g.num_nodes, 2))
            out = T.scatter_add_rows(Tensor(x[g.csr_targets]), g.csr_owners,
                                     g.num_nodes)
            np.testing.assert_allclose(out.data, g.dense_adjacency() @ x,
                                       atol=1e-12)

        for n in range(1, 5):
            for edges in all_edge_subsets(n):
                check(Graph(n, edges, np.zeros((n, 1))))
        for n in range(5, 9):
            for _ in range(20):
                check(random_graph(r, n))

    def test_gradient(self, rng):
        msgs = rng.uniform(-1, 1, (6, 2))
        targets = [0, 1, 1, 3, 0, 3]
        w = Tensor(rng.uniform(-1, 1, (4, 2)))
        check_grads(
            lambda m: T.sum_all(T.mul(T.scatter_add_rows(m, targets, 4), w)),
            msgs, tol=1e-6,
        )


# node 3 has no entries
_ISOLATED = Graph(4, [(0, 1), (1, 2), (0, 2)], np.zeros((4, 1)))
# a path 0-1-2-3-4 and an isolated node 5
_PATH = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((6, 1)))


def _rect_block(kind):
    """The one-layer block of nodes 1 and 5 of ``_PATH``: inputs 0, 1, 2, 5.
    Output row 5 owns no entry; input rows 1 and 5 are read by none."""
    return _PATH.adjacency(kind).blocks([1, 5], 1)[0]


def _dense_block(adj):
    """A block's n_out x n_in coefficient matrix."""
    dense = np.zeros((adj.num_out, adj.num_in))
    dense[adj.owners, adj.targets] = adj.coeffs
    return dense


class TestPropagate:
    def test_exhaustive_small_graphs_match_dense(self):
        # against the dense operator, every edge subset on up to 4 nodes
        from conftest import all_edge_subsets

        r = np.random.default_rng(2)
        for n in range(1, 5):
            for edges in all_edge_subsets(n):
                g = Graph(n, edges, np.zeros((n, 1)))
                a = g.dense_adjacency()
                d = a.sum(axis=1) + 1.0
                x = r.uniform(-1, 1, (n, 2))
                for kind, dense in (("gin", a), ("gcn", a / np.sqrt(np.outer(d, d)))):
                    adj = g.adjacency(kind)
                    out = T.propagate(Tensor(x), adj).data
                    np.testing.assert_allclose(out, dense @ x, atol=1e-12)

    def test_row_counts_checked(self):
        adj = _ISOLATED.adjacency("gcn")
        with pytest.raises(ShapeError):
            T.propagate(Tensor(np.zeros((3, 2))), adj)
        with pytest.raises(ShapeError):
            T.propagate(Tensor(np.zeros((2, 2))), _rect_block("gcn"))

    def test_blocks_match_dense_and_its_transpose(self):
        # every block of random graphs with several components: the value
        # is D x and the gradient D^T g for the block's n_out x n_in matrix
        from conftest import graph_with_isolated_nodes

        r = np.random.default_rng(6)
        for _ in range(10):
            g = graph_with_isolated_nodes(r, 30, 0.06)
            rows = r.choice(g.num_nodes, size=3, replace=False)
            for kind in ("gcn", "gin"):
                for adj in g.adjacency(kind).blocks(rows, 3):
                    dense = _dense_block(adj)
                    x = r.uniform(-1, 1, (adj.num_in, 2))
                    w = r.uniform(-1, 1, (adj.num_out, 2))
                    out = T.propagate(Tensor(x), adj).data
                    (grad,) = grad_of(
                        lambda t: T.sum_all(T.mul(T.propagate(t, adj), Tensor(w))), x)
                    np.testing.assert_allclose(out, dense @ x, atol=1e-12)
                    np.testing.assert_allclose(grad, dense.T @ w, atol=1e-12)

    def test_square_block_is_symmetric(self):
        # rows that hold whole components give a square block, whose
        # backward is its own forward
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6), (4, 6)], np.zeros((7, 1)))
        for kind in ("gcn", "gin"):
            adj = g.adjacency(kind)
            first, last = adj.blocks([0, 1, 2], 2)
            assert first.own is None and last.own is None
            np.testing.assert_array_equal(last.outputs, [0, 1, 2])
            np.testing.assert_array_equal(last.inputs, [0, 1, 2])
            dense = _dense_block(last)
            np.testing.assert_array_equal(dense, dense.T)


def _unfused_edge_softmax_sum(logits, adj, slope):
    """The five-op chain the fused op replaces, on n_in x 2M logits [a | b]."""
    m = logits.shape[1] // 2
    a = T.matmul(logits, Tensor(np.eye(2 * m)[:, :m]))
    b = T.matmul(logits, Tensor(np.eye(2 * m)[:, m:]))
    own = adj.owners if adj.own is None else adj.own[adj.owners]
    y = T.add(T.gather_rows(a, own), T.gather_rows(b, adj.targets))
    scores = T.scale_rows(T.softmax_rows(T.leaky_relu(y, slope)), adj.coeffs)
    return T.scatter_add_rows(scores, adj.owners, adj.num_out)


def _graph_with_isolated_nodes(r, n):
    mask = np.triu(r.random((n, n)) < r.uniform(0.1, 0.7), k=1)
    lonely = r.choice(n, size=2, replace=False)
    mask[lonely, :] = mask[:, lonely] = False
    return Graph(n, np.argwhere(mask), np.zeros((n, 1)))


class TestEdgeSoftmaxSum:
    def test_matches_unfused_chain(self):
        # value and gradient of a random linear readout, 1e-12 relative
        r = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(r.integers(2, 30)), int(r.integers(1, 6))
            g = _graph_with_isolated_nodes(r, n)
            rows = r.choice(n, size=2, replace=False)
            for kind in ("gcn", "gin"):
                # the whole graph's operator and the blocks of two rows
                for adj in [g.adjacency(kind)] + g.adjacency(kind).blocks(rows, 2):
                    logits = r.uniform(-3, 3, (adj.num_in, 2 * m))
                    w = Tensor(r.uniform(-1, 1, (adj.num_out, m)))
                    outs = []
                    for op in (T.edge_softmax_sum, _unfused_edge_softmax_sum):
                        (grad,) = grad_of(
                            lambda t: T.sum_all(T.mul(op(t, adj, 0.3), w)), logits)
                        outs.append((op(Tensor(logits), adj, 0.3).data, grad))
                    (z, gz), (ref, gref) = outs
                    assert rel_err(z, ref) < 1e-12
                    assert rel_err(gz, gref) < 1e-12

    def test_scores_match_unfused_chain(self):
        r = np.random.default_rng(4)
        g = _graph_with_isolated_nodes(r, 12)
        adj = g.adjacency("gcn")
        logits = r.uniform(-3, 3, (12, 8))
        y = logits[adj.owners, :4] + logits[adj.targets, 4:]
        ref = T.softmax_rows(T.leaky_relu(Tensor(y), 0.2)).data
        np.testing.assert_allclose(T.edge_softmax(Tensor(logits), adj, 0.2), ref,
                                   rtol=1e-12, atol=0)

    def test_one_anchor_is_bitwise_edge_sum_of_ones(self):
        # criterion 4: with M = 1 every score is exactly 1
        r = np.random.default_rng(5)
        for _ in range(10):
            g = _graph_with_isolated_nodes(r, int(r.integers(2, 40)))
            for kind in ("gcn", "gin"):
                adj = g.adjacency(kind)
                logits = r.uniform(-3, 3, (g.num_nodes, 2))
                ones = T.propagate(Tensor.ones(g.num_nodes, 1), adj).data
                fused = T.edge_softmax_sum(Tensor(logits), adj, 0.2).data
                np.testing.assert_array_equal(fused, ones)
                (grad,) = grad_of(lambda t: T.sum_all(T.edge_softmax_sum(t, adj, 0.2)),
                                  logits)
                np.testing.assert_array_equal(grad, np.zeros_like(logits))

    def test_rejects_nan(self):
        logits = Tensor(np.zeros((4, 4)))
        logits.data[1, 3] = np.nan
        with pytest.raises(NonFiniteError, match="NaN"):
            T.edge_softmax_sum(logits, _ISOLATED.adjacency("gcn"), 0.2)

    def test_shape_and_slope_checked(self):
        adj = _ISOLATED.adjacency("gin")
        with pytest.raises(ShapeError):
            T.edge_softmax_sum(Tensor(np.zeros((4, 3))), adj, 0.2)
        with pytest.raises(ShapeError):
            T.edge_softmax_sum(Tensor(np.zeros((3, 4))), adj, 0.2)
        with pytest.raises(ValueError):
            T.edge_softmax_sum(Tensor(np.zeros((4, 4))), adj, 1.0)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_stabilized_against_overflow(self):
        out = T.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_matches_direct_formula(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = T.softmax_rows(Tensor(x))
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rejects_nan(self):
        bad = Tensor([[0.0, 1.0]])
        bad.data[0, 0] = np.nan
        with pytest.raises(ValueError):
            T.softmax_rows(bad)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions(self, seed, n, m):
        x = np.random.default_rng(seed).uniform(-50, 50, (n, m))
        y = T.softmax_rows(Tensor(x)).data
        assert (y >= 0).all()
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self, rng):
        x = rng.uniform(-1, 1, (3, 4))
        w = Tensor(rng.uniform(-1, 1, (3, 4)))
        check_grads(
            lambda t: T.sum_all(T.mul(T.softmax_rows(t), w)), x, tol=1e-6
        )


class TestLeakyRelu:
    def test_definition(self):
        out = T.leaky_relu(Tensor([[-1.0, 2.0]]), 0.2)
        np.testing.assert_allclose(out.data, [[-0.2, 2.0]])

    def test_zero_boundary(self):
        assert T.leaky_relu(Tensor([[0.0]]), 0.2).item() == 0.0

    def test_slope_validated(self):
        with pytest.raises(ValueError):
            T.leaky_relu(Tensor([[1.0]]), 1.5)

    def test_gradient(self, rng):
        x = rng.uniform(-1, 1, (3, 3)) + 0.01  # keep away from the kink
        check_grads(lambda t: T.sum_all(T.leaky_relu(t, 0.2)), x, tol=1e-6)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        loss = T.cross_entropy_with_logits(Tensor([[10.0, -10.0]]), [0])
        assert loss.item() < 1e-4

    def test_uniform_two_way_is_ln2(self):
        loss = T.cross_entropy_with_logits(Tensor([[0.0, 0.0]]), [1])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy_with_logits(Tensor([[0.0, 0.0]]), [2])

    def test_gradient(self, rng):
        logits = rng.uniform(-1, 1, (3, 4))
        labels = [0, 3, 1]
        check_grads(
            lambda t: T.cross_entropy_with_logits(t, labels), logits, tol=1e-6
        )


class TestBinaryCrossEntropy:
    def test_hand_value(self):
        # softplus(0) = ln 2 for both rows regardless of target
        loss = T.binary_cross_entropy_with_logits(Tensor([[0.0], [0.0]]), [1, 0])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_extreme_logits_are_stable(self):
        loss = T.binary_cross_entropy_with_logits(Tensor([[800.0], [-800.0]]), [1, 0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_of_very_negative_logits_needs_no_overflow(self):
        # sigmoid(-800) is 0 to double precision; exp(800) may overflow
        # there, even where overflow raises
        with np.errstate(over="raise"):
            (g,) = grad_of(lambda t: T.binary_cross_entropy_with_logits(t, [1, 0]),
                           np.array([[-800.0], [-800.0]]))
        np.testing.assert_array_equal(g, [[-0.5], [0.0]])

    def test_gradient(self, rng):
        z = rng.uniform(-2, 2, (5, 1))
        check_grads(
            lambda t: T.binary_cross_entropy_with_logits(t, [1, 0, 1, 1, 0]),
            z, tol=1e-6,
        )


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = rng.uniform(-1, 1, (3, 2))
        (g,) = grad_of(lambda t: T.sum_all(t), w)
        np.testing.assert_array_equal(g, np.ones((3, 2)))

    def test_linear_gives_a_transpose_ones(self, rng):
        a = rng.uniform(-1, 1, (4, 3))
        w = rng.uniform(-1, 1, (3, 2))
        (g,) = grad_of(lambda t: T.sum_all(T.matmul(Tensor(a), t)), w)
        np.testing.assert_allclose(g, a.T @ np.ones((4, 2)), atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            tape.watch(w)
            out = T.scale(w, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_unreachable_parameter_gets_zeros(self):
        w = Tensor(np.ones((2, 2)))
        other = Tensor(np.ones((3, 1)))
        with Tape() as tape:
            tape.watch(w, other)
            loss = T.sum_all(w)
            grads = tape.backward(loss)
            np.testing.assert_array_equal(grads[other], np.zeros((3, 1)))

    def test_backward_twice_identical(self, rng):
        w = Tensor(rng.uniform(-1, 1, (3, 3)))
        with Tape() as tape:
            tape.watch(w)
            loss = T.sum_all(T.mul(w, w))
            first = tape.backward(loss)[w]
            second = tape.backward(loss)[w]
        np.testing.assert_array_equal(first, second)

    def test_mixing_tapes_rejected(self):
        a, b = Tensor([[1.0]]), Tensor([[2.0]])
        t1, t2 = Tape(), Tape()
        t1.watch(a)
        t2.watch(b)
        with pytest.raises(ValueError):
            T.add(a, b)
        t1.release()
        t2.release()

    def test_release_detaches(self):
        w = Tensor([[1.0]])
        with Tape() as tape:
            tape.watch(w)
        assert w.tape is None and w.node_id is None


class TestFiniteDifference:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 3)))
        g = finite_difference_gradient(lambda t: T.sum_all(t).item(), x)
        np.testing.assert_allclose(g, np.ones((2, 3)), atol=1e-9)

    def test_square_at_three(self):
        g = finite_difference_gradient(
            lambda t: T.sum_all(T.mul(t, t)).item(), Tensor([[3.0]]), h=1e-5
        )
        assert g[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: 0.0, Tensor([[1.0]]), h=0.0)


# Every differentiable op agrees with the central-difference oracle on
# random inputs in [-1, 1].
_OP_CASES = {
    "add": lambda rng: (
        lambda a, b: T.sum_all(T.mul(T.add(a, b), a)),
        [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))],
    ),
    "add_row": lambda rng: (
        lambda a, v: T.sum_all(T.mul(T.add_row(a, v), a)),
        [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (1, 2))],
    ),
    "mul": lambda rng: (
        lambda a, b: T.sum_all(T.mul(a, b)),
        [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))],
    ),
    "scale": lambda rng: (
        lambda a: T.sum_all(T.mul(T.scale(a, -1.7), a)),
        [rng.uniform(-1, 1, (3, 2))],
    ),
    "scale_rows": lambda rng: (
        lambda a: T.sum_all(T.mul(T.scale_rows(a, np.array([2.0, -1.0, 0.5])), a)),
        [rng.uniform(-1, 1, (3, 2))],
    ),
    "matmul": lambda rng: (
        lambda a, b: T.sum_all(T.matmul(a, b)),
        [rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (4, 2))],
    ),
    "transpose": lambda rng, w=None: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (2, 3))): T.sum_all(T.mul(T.transpose(a), w)),
        [rng.uniform(-1, 1, (3, 2))],
    ),
    "relu": lambda rng: (
        lambda a: T.sum_all(T.relu(a)),
        [rng.uniform(-1, 1, (4, 3)) + 0.01],
    ),
    "leaky_relu": lambda rng: (
        lambda a: T.sum_all(T.leaky_relu(a, 0.2)),
        [rng.uniform(-1, 1, (4, 3)) + 0.01],
    ),
    "softmax_rows": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (3, 4))): T.sum_all(T.mul(T.softmax_rows(a), w)),
        [rng.uniform(-1, 1, (3, 4))],
    ),
    "l2_normalize_rows": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (3, 4))): T.sum_all(T.mul(T.l2_normalize_rows(a), w)),
        [rng.uniform(-1, 1, (3, 4)) + 0.5],
    ),
    "rowsum": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 1))): T.sum_all(T.mul(T.rowsum(a), w)),
        [rng.uniform(-1, 1, (4, 3))],
    ),
    "gather_rows": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 2))): T.sum_all(
            T.mul(T.gather_rows(a, [2, 0, 2, 1]), w)),
        [rng.uniform(-1, 1, (3, 2))],
    ),
    "scatter_add_rows": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 2))): T.sum_all(
            T.mul(T.scatter_add_rows(a, [1, 0, 1, 2], 4), w)),
        [rng.uniform(-1, 1, (4, 2))],
    ),
    # GCN and GIN weights on a graph with an isolated node
    "propagate_gcn": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 2))): T.sum_all(
            T.mul(T.propagate(a, _ISOLATED.adjacency("gcn")), w)),
        [rng.uniform(-1, 1, (4, 2))],
    ),
    "propagate_gin": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 2))): T.sum_all(
            T.mul(T.propagate(a, _ISOLATED.adjacency("gin")), w)),
        [rng.uniform(-1, 1, (4, 2))],
    ),
    # M = 3 anchors; logits of both signs reach both LeakyReLU branches
    "edge_softmax_sum_gcn": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 3))): T.sum_all(
            T.mul(T.edge_softmax_sum(a, _ISOLATED.adjacency("gcn"), 0.2), w)),
        [rng.uniform(-2, 2, (4, 6))],
    ),
    "edge_softmax_sum_gin": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (4, 3))): T.sum_all(
            T.mul(T.edge_softmax_sum(a, _ISOLATED.adjacency("gin"), 0.2), w)),
        [rng.uniform(-2, 2, (4, 6))],
    ),
    # rectangular blocks: 4 input rows, 2 output rows
    "propagate_block_gcn": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (2, 2))): T.sum_all(
            T.mul(T.propagate(a, _rect_block("gcn")), w)),
        [rng.uniform(-1, 1, (4, 2))],
    ),
    "propagate_block_gin": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (2, 2))): T.sum_all(
            T.mul(T.propagate(a, _rect_block("gin")), w)),
        [rng.uniform(-1, 1, (4, 2))],
    ),
    "edge_softmax_sum_block_gcn": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (2, 3))): T.sum_all(
            T.mul(T.edge_softmax_sum(a, _rect_block("gcn"), 0.2), w)),
        [rng.uniform(-2, 2, (4, 6))],
    ),
    "edge_softmax_sum_block_gin": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (2, 3))): T.sum_all(
            T.mul(T.edge_softmax_sum(a, _rect_block("gin"), 0.2), w)),
        [rng.uniform(-2, 2, (4, 6))],
    ),
    "slice_rows": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (2, 3))): T.sum_all(
            T.mul(T.slice_rows(a, 1, 3), w)),
        [rng.uniform(-1, 1, (4, 3))],
    ),
    "concat_cols": lambda rng: (
        lambda a, b, w=Tensor(rng.uniform(-1, 1, (3, 5))): T.sum_all(
            T.mul(T.concat_cols(a, b), w)),
        [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 3))],
    ),
    "concat_rows": lambda rng: (
        lambda a, b, w=Tensor(rng.uniform(-1, 1, (5, 2))): T.sum_all(
            T.mul(T.concat_rows(a, b), w)),
        [rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (2, 2))],
    ),
    "cross_entropy": lambda rng: (
        lambda a: T.cross_entropy_with_logits(a, [1, 0, 2]),
        [rng.uniform(-1, 1, (3, 3))],
    ),
    "bce": lambda rng: (
        lambda a: T.binary_cross_entropy_with_logits(a, [1, 0, 0, 1]),
        [rng.uniform(-1, 1, (4, 1))],
    ),
}


@pytest.mark.parametrize("name", sorted(_OP_CASES))
def test_op_gradient_matches_finite_differences(name, rng):
    build, arrays = _OP_CASES[name](rng)
    check_grads(build, *arrays, tol=1e-5)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_composite_expression_gradient(seed):
    # random composite of several ops, still matching the FD oracle
    r = np.random.default_rng(seed)
    a = r.uniform(-1, 1, (4, 3))
    b = r.uniform(-1, 1, (3, 3))
    v = r.uniform(-1, 1, (1, 3))

    def build(ta, tb, tv):
        h = T.relu(T.add_row(T.matmul(ta, tb), tv))
        s = T.softmax_rows(h)
        return T.cross_entropy_with_logits(s, [0, 1, 2, 0])

    for ad, fd in zip(grad_of(build, a, b, v), fd_of(build, a, b, v)):
        assert rel_err(ad, fd) < 1e-5
