import multiprocessing
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeprompt.tensor as T
from edgeprompt.errors import NonFiniteError, ShapeError
from edgeprompt.graph import Graph
from edgeprompt.optim import Adam, overflow_guard, train_step
from edgeprompt.tensor import Tape, Tensor, finite_difference_gradient

from conftest import graph_with_isolated_nodes, rel_err


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


@pytest.fixture
def many_chunks(monkeypatch):
    """Edge kernels in chunks of a few entries (one owner each from width 8
    up) on two runs, so a 30-node graph spans many chunks and the pool's
    thread runs the second half of them."""
    monkeypatch.setattr(T, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(T, "_WORKERS", 2)


def _chunk_count(adj, width):
    return _layout_chunk_count(adj.rows, adj.starts, adj.owners.size, width)


def _layout_chunk_count(rows, starts, size, width):
    los = []
    T._over_chunks(rows, starts, size, width, lambda rows, at, lo, hi, buf: los.append(lo), 0)
    return len(los)


def _owner_sum_chunk_count(targets, width):
    """How many chunks the owner sums by ``targets`` take."""
    t = np.sort(targets)
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    return _layout_chunk_count(t[starts], starts, t.size, width)


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


class TestPairScores:
    def test_hand_dot_products(self):
        h = Tensor([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])
        out = T.pair_scores(h, [0, 1, 2, 1], [1, 1, 0, 2])
        np.testing.assert_array_equal(out.data, [[1.0], [10.0], [8.5], [-2.5]])

    def test_no_pairs(self):
        assert T.pair_scores(Tensor(np.ones((3, 2))), [], []).shape == (0, 1)

    @pytest.mark.parametrize("a, b", [([0, 3], [1, 2]), ([0, 1], [-1, 2])])
    def test_out_of_range_index(self, a, b):
        with pytest.raises(IndexError, match="pair_scores: index"):
            T.pair_scores(Tensor(np.ones((3, 2))), a, b)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="pair_scores"):
            T.pair_scores(Tensor(np.ones((3, 2))), [0, 1, 2], [1, 2])


# node 3 has no entries
_ISOLATED = Graph(4, [(0, 1), (1, 2), (0, 2)], np.zeros((4, 1)))
# a path 0-1-2-3-4 and an isolated node 5
_PATH = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((6, 1)))


# 30 nodes (two of them isolated) and about 300 entries
_CROWD = graph_with_isolated_nodes(np.random.default_rng(9), 30, 0.4)
# h = a _WIDE: rows this wide make chunks of 2^20 / (8 * 4096) = 32 entries
# at the default budget (64 at M = 2048 anchors), so the chunked op cases
# run on the pool.  With a in [0.5, 1], a_i + b_j = (a_i + a_j / 2) c_k is
# at least |c_k| / 2 >= 1/4 from LeakyReLU's kink, on both of its sides.
_WIDE_COLS = 4096
_C = np.random.default_rng(10).choice([-1.0, 1.0], _WIDE_COLS // 2) * \
    np.random.default_rng(11).uniform(0.5, 1.0, _WIDE_COLS // 2)
_WIDE = np.concatenate([_C, _C / 2]).reshape(1, _WIDE_COLS)


def _crowd_block(kind):
    """The one-layer block of every other row of ``_CROWD``."""
    return _CROWD.adjacency(kind).blocks(np.arange(0, 30, 2), 1)[0]


def _chunked_case(op, adj):
    """An op case on rows of width _WIDE_COLS: ``propagate`` of a _WIDE, or
    the edge softmax of logits a _WIDE (M = _WIDE_COLS / 2 anchors)."""
    cols = _WIDE_COLS if op is T.propagate else _WIDE_COLS // 2

    def case(rng):
        w = Tensor(rng.uniform(-1, 1, (adj.num_out, cols)))

        def build(a):
            h = T.matmul(a, Tensor(_WIDE))
            out = T.propagate(h, adj) if op is T.propagate else T.edge_softmax_sum(h, adj, 0.2)
            return T.sum_all(T.mul(out, w))

        return build, [rng.uniform(0.5, 1, (adj.num_in, 1))]

    return case


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


@pytest.mark.usefixtures("many_chunks")
class TestPropagateInChunks(TestPropagate):
    """TestPropagate's checks on many chunks, half of them on the pool."""


@pytest.mark.usefixtures("many_chunks")
class TestEdgeSoftmaxSumInChunks(TestEdgeSoftmaxSum):
    """TestEdgeSoftmaxSum's checks on many chunks, half of them on the pool."""


def _edge_outputs(adj, logits, w):
    """edge_softmax_sum's Z off the tape, Z on it, and the logits gradient."""
    t = Tensor(logits)
    with Tape() as tape:
        tape.watch(t)
        z = T.edge_softmax_sum(t, adj, 0.2)
        grad = tape.backward(T.sum_all(T.mul(z, Tensor(w))))[t]
    return T.edge_softmax_sum(Tensor(logits), adj, 0.2).data, z.data, grad


def _propagate_outputs(adj, x, w):
    (grad,) = grad_of(lambda t: T.sum_all(T.mul(T.propagate(t, adj), Tensor(w))), x)
    return T.propagate(Tensor(x), adj).data, grad


def _chunking_cases():
    """Whole operators and blocks with isolated rows, a path whose end
    rows own one entry each, and a one-entry block."""
    r = np.random.default_rng(11)
    ops = []
    for _ in range(3):
        g = graph_with_isolated_nodes(r, 30, 0.2, isolated=4)
        rows = r.choice(30, size=4, replace=False)
        for kind in ("gcn", "gin"):
            ops += [g.adjacency(kind)] + g.adjacency(kind).blocks(rows, 2)
    for kind in ("gcn", "gin"):
        ops += [_PATH.adjacency(kind), _rect_block(kind), _PATH.adjacency(kind).blocks([0], 1)[0]]
    # M = 10 anchors: numpy sums 10 x 1 pairwise, so one-entry chunks show
    return [(adj, r.uniform(-3, 3, (adj.num_in, 20)), r.uniform(-1, 1, (adj.num_out, 10)),
             r.uniform(-1, 1, (adj.num_in, 3)), r.uniform(-1, 1, (adj.num_out, 3)))
            for adj in ops]


def _owner_sum_cases():
    """Targets for 12 rows, 3 wide: unsorted, repeated, sorted and unsorted
    with rows that receive nothing, one run of a single row, and none."""
    r = np.random.default_rng(12)
    targets = [r.integers(0, 12, 240), np.repeat(r.permutation(12), 20),
               np.sort(r.integers(0, 12, 240)), r.choice([0, 3, 4, 9], 240),
               np.sort(r.choice([1, 2, 10], 240)), np.full(240, 7), np.zeros(0, np.int64)]
    return [(t, r.uniform(-1, 1, (t.size, 3)), r.uniform(-1, 1, (12, 3)),
             r.uniform(-1, 1, (t.size, 3))) for t in targets]


def _whole_array_segment_sum(values, targets, num_rows):
    """The owner sum as one ``reduceat`` over the stably sorted rows."""
    out = np.zeros((num_rows, values.shape[1]))
    if targets.size:
        order = np.argsort(targets, kind="stable")
        tgt = targets[order]
        starts = np.flatnonzero(np.diff(tgt, prepend=-1))
        out[tgt[starts]] = np.add.reduceat(values[order], starts, axis=0)
    return out


def _owner_sum_outputs(targets, msgs, x, w):
    """scatter_add_rows' forward and gather_rows' backward by ``targets``."""
    (grad,) = grad_of(lambda t: T.sum_all(T.mul(T.gather_rows(t, targets), Tensor(w))), x)
    return T.scatter_add_rows(Tensor(msgs), targets, 12).data, grad


def _pair_cases():
    """Pairs of 20 rows, 4 wide, a few of them a row with itself."""
    r = np.random.default_rng(13)
    a, b = r.integers(0, 20, 300), r.integers(0, 20, 300)
    b[::7] = a[::7]
    return a, b, r.uniform(-1, 1, (20, 4)), r.uniform(-1, 1, (300, 1))


def _pair_outputs(score, a, b, h, w):
    """``score``'s E x 1 output and the gradient of <output, w> by h."""
    t = Tensor(h)
    with Tape() as tape:
        tape.watch(t)
        out = score(t, a, b)
        grad = tape.backward(T.sum_all(T.mul(out, Tensor(w))))[t]
    return out.data, grad


def _unfused_pair_scores(h, a, b):
    return T.rowsum(T.mul(T.gather_rows(h, a), T.gather_rows(h, b)))


def _child_edge_softmax(send, adj, logits):
    send.send(T.edge_softmax_sum(Tensor(logits), adj, 0.2).data)


class TestChunks:
    """The edge kernels' owner-aligned chunks and their thread pool."""

    @pytest.mark.parametrize("budget, workers", [(64, 2), (64, 1), (64, 3), (2000, 2)])
    def test_bitwise_for_any_chunking(self, monkeypatch, budget, workers):
        # against one inline chunk: one entry or one owner per chunk, one
        # inline run, more runs than cores, and chunks of several owners
        cases = _chunking_cases()
        want = [_edge_outputs(adj, l, w) + _propagate_outputs(adj, x, v)
                for adj, l, w, x, v in cases]
        assert all(_chunk_count(adj, 10) == 1 for adj, *_ in cases)
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(T, "_WORKERS", workers)
        assert max(_chunk_count(adj, 10) for adj, *_ in cases) > 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            for (adj, l, w, x, v), ref in zip(cases, want):
                got = _edge_outputs(adj, l, w) + _propagate_outputs(adj, x, v)
                for a, b in zip(got, ref):
                    np.testing.assert_array_equal(a, b)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("budget, workers", [(64, 2), (64, 1), (64, 3), (2000, 2)])
    def test_owner_sums_bitwise_for_any_chunking(self, monkeypatch, budget, workers):
        # scatter_add_rows and gather_rows' backward against one inline chunk
        cases = _owner_sum_cases()
        want = [_owner_sum_outputs(*case) for case in cases]
        for (t, msgs, x, w), (fwd, grad) in zip(cases, want):
            np.testing.assert_array_equal(fwd, _whole_array_segment_sum(msgs, t, 12))
            np.testing.assert_array_equal(grad, _whole_array_segment_sum(w, t, 12))
        assert all(_owner_sum_chunk_count(t, 3) <= 1 for t, *_ in cases)
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(T, "_WORKERS", workers)
        assert max(_owner_sum_chunk_count(t, 3) for t, *_ in cases) > 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for case, ref in zip(cases, want):
                for got, exp in zip(_owner_sum_outputs(*case), ref):
                    np.testing.assert_array_equal(got, exp)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("budget, workers", [(64, 2), (64, 1), (64, 3), (2000, 2)])
    def test_pair_scores_bitwise_the_unfused_chain(self, monkeypatch, budget, workers):
        a, b, h, w = _pair_cases()
        want = _pair_outputs(_unfused_pair_scores, a, b, h, w)
        each = np.arange(a.size)

        def chunks():  # the forward's, and the backward's by a and by b
            return (_layout_chunk_count(each, each, a.size, 8),
                    _owner_sum_chunk_count(a, 4), _owner_sum_chunk_count(b, 4))

        assert chunks() == (1, 1, 1)
        monkeypatch.setattr(T, "_CHUNK_BYTES", budget)
        monkeypatch.setattr(T, "_WORKERS", workers)
        assert min(chunks()[1:]) > 2 and (budget < 1000 or chunks()[0] > 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for score in (T.pair_scores, _unfused_pair_scores):
                for got, exp in zip(_pair_outputs(score, a, b, h, w), want):
                    np.testing.assert_array_equal(got, exp)
        finally:
            sys.setswitchinterval(interval)

    def test_wide_op_cases_span_many_chunks(self):
        # criterion 1's chunked cases reach the pool at the default budget
        for adj in (_CROWD.adjacency("gcn"), _crowd_block("gin")):
            assert _chunk_count(adj, _WIDE_COLS) >= 3
            assert _chunk_count(adj, _WIDE_COLS // 2) >= 3

    def test_import_and_one_chunk_start_no_thread(self):
        code = ("import threading, numpy as np; import edgeprompt.tensor as T; "
                "from edgeprompt.graph import Graph; "
                "g = Graph(3, [(0, 1), (1, 2)], np.zeros((3, 1))); "
                "T.edge_softmax_sum(T.Tensor(np.ones((3, 4))), g.adjacency('gcn'), 0.2); "
                "T.propagate(T.Tensor(np.ones((3, 2))), g.adjacency('gin')); "
                "h = T.Tensor(np.ones((3, 2))); t = T.Tape(); t.watch(h); "
                "t.backward(T.sum_all(T.gather_rows(h, [2, 0, 2]))); "
                "t.backward(T.sum_all(T.pair_scores(h, g.csr_owners, g.csr_targets))); "
                "print(T._pool == [], threading.active_count())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, check=True)
        assert out.stdout.split() == ["True", "1"]

    @pytest.mark.usefixtures("many_chunks")
    def test_forked_child_makes_its_own_pool(self):
        adj = _CROWD.adjacency("gcn")
        logits = np.random.default_rng(3).uniform(-3, 3, (30, 8))
        ref = T.edge_softmax_sum(Tensor(logits), adj, 0.2).data
        assert T._pool
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_edge_softmax, args=(send, adj, logits))
        child.start()
        try:
            # without a pool of its own the child's first chunked call hangs
            assert recv.poll(60), "the forked child did not answer"
            out = recv.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert child.exitcode == 0
        np.testing.assert_array_equal(out, ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("many_chunks")
class TestWorkerErrors:
    """An error in a chunk the pool's thread runs reaches the caller as it
    would inline: the trouble sits in the last owner's entries only."""

    def _logits(self, value, spread=0.0):
        adj = _CROWD.adjacency("gcn")
        t = Tensor(np.zeros((30, 6)))
        t.data[adj.owners[-1], 0] = value
        t.data[:, 3:] = spread
        assert _chunk_count(adj, 3) > 2
        return t, adj

    def test_overflow_under_the_guard_is_non_finite(self):
        logits, adj = self._logits(1e308, spread=1e308)
        with pytest.raises(NonFiniteError, match="overflow"):
            with overflow_guard("scores"):
                T.edge_softmax_sum(logits, adj, 0.2)

    def test_nan_past_the_first_chunk(self):
        logits, adj = self._logits(np.nan)
        with pytest.raises(NonFiniteError, match="NaN"):
            T.edge_softmax_sum(logits, adj, 0.2)

    def test_train_step_stops_before_the_update(self):
        logits, adj = self._logits(1e308, spread=1e308)
        before = logits.data.copy()
        opt = Adam([logits], lr=0.1)
        w = Tensor(np.ones((30, 3)))
        with pytest.raises(NonFiniteError, match="step 1"):
            train_step(opt, lambda: T.sum_all(T.mul(T.edge_softmax_sum(logits, adj, 0.2), w)),
                       "step 1")
        np.testing.assert_array_equal(logits.data, before)
        assert opt.step_count == 0


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
    # pairs (2, 2) and (3, 3) score a row with itself
    "pair_scores": lambda rng: (
        lambda a, w=Tensor(rng.uniform(-1, 1, (5, 1))): T.sum_all(
            T.mul(T.pair_scores(a, [0, 2, 1, 3, 2], [1, 2, 3, 3, 0]), w)),
        [rng.uniform(-1, 1, (4, 3))],
    ),
    # chunks of 16 pairs forward and 32 backward at the default budget, on the pool
    "pair_scores_chunked": lambda rng, pairs=np.random.default_rng(14).integers(0, 30, (2, 100)): (
        lambda a, w=Tensor(rng.uniform(-1, 1, (100, 1))): T.sum_all(
            T.mul(T.pair_scores(T.matmul(a, Tensor(_WIDE)), *pairs), w)),
        [rng.uniform(0.5, 1, (30, 1))],
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
    # many chunks, on the pool
    **{f"{op.__name__}_chunked_{name}_{kind}": _chunked_case(op, adj)
       for op in (T.propagate, T.edge_softmax_sum) for kind in ("gcn", "gin")
       for name, adj in (("graph", _CROWD.adjacency(kind)), ("block", _crowd_block(kind)))},
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


def test_all_lists_every_public_function_and_class():
    defined = {name for name, obj in vars(T).items() if not name.startswith("_")
               and isinstance(obj, type | types.FunctionType) and obj.__module__ == T.__name__}
    assert sorted(T.__all__) == sorted(defined)
