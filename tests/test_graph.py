import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprompt.errors import ConfigError, ShapeError
from edgeprompt.graph import (
    Graph,
    disjoint_union,
    membership_from_offsets,
    unique_sorted,
)

from conftest import (
    all_edge_subsets,
    bfs_field,
    graph_with_isolated_nodes,
    isolated_and_hub_rows,
    random_connected_graph,
    random_graph,
)


def line_graph(n, dim=2):
    return Graph(n, [(i, i + 1) for i in range(n - 1)], np.arange(n * dim, dtype=float).reshape(n, dim))


class TestGraphConstruction:
    def test_smallest_graph_csr(self):
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        np.testing.assert_array_equal(g.csr_offsets, [0, 1, 2])
        np.testing.assert_array_equal(g.csr_targets, [1, 0])
        assert g.num_edges == 1
        assert g.num_directed_edges == 2

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (0, 1), (1, 0)], np.zeros((2, 1)))
        assert g.num_edges == 1
        assert g.collapsed_duplicates == 2

    def test_self_loops_dropped_and_counted(self):
        g = Graph(3, [(0, 0), (1, 2), (2, 2)], np.zeros((3, 1)))
        assert g.num_edges == 1
        assert g.dropped_self_loops == 2

    def test_out_of_range_endpoint(self):
        with pytest.raises(IndexError):
            Graph(2, [(0, 5)], np.zeros((2, 1)))

    def test_feature_row_mismatch(self):
        with pytest.raises(ShapeError):
            Graph(3, [], np.zeros((2, 1)))

    def test_undirected_edges_roundtrip(self):
        edges = [(0, 3), (1, 2), (0, 1)]
        g = Graph(4, edges, np.zeros((4, 1)))
        rebuilt = Graph(4, g.undirected_edges(), np.zeros((4, 1)))
        np.testing.assert_array_equal(g.csr_targets, rebuilt.csr_targets)
        np.testing.assert_array_equal(g.csr_offsets, rebuilt.csr_offsets)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_csr_symmetry(self, seed, n):
        g = random_graph(np.random.default_rng(seed), n)
        # reverse lookup of every stored edge succeeds
        pairs = set(zip(g.csr_owners.tolist(), g.csr_targets.tolist()))
        assert len(pairs) == g.num_directed_edges
        assert all((j, i) in pairs for i, j in pairs)
        degs = g.degrees()
        assert degs.sum() == g.num_directed_edges

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_csr_and_edge_list_match_a_sorted_reference(self, seed, n, m):
        r = np.random.default_rng(seed)
        edges = r.integers(0, n, size=(m, 2))
        g = Graph(n, edges, np.zeros((n, 1)))
        canon = sorted({(min(a, b), max(a, b)) for a, b in edges.tolist() if a != b})
        np.testing.assert_array_equal(g.undirected_edges(), np.reshape(canon, (-1, 2)))
        both = sorted(canon + [(b, a) for a, b in canon])
        np.testing.assert_array_equal(g.csr_owners, [a for a, _ in both])
        np.testing.assert_array_equal(g.csr_targets, [b for _, b in both])
        np.testing.assert_array_equal(g.csr_offsets,
                                      np.searchsorted(g.csr_owners, np.arange(n + 1)))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_unique_sorted_matches_np_unique(self, seed, size, high):
        keys = np.random.default_rng(seed).integers(0, high, size=size)
        got, want = unique_sorted(keys), np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestNormalizedAdjacency:
    def test_single_edge_all_half(self):
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        adj = g.adjacency("gcn")
        np.testing.assert_allclose(adj.coeffs, [0.5, 0.5])
        np.testing.assert_allclose(adj.self_coeffs, [0.5, 0.5])

    def test_isolated_node_self_coefficient_one(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 1)))
        adj = g.adjacency("gcn")
        assert adj.self_coeffs[2] == pytest.approx(1.0)
        np.testing.assert_array_equal(adj.rows, [0, 1])

    def test_no_self_loops_variant(self):
        # the GIN operator: unit weights, self term left to the layer
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        adj = g.adjacency("gin")
        np.testing.assert_array_equal(adj.coeffs, [1.0, 1.0])
        assert adj.self_coeffs is None

    def test_built_once_per_graph_and_kind(self):
        g = Graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)))
        assert g.adjacency("gcn") is g.adjacency("gcn")
        assert g.adjacency("gin") is not g.adjacency("gcn")
        with pytest.raises(ConfigError):
            g.adjacency("gat")

    def _dense_reference(self, g):
        a = g.dense_adjacency() + np.eye(g.num_nodes)
        d = a.sum(axis=1)
        inv = 1.0 / np.sqrt(d)
        return inv[:, None] * a * inv[None, :]

    def _reconstruct(self, g):
        adj = g.adjacency("gcn")
        dense = np.zeros((g.num_nodes, g.num_nodes))
        dense[adj.owners, adj.targets] = adj.coeffs
        dense[np.arange(g.num_nodes), np.arange(g.num_nodes)] = adj.self_coeffs
        return dense

    def test_random_6_node_matches_dense_formula(self, rng):
        g = random_graph(rng, 6)
        np.testing.assert_allclose(
            self._reconstruct(g), self._dense_reference(g), atol=1e-12
        )

    def test_exhaustive_up_to_five_nodes(self):
        for n in range(1, 5):
            for edges in all_edge_subsets(n):
                g = Graph(n, edges, np.zeros((n, 1)))
                np.testing.assert_allclose(
                    self._reconstruct(g), self._dense_reference(g), atol=1e-12
                )

    @given(st.integers(0, 2**32 - 1), st.integers(6, 8))
    @settings(max_examples=25, deadline=None)
    def test_random_6_to_8_nodes(self, seed, n):
        g = random_graph(np.random.default_rng(seed), n)
        np.testing.assert_allclose(
            self._reconstruct(g), self._dense_reference(g), atol=1e-12
        )


class TestRestrict:
    """The whole-graph operator restricted to the message-flow chain of
    some rows (``Adjacency.blocks``)."""

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    @pytest.mark.parametrize("seed", range(8))
    def test_field_and_entries(self, kind, seed):
        rng = np.random.default_rng(seed)
        g = graph_with_isolated_nodes(rng, 30, 0.07)
        adj = g.adjacency(kind)
        rows = isolated_and_hub_rows(rng, g)
        for layers in range(1, 5):
            chain = adj.blocks(rows, layers)
            assert len(chain) == layers
            # from the last block back: block l's inputs are its outputs
            # and their neighbours, or every node when the rows left out
            # own under 1/64 of the entries
            outputs = rows
            for block in chain[::-1]:
                if outputs.size == g.num_nodes:
                    assert block is adj
                    continue
                inputs = bfs_field(g, outputs, 1)
                if 64 * np.delete(g.degrees(), inputs).sum() < adj.owners.size:
                    inputs = np.arange(g.num_nodes)
                np.testing.assert_array_equal(block.outputs, outputs)
                np.testing.assert_array_equal(block.inputs, inputs)
                assert (block.num_out, block.num_in) == (outputs.size, inputs.size)
                # the whole graph's entries owned by the outputs, in CSR order
                keep = np.isin(adj.owners, outputs)
                np.testing.assert_array_equal(outputs[block.owners], adj.owners[keep])
                np.testing.assert_array_equal(inputs[block.targets], adj.targets[keep])
                np.testing.assert_array_equal(block.coeffs, adj.coeffs[keep])
                if kind == "gcn":
                    np.testing.assert_array_equal(block.self_coeffs, adj.self_coeffs[outputs])
                else:
                    assert block.self_coeffs is None
                if inputs.size == outputs.size:
                    assert block.own is None
                else:
                    np.testing.assert_array_equal(inputs[block.own], outputs)
                np.testing.assert_array_equal(block.counts,
                                              np.bincount(block.owners, minlength=outputs.size))
                np.testing.assert_array_equal(block.owners[block.starts], block.rows)
                outputs = inputs

    def test_rows_keep_all_entries_inside_the_field(self):
        # on a path, every output row keeps its whole degree
        g = line_graph(9)
        first, last = g.adjacency("gcn").blocks([4], 2)
        np.testing.assert_array_equal(last.outputs, [4])
        np.testing.assert_array_equal(last.inputs, [3, 4, 5])
        np.testing.assert_array_equal(last.counts, [2])
        np.testing.assert_array_equal(last.own, [1])
        np.testing.assert_array_equal(first.outputs, [3, 4, 5])
        np.testing.assert_array_equal(first.inputs, [2, 3, 4, 5, 6])
        np.testing.assert_array_equal(first.counts, [2, 2, 2])
        np.testing.assert_allclose(first.coeffs[:1], [1.0 / 3.0])

    def test_whole_graph_block_is_the_cached_operator(self):
        g = line_graph(5)
        adj = g.adjacency("gin")
        chain = adj.blocks([0], 5)
        assert chain[0] is adj
        assert all(block is not adj for block in chain[1:])
        np.testing.assert_array_equal(chain[1].inputs, np.arange(5))
        assert all(block is adj for block in adj.blocks(np.arange(5), 3))

    def test_nearly_whole_graph_inputs_take_the_graph_operator(self):
        # node 20 is no neighbour of node 0 and owns 1 of 382 entries, so
        # layer 0 runs on the whole graph rather than on a copy of it
        edges = [(a, b) for a in range(20) for b in range(a + 1, 20)] + [(19, 20)]
        g = Graph(21, edges, np.zeros((21, 1)))
        adj = g.adjacency("gcn")
        first, last = adj.blocks([0], 2)
        assert first is adj
        np.testing.assert_array_equal(last.inputs, np.arange(21))
        assert last.num_out == 1 and last.owners.size == 19

    def test_nearly_whole_graph_rows_take_the_graph_operator(self):
        # the rows leave out node 20, which owns 1 of 382 entries
        edges = [(a, b) for a in range(20) for b in range(a + 1, 20)] + [(19, 20)]
        adj = Graph(21, edges, np.zeros((21, 1))).adjacency("gin")
        assert all(block is adj for block in adj.blocks(np.arange(20), 2))

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    def test_whole_components_keep_their_order_as_their_union(self, kind):
        rng = np.random.default_rng(2)
        graphs = [graph_with_isolated_nodes(rng, n, 0.6) for n in (5, 4, 6, 4)]
        graphs[1] = random_connected_graph(rng, 3)  # so that the rows are no whole graph
        union, offsets = disjoint_union(graphs)
        order = [2, 0, 3]
        rows = np.concatenate([np.arange(offsets[k], offsets[k + 1]) for k in order])
        batch = disjoint_union([graphs[k] for k in order])[0].adjacency(kind)
        for block in union.adjacency(kind).blocks(rows, 2):
            np.testing.assert_array_equal(block.inputs, rows)
            np.testing.assert_array_equal(block.outputs, rows)
            assert block.own is None
            for name in ("owners", "targets", "offsets", "coeffs", "self_coeffs"):
                np.testing.assert_array_equal(getattr(block, name), getattr(batch, name))

    def test_field_of_an_isolated_node_has_no_entries(self):
        g = Graph(4, [(0, 1), (1, 2)], np.zeros((4, 1)))
        for block in g.adjacency("gcn").blocks([3], 2):
            np.testing.assert_array_equal(block.outputs, [3])
            np.testing.assert_array_equal(block.inputs, [3])
            assert block.owners.size == 0 and block.starts.size == 0
            assert block.own is None
            np.testing.assert_array_equal(block.self_coeffs, [1.0])

    def test_transpose_holds_the_entries_by_input_row(self):
        g = line_graph(9)
        _, last = g.adjacency("gcn").blocks([4, 8], 2)
        t = last.transpose
        assert (t.num_out, t.num_in) == (last.num_in, last.num_out)
        dense = np.zeros((last.num_out, last.num_in))
        dense[last.owners, last.targets] = last.coeffs
        dense_t = np.zeros((t.num_out, t.num_in))
        dense_t[t.owners, t.targets] = t.coeffs
        np.testing.assert_array_equal(dense_t, dense.T)
        assert np.all(np.diff(t.owners) >= 0)

    @pytest.mark.parametrize("kind", ["gcn", "gin"])
    def test_coeff_sums_are_the_propagation_of_ones(self, kind):
        # bitwise, so a one-anchor prompt mixes exactly as before
        from edgeprompt.tensor import Tensor, propagate

        rng = np.random.default_rng(9)
        for _ in range(10):
            g = graph_with_isolated_nodes(rng, 30, 0.2)
            adj = g.adjacency(kind)
            for block in [adj] + adj.blocks(isolated_and_hub_rows(rng, g), 2):
                ones = propagate(Tensor.ones(block.num_in, 1), block).data
                np.testing.assert_array_equal(block.coeff_sums, ones)


class TestDisjointUnion:
    def test_union_of_one_is_identity(self):
        g = line_graph(3)
        u, offsets = disjoint_union([g])
        np.testing.assert_array_equal(offsets, [0, 3])
        np.testing.assert_array_equal(u.csr_targets, g.csr_targets)
        np.testing.assert_array_equal(u.features, g.features)

    def test_two_graphs_no_cross_edges(self):
        u, offsets = disjoint_union([line_graph(2), line_graph(2)])
        assert u.num_nodes == 4
        assert u.num_edges == 2
        a = u.dense_adjacency()
        assert a[0, 2] == 0 and a[1, 3] == 0
        np.testing.assert_array_equal(offsets, [0, 2, 4])

    def test_feature_dim_mismatch(self):
        with pytest.raises(ShapeError):
            disjoint_union([line_graph(2, dim=2), line_graph(2, dim=3)])

    def test_membership_table(self):
        _, offsets = disjoint_union([line_graph(2), line_graph(3)])
        np.testing.assert_array_equal(membership_from_offsets(offsets), [0, 0, 1, 1, 1])
