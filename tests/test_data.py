import json

import numpy as np
import pytest

from edgeprompt.data import (
    CSBMParams,
    LabeledDataset,
    csbm_generate,
    csbm_graph_dataset,
    csbm_node_dataset,
    kshot_sample,
    load_dataset,
    save_dataset,
)
from edgeprompt.errors import ConfigError, DatasetError, InsufficientDataError
from edgeprompt.graph import Graph


def write_container(tmp_path, payload, name="ds.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def tiny_node_container():
    return {
        "num_classes": 2,
        "task": "node",
        "graphs": [
            {
                "num_nodes": 2,
                "edges": [[0, 1]],
                "features": [[1.0, 0.0], [0.0, 1.0]],
                "node_labels": [0, 1],
            }
        ],
    }


class TestLoadDataset:
    def test_smallest_graph(self, tmp_path):
        ds = load_dataset(write_container(tmp_path, tiny_node_container()))
        g = ds.graphs[0]
        np.testing.assert_array_equal(g.csr_offsets, [0, 1, 2])
        assert g.num_directed_edges == 2
        assert ds.task == "node"

    def test_duplicate_edge_collapses(self, tmp_path):
        payload = tiny_node_container()
        payload["graphs"][0]["edges"] = [[0, 1], [0, 1]]
        ds = load_dataset(write_container(tmp_path, payload))
        assert ds.graphs[0].num_edges == 1
        assert ds.load_stats["collapsed_duplicates"] == 1

    def test_self_loop_dropped_with_count(self, tmp_path, caplog):
        payload = tiny_node_container()
        payload["graphs"][0]["edges"] = [[0, 1], [1, 1]]
        with caplog.at_level("WARNING"):
            ds = load_dataset(write_container(tmp_path, payload))
        assert ds.load_stats["dropped_self_loops"] == 1
        assert any("self-loop" in r.message for r in caplog.records)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        payload = tiny_node_container()
        payload["bogus"] = 1
        with pytest.raises(DatasetError, match="bogus"):
            load_dataset(write_container(tmp_path, payload))

    def test_label_out_of_range_rejected(self, tmp_path):
        payload = tiny_node_container()
        payload["graphs"][0]["node_labels"] = [0, 7]
        with pytest.raises(DatasetError):
            load_dataset(write_container(tmp_path, payload))

    @pytest.mark.parametrize("labels", [["a", 1], 3])
    def test_non_integer_node_labels_name_the_graph(self, tmp_path, labels):
        payload = tiny_node_container()
        payload["graphs"][0]["node_labels"] = labels
        with pytest.raises(DatasetError, match="graph 0"):
            load_dataset(write_container(tmp_path, payload))

    @pytest.mark.parametrize("label", ["x", [1], None])
    def test_non_integer_graph_label_names_the_graph(self, tmp_path, label):
        payload = tiny_node_container()
        payload["task"] = "graph"
        entry = payload["graphs"][0]
        del entry["node_labels"]
        entry["graph_label"] = label
        with pytest.raises(DatasetError, match="graph 0: graph_label"):
            load_dataset(write_container(tmp_path, payload))

    # Found by tests/test_fuzz_dataset.py: each once escaped as a bare
    # OverflowError (ints past int64, an infinite label) or
    # UnicodeDecodeError; float labels were truncated to ints.
    @pytest.mark.parametrize("labels", [[0, 2**63], [0, 1e300], [0, 1.5], [0, True]])
    def test_node_labels_must_be_class_ids(self, tmp_path, labels):
        payload = tiny_node_container()
        payload["graphs"][0]["node_labels"] = labels
        with pytest.raises(DatasetError, match="graph 0: node_labels: expected class ids"):
            load_dataset(write_container(tmp_path, payload))

    @pytest.mark.parametrize("label", [2**63, float("inf"), 1.5, "1", True, 2])
    def test_graph_label_must_be_a_class_id(self, tmp_path, label):
        payload = tiny_node_container()
        payload["task"] = "graph"
        entry = payload["graphs"][0]
        del entry["node_labels"]
        entry["graph_label"] = label
        with pytest.raises(DatasetError, match="graph 0: graph_label: expected class ids"):
            load_dataset(write_container(tmp_path, payload))

    def test_edge_endpoint_past_int64_names_the_graph(self, tmp_path):
        payload = tiny_node_container()
        payload["graphs"][0]["edges"] = [[0, 2**63]]
        with pytest.raises(DatasetError, match="graph 0"):
            load_dataset(write_container(tmp_path, payload))

    # endpoints were once read loosely: 1.5 and true as 1, "1" as 1
    @pytest.mark.parametrize("edges", [
        [[0, 1.5]], [[0, True]], [["1", 0]], [[True, False]], [[0, 1.0]], [[0, None]],
        [[0, 1], [1]], [[0, 1, 1]], [0, 1], {"0": 1}, [[0, 2**70]]])
    def test_edge_endpoints_must_be_json_ints(self, tmp_path, edges):
        payload = tiny_node_container()
        payload["graphs"][0]["edges"] = edges
        with pytest.raises(DatasetError, match="graph 0: edges must be"):
            load_dataset(write_container(tmp_path, payload))

    @pytest.mark.parametrize("edges,count", [([], 0), ([[1, 0]], 1), ([[0, 1], [1, 0]], 1)])
    def test_int_edges_load(self, tmp_path, edges, count):
        payload = tiny_node_container()
        payload["graphs"][0]["edges"] = edges
        assert load_dataset(write_container(tmp_path, payload)).graphs[0].num_edges == count

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        raw = json.dumps(tiny_node_container()).encode("utf-8")
        path.write_bytes(raw.replace(b"node", b"n\xffde", 1))
        with pytest.raises(DatasetError, match="not UTF-8"):
            load_dataset(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_classes": 2,\n  "task": }')
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_save_makes_the_directory(self, tmp_path):
        path = tmp_path / "new" / "ds.json"
        save_dataset(LabeledDataset([Graph(1, [], np.eye(1))], 1,
                                    node_labels=[np.array([0])]), path)
        assert load_dataset(path).graphs[0].num_nodes == 1

    def test_failed_save_leaves_the_old_file_whole(self, tmp_path):
        path = tmp_path / "ds.json"
        g = Graph(2, [(0, 1)], np.eye(2))
        save_dataset(LabeledDataset([g], 2, node_labels=[np.array([0, 1])]), path)
        before = path.read_bytes()
        # a count that JSON cannot encode fails the write part way through
        bad = LabeledDataset([g], np.int64(2), node_labels=[np.array([0, 1])])
        with pytest.raises(TypeError):
            save_dataset(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["ds.json"]

    def test_ten_graph_container_roundtrip_bit_exact(self, tmp_path, rng):
        graphs, labels = [], []
        for k in range(10):
            n = int(rng.integers(3, 7))
            mask = np.triu(rng.random((n, n)) < 0.5, k=1)
            graphs.append(Graph(n, np.argwhere(mask), rng.standard_normal((n, 4))))
            labels.append(int(rng.integers(0, 3)))
        ds = LabeledDataset(graphs, 3, graph_labels=np.array(labels))
        path = tmp_path / "ten.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.task == "graph"
        assert back.node_labels is None
        assert len(back.graphs) == 10
        for orig, re in zip(ds.graphs, back.graphs):
            assert (orig.features == re.features).all()  # bit-exact through JSON
            np.testing.assert_array_equal(orig.csr_targets, re.csr_targets)
        np.testing.assert_array_equal(back.graph_labels, ds.graph_labels)

    def test_exactly_one_label_family(self):
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        with pytest.raises(DatasetError):
            LabeledDataset([g], 2)
        with pytest.raises(DatasetError):
            LabeledDataset([g], 2, node_labels=[np.zeros(2, np.int64)],
                           graph_labels=np.zeros(1, np.int64))


class TestKShotSample:
    def _dataset(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        n = labels.shape[0]
        g = Graph(n, [(i, (i + 1) % n) for i in range(n - 1)], np.zeros((n, 2)))
        return LabeledDataset([g], int(labels.max()) + 1, node_labels=[labels])

    def test_seven_classes_five_shots(self, rng):
        labels = np.repeat(np.arange(7), 20)
        ds = self._dataset(rng.permutation(labels))
        split = kshot_sample(ds, 5, seed=3)
        assert split.train_ids.shape[0] == 35
        train_labels = ds.all_labels()[split.train_ids]
        np.testing.assert_array_equal(np.bincount(train_labels), [5] * 7)

    def test_zero_shots_degenerate(self):
        ds = self._dataset([0, 1, 0, 1])
        split = kshot_sample(ds, 0, seed=0)
        assert split.train_ids.size == 0
        assert split.test_ids.shape[0] == 4

    def test_insufficient_class_named(self):
        ds = self._dataset([0, 0, 0, 1])
        with pytest.raises(InsufficientDataError, match="class 1"):
            kshot_sample(ds, 2, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        labels = np.repeat([0, 1, 2], 30)
        ds = self._dataset(labels)
        a = kshot_sample(ds, 5, seed=11)
        b = kshot_sample(ds, 5, seed=11)
        c = kshot_sample(ds, 5, seed=12)
        np.testing.assert_array_equal(a.train_ids, b.train_ids)
        np.testing.assert_array_equal(a.test_ids, b.test_ids)
        assert not np.array_equal(a.train_ids, c.train_ids)

    def test_partition_is_exact(self):
        labels = np.repeat([0, 1], 10)
        ds = self._dataset(labels)
        split = kshot_sample(ds, 3, seed=5)
        combined = np.sort(np.concatenate([split.train_ids, split.test_ids]))
        np.testing.assert_array_equal(combined, np.arange(20))


class TestCSBM:
    def test_p1_q0_gives_two_cliques(self):
        params = CSBMParams([1.0, 0.0], [0.0, 1.0], p=1.0, q=0.0, n_per_class=2)
        g, labels = csbm_generate(params, seed=0)
        assert g.num_edges == 2
        a = g.dense_adjacency()
        assert a[0, 1] == 1 and a[2, 3] == 1
        assert a[0, 2] == 0
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])

    def test_edgeless(self):
        params = CSBMParams([1.0], [0.0], p=0.0, q=0.0, n_per_class=3)
        g, _ = csbm_generate(params, seed=0)
        assert g.num_edges == 0

    def test_edge_frequencies_match_probabilities(self):
        params = CSBMParams([1.0, 0.0], [0.0, 1.0], p=0.8, q=0.2, n_per_class=500)
        g, labels = csbm_generate(params, seed=7)
        a = g.dense_adjacency()
        same = labels[:, None] == labels[None, :]
        triu = np.triu(np.ones_like(a, dtype=bool), k=1)
        intra_rate = a[same & triu].mean()
        inter_rate = a[~same & triu].mean()
        assert intra_rate == pytest.approx(0.8, abs=0.01)
        assert inter_rate == pytest.approx(0.2, abs=0.01)

    def test_class_means_converge(self):
        # feature means are independent of the edge draw; keep it edgeless
        mu1, mu2 = np.array([2.0, 0.0]), np.array([-2.0, 1.0])
        params = CSBMParams(mu1, mu2, p=0.0, q=0.0, n_per_class=4000)
        g, labels = csbm_generate(params, seed=1)
        bound = 5.0 / np.sqrt(4000)  # 5 sigma / sqrt(n), unit covariance
        assert np.abs(g.features[labels == 0].mean(axis=0) - mu1).max() < bound
        assert np.abs(g.features[labels == 1].mean(axis=0) - mu2).max() < bound

    def test_deterministic_given_seed(self):
        params = CSBMParams([1.0], [0.0], p=0.5, q=0.3, n_per_class=20)
        g1, l1 = csbm_generate(params, seed=9)
        g2, l2 = csbm_generate(params, seed=9)
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(g1.csr_targets, g2.csr_targets)

    def test_rejects_equal_means(self):
        with pytest.raises(ValueError):
            CSBMParams([1.0], [1.0], p=0.5, q=0.5, n_per_class=2)

    # each once escaped the CLI as a bare ValueError (gen-csbm, verify)
    @pytest.mark.parametrize("mu1,mu2,p,q,n", [
        ([1.0], [1.0], 0.5, 0.5, 2), ([1.0], [0.0, 1.0], 0.5, 0.5, 2),
        ([np.nan], [0.0], 0.5, 0.5, 2), ([1.0], [0.0], 1.5, 0.5, 2),
        ([1.0], [0.0], 0.5, -0.1, 2), ([1.0], [0.0], 0.5, 0.5, 0)])
    def test_every_rule_is_a_config_error(self, mu1, mu2, p, q, n):
        with pytest.raises(ConfigError):
            CSBMParams(mu1, mu2, p=p, q=q, n_per_class=n)

    def test_graph_dataset_needs_a_graph(self):
        # num_graphs 0 once wrote a container that load_dataset rejects
        params = CSBMParams([1.0], [0.0], p=0.9, q=0.1, n_per_class=2)
        with pytest.raises(ConfigError, match="num_graphs"):
            csbm_graph_dataset(params, params, num_graphs=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, -2**40])
    def test_negative_seed_is_a_config_error(self, seed):
        params = CSBMParams([1.0], [0.0], p=0.9, q=0.1, n_per_class=2)
        with pytest.raises(ConfigError, match="seed"):
            csbm_generate(params, seed)
        with pytest.raises(ConfigError, match="seed"):
            kshot_sample(csbm_node_dataset(params, 0), 1, seed)

    def test_graph_dataset_alternates_regimes(self):
        p0 = CSBMParams([1.0], [0.0], p=0.9, q=0.1, n_per_class=5)
        p1 = CSBMParams([1.0], [0.0], p=0.1, q=0.9, n_per_class=5)
        ds = csbm_graph_dataset(p0, p1, num_graphs=6, seed=0)
        assert ds.task == "graph"
        np.testing.assert_array_equal(ds.graph_labels, [0, 1, 0, 1, 0, 1])
