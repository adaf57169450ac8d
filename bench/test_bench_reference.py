"""Tests of the benchmark's own reference forward and correctness checks.

The reference is checked against values worked out by hand on a 3-node
path, so it is shown right without the program.  The checks are then
shown to catch a deliberately corrupted program output.

    PYTHONPATH=src python -m pytest -q bench/test_bench_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

# path 0 - 1 - 2 with degrees (1, 2, 1); D~ = diag(2, 3, 2), so
# D~^-1/2 (A + I) D~^-1/2 has diagonal (1/2, 1/3, 1/2) and 1/sqrt(6) on
# the two edges.
PATH = np.array([[0, 1], [1, 2]])
X = np.array([[1.0], [2.0], [3.0]])
S6 = 1.0 / np.sqrt(6.0)
A_HAT = np.array([[0.5, S6, 0.0], [S6, 1.0 / 3.0, S6], [0.0, S6, 0.5]])
GCN_ID = {"layers.0.weight": np.eye(1), "layers.0.bias": np.zeros((1, 1))}
GIN_ID = {"layers.0.mlp.0.weight": np.eye(1), "layers.0.mlp.0.bias": np.zeros((1, 1)),
          "layers.0.mlp.1.weight": np.eye(1), "layers.0.mlp.1.bias": np.zeros((1, 1))}


def test_gcn_path_by_hand():
    h = reference.node_representations("gcn", GCN_ID, 1, 3, PATH, X)
    by_hand = [[0.5 * 1 + S6 * 2], [S6 * 1 + 2 / 3 + S6 * 3], [S6 * 2 + 0.5 * 3]]
    np.testing.assert_allclose(h, by_hand, rtol=0, atol=1e-15)
    np.testing.assert_allclose(h, A_HAT @ X, rtol=0, atol=1e-15)


def test_edgeprompt_adds_coeff_times_prompt_on_edges_only():
    p = {"prompt.0.vector": np.array([[0.25]])}
    h = reference.node_representations("gcn", GCN_ID, 1, 3, PATH, X, "edgeprompt", p)
    # each edge message gains c_ij * p; the self term does not
    shift = 0.25 * np.array([[S6], [2 * S6], [S6]])
    np.testing.assert_allclose(h, A_HAT @ X + shift, rtol=0, atol=1e-15)


def test_edgeprompt_plus_single_anchor_equals_edgeprompt():
    rng = np.random.default_rng(0)
    plus = {"prompt.0.anchors": np.array([[0.25]]),
            "prompt.0.score_weights": rng.normal(size=(2, 1))}
    shared = {"prompt.0.vector": np.array([[0.25]])}
    a = reference.node_representations("gcn", GCN_ID, 1, 3, PATH, X, "edgeprompt+", plus)
    b = reference.node_representations("gcn", GCN_ID, 1, 3, PATH, X, "edgeprompt", shared)
    np.testing.assert_array_equal(a, b)


def test_edgeprompt_plus_scores_by_hand():
    # two anchors; the score of entry (i <- j) is LeakyReLU(h_i - h_j),
    # against 0 for the second anchor
    plus = {"prompt.0.anchors": np.array([[1.0], [0.0]]),
            "prompt.0.score_weights": np.array([[1.0, 0.0], [-1.0, 0.0]])}
    h = reference.node_representations("gcn", GCN_ID, 1, 3, PATH, X, "edgeprompt+",
                                       plus, slope=0.5)

    def prompt(i, j):
        z = X[i, 0] - X[j, 0]
        z = z if z >= 0 else 0.5 * z
        return np.exp(z) / (np.exp(z) + 1.0)

    by_hand = A_HAT @ X + np.array([[S6 * prompt(0, 1)],
                                    [S6 * prompt(1, 0) + S6 * prompt(1, 2)],
                                    [S6 * prompt(2, 1)]])
    np.testing.assert_allclose(h, by_hand, rtol=0, atol=1e-15)


def test_gin_and_gpf_plus_by_hand():
    h = reference.node_representations("gin", GIN_ID, 1, 3, PATH, X)
    np.testing.assert_allclose(h, [[1 + 2], [2 + 1 + 3], [3 + 2]], rtol=0, atol=0)
    gpf = {"prompt.basis": np.array([[1.0], [3.0]]),
           "prompt.score_map": np.array([[0.0, 0.0]])}
    # equal scores: every node gains the basis mean, 2
    h = reference.node_representations("gin", GIN_ID, 1, 3, PATH, X, "gpf-plus", gpf)
    np.testing.assert_allclose(h, [[3 + 4], [4 + 3 + 5], [5 + 4]], rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def tuned():
    from edgeprompt.data import LabeledDataset, kshot_sample
    from edgeprompt.graph import Graph
    from edgeprompt.pretrain import GraphCLPretrainer
    from edgeprompt.tuning import PromptTuner

    rng = np.random.default_rng(7)
    n = 16
    edges = np.argwhere(np.triu(rng.random((n, n)) < 0.3, k=1))
    feats = rng.normal(size=(n, 3))
    labels = np.arange(n) % 2
    inputs = Inputs("node", 2, [n], [edges], [feats], node_labels=labels)
    ds = LabeledDataset([Graph(n, edges, feats)], 2, node_labels=[labels])
    split = kshot_sample(ds, 2, seed=0)
    ckpt = GraphCLPretrainer(hidden_dim=4, epochs=2, node_batch=8, seed=0).fit(ds).checkpoint_
    tuner = PromptTuner(ckpt, method="edgeprompt+", epochs=3, lr=0.05, anchors=3,
                        seed=0).fit(ds, split)
    return tuner, ds, inputs, split.test_ids


def test_reference_check_passes_on_the_program(tuned):
    tuner, ds, inputs, ids = tuned
    checks.check_reference(tuner, ds, inputs, ids, tuner.predict(ds, ids))


def test_reference_check_catches_a_corrupted_forward(tuned):
    tuner, ds, inputs, ids = tuned
    # the program's model copy drifts from the checkpoint the reference reads
    weight = tuner.model_.layers[0].weight
    saved = weight.data.copy()
    weight.data = weight.data + 1e-3
    try:
        with pytest.raises(checks.CheckFailed, match="logits differ"):
            checks.check_reference(tuner, ds, inputs, ids, tuner.predict(ds, ids))
    finally:
        weight.data = saved


def test_reference_check_catches_corrupted_labels(tuned):
    tuner, ds, inputs, ids = tuned
    predicted = tuner.predict(ds, ids).copy()
    predicted[0] = 1 - predicted[0]
    with pytest.raises(checks.CheckFailed, match="predict disagrees"):
        checks.check_reference(tuner, ds, inputs, ids, predicted)


def test_round_trip_catches_a_perturbed_prompt(tuned, tmp_path):
    tuner, ds, inputs, ids = tuned
    predicted = tuner.predict(ds, ids)
    checks.check_round_trip(tuner, ds, ids, predicted, str(tmp_path / "ok"))
    anchors = tuner.prompts_.anchors[0]
    saved = anchors.data.copy()
    anchors.data = anchors.data + 50.0
    try:
        with pytest.raises(checks.CheckFailed, match="reloaded prompts change"):
            checks.check_round_trip(tuner, ds, ids, predicted, str(tmp_path / "bad"))
    finally:
        anchors.data = saved


def test_history_checks_catch_a_small_change():
    loss = 0.6931471805599453
    checks.check_zero_init({"edgeprompt": loss}, loss)
    checks.check_degeneracy([loss, 0.5], [loss, 0.5])
    with pytest.raises(checks.CheckFailed):
        checks.check_zero_init({"edgeprompt": loss + 1e-9}, loss)
    with pytest.raises(checks.CheckFailed):
        checks.check_degeneracy([loss, 0.5], [loss, 0.5 + 1e-9])
    with pytest.raises(checks.CheckFailed):
        checks.check_finite({"fit": [loss, float("nan")]})


def test_a_crashing_check_makes_the_run_incorrect(tmp_path):
    # a check that raises something other than CheckFailed (here a fit
    # that never ran, so its history is missing) has shown nothing right
    run = harness.Run(WORKLOADS["node-dense"], 1, str(tmp_path))
    run.check("passes", lambda: None)
    run.check("wrong output", lambda: checks.check_finite({"fit": [float("nan")]}))
    run.check("crashes", lambda: {}["classifier-only"])
    assert (run.attempted, run.failed) == (3, 2)
    assert [e.split(":")[0] for e in run.errors] == ["wrong output", "crashes"]
