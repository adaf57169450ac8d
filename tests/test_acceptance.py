"""Acceptance suite: one test per release criterion, each printing a
PASS line on completion (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria:
  1. autodiff matches central finite differences (every op < 1e-5; full
     tuning losses of all four prompt methods < 1e-4 on small graphs)
  2. edge/feature prompt equivalence: 100 random draws (<= 20 nodes,
     eps in {0, 0.5}) with residual < 1e-9; the 1.1x-detuned coefficient
     exceeds 1e-3
  3. CSBM separation law at (p, q) = (0.8, 0.2): analytic distance
     0.6 * ||mu1 - mu2||, max gain 7/3; witnesses for T in {1.5, 2, 7/3}
     land within +-0.05 over 20 trials at 2000 nodes/class; T = 3 rejected
  4. single-anchor degeneracy: edgeprompt+ with one anchor per layer
     reproduces edgeprompt exactly (forwards and loss histories to 1e-12)
  5. frozen backbone: checkpoint bytes unchanged by every tuning method
  6. synthetic end-to-end ordering: edgeprompt+ >= edgeprompt >=
     classifier-only on 5-shot CSBM node classification, with
     edgeprompt+ at least 2 points above classifier-only
  7. anchor-count sweep in one CLI invocation; the anchors=1 entry
     reproduces criterion 4's equivalence
  8. determinism & persistence: byte-identical artifacts under identical
     configs + seeds (wall-clock fields excluded)
"""

import json

import numpy as np
import pytest

import edgeprompt.tensor as T
from edgeprompt.checkpoint import (
    checkpoint_from_model,
    load_checkpoint,
    load_prompts,
    serialize_checkpoint,
    serialize_prompts,
)
from edgeprompt.cli import main
from edgeprompt.data import (
    CSBMParams,
    LabeledDataset,
    csbm_node_dataset,
    kshot_sample,
    save_dataset,
)
from edgeprompt.errors import ConfigError
from edgeprompt.graph import Graph, disjoint_union, membership_from_offsets
from edgeprompt.models import GNNModel, LinearHead, classifier_forward, readout
from edgeprompt.pretrain import GraphCLPretrainer
from edgeprompt.prompts import EdgePromptPlusParams, NodePromptParams
from edgeprompt.tensor import Tape, Tensor, finite_difference_gradient
from edgeprompt.theory import (
    csbm_expected_distance,
    theorem1_construct_witness,
    theorem1_max_ratio,
    theorem1_verify,
    theorem2_random_trials,
)
from edgeprompt.tuning import METHODS, PromptTuner, prompted_representations

from conftest import random_connected_graph, rel_err
from test_tensor import _OP_CASES, fd_of, grad_of


def announce(criterion, detail):
    print(f"\nACCEPTANCE criterion {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def small_node_ds():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 8, edge_prob=0.5, feature_dim=3)
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
    return LabeledDataset([g], 2, node_labels=[labels])


@pytest.fixture(scope="module")
def small_checkpoint():
    return checkpoint_from_model(
        GNNModel.create("gcn", (3, 4, 4), seed=11), strategy="graphcl", seed=11
    )


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_elementary_op_gradients(rng):
    worst = 0.0
    for name in sorted(_OP_CASES):
        build, arrays = _OP_CASES[name](rng)
        for auto, fd in zip(grad_of(build, *arrays), fd_of(build, *arrays)):
            worst = max(worst, rel_err(auto, fd))
        assert worst < 1e-5, name
    announce(1, f"all {len(_OP_CASES)} elementary ops within 1e-5 "
                f"(worst rel. err {worst:.2e})")


def test_criterion_1_full_tuning_loss_gradients(small_node_ds):
    ds = small_node_ds
    g = ds.graphs[0]
    labels = ds.all_labels()
    train_ids = np.array([0, 1, 2, 5])
    model = GNNModel.create("gcn", (3, 4, 4), seed=3)
    rng = np.random.default_rng(5)
    head = LinearHead.create(rng, 4, 2)

    families = {
        "edgeprompt": EdgePromptPlusParams.shared(model.dims[:-1]),
        "edgeprompt+": EdgePromptPlusParams.create(model.dims[:-1], 3, rng),
        "gpf": NodePromptParams.shared(3),
        "gpf-plus": NodePromptParams.create(3, 2, rng),
    }
    # non-zero prompt state so the loss actually depends on every tensor
    for fam in families.values():
        for t in fam.trainable():
            t.data[:] = rng.uniform(-0.3, 0.3, size=t.data.shape)

    worst = 0.0
    for name, fam in families.items():
        def loss_fn():
            reps = prompted_representations(model, g, fam)
            logits = classifier_forward(head, T.gather_rows(reps, train_ids))
            return T.cross_entropy_with_logits(logits, labels[train_ids])

        trainable = fam.trainable() + [t for _, t in head.parameters()]
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

            fd = finite_difference_gradient(f, Tensor(base))
            worst = max(worst, rel_err(ga, fd))
            assert rel_err(ga, fd) < 1e-4, name
    announce(1, f"full tuning losses of all four prompt methods within 1e-4 "
                f"(worst rel. err {worst:.2e})")


def test_criterion_1_graph_task_loss_gradients(rng):
    graphs = [random_connected_graph(rng, 5, feature_dim=3) for _ in range(4)]
    ds_labels = np.array([0, 1, 1, 0], dtype=np.int64)
    model = GNNModel.create("gin", (3, 4, 4), seed=6)
    head = LinearHead.create(rng, 4, 2)
    fam = EdgePromptPlusParams.create(model.dims[:-1], 2, rng)
    for t in fam.trainable():
        t.data[:] = rng.uniform(-0.3, 0.3, size=t.data.shape)
    union, offsets = disjoint_union(graphs)
    member = membership_from_offsets(offsets)

    def loss_fn():
        reps = readout(prompted_representations(model, union, fam), member, "sum")
        return T.cross_entropy_with_logits(classifier_forward(head, reps), ds_labels)

    trainable = fam.trainable() + [t for _, t in head.parameters()]
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

        assert rel_err(ga, finite_difference_gradient(f, Tensor(base))) < 1e-4
    announce(1, "graph-classification tuning loss gradients within 1e-4")


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_2_prompt_equivalence():
    report = theorem2_random_trials(n_trials=100, max_nodes=20, seed=0,
                                    eps_values=(0.0, 0.5))
    assert report.n_trials == 100
    assert report.max_residual < 1e-9
    assert report.min_control_residual > 1e-3
    assert report.passed
    announce(2, f"100 draws: max residual {report.max_residual:.2e} < 1e-9; "
                f"detuned control min {report.min_control_residual:.2e} > 1e-3")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_separation_law():
    mu1 = np.array([0.5, 0.0])
    mu2 = np.array([-0.5, 0.0])
    params = CSBMParams(mu1, mu2, p=0.8, q=0.2, n_per_class=2000)
    sep = float(np.linalg.norm(mu1 - mu2))
    assert csbm_expected_distance(params) == pytest.approx(0.6 * sep, rel=1e-12)
    assert theorem1_max_ratio(0.8, 0.2) == pytest.approx(7.0 / 3.0, rel=1e-12)
    ratios = {}
    for target in (1.5, 2.0, 7.0 / 3.0):
        witness = theorem1_construct_witness(params, target)
        report = theorem1_verify(params, witness, n_trials=20, seed=0, tolerance=0.05)
        assert report.passed
        assert abs(report.ratio_mean - target) <= 0.05
        ratios[round(target, 4)] = round(report.ratio_mean, 4)
    with pytest.raises(ConfigError):
        theorem1_construct_witness(params, 3.0)
    announce(3, f"analytic d = 0.6*sep, T_max = 7/3; empirical ratios {ratios} "
                "all within +-0.05; T=3.0 rejected")


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_4_single_anchor_degeneracy(small_node_ds, small_checkpoint):
    ds = small_node_ds
    split = kshot_sample(ds, 2, seed=0)
    shared = PromptTuner(small_checkpoint, method="edgeprompt", epochs=40,
                         lr=5e-3, seed=1).fit(ds, split)
    plus = PromptTuner(small_checkpoint, method="edgeprompt+", epochs=40,
                       lr=5e-3, anchors=1, seed=1).fit(ds, split)
    hist_gap = np.max(np.abs(np.array(shared.history_["loss"])
                             - np.array(plus.history_["loss"])))
    assert hist_gap <= 1e-12
    g = ds.graphs[0]
    out_shared = prompted_representations(shared.model_, g, shared.prompts_).data
    out_plus = prompted_representations(plus.model_, g, plus.prompts_).data
    fwd_gap = np.max(np.abs(out_shared - out_plus))
    assert fwd_gap <= 1e-12
    # the learned single anchor and shared vector coincide as well
    for p_vec, anchor in zip(shared.prompts_.anchors, plus.prompts_.anchors):
        assert np.max(np.abs(p_vec.data - anchor.data)) <= 1e-12
    announce(4, f"edgeprompt+ with one anchor per layer == edgeprompt "
                f"(loss-history gap {hist_gap:.1e}, forward gap {fwd_gap:.1e})")


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_frozen_backbone(small_node_ds, small_checkpoint):
    ds = small_node_ds
    split = kshot_sample(ds, 2, seed=0)
    before = serialize_checkpoint(small_checkpoint)
    digest_before = small_checkpoint.digest()
    for method in METHODS:
        PromptTuner(small_checkpoint, method=method, epochs=5, anchors=2,
                    seed=0).fit(ds, split)
        assert serialize_checkpoint(small_checkpoint) == before, method
        assert small_checkpoint.digest() == digest_before, method
    announce(5, f"checkpoint digest {digest_before[:12]}... unchanged by all "
                f"{len(METHODS)} tuning methods")


# ---------------------------------------------------------------------------
# criterion 6: constants calibrated empirically; see the notes in C6


C6 = dict(feature_dim=8, separation=1.0, hidden=4, pre_epochs=20,
          pre_lr=5e-3, node_batch=256, pre_seed=3, tune_epochs=120,
          tune_lr=1e-3, anchors=10, shots=5, seeds=(0, 1, 2, 3, 4))


@pytest.mark.slow
def test_criterion_6_synthetic_ordering():
    d = C6["feature_dim"]
    mu1 = np.zeros(d)
    mu2 = np.zeros(d)
    mu1[0], mu2[0] = C6["separation"] / 2, -C6["separation"] / 2
    ds = csbm_node_dataset(
        CSBMParams(mu1, mu2, p=0.8, q=0.2, n_per_class=500), seed=100)
    pre = GraphCLPretrainer(model_kind="gcn", num_layers=2,
                            hidden_dim=C6["hidden"], epochs=C6["pre_epochs"],
                            node_batch=C6["node_batch"], lr=C6["pre_lr"],
                            seed=C6["pre_seed"]).fit(ds)
    means = {}
    for method in ("classifier-only", "edgeprompt", "edgeprompt+"):
        accs = []
        for seed in C6["seeds"]:
            split = kshot_sample(ds, C6["shots"], seed=seed)
            tuner = PromptTuner(pre.checkpoint_, method=method,
                                epochs=C6["tune_epochs"], lr=C6["tune_lr"],
                                anchors=C6["anchors"], seed=seed)
            tuner.fit(ds, split)
            accs.append(tuner.score(ds, split.test_ids))
        means[method] = float(np.mean(accs))
    assert means["edgeprompt+"] >= means["edgeprompt"] >= means["classifier-only"]
    margin = means["edgeprompt+"] - means["classifier-only"]
    assert margin >= 0.02
    announce(6, "5-seed means: edgeprompt+ "
                f"{means['edgeprompt+']:.3f} >= edgeprompt "
                f"{means['edgeprompt']:.3f} >= classifier-only "
                f"{means['classifier-only']:.3f}; margin {margin*100:.1f} pts")


CORA_ENV = "EDGEPROMPT_CORA_CONTAINER"


@pytest.mark.slow
@pytest.mark.skipif("os.environ.get('EDGEPROMPT_CORA_CONTAINER') is None",
                    reason="optional: set EDGEPROMPT_CORA_CONTAINER to a "
                           "Cora container file to run the non-blocking check")
def test_criterion_6_optional_cora_reproduction():
    # non-blocking companion check: 5-shot edgeprompt+ under GraphCL on a
    # supplied Cora container lands within +-10 points of the reported 62.88
    import os

    from edgeprompt.data import load_dataset

    ds = load_dataset(os.environ[CORA_ENV])
    pre = GraphCLPretrainer(model_kind="gcn", num_layers=2, hidden_dim=128,
                            epochs=50, lr=1e-3, seed=0).fit(ds)
    accs = []
    for seed in range(5):
        split = kshot_sample(ds, 5, seed=seed)
        tuner = PromptTuner(pre.checkpoint_, method="edgeprompt+", epochs=200,
                            lr=1e-3, anchors=10, seed=seed).fit(ds, split)
        accs.append(tuner.score(ds, split.test_ids))
    mean = float(np.mean(accs))
    assert abs(mean - 0.6288) <= 0.10
    announce("6 (optional)", f"Cora 5-shot edgeprompt+ mean {mean:.4f} within "
                             "+-10 points of 62.88")


# ---------------------------------------------------------------------------
# criteria 7 & 8 (CLI level)


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 12, edge_prob=0.5, feature_dim=4)
    labels = (np.arange(12) % 2).astype(np.int64)
    ds = LabeledDataset([g], 2, node_labels=[labels])
    ds_path = root / "ds.json"
    save_dataset(ds, ds_path)
    ck_path = root / "ck.bin"
    rc = main(["pretrain", "--strategy", "graphcl", "--dataset", str(ds_path),
               "--out", str(ck_path), "--hidden", "6", "--epochs", "2",
               "--node-batch", "8", "--seed", "0"])
    assert rc == 0
    return root, str(ds_path), str(ck_path)


def test_criterion_7_anchor_sweep(cli_artifacts):
    root, ds_path, ck_path = cli_artifacts
    out = root / "sweep"
    rc = main(["tune", "--dataset", ds_path, "--checkpoint", ck_path,
               "--method", "edgeprompt+", "--shots", "2", "--epochs", "8",
               "--lr", "0.005", "--seeds", "0", "--anchors", "1,5,10,20,50",
               "--out-dir", str(out), "--prefix", "sweep"])
    assert rc == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert [run["anchors"] for run in report["runs"]] == [1, 5, 10, 20, 50]
    # anchors=1 reproduces the edgeprompt loss history (criterion 4 at CLI level)
    rc = main(["tune", "--dataset", ds_path, "--checkpoint", ck_path,
               "--method", "edgeprompt", "--shots", "2", "--epochs", "8",
               "--lr", "0.005", "--seeds", "0",
               "--out-dir", str(out), "--prefix", "shared"])
    assert rc == 0
    shared = json.loads((out / "shared_report.json").read_text())
    h1 = report["runs"][0]["seeds"][0]["loss_history"]
    h2 = shared["runs"][0]["seeds"][0]["loss_history"]
    assert np.max(np.abs(np.array(h1) - np.array(h2))) <= 1e-12
    announce(7, "one invocation swept anchors {1,5,10,20,50}; anchors=1 "
                "history identical to edgeprompt")


def test_criterion_8_determinism_and_persistence(cli_artifacts):
    root, ds_path, ck_path = cli_artifacts
    # identical pretraining configs reproduce checkpoint bytes
    twin = root / "ck_twin.bin"
    rc = main(["pretrain", "--strategy", "graphcl", "--dataset", ds_path,
               "--out", str(twin), "--hidden", "6", "--epochs", "2",
               "--node-batch", "8", "--seed", "0"])
    assert rc == 0
    ck_bytes = open(ck_path, "rb").read()
    assert open(twin, "rb").read() == ck_bytes
    # checkpoint round-trips bit-exactly
    assert serialize_checkpoint(load_checkpoint(ck_path)) == ck_bytes

    outs = []
    for name in ("runA", "runB"):
        out = root / name
        rc = main(["tune", "--dataset", ds_path, "--checkpoint", ck_path,
                   "--method", "edgeprompt+", "--shots", "2", "--epochs", "6",
                   "--anchors", "2", "--seeds", "0,1",
                   "--out-dir", str(out), "--prefix", "t"])
        assert rc == 0
        outs.append(out)
    a, b = outs
    assert (a / "t_report.csv").read_bytes() == (b / "t_report.csv").read_bytes()
    rep_a = json.loads((a / "t_report.json").read_text())
    rep_b = json.loads((b / "t_report.json").read_text())
    rep_a.pop("wall_clock_seconds")
    rep_b.pop("wall_clock_seconds")
    assert rep_a == rep_b
    names = sorted(p.name for p in a.glob("*.prompts"))
    assert names and names == sorted(p.name for p in b.glob("*.prompts"))
    for name in names:
        blob = (a / name).read_bytes()
        assert blob == (b / name).read_bytes()
        # prompt files round-trip bit-exactly too
        assert serialize_prompts(load_prompts(a / name)) == blob
    announce(8, f"byte-identical checkpoint, {len(names)} prompt files, and "
                "CSV across repeated runs; JSON identical minus wall-clock")
