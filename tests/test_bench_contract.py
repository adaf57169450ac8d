"""The benchmark's reach into the program, run from the tier-1 suite.

``bench/checks.py`` computes logits through public names, apart from the
tuner's own batch path: a node task's through
``tuning.prompted_representations`` and ``models.classifier_forward``, a
graph task's also through ``graph.disjoint_union``,
``graph.membership_from_offsets`` and ``models.readout``.  It reloads the
saved artifacts through ``tuning.prompts_from_artifact`` and
``tuning.predict_labels``.  These tests run those branches, so a change
that breaks them fails here and not only in a benchmark run.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
from edgeprompt import models, tuning  # noqa: E402
from edgeprompt.checkpoint import checkpoint_from_model  # noqa: E402
from edgeprompt.data import kshot_sample  # noqa: E402
from edgeprompt.models import GNNModel  # noqa: E402
from edgeprompt.tuning import PromptTuner  # noqa: E402

from test_pretrain import tiny_graph_dataset, two_cliques  # noqa: E402


def own_logits(tuner, ds, ids):
    """The tuner's logits on its own batch path."""
    batch = tuning._Batch(ds, ids, tuner.model_)
    reps = batch.representations(tuner.prompts_, tuner.readout)
    return models.classifier_forward(tuner.head_, reps).data


def assert_close(prog, own):
    scale = max(1.0, float(np.max(np.abs(own))))
    assert np.max(np.abs(prog - own)) <= checks.LOGIT_RTOL * scale


@pytest.mark.parametrize("method", ["edgeprompt+", "gpf-plus"])
@pytest.mark.parametrize("readout", ["sum", "mean"])
def test_graph_task_logits_match_the_tuner(method, readout):
    ds = tiny_graph_dataset(num_graphs=8, n_per_class=3, seed=2)
    model = GNNModel.create("gin", (ds.feature_dim, 6, 6), seed=1)
    ckpt = checkpoint_from_model(model, strategy="graphcl", seed=1)
    tuner = PromptTuner(ckpt, method=method, epochs=3, lr=0.05, batch_size=4,
                        anchors=2, readout=readout, seed=0)
    tuner.fit(ds, kshot_sample(ds, 2, seed=0))
    ids = np.array([5, 0, 7, 2, 3])
    prog = checks.program_logits(tuner, ds, SimpleNamespace(task="graph"), ids)
    own = own_logits(tuner, ds, ids)
    assert prog.shape == own.shape == (ids.size, ds.num_classes)
    assert_close(prog, own)


@pytest.mark.parametrize("method", tuning.METHODS)
def test_node_task_logits_match_the_tuner(method):
    ds = two_cliques(k=5, dim=4, seed=0)
    model = GNNModel.create("gcn", (ds.feature_dim, 6, 6), seed=1)
    ckpt = checkpoint_from_model(model, strategy="graphcl", seed=1)
    split = kshot_sample(ds, 2, seed=0)
    tuner = PromptTuner(ckpt, method=method, epochs=3, lr=0.05, anchors=2,
                        seed=0).fit(ds, split)
    # the program's logits are every node's; the tuner's, the ids' only
    ids = np.array([7, 0, 4, 9, 2])
    prog = checks.program_logits(tuner, ds, SimpleNamespace(task="node"), ids)
    assert prog.shape == (ds.graphs[0].num_nodes, ds.num_classes)
    assert_close(prog[ids], own_logits(tuner, ds, ids))


def test_round_trip_reloads_to_the_same_predictions(tmp_path):
    ds = tiny_graph_dataset(num_graphs=8, n_per_class=3, seed=2)
    model = GNNModel.create("gin", (ds.feature_dim, 6, 6), seed=1)
    ckpt = checkpoint_from_model(model, strategy="graphcl", seed=1)
    tuner = PromptTuner(ckpt, method="gpf-plus", epochs=3, lr=0.05, batch_size=4,
                        anchors=2, readout="mean", seed=0)
    tuner.fit(ds, kshot_sample(ds, 2, seed=0))
    ids = np.arange(len(ds.graphs))
    size = checks.check_round_trip(tuner, ds, ids, tuner.predict(ds, ids),
                                   str(tmp_path / "run"))
    assert size == (tmp_path / "run.prompts").stat().st_size
