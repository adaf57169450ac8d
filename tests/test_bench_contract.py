"""The benchmark's reach into the program, run from the tier-1 suite.

``bench/checks.py`` computes a graph task's logits through public names
(``graph.disjoint_union``, ``graph.membership_from_offsets`` and
``models.readout``), apart from the tuner's own batch path.  This test
runs that branch, so a change that breaks it fails here and not only in
a benchmark run.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import checks  # noqa: E402
from edgeprompt import tuning  # noqa: E402
from edgeprompt.checkpoint import checkpoint_from_model  # noqa: E402
from edgeprompt.data import kshot_sample  # noqa: E402
from edgeprompt.models import GNNModel  # noqa: E402
from edgeprompt.tuning import PromptTuner  # noqa: E402

from test_pretrain import tiny_graph_dataset  # noqa: E402


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
    own = tuning._Batch(ds, ids).logits(tuner.model_, tuner.prompts_, tuner.head_,
                                        readout).data
    assert prog.shape == own.shape == (ids.size, ds.num_classes)
    scale = max(1.0, float(np.max(np.abs(own))))
    assert np.max(np.abs(prog - own)) <= checks.LOGIT_RTOL * scale
