"""Fuzzing the JSON dataset container.

Each example rewrites one to three values of a small node or graph
dataset file (any JSON value, or the key or list item removed) or one
byte of its text.  ``load_dataset`` must end every such file in an
``EdgePromptError`` subclass, and ``main`` (``pretrain`` and ``tune`` on
it) in exit code 0, 1 or 2; nothing else may escape.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprompt.checkpoint import checkpoint_from_model, save_checkpoint
from edgeprompt.cli import main
from edgeprompt.data import load_dataset
from edgeprompt.errors import EdgePromptError
from edgeprompt.models import GNNModel
from edgeprompt.pretrain import PRETRAINERS
from edgeprompt.tuning import METHODS

from test_fuzz_headers import _paths, _set_at, _values


def _graph(n, label_key, labels):
    return {"num_nodes": n, "edges": [[k, k + 1] for k in range(n - 1)] + [[0, n - 1]],
            "features": [[float(k), 1.0 - k] for k in range(n)], label_key: labels}


CONTAINERS = {
    "node": {"num_classes": 2, "task": "node",
             "graphs": [_graph(4, "node_labels", [0, 1, 0, 1]),
                        _graph(3, "node_labels", [1, 0, 1])]},
    "graph": {"num_classes": 2, "task": "graph",
              "graphs": [_graph(3 + k % 2, "graph_label", k % 2) for k in range(4)]},
}


def _mutated(container: dict, data) -> bytes:
    """The container's text with one to three values replaced or removed,
    or one byte changed."""
    container = json.loads(json.dumps(container))
    if data.draw(st.integers(0, 4)) == 0:
        raw = json.dumps(container).encode("utf-8")
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    for _ in range(data.draw(st.integers(1, 3))):
        paths = _paths(container)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        _set_at(container, path, data.draw(_values) if data.draw(st.booleans()) else ...)
    return json.dumps(container).encode("utf-8")


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-data")
    ckpt = checkpoint_from_model(GNNModel.create("gcn", (2, 4), seed=1),
                                 strategy="graphcl", seed=1)
    save_checkpoint(ckpt, root / "good.ckpt")
    return root


def _run(root, strategy, method) -> tuple[int, int]:
    data = str(root / "bad.json")
    pretrained = main(["pretrain", "--strategy", strategy, "--dataset", data,
                       "--out", str(root / "out.ckpt"), "--hidden", "4", "--epochs", "1",
                       "--node-batch", "4", "--batch-size", "2"])
    tuned = main(["tune", "--dataset", data, "--checkpoint", str(root / "good.ckpt"),
                  "--method", method, "--shots", "1", "--epochs", "1", "--seeds", "0",
                  "--anchors", "2", "--batch-size", "2", "--out-dir", str(root / "tuned")])
    return pretrained, tuned


@pytest.mark.parametrize("task", sorted(CONTAINERS))
def test_unmutated_containers_run(root, task):
    (root / "bad.json").write_text(json.dumps(CONTAINERS[task]), encoding="utf-8")
    for strategy in PRETRAINERS:
        assert _run(root, strategy, "edgeprompt+") == (0, 0), strategy


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_container(root, data):
    task = data.draw(st.sampled_from(sorted(CONTAINERS)))
    (root / "bad.json").write_bytes(_mutated(CONTAINERS[task], data))
    try:
        load_dataset(root / "bad.json")
    except EdgePromptError:
        pass
    strategy = data.draw(st.sampled_from(sorted(PRETRAINERS)))
    method = data.draw(st.sampled_from(METHODS))
    pretrained, tuned = _run(root, strategy, method)
    assert pretrained in (0, 1, 2) and tuned in (0, 1, 2)
