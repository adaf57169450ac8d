"""Fuzzing the JSON headers of the binary artifacts.

Each example rewrites one to three values of a checkpoint or prompt-file
header (any JSON value, or the key removed) or one byte of it, keeping
the container's framing.  The loaders and ``eval`` must end every such file
in an ``EdgePromptError`` subclass, and ``main`` in exit code 0, 1 or 2;
nothing else may escape.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprompt.checkpoint import (
    CHECKPOINT_MAGIC,
    checkpoint_from_model,
    load_checkpoint,
    load_prompts,
    save_checkpoint,
    save_prompts,
)
from edgeprompt.cli import main
from edgeprompt.data import kshot_sample, save_dataset
from edgeprompt.errors import EdgePromptError, FormatError
from edgeprompt.models import GNNModel
from edgeprompt.tuning import PromptTuner

from test_pretrain import two_cliques

_FRAME = len(CHECKPOINT_MAGIC) + 4  # both magics are 8 bytes

_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 12), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6), st.sampled_from(["gcn", "gin", "edgeprompt+", "gpf", "node", "graph"]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _split(blob: bytes) -> tuple[dict, bytes]:
    (hlen,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    return json.loads(blob[_FRAME:_FRAME + hlen]), blob[_FRAME + hlen:]


def _frame(blob: bytes, raw_header: bytes) -> bytes:
    """``blob``'s magic and payload around another header."""
    return (blob[:len(CHECKPOINT_MAGIC)] + struct.pack("<I", len(raw_header))
            + raw_header + _split(blob)[1])


def _dumps(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _paths(value, prefix=()):
    """Every key / index path inside a JSON value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _set_at(header, path, value) -> None:
    """Set the value at ``path``, or remove it when ``value`` is ``...``."""
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    if value is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _mutated(blob: bytes, data) -> bytes:
    """The container with one to three header values replaced or removed,
    or one header byte changed."""
    header = _split(blob)[0]
    if data.draw(st.integers(0, 4)) == 0:
        raw = _dumps(header)
        at = data.draw(st.integers(0, len(raw) - 1))
        return _frame(blob, raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:])
    for _ in range(data.draw(st.integers(1, 3))):
        paths = _paths(header)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        _set_at(header, path, data.draw(_values) if data.draw(st.booleans()) else ...)
    return _frame(blob, _dumps(header))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds = two_cliques(k=5, dim=4, seed=0)
    save_dataset(ds, root / "node.json")
    ckpt = checkpoint_from_model(GNNModel.create("gcn", (4, 6, 6), seed=1),
                                 strategy="graphcl", seed=1)
    save_checkpoint(ckpt, root / "good.ckpt")
    tuner = PromptTuner(ckpt, method="edgeprompt+", epochs=2, anchors=2,
                        seed=0).fit(ds, kshot_sample(ds, 2, seed=0))
    save_prompts(tuner.to_learned_prompts(), root / "good.prompts")
    assert _eval(root, "good.ckpt", "good.prompts") == 0
    return root


def _eval(root, ckpt_name, prompts_name) -> int:
    return main(["eval", "--dataset", str(root / "node.json"),
                 "--checkpoint", str(root / ckpt_name),
                 "--prompts", str(root / prompts_name)])


def _load_or_typed_error(load, path):
    try:
        return load(path)
    except EdgePromptError:
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_checkpoint_header(artifacts, data):
    (artifacts / "bad.ckpt").write_bytes(
        _mutated((artifacts / "good.ckpt").read_bytes(), data))
    ckpt = _load_or_typed_error(load_checkpoint, artifacts / "bad.ckpt")
    prompts = "good.prompts"
    if ckpt is not None:
        # tie the prompt file to the mutated backbone so eval goes past the digest check
        lp = load_prompts(artifacts / "good.prompts")
        lp.backbone_digest = ckpt.digest()
        save_prompts(lp, artifacts / "tied.prompts")
        prompts = "tied.prompts"
    assert _eval(artifacts, "bad.ckpt", prompts) in (0, 1, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_prompt_header(artifacts, data):
    (artifacts / "bad.prompts").write_bytes(
        _mutated((artifacts / "good.prompts").read_bytes(), data))
    _load_or_typed_error(load_prompts, artifacts / "bad.prompts")
    assert _eval(artifacts, "good.ckpt", "bad.prompts") in (0, 1, 2)


def _edit_header(blob: bytes, path, value) -> bytes:
    header = _split(blob)[0]
    _set_at(header, path, value)
    return _frame(blob, _dumps(header))


# Header values the loaders reject.  Some once escaped ``eval`` as a bare
# TypeError, ValueError or AttributeError (dims None, 6, [4, None, 6] and
# ["4", "x", 6]; shots [2]; split_seed -1; backbone_digest 7; metadata
# "x"); the others were read loosely ("2" as 2, 1.5 as 1) or not at all.
@pytest.mark.parametrize("path,value", [
    (("model", "dims"), None), (("model", "dims"), 6), (("model", "dims"), [4, None, 6]),
    (("model", "dims"), ["4", "x", 6]), (("seed",), "1"), (("metadata",), [1]),
])
def test_checkpoint_header_regressions(artifacts, path, value):
    (artifacts / "bad.ckpt").write_bytes(
        _edit_header((artifacts / "good.ckpt").read_bytes(), path, value))
    with pytest.raises(FormatError):
        load_checkpoint(artifacts / "bad.ckpt")
    assert _eval(artifacts, "bad.ckpt", "good.prompts") == 1


@pytest.mark.parametrize("path,value", [
    (("shots",), "2"), (("shots",), [2]), (("split_seed",), -1), (("split_seed",), 1.5),
    (("backbone_digest",), 7), (("metadata",), "x"), (("metadata",), ...),
    (("anchors",), 2), (("method",), ["gpf"]), (("task",), "edge"), (("readout",), None),
])
def test_prompt_header_regressions(artifacts, path, value):
    (artifacts / "bad.prompts").write_bytes(
        _edit_header((artifacts / "good.prompts").read_bytes(), path, value))
    if value is not ...:
        with pytest.raises(FormatError):
            load_prompts(artifacts / "bad.prompts")
    assert _eval(artifacts, "good.ckpt", "bad.prompts") in (0, 1)


@pytest.mark.parametrize("name", ["good.ckpt", "good.prompts"])
def test_tensor_listed_twice_is_format_error(artifacts, name):
    # the second entry once replaced the first, here with another tensor's bytes
    blob = (artifacts / name).read_bytes()
    header = _split(blob)[0]
    header["tensors"].append(dict(header["tensors"][-1], byte_offset=0))
    (artifacts / "twice.bin").write_bytes(_frame(blob, _dumps(header)))
    load = load_checkpoint if name.endswith("ckpt") else load_prompts
    with pytest.raises(FormatError, match="listed twice"):
        load(artifacts / "twice.bin")


def test_zero_class_head_is_format_error(artifacts, capsys):
    # a head with no columns once reached np.argmax of an empty row
    lp = load_prompts(artifacts / "good.prompts")
    lp.tensors["head.weight"] = np.zeros((6, 0))
    lp.tensors["head.bias"] = np.zeros((1, 0))
    save_prompts(lp, artifacts / "bad.prompts")
    assert _eval(artifacts, "good.ckpt", "bad.prompts") == 1
    assert "'head.weight'" in capsys.readouterr().err
