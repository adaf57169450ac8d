import json
import struct

import numpy as np
import pytest

from edgeprompt.checkpoint import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    LearnedPrompts,
    build_model,
    check_compatible,
    checkpoint_from_model,
    load_checkpoint,
    load_prompts,
    save_checkpoint,
    save_prompts,
    serialize_checkpoint,
    serialize_prompts,
)
from edgeprompt.errors import CompatibilityError, FormatError
from edgeprompt.models import GNNModel


def make_checkpoint(kind="gcn", dims=(3, 4, 2), seed=5):
    model = GNNModel.create(kind, dims, seed=seed)
    return checkpoint_from_model(model, strategy="graphcl", seed=seed,
                                 metadata={"epochs": 3, "temperature": 0.5})


class TestCheckpointRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert set(back.tensors) == set(ckpt.tensors)
        for name in ckpt.tensors:
            assert back.tensors[name].tobytes() == ckpt.tensors[name].tobytes()
        assert back.strategy == "graphcl"
        assert back.metadata == ckpt.metadata

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = make_checkpoint()
        first = serialize_checkpoint(ckpt)
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        again = serialize_checkpoint(load_checkpoint(path))
        assert first == again

    def test_loading_does_not_mutate_file(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        before = path.read_bytes()
        load_checkpoint(path)
        assert path.read_bytes() == before

    def test_digest_stable(self):
        a = make_checkpoint(seed=9)
        b = make_checkpoint(seed=9)
        assert a.digest() == b.digest()
        assert a.digest() != make_checkpoint(seed=10).digest()


class TestCheckpointValidation:
    def test_truncated_file_is_format_error(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        for cut in (3, 10, len(blob) - 5):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        # a GCN tensor set declared as GIN must not load
        ckpt = make_checkpoint(kind="gcn")
        doctored = Checkpoint(
            model_kind="gin", dims=ckpt.dims, strategy=ckpt.strategy,
            seed=ckpt.seed, tensors=ckpt.tensors, metadata=ckpt.metadata,
        )
        path = tmp_path / "ck.bin"
        save_checkpoint(doctored, path)
        with pytest.raises(FormatError, match="gin"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_by_name(self, tmp_path, bad):
        ckpt = make_checkpoint()
        ckpt.tensors["layers.1.weight"][2, 0] = bad
        path = tmp_path / "ck.bin"
        save_checkpoint(ckpt, path)
        with pytest.raises(FormatError, match=r"'layers\.1\.weight' contains NaN or Inf"):
            load_checkpoint(path)

    def test_build_model_reproduces_tensors(self):
        ckpt = make_checkpoint(kind="gin", dims=(2, 3))
        model = build_model(ckpt)
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, ckpt.tensors[name])


class TestLearnedPrompts:
    def _artifact(self, digest="d" * 64):
        return LearnedPrompts(
            method="edgeprompt", task="node", shots=5, split_seed=1,
            anchors=[1, 1], readout="sum", backbone_digest=digest,
            tensors={"prompt.0.vector": np.array([[0.5, -0.5]]),
                     "head.weight": np.eye(2), "head.bias": np.zeros((1, 2))},
            metadata={"epochs": 200},
        )

    def test_round_trip(self, tmp_path):
        lp = self._artifact()
        path = tmp_path / "p.bin"
        save_prompts(lp, path)
        back = load_prompts(path)
        assert back.method == "edgeprompt"
        assert back.shots == 5 and back.split_seed == 1
        for name in lp.tensors:
            assert back.tensors[name].tobytes() == lp.tensors[name].tobytes()
        assert serialize_prompts(back) == serialize_prompts(lp)

    def test_checkpoint_magic_rejected_as_prompts(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(make_checkpoint(), path)
        with pytest.raises(FormatError, match="magic"):
            load_prompts(path)

    def test_digest_compatibility_check(self):
        ckpt = make_checkpoint()
        good = self._artifact(digest=ckpt.digest())
        check_compatible(good, ckpt)  # no raise
        bad = self._artifact(digest="0" * 64)
        with pytest.raises(CompatibilityError):
            check_compatible(bad, ckpt)


def _edit_entry(blob: bytes, index: int, **changes) -> bytes:
    """The container with tensor entry ``index`` of its header changed
    (both magics are 8 bytes)."""
    start = len(CHECKPOINT_MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", blob, len(CHECKPOINT_MAGIC))
    header = json.loads(blob[start:start + hlen])
    header["tensors"][index].update(changes)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return blob[:len(CHECKPOINT_MAGIC)] + struct.pack("<I", len(raw)) + raw + blob[start + hlen:]


def _blob_and_loader(kind):
    if kind == "checkpoint":
        return serialize_checkpoint(make_checkpoint()), load_checkpoint
    return serialize_prompts(TestLearnedPrompts()._artifact()), load_prompts


class TestHeaderValidation:
    @pytest.mark.parametrize("kind", ["checkpoint", "prompts"])
    @pytest.mark.parametrize("field,value", [
        ("rows", -1), ("rows", "2"), ("rows", True), ("rows", 1.0),
        ("cols", -2), ("cols", None), ("byte_offset", -8), ("byte_offset", "0"),
        ("name", 7),
    ])
    def test_bad_entry_is_format_error(self, tmp_path, kind, field, value):
        blob, load = _blob_and_loader(kind)
        path = tmp_path / "a.bin"
        path.write_bytes(_edit_entry(blob, 0, **{field: value}))
        with pytest.raises(FormatError):
            load(path)

    @pytest.mark.parametrize("kind", ["checkpoint", "prompts"])
    def test_negative_rows_do_not_load_as_another_shape(self, tmp_path, kind):
        # a weight declared with rows -1 once came back whole, in its own shape
        blob, load = _blob_and_loader(kind)
        path = tmp_path / "a.bin"
        path.write_bytes(_edit_entry(blob, 1, rows=-1))
        with pytest.raises(FormatError, match="non-negative int"):
            load(path)
