"""Binary persistence for pre-trained backbones and learned prompts.

Both artifact kinds share one container framing: an 8-byte magic, a
4-byte little-endian length prefix, a UTF-8 JSON header, then raw
little-endian float64 tensor payloads at the offsets the header states
(relative to the end of the header).  Serialization is canonical
(sorted JSON keys, tensors ordered by name), so save -> load -> save is
byte-identical and content digests are stable.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .base import atomic_write
from .errors import CompatibilityError, ConfigError, FormatError, ShapeError
from .models import GNNModel, check_arrays

CHECKPOINT_MAGIC = b"EPCKPT1\x00"
PROMPT_MAGIC = b"EPPRMT1\x00"
VERSION = 1  # the header version of both artifact kinds


@dataclass
class Checkpoint:
    """A frozen backbone: named float64 tensors plus pre-training metadata."""

    model_kind: str
    dims: tuple[int, ...]
    strategy: str
    seed: int
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha256(serialize_checkpoint(self)).hexdigest()


def _serialize(magic: bytes, header_extra: dict, tensors: dict[str, np.ndarray]) -> bytes:
    entries = []
    offset = 0
    payloads = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensor {name!r} must be 2-D, got shape {arr.shape}")
        entries.append({
            "name": name,
            "rows": int(arr.shape[0]),
            "cols": int(arr.shape[1]),
            "byte_offset": offset,
        })
        raw = arr.astype("<f8").tobytes()
        payloads.append(raw)
        offset += len(raw)
    header = dict(header_extra)
    header["tensors"] = entries
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return magic + struct.pack("<I", len(blob)) + blob + b"".join(payloads)


def _deserialize(magic: bytes, data: bytes, path="<bytes>") -> tuple[dict, dict[str, np.ndarray]]:
    if len(data) < len(magic) + 4:
        raise FormatError(f"{path}: truncated file (no header)")
    if data[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {data[:len(magic)]!r}, expected {magic!r}")
    (hlen,) = struct.unpack_from("<I", data, len(magic))
    start = len(magic) + 4
    if len(data) < start + hlen:
        raise FormatError(f"{path}: truncated header ({hlen} bytes declared)")
    try:
        header = json.loads(data[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    if header.get("version") != VERSION:
        raise FormatError(f"{path}: unsupported version {header.get('version')!r}")
    entries = header.get("tensors", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: header tensors must be a list")
    payload = data[start + hlen :]
    tensors: dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name, rows, cols, off = (entry["name"], entry["rows"],
                                     entry["cols"], entry["byte_offset"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed tensor entry {entry!r}") from exc
        if not isinstance(name, str) or not all(
                type(v) is int and v >= 0 for v in (rows, cols, off)):
            raise FormatError(f"{path}: tensor entry {entry!r} needs a string name "
                              "and non-negative int rows, cols and byte_offset")
        if name in tensors:
            raise FormatError(f"{path}: tensor {name!r} is listed twice")
        nbytes = rows * cols * 8
        if off + nbytes > len(payload):
            raise FormatError(
                f"{path}: tensor {name!r} payload [{off}, {off + nbytes}) "
                f"exceeds {len(payload)} available bytes"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=off)
        tensors[name] = arr.reshape(rows, cols).astype(np.float64)
    return header, tensors


def serialize_checkpoint(ckpt: Checkpoint) -> bytes:
    header = {
        "version": VERSION,
        "model": {"kind": ckpt.model_kind, "dims": list(ckpt.dims)},
        "strategy": ckpt.strategy,
        "seed": int(ckpt.seed),
        "metadata": ckpt.metadata,
    }
    return _serialize(CHECKPOINT_MAGIC, header, ckpt.tensors)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    atomic_write(path, serialize_checkpoint(ckpt))


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; shapes must match the declared model
    and every value must be finite."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, tensors = _deserialize(CHECKPOINT_MAGIC, data, path)
    model = header.get("model")
    if not isinstance(model, dict) or "kind" not in model or "dims" not in model:
        raise FormatError(f"{path}: header missing model kind/dims")
    kind, dims = model["kind"], model["dims"]
    if not (isinstance(dims, list) and len(dims) >= 2 and all(_is_int(d, 1) for d in dims)):
        raise FormatError(f"{path}: model dims {dims!r} are not a list of two or more "
                          "positive ints")
    dims = tuple(dims)
    strategy, seed = header.get("strategy", ""), header.get("seed", 0)
    metadata = _header_field(header, "metadata", dict, path, {})
    if not isinstance(strategy, str) or not _is_int(seed, 0):
        raise FormatError(f"{path}: strategy {strategy!r} is not a string "
                          f"or seed {seed!r} not a non-negative int")
    try:
        names = check_arrays(kind, dims, tensors)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    for name in names:
        if not np.isfinite(tensors[name]).all():
            raise FormatError(f"{path}: tensor {name!r} contains NaN or Inf")
    return Checkpoint(
        model_kind=kind,
        dims=dims,
        strategy=strategy,
        seed=seed,
        tensors=tensors,
        metadata=metadata,
    )


def checkpoint_from_model(model: GNNModel, strategy: str, seed: int,
                          metadata: dict | None = None) -> Checkpoint:
    return Checkpoint(
        model_kind=model.kind,
        dims=model.dims,
        strategy=strategy,
        seed=seed,
        tensors=model.state_arrays(),
        metadata=dict(metadata or {}),
    )


def build_model(ckpt: Checkpoint) -> GNNModel:
    """Materialize the frozen backbone a checkpoint describes."""
    return GNNModel.from_arrays(ckpt.model_kind, ckpt.dims, ckpt.tensors)


@dataclass
class LearnedPrompts:
    """Tuned artifacts: prompt tensors + classifier head + provenance.

    ``backbone_digest`` ties the file to the exact checkpoint it was
    tuned against; ``shots``/``split_seed`` pin the split so evaluation
    reproduces the tuning report exactly.
    """

    method: str
    task: str
    shots: int
    split_seed: int
    anchors: list[int] | None
    readout: str
    backbone_digest: str
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha256(serialize_prompts(self)).hexdigest()


def serialize_prompts(lp: LearnedPrompts) -> bytes:
    header = {
        "version": VERSION,
        "method": lp.method,
        "task": lp.task,
        "shots": int(lp.shots),
        "split_seed": int(lp.split_seed),
        "anchors": lp.anchors,
        "readout": lp.readout,
        "backbone_digest": lp.backbone_digest,
        "metadata": lp.metadata,
    }
    return _serialize(PROMPT_MAGIC, header, lp.tensors)


def save_prompts(lp: LearnedPrompts, path) -> None:
    atomic_write(path, serialize_prompts(lp))


def load_prompts(path) -> LearnedPrompts:
    with open(path, "rb") as fh:
        data = fh.read()
    header, tensors = _deserialize(PROMPT_MAGIC, data, path)
    for key in ("method", "task", "shots", "split_seed", "backbone_digest"):
        if key not in header:
            raise FormatError(f"{path}: header missing field {key!r}")
    shots, split_seed = header["shots"], header["split_seed"]
    if not (_is_int(shots, 1) and _is_int(split_seed, 0)):
        raise FormatError(f"{path}: shots {shots!r} must be a positive int and "
                          f"split_seed {split_seed!r} a non-negative int")
    task, readout = header["task"], header.get("readout", "sum")
    if task not in ("node", "graph") or readout not in ("sum", "mean"):
        raise FormatError(f"{path}: task {task!r} or readout {readout!r} is not known")
    return LearnedPrompts(
        method=_header_field(header, "method", str, path),
        task=task,
        shots=shots,
        split_seed=split_seed,
        anchors=_header_field(header, "anchors", list, path),
        readout=readout,
        backbone_digest=_header_field(header, "backbone_digest", str, path),
        tensors=tensors,
        metadata=_header_field(header, "metadata", dict, path, {}),
    )


def _is_int(value, least: int) -> bool:
    """A JSON integer (not a bool) of at least ``least``."""
    return type(value) is int and value >= least


def _header_field(header: dict, key: str, kind: type, path, default=None):
    """``header[key]`` (or ``default`` when absent), which must be a ``kind``."""
    value = header.get(key, default)
    if not isinstance(value, kind):
        raise FormatError(f"{path}: header field {key!r} is not a {kind.__name__}: {value!r}")
    return value


def check_compatible(lp: LearnedPrompts, ckpt: Checkpoint) -> None:
    actual = ckpt.digest()
    if lp.backbone_digest != actual:
        raise CompatibilityError(
            "prompt file was tuned against a different checkpoint: "
            f"expected digest {lp.backbone_digest[:16]}..., "
            f"checkpoint has {actual[:16]}..."
        )
