"""Correctness checks run after the timed loop of every workload run.

Each check raises ``CheckFailed`` with a message when the program's
output disagrees with the benchmark's own computation or with a property
the method guarantees.  Program functions are reached through their
modules at call time, so a traced run sees them wrapped.
"""

from __future__ import annotations

import numpy as np

from edgeprompt import checkpoint, graph, models, tuning

import reference

# float64 forward passes of a few hundred thousand terms: 1e-9 relative
# to the largest logit leaves room for summation order, nothing more.
LOGIT_RTOL = 1e-9
# the zero-prompt and one-anchor identities hold to the last bits
HISTORY_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def program_logits(tuner, ds, inputs, ids) -> np.ndarray:
    """Logits through the program's public forward functions."""
    model, prompts, head = tuner.model_, tuner.prompts_, tuner.head_
    if inputs.task == "node":
        reps = tuning.prompted_representations(model, ds.graphs[0], prompts)
        return models.classifier_forward(head, reps).data
    union, offsets = graph.disjoint_union([ds.graphs[i] for i in ids])
    reps = tuning.prompted_representations(model, union, prompts)
    pooled = models.readout(reps, graph.membership_from_offsets(offsets), tuner.readout)
    return models.classifier_forward(head, pooled).data


def reference_logits(tuner, inputs, ids) -> np.ndarray:
    ckpt = tuner.checkpoint
    params = {name: t.data for name, t in tuner.prompts_.named_tensors()}
    params.update({name: t.data for name, t in tuner.head_.parameters()})
    slope = getattr(tuner.prompts_, "leaky_slope", 0.2)
    layers = len(ckpt.dims) - 1
    if inputs.task == "node":
        graphs = [(inputs.num_nodes[0], inputs.edges[0], inputs.features[0])]
        readout = None
    else:
        graphs = [(inputs.num_nodes[i], inputs.edges[i], inputs.features[i]) for i in ids]
        readout = tuner.readout
    return reference.logits(ckpt.model_kind, ckpt.tensors, layers, graphs,
                            tuner.method, params, readout, slope)


def check_reference(tuner, ds, inputs, ids, predicted: np.ndarray) -> float:
    """Program logits, labels and accuracy against the reference.

    Returns the reference accuracy on ``ids``.
    """
    ids = np.asarray(ids)
    prog = program_logits(tuner, ds, inputs, ids)
    ref = reference_logits(tuner, inputs, ids)
    if inputs.task == "node":
        prog, ref = prog[ids], ref[ids]
    _require(prog.shape == ref.shape,
             f"{tuner.method}: logits shape {prog.shape} vs reference {ref.shape}")
    scale = max(1.0, float(np.max(np.abs(ref))))
    gap = float(np.max(np.abs(prog - ref)))
    _require(gap <= LOGIT_RTOL * scale,
             f"{tuner.method}: logits differ from the reference by {gap:.3e}")
    ref_pred = np.argmax(ref, axis=1)
    top2 = np.sort(ref, axis=1)[:, -2:]
    decided = (top2[:, 1] - top2[:, 0]) > LOGIT_RTOL * scale
    mismatch = np.flatnonzero(decided & (ref_pred != predicted))
    _require(mismatch.size == 0,
             f"{tuner.method}: predict disagrees with the reference on "
             f"{mismatch.size} instances, first id {ids[mismatch[:1]]}")
    labels = inputs.labels()[ids]
    acc_ref = float(np.mean(ref_pred == labels))
    acc_prog = float(np.mean(predicted == labels))
    _require(abs(acc_ref - acc_prog) <= np.count_nonzero(~decided) / ids.size,
             f"{tuner.method}: accuracy {acc_prog} vs reference {acc_ref}")
    return acc_ref


def check_frozen(ckpt, digest_before: str) -> None:
    after = ckpt.digest()
    _require(after == digest_before,
             f"backbone digest changed by tuning: {digest_before[:12]} -> {after[:12]}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= HISTORY_RTOL * max(1.0, abs(a), abs(b))


def check_zero_init(first_losses: dict[str, float], baseline: float) -> None:
    """Zero-initialised prompts: every method starts at the probe's loss."""
    for method, loss in first_losses.items():
        _require(_close(loss, baseline),
                 f"{method}: first-epoch loss {loss!r} vs classifier-only {baseline!r}")


def check_degeneracy(single_anchor: list[float], shared: list[float]) -> None:
    """EdgePrompt+ with one anchor per layer retraces EdgePrompt."""
    _require(len(single_anchor) == len(shared), "history lengths differ")
    for epoch, (a, b) in enumerate(zip(single_anchor, shared)):
        _require(_close(a, b),
                 f"epoch {epoch}: one-anchor edgeprompt+ loss {a!r} vs edgeprompt {b!r}")


def check_finite(histories: dict[str, list[float]]) -> None:
    for name, values in histories.items():
        _require(len(values) > 0 and bool(np.all(np.isfinite(values))),
                 f"{name}: loss history empty or not finite")


def _resave(path, save, load) -> tuple[bytes, object]:
    """Load ``path`` and save it again; the two files must be identical."""
    loaded = load(path)
    again = f"{path}.again"
    save(loaded, again)
    with open(path, "rb") as a, open(again, "rb") as b:
        first, second = a.read(), b.read()
    _require(first == second, f"{path}: save -> load -> save changed the bytes")
    return first, loaded


def check_round_trip(tuner, ds, ids, predicted: np.ndarray, out_prefix: str) -> int:
    """Artifacts survive save -> load -> save, and reload to the same predictions.

    Returns the prompt file's size in bytes.
    """
    ck_path = f"{out_prefix}.ckpt"
    checkpoint.save_checkpoint(tuner.checkpoint, ck_path)
    _, ckpt = _resave(ck_path, checkpoint.save_checkpoint, checkpoint.load_checkpoint)
    pr_path = f"{out_prefix}.prompts"
    checkpoint.save_prompts(tuner.to_learned_prompts(), pr_path)
    blob, lp = _resave(pr_path, checkpoint.save_prompts, checkpoint.load_prompts)
    checkpoint.check_compatible(lp, ckpt)
    model = checkpoint.build_model(ckpt)
    params, head = tuning.prompts_from_artifact(lp, model)
    reloaded = tuning.predict_labels(model, params, head, ds, ids, lp.readout)
    diff = np.count_nonzero(reloaded != predicted)
    _require(diff == 0, f"{tuner.method}: reloaded prompts change {diff} predictions")
    return len(blob)
