"""Per-layer metrics from a traced run's spans.

Per-method metrics are per tuning epoch: each timed fit's spans are
summed and divided by its epoch count, and the median over the run's
fits is reported.  ``pretrain.*`` is per pre-training epoch in the same
way.  ``graph.graph_init.ms`` and ``graph.disjoint_union.ms`` are per
round (one unit of every kind), ``graph.normalized_adjacency.ms`` and
``checkpoint.*_ms`` per call.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import MB, METHODS

TENSOR_OPS = ("gather_rows", "scatter_add_rows", "scale_rows", "add", "matmul",
              "softmax_rows", "leaky_relu")
MATERIALIZE = {
    "prompts.EdgePromptParams.provider",
    "prompts.EdgePromptParams.provider/materialize",
    "prompts.EdgePromptPlusParams.provider",
    "prompts.EdgePromptPlusParams.provider/materialize",
    "prompts.NodePromptParams.apply",
}
LOSSES = {"pretrain.ntxent_loss", "tensor.cross_entropy_with_logits",
          "tensor.binary_cross_entropy_with_logits"}
CHECKPOINT_CALLS = ("save_checkpoint", "load_checkpoint", "save_prompts", "load_prompts")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _is_op(name: str) -> bool:
    return name.startswith("tensor.") and name.count(".") == 1 \
        and name != "tensor.finite_difference_gradient"


class _Unit:
    """Aggregates over the spans one timed operation caused."""

    def __init__(self, tracer, own, dur, idx: int, stop: int):
        names, parent = tracer.names, tracer.parent
        self.duration = dur[idx]
        self.own = defaultdict(int)
        self.incl = defaultdict(int)
        self.count = defaultdict(int)
        self.ops = 0
        self.edge_bytes = 0
        self.materialize = 0
        self.loss = 0
        self.covered = 0  # tensor and optim spans not nested in another of them
        for i in range(idx + 1, stop):
            name = names[i]
            up = names[parent[i]]
            self.own[name] += own[i]
            self.incl[name] += dur[i]
            self.count[name] += 1
            if _is_op(name):
                self.ops += 1
            self.edge_bytes += tracer.edge_bytes.get(i, 0)
            if name in MATERIALIZE and up not in MATERIALIZE:
                self.materialize += dur[i]
            if name in LOSSES and up not in LOSSES:
                self.loss += dur[i]
            if _layer(name) in ("tensor", "optim") and _layer(up) not in ("tensor", "optim"):
                self.covered += dur[i]


def per_layer(tracer, run, memory_peaks: dict[str, float]) -> tuple[dict, dict]:
    """(metrics, summary): the per-layer metrics and the trace summary."""
    own = tracer.self_times()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    units = defaultdict(list)
    for metric, idx, stop in tracer.units:
        units[metric].append(_Unit(tracer, own, dur, idx, stop))

    def med(metric: str, epochs: int, value) -> float:
        vals = [value(u) / epochs for u in units[metric]]
        return statistics.median(vals) if vals else 0.0

    out: dict[str, tuple[float, str]] = {}
    ns_ms = 1e-6
    for key in METHODS:
        metric, epochs = f"tune_epoch_ms.{key}", run.w.tune_epochs
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_ms.{key}"] = (
                med(metric, epochs, lambda u: u.own[f"tensor.{op}"]) * ns_ms, "ms")
        out[f"tensor.backward_ms.{key}"] = (
            med(metric, epochs, lambda u: u.incl["tensor.Tape.backward"]) * ns_ms, "ms")
        out[f"tensor.ops_per_epoch.{key}"] = (med(metric, epochs, lambda u: u.ops), "count")
        out[f"tensor.edge_rows_mb.{key}"] = (
            med(metric, epochs, lambda u: u.edge_bytes) / MB, "MB")
        out[f"models.model_forward_ms.{key}"] = (
            med(metric, epochs, lambda u: u.incl["models.model_forward"]) * ns_ms, "ms")
        out[f"prompts.materialize_ms.{key}"] = (
            med(metric, epochs, lambda u: u.materialize) * ns_ms, "ms")
        out[f"optim.adam_step_ms.{key}"] = (
            med(metric, epochs, lambda u: u.incl["optim.Adam.step"]) * ns_ms, "ms")
        out[f"mem.traced_peak_mb.{key}"] = (memory_peaks.get(key, 0.0), "MB")
        faults = run.faults.get(metric, [])
        out[f"mem.minor_faults_per_epoch.{key}"] = (
            statistics.median(faults) if faults else 0.0, "count")

    tune_units = [u for key in METHODS for u in units[f"tune_epoch_ms.{key}"]]
    tune_epochs = max(1, len(tune_units) * run.w.tune_epochs)
    timed = [u for group in units.values() for u in group]
    rounds = max(1, run.rounds)
    calls = sum(u.count["graph.normalized_adjacency"] for u in timed)
    out["graph.normalized_adjacency.calls_per_epoch"] = (
        sum(u.count["graph.normalized_adjacency"] for u in tune_units) / tune_epochs, "count")
    out["graph.normalized_adjacency.ms"] = (
        sum(u.incl["graph.normalized_adjacency"] for u in timed) * ns_ms / calls
        if calls else 0.0, "ms")
    out["graph.graph_init.ms"] = (
        sum(u.incl["graph.Graph.__init__"] for u in timed) * ns_ms / rounds, "ms")
    out["graph.disjoint_union.ms"] = (
        sum(u.incl["graph.disjoint_union"] for u in timed) * ns_ms / rounds, "ms")

    pre = "pretrain_epoch_ms"  # one epoch per unit
    out["pretrain.augment_graph_ms"] = (
        med(pre, 1, lambda u: u.incl["pretrain.augment_graph"]) * ns_ms, "ms")
    out["pretrain.model_forward_ms"] = (
        med(pre, 1, lambda u: u.incl["models.model_forward"]) * ns_ms, "ms")
    out["pretrain.backward_ms"] = (
        med(pre, 1, lambda u: u.incl["tensor.Tape.backward"]) * ns_ms, "ms")
    out["pretrain.loss_ms"] = (med(pre, 1, lambda u: u.loss) * ns_ms, "ms")

    # one-off calls outside the timed units: set-up and the artifact checks
    per_call = defaultdict(list)
    wanted = {"data.load_dataset", "data.kshot_sample"} | {
        f"checkpoint.{c}" for c in CHECKPOINT_CALLS}
    for i, name in enumerate(tracer.names):
        if name in wanted:
            per_call[name].append(dur[i] * ns_ms)

    def call_ms(name: str) -> float:
        return statistics.median(per_call[name]) if per_call[name] else 0.0

    out["data.load_dataset_ms"] = (call_ms("data.load_dataset"), "ms")
    out["data.dataset_file_mb"] = (run.dataset_bytes / MB, "MB")
    out["data.kshot_sample_ms"] = (call_ms("data.kshot_sample"), "ms")
    for c in CHECKPOINT_CALLS:
        out[f"checkpoint.{c}_ms"] = (call_ms(f"checkpoint.{c}"), "ms")
    out["checkpoint.prompts_file_kb"] = (
        getattr(run, "prompt_bytes", {}).get("edgeprompt-plus", 0) / 1024, "KB")

    coverage = {}
    for key in METHODS:
        shares = [u.covered / u.duration for u in units[f"tune_epoch_ms.{key}"] if u.duration]
        coverage[key] = statistics.median(shares) if shares else 0.0
    summary = {
        "tensor_optim_share_of_tuning_epoch": coverage,
        "spans": len(tracer.names),
        "rounds": run.rounds,
        "traced_end_to_end": {k: v[0] for k, v in run.end_to_end().items()},
    }
    return out, summary
