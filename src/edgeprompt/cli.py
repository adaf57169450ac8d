"""Command-line entry point: pretrain, tune, eval, verify, gen-csbm.

Config precedence is flags > config file > built-in defaults.  The config
file is flat ``key=value`` text; each line is the flag ``--key=value``
(underscores read as hyphens), parsed with the command line.  A flag for
an estimator parameter has no default of its own: when it is not given,
the estimator's default holds.  One
environment variable, ``EDGEPROMPT_OUTPUT_ROOT``, selects the root that
relative output paths are resolved under.

Exit status: 0 success, 1 runtime failure (including failed verification),
2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from .base import atomic_write
from .checkpoint import (
    check_compatible,
    build_model,
    load_checkpoint,
    load_prompts,
    save_checkpoint,
    save_prompts,
)
from .data import (
    CSBMParams,
    csbm_graph_dataset,
    csbm_node_dataset,
    kshot_sample,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, EdgePromptError
from .pretrain import PRETRAINERS
from .theory import (
    theorem1_construct_witness,
    theorem1_verify,
    theorem2_random_trials,
)
from .tuning import METHODS, PromptTuner, evaluate_accuracy, prompts_from_artifact

OUTPUT_ROOT_ENV = "EDGEPROMPT_OUTPUT_ROOT"

CSV_COLUMNS = ["seed", "method", "strategy", "shots", "anchors",
               "train_acc", "test_acc", "epochs"]


def _load_input(loader, path):
    """Missing or unreadable input paths are configuration errors."""
    try:
        return loader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _out_path(path: str) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _write_json(path: str, payload: dict) -> None:
    atomic_write(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc


def _load_config_file(path: str) -> list[str]:
    """The config file's ``key=value`` lines as the flags ``--key=value``."""
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return flags


# ---------------------------------------------------------------------------
# subcommands


# pre-trainer parameters whose flag has another name; the rest match
_PRETRAIN_FLAGS = {"model_kind": "model", "num_layers": "layers", "hidden_dim": "hidden"}


def _cmd_pretrain(args) -> int:
    ds = load_dataset(args.dataset)
    cls = PRETRAINERS[args.strategy]
    est = cls(**{name: getattr(args, flag) for name in cls._param_names()
                 if hasattr(args, flag := _PRETRAIN_FLAGS.get(name, name))}).fit(ds)
    out = _out_path(args.out)
    save_checkpoint(est.checkpoint_, out)
    print(f"pretrained strategy={args.strategy} epochs={est.epochs} "
          f"final_loss={est.history_[-1]:.6f} checkpoint={out}")
    return 0


def _cmd_tune(args) -> int:
    ds = load_dataset(args.dataset)
    if args.task and args.task != ds.task:
        raise ConfigError(f"--task {args.task} but dataset is a {ds.task} task")
    ckpt = _load_input(load_checkpoint, args.checkpoint)
    if not args.seeds:
        raise ConfigError("--seeds must name at least one seed")
    if args.anchors is not None and not args.anchors:
        raise ConfigError("--anchors must name at least one anchor count")
    if args.anchors and len(args.anchors) > 1 and args.method not in ("edgeprompt+", "gpf-plus"):
        raise ConfigError(f"--anchors sweeps anchor counts, which {args.method} does not use")
    knobs = {name: getattr(args, name) for name in ("epochs", "lr", "batch_size", "readout")
             if hasattr(args, name)}
    out_dir = _out_path(args.out_dir)
    started = time.time()
    anchor_counts = args.anchors if args.anchors else [None]
    runs = []
    csv_rows = []
    for anchors in anchor_counts:
        seed_entries = []
        for seed in args.seeds:
            split = kshot_sample(ds, args.shots, seed=seed)
            tuner = PromptTuner(ckpt, method=args.method, anchors=anchors, seed=seed,
                                **knobs).fit(ds, split)
            test_acc = tuner.score(ds, split.test_ids) if split.test_ids.size else None
            entry = {
                "seed": seed,
                "train_acc": tuner.history_["train_acc"][-1],
                "test_acc": test_acc,
                "loss_history": tuner.history_["loss"],
                "train_acc_history": tuner.history_["train_acc"],
                "prompt_file": None,
            }
            if args.method != "classifier-only":
                name = f"{args.prefix}_a{tuner.anchors_[0]}_s{seed}.prompts"
                save_prompts(tuner.to_learned_prompts(), os.path.join(out_dir, name))
                entry["prompt_file"] = name
            seed_entries.append(entry)
            csv_rows.append([seed, args.method, ckpt.strategy, args.shots,
                             tuner.anchors_[0], entry["train_acc"],
                             entry["test_acc"], tuner.epochs])
        accs = [e["test_acc"] for e in seed_entries if e["test_acc"] is not None]
        runs.append({
            "anchors": tuner.anchors_[0],
            "seeds": seed_entries,
            "mean_test_acc": float(np.mean(accs)) if accs else None,
            "std_test_acc": (float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0)
            if accs else None,
        })
    report = {
        "version": 1,
        "command": "tune",
        "config": {
            "dataset": args.dataset,
            "checkpoint": args.checkpoint,
            "method": args.method,
            "task": ds.task,
            "shots": args.shots,
            "epochs": tuner.epochs,
            "lr": tuner.lr,
            "batch_size": tuner.batch_size,
            "readout": tuner.readout,
            "seeds": list(args.seeds),
            "strategy": ckpt.strategy,
        },
        "runs": runs,
        "wall_clock_seconds": time.time() - started,
    }
    _write_json(os.path.join(out_dir, f"{args.prefix}_report.json"), report)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(csv_rows)
    atomic_write(os.path.join(out_dir, f"{args.prefix}_report.csv"),
                 buf.getvalue().encode("utf-8"))
    for run in runs:
        print(f"anchors={run['anchors']} mean_test_acc={run['mean_test_acc']} "
              f"std={run['std_test_acc']}")
    return 0


def _cmd_eval(args) -> int:
    ds = load_dataset(args.dataset)
    ckpt = _load_input(load_checkpoint, args.checkpoint)
    lp = _load_input(load_prompts, args.prompts)
    check_compatible(lp, ckpt)
    if lp.task != ds.task:
        raise ConfigError(f"prompt file was tuned on a {lp.task} task, "
                          f"dataset is {ds.task}")
    model = build_model(ckpt)
    prompts, head = prompts_from_artifact(lp, model)
    split = kshot_sample(ds, lp.shots, seed=lp.split_seed)
    if split.test_ids.size == 0:
        raise ConfigError("test split is empty under the prompt file's shot count")
    acc = evaluate_accuracy(model, prompts, head, ds, split.test_ids, lp.readout)
    print(f"test_accuracy={acc:.6f} ({split.test_ids.size} instances)")
    if args.json:
        _write_json(_out_path(args.json), {
            "command": "eval",
            "accuracy": acc,
            "num_test": int(split.test_ids.size),
            "method": lp.method,
            "shots": lp.shots,
            "split_seed": lp.split_seed,
            "checkpoint_digest": ckpt.digest(),
        })
    return 0


def _class_means(dim: int, separation: float) -> tuple[np.ndarray, np.ndarray]:
    """CSBM class means +-separation/2 on the first of ``dim`` axes."""
    if dim < 1:
        raise ConfigError(f"feature dim must be >= 1, got {dim}")
    mu1, mu2 = np.zeros(dim), np.zeros(dim)
    mu1[0], mu2[0] = separation / 2.0, -separation / 2.0
    return mu1, mu2


def _cmd_verify(args) -> int:
    if args.theorem == "theorem1":
        mu1, mu2 = _class_means(2, args.separation)
        params = CSBMParams(mu1, mu2, p=args.p, q=args.q, n_per_class=args.nodes)
        witness = theorem1_construct_witness(params, args.T)
        report = theorem1_verify(params, witness, n_nodes=args.nodes,
                                 n_trials=args.trials, seed=args.seed,
                                 tolerance=args.tolerance)
        payload = {
            "theorem": "theorem1",
            "params": {"p": args.p, "q": args.q, "T": args.T,
                       "separation": args.separation},
            "witness": {"b11": witness.b11, "b22": witness.b22,
                        "b12": witness.b12, "b21": witness.b21},
            "analytic": {"unprompted": report.analytic_unprompted,
                         "prompted": report.analytic_prompted},
            "empirical": {"unprompted": report.empirical_unprompted,
                          "prompted": report.empirical_prompted,
                          "ratio": report.ratio_mean},
            "half_width": report.ratio_half_width,
            "pass": report.passed,
        }
    else:
        report = theorem2_random_trials(n_trials=args.trials,
                                        max_nodes=args.nodes, seed=args.seed)
        payload = {
            "theorem": "theorem2",
            "params": {"nodes": args.nodes, "trials": args.trials},
            "max_residual": report.max_residual,
            "min_control_residual": report.min_control_residual,
            "pass": report.passed,
        }
    print(json.dumps(payload, indent=2))
    if args.out:
        _write_json(_out_path(args.out), payload)
    return 0 if payload["pass"] else 1


def _cmd_gen_csbm(args) -> int:
    mu1, mu2 = _class_means(args.feature_dim, args.separation)
    params = CSBMParams(mu1, mu2, p=args.p, q=args.q, n_per_class=args.n_per_class)
    if args.task == "node":
        ds = csbm_node_dataset(params, seed=args.seed)
    else:
        p2 = args.p2 if args.p2 is not None else args.q
        q2 = args.q2 if args.q2 is not None else args.p
        other = CSBMParams(mu1, mu2, p=p2, q=q2, n_per_class=args.n_per_class)
        ds = csbm_graph_dataset(params, other, num_graphs=args.num_graphs,
                                seed=args.seed)
    out = _out_path(args.out)
    save_dataset(ds, out)
    print(f"wrote {args.task} dataset: {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgeprompt",
                                     description="Edge-level graph prompt tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("pretrain", help="pre-train a backbone",
                           argument_default=argparse.SUPPRESS)
    p_pre.add_argument("--config", default=None)
    p_pre.add_argument("--strategy", required=True, choices=sorted(PRETRAINERS))
    p_pre.add_argument("--dataset", required=True)
    p_pre.add_argument("--out", required=True)
    p_pre.add_argument("--model", choices=["gcn", "gin"])
    p_pre.add_argument("--layers", type=int)
    p_pre.add_argument("--hidden", type=int)
    p_pre.add_argument("--epochs", type=int)
    p_pre.add_argument("--lr", type=float)
    p_pre.add_argument("--batch-size", type=int)
    p_pre.add_argument("--seed", type=int)
    p_pre.add_argument("--drop-ratio", type=float)
    p_pre.add_argument("--perturb-ratio", type=float)
    p_pre.add_argument("--temperature", type=float)
    p_pre.add_argument("--noise-scale", type=float)
    p_pre.add_argument("--mask-ratio", type=float)
    p_pre.add_argument("--node-batch", type=int)
    p_pre.set_defaults(func=_cmd_pretrain)

    p_tune = sub.add_parser("tune", help="prompt-tune against a frozen checkpoint")
    p_tune.add_argument("--config", default=None)
    p_tune.add_argument("--dataset", required=True)
    p_tune.add_argument("--checkpoint", required=True)
    p_tune.add_argument("--method", required=True, choices=METHODS)
    p_tune.add_argument("--task", default=None, choices=["node", "graph"])
    p_tune.add_argument("--shots", type=int, default=5)
    p_tune.add_argument("--anchors", type=_int_list, default=None,
                        help="anchor prompts per layer; a comma list sweeps")
    p_tune.add_argument("--epochs", type=int, default=argparse.SUPPRESS)
    p_tune.add_argument("--lr", type=float, default=argparse.SUPPRESS)
    p_tune.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    p_tune.add_argument("--readout", default=argparse.SUPPRESS, choices=["sum", "mean"])
    p_tune.add_argument("--seeds", type=_int_list, default=[0, 1, 2, 3, 4])
    p_tune.add_argument("--out-dir", required=True)
    p_tune.add_argument("--prefix", default="tune")
    p_tune.set_defaults(func=_cmd_tune)

    p_eval = sub.add_parser("eval", help="evaluate saved prompts")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--prompts", required=True)
    p_eval.add_argument("--json", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_ver = sub.add_parser("verify", help="run the theorem checks")
    ver_sub = p_ver.add_subparsers(dest="theorem", required=True)
    v1 = ver_sub.add_parser("theorem1")
    v1.add_argument("--config", default=None)
    v1.add_argument("--p", type=float, required=True)
    v1.add_argument("--q", type=float, required=True)
    v1.add_argument("--T", type=float, required=True)
    v1.add_argument("--separation", type=float, default=1.0)
    v1.add_argument("--nodes", type=int, default=2000)
    v1.add_argument("--trials", type=int, default=20)
    v1.add_argument("--tolerance", type=float, default=0.05)
    v1.add_argument("--seed", type=int, default=0)
    v1.add_argument("--out", default=None)
    v1.set_defaults(func=_cmd_verify)
    v2 = ver_sub.add_parser("theorem2")
    v2.add_argument("--config", default=None)
    v2.add_argument("--nodes", type=int, default=20)
    v2.add_argument("--trials", type=int, default=100)
    v2.add_argument("--seed", type=int, default=0)
    v2.add_argument("--out", default=None)
    v2.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen-csbm", help="emit a CSBM dataset container")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--task", default="node", choices=["node", "graph"])
    p_gen.add_argument("--n-per-class", type=int, default=100)
    p_gen.add_argument("--p", type=float, default=0.8)
    p_gen.add_argument("--q", type=float, default=0.2)
    p_gen.add_argument("--p2", type=float, default=None,
                       help="class-1 intra probability (graph task; default q)")
    p_gen.add_argument("--q2", type=float, default=None,
                       help="class-1 inter probability (graph task; default p)")
    p_gen.add_argument("--num-graphs", type=int, default=60)
    p_gen.add_argument("--feature-dim", type=int, default=8)
    p_gen.add_argument("--separation", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen_csbm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # first pass only to locate --config for the chosen subcommand
    try:
        args, _ = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            # config flags go before the subcommand's first flag, so every
            # command-line flag comes later and wins
            first = next(i for i, token in enumerate(argv) if token.startswith("-"))
            argv[first:first] = _load_config_file(args.config)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EdgePromptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
