"""Fuzzing the flat ``key=value`` config file.

Each example draws a subcommand and a config for it: lines that keep the
run small, then one to four drawn lines (a flag of the subcommand in
``_`` or ``-`` spelling, or a junk key; a small number, a junk string, an
empty value or a wrong choice), later lines winning; or raw bytes
instead.  ``main`` must end every run in exit code 0, 1 or 2, and a
config line must act as its flag: the same lines given as
``--key=value`` flags end in the same code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprompt.checkpoint import checkpoint_from_model, save_checkpoint, save_prompts
from edgeprompt.cli import OUTPUT_ROOT_ENV, main
from edgeprompt.data import kshot_sample, save_dataset
from edgeprompt.models import GNNModel
from edgeprompt.pretrain import PRETRAINERS
from edgeprompt.tuning import METHODS, PromptTuner

from test_pretrain import two_cliques

# each subcommand's flags (all but --config), and the lines that keep its runs small
FLAGS = {
    "pretrain": ["strategy", "dataset", "out", "model", "layers", "hidden", "epochs", "lr",
                 "batch-size", "seed", "drop-ratio", "perturb-ratio", "temperature",
                 "noise-scale", "mask-ratio", "node-batch"],
    "tune": ["dataset", "checkpoint", "method", "task", "shots", "anchors", "epochs", "lr",
             "batch-size", "readout", "seeds", "out-dir", "prefix"],
    "eval": ["dataset", "checkpoint", "prompts", "json"],
    "theorem1": ["p", "q", "T", "separation", "nodes", "trials", "tolerance", "seed", "out"],
    "theorem2": ["nodes", "trials", "seed", "out"],
    "gen-csbm": ["out", "task", "n-per-class", "p", "q", "p2", "q2", "num-graphs",
                 "feature-dim", "separation", "seed"],
}
SMALL = {
    "pretrain": ["epochs=1", "hidden=4"],
    "tune": ["epochs=1", "seeds=0"],
    "eval": [],
    "theorem1": ["nodes=10", "trials=2"],
    "theorem2": ["nodes=10", "trials=2"],
    "gen-csbm": ["n-per-class=5", "num-graphs=4"],
}

CHOICES = {"pretrain": sorted(PRETRAINERS), "tune": METHODS}

_keys_junk = st.sampled_from(["", "bogus", "x y", "-", "config_", "epochs-"])
# mostly numbers, so that a drawn line is often the only bad one in its config
_values = st.sampled_from(
    [st.integers(-3, 5).map(str)] * 5 + [st.floats(-3, 5).map(repr)] * 2 + [
        st.sampled_from(["abc", "nan", "inf", "1e999", "1,x", "0,,1", "-", "=", " 2 "]),
        st.just(""),
        st.sampled_from(["gcn", "gin", "node", "graph", "sum", "mean", "graphcl",
                         "edgeprompt+", "bogus"]),
    ]).flatmap(lambda values: values)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A node dataset, a checkpoint and a prompt file, built once."""
    root = tmp_path_factory.mktemp("fuzz-config")
    ds = two_cliques(k=6, dim=4, seed=0)
    save_dataset(ds, root / "node.json")
    ckpt = checkpoint_from_model(GNNModel.create("gcn", (4, 4, 4), seed=1),
                                 strategy="graphcl", seed=1)
    save_checkpoint(ckpt, root / "good.ckpt")
    tuner = PromptTuner(ckpt, method="edgeprompt+", epochs=1, anchors=2,
                        seed=0).fit(ds, kshot_sample(ds, 2, seed=0))
    save_prompts(tuner.to_learned_prompts(), root / "good.prompts")
    return root


def _command(root, name, choice=None) -> tuple[list[str], int]:
    """The command line (``choice`` is pretrain's strategy or tune's
    method), and how many of its tokens name the subcommand."""
    ds, ckpt = str(root / "node.json"), str(root / "good.ckpt")
    if name == "pretrain":
        return ["pretrain", "--strategy", choice, "--dataset", ds,
                "--out", str(root / "out.ckpt")], 1
    if name == "tune":
        return ["tune", "--method", choice, "--dataset", ds, "--checkpoint", ckpt,
                "--out-dir", str(root / "tuned")], 1
    if name == "eval":
        return ["eval", "--dataset", ds, "--checkpoint", ckpt,
                "--prompts", str(root / "good.prompts")], 1
    if name == "theorem1":
        return ["verify", "theorem1", "--p", "0.8", "--q", "0.2", "--T", "2.0"], 2
    if name == "theorem2":
        return ["verify", "theorem2"], 2
    return ["gen-csbm", "--out", str(root / "gen.json")], 1


def _line(name, data) -> str:
    if data.draw(st.integers(0, 5)) == 0:
        key = data.draw(_keys_junk)
    else:
        key = data.draw(st.sampled_from(FLAGS[name]))
        if data.draw(st.booleans()):
            key = key.replace("-", "_")
    return f"{key}={data.draw(_values)}"


def test_small_configs_run(root, tmp_path):
    cfg = tmp_path / "run.cfg"
    for name in FLAGS:
        cfg.write_text("".join(f"{line}\n" for line in SMALL[name]), encoding="utf-8")
        # 10 nodes per class are too few for theorem 1's ratio to pass
        expected = 1 if name == "theorem1" else 0
        for choice in CHOICES.get(name, [None]):
            cmd, at = _command(root, name, choice)
            rc = main(cmd[:at] + ["--config", str(cfg)] + cmd[at:])
            assert rc == expected, (name, choice)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_lines_act_as_flags(root, data):
    name = data.draw(st.sampled_from(sorted(FLAGS)))
    choices = CHOICES.get(name, [None])
    cmd, at = _command(root, name, data.draw(st.sampled_from(choices)))
    lines = SMALL[name] + [_line(name, data) for _ in range(data.draw(st.integers(1, 4)))]
    raw = data.draw(st.binary(max_size=40)) if data.draw(st.integers(0, 5)) == 0 else None
    cfg = root / "run.cfg"
    cfg.write_bytes(raw if raw is not None else "".join(f"{line}\n" for line in lines).encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(OUTPUT_ROOT_ENV, str(root / "outputs"))
        by_config = main(cmd[:at] + ["--config", str(cfg)] + cmd[at:])
        assert by_config in (0, 1, 2)
        if raw is None:
            flags = [f"--{key.strip().replace('_', '-')}={value.strip()}"
                     for key, value in (line.split("=", 1) for line in lines)]
            assert main(cmd[:at] + flags + cmd[at:]) == by_config
