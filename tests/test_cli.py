import json

import numpy as np
import pytest

from edgeprompt.checkpoint import (
    load_checkpoint,
    load_prompts,
    save_checkpoint,
    save_prompts,
)
from edgeprompt.cli import main
from edgeprompt.data import save_dataset
from edgeprompt.pretrain import PRETRAINERS, LinkPredictionPretrainer
from edgeprompt.tuning import METHODS, PromptTuner

from test_pretrain import tiny_graph_dataset, two_cliques


@pytest.fixture(scope="module")
def node_ds_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "node.json"
    save_dataset(two_cliques(k=5, dim=4, seed=0), path)
    return str(path)


@pytest.fixture(scope="module")
def graph_ds_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "graph.json"
    save_dataset(tiny_graph_dataset(num_graphs=12, n_per_class=4, seed=1), path)
    return str(path)


@pytest.fixture(scope="module")
def ckpt_path(tmp_path_factory, node_ds_path):
    path = str(tmp_path_factory.mktemp("ck") / "ck.bin")
    rc = main(["pretrain", "--strategy", "graphcl", "--dataset", node_ds_path,
               "--out", path, "--hidden", "8", "--epochs", "1",
               "--node-batch", "16", "--seed", "0"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def graph_ckpt_path(tmp_path_factory, graph_ds_path):
    path = str(tmp_path_factory.mktemp("ck") / "graph.bin")
    rc = main(["pretrain", "--strategy", "graphcl", "--dataset", graph_ds_path,
               "--out", path, "--model", "gin", "--hidden", "8", "--epochs", "1",
               "--batch-size", "4"])
    assert rc == 0
    return path


def run_tune(node_ds_path, ckpt_path, out_dir, *extra):
    args = ["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
            "--method", "edgeprompt+", "--task", "node", "--shots", "2",
            "--anchors", "2", "--epochs", "2", "--seeds", "0,1",
            "--out-dir", str(out_dir), *extra]
    return main(args)


class TestPretrainCommand:
    def test_smoke_writes_loadable_checkpoint(self, ckpt_path):
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.strategy == "graphcl"
        assert ckpt.dims == (4, 8, 8)

    def test_left_out_flags_take_the_estimators_defaults(self, node_ds_path, tmp_path,
                                                         capsys):
        out = tmp_path / "ck.bin"
        assert main(["pretrain", "--strategy", "ep-gppt", "--dataset", node_ds_path,
                     "--out", str(out)]) == 0
        defaults = LinkPredictionPretrainer()
        ckpt = load_checkpoint(out)
        assert ckpt.model_kind == defaults.model_kind and ckpt.seed == defaults.seed
        assert ckpt.dims == (4,) + (defaults.hidden_dim,) * defaults.num_layers
        assert ckpt.metadata["epochs"] == defaults.epochs
        assert ckpt.metadata["mask_ratio"] == defaults.mask_ratio
        assert f"epochs={defaults.epochs} " in capsys.readouterr().out

    def test_unknown_strategy_is_usage_error(self, node_ds_path, tmp_path, capsys):
        rc = main(["pretrain", "--strategy", "nonsense", "--dataset",
                   node_ds_path, "--out", str(tmp_path / "x.bin")])
        assert rc == 2

    def test_same_seed_identical_digests(self, node_ds_path, tmp_path):
        paths = [str(tmp_path / f"ck{i}.bin") for i in range(2)]
        for p in paths:
            rc = main(["pretrain", "--strategy", "simgrace", "--dataset",
                       node_ds_path, "--out", p, "--hidden", "8",
                       "--epochs", "2", "--node-batch", "16", "--seed", "9"])
            assert rc == 0
        a, b = (load_checkpoint(p) for p in paths)
        assert a.digest() == b.digest()

    def test_all_strategies_run(self, node_ds_path, tmp_path):
        for strategy in ("ep-gppt", "ep-graphprompt"):
            rc = main(["pretrain", "--strategy", strategy, "--dataset",
                       node_ds_path, "--out", str(tmp_path / f"{strategy}.bin"),
                       "--hidden", "8", "--epochs", "2"])
            assert rc == 0

    def test_divergence_exits_1_without_a_checkpoint(self, node_ds_path, tmp_path, capsys):
        out = tmp_path / "diverged.bin"
        rc = main(["pretrain", "--strategy", "ep-gppt", "--dataset", node_ds_path,
                   "--out", str(out), "--hidden", "8", "--epochs", "3", "--lr", "1e300"])
        assert rc == 1
        assert "ep-gppt, epoch 2 of 3: overflow encountered in matmul" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_more_edges_than_non_edges_exits_2_without_a_checkpoint(self, tmp_path, capsys):
        dense = str(tmp_path / "dense.json")
        assert main(["gen-csbm", "--out", dense, "--n-per-class", "30",
                     "--p", "0.9", "--q", "0.5", "--seed", "0"]) == 0
        out = tmp_path / "dense.bin"
        rc = main(["pretrain", "--strategy", "ep-gppt", "--dataset", dense,
                   "--out", str(out), "--hidden", "4", "--epochs", "1"])
        assert rc == 2
        assert "1226 edges and 544 non-edges" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_usage_error(self, tmp_path):
        rc = main(["pretrain", "--strategy", "graphcl", "--dataset",
                   str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.bin")])
        assert rc == 2

    @staticmethod
    def _pretrain_on_edited(node_ds_path, tmp_path, edit):
        with open(node_ds_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        edit(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw), encoding="utf-8")
        return main(["pretrain", "--strategy", "graphcl", "--dataset", str(bad),
                     "--out", str(tmp_path / "o.bin"), "--epochs", "1"])

    def test_nan_features_exit_1_naming_the_graph(self, node_ds_path, tmp_path, capsys):
        def edit(raw):
            raw["graphs"][0]["features"][2][1] = float("nan")

        assert self._pretrain_on_edited(node_ds_path, tmp_path, edit) == 1
        assert "graph 0: features contain NaN or Inf" in capsys.readouterr().err

    def test_non_object_graph_entry_exit_1_naming_the_graph(self, node_ds_path,
                                                            tmp_path, capsys):
        def edit(raw):
            raw["graphs"].append(5)

        assert self._pretrain_on_edited(node_ds_path, tmp_path, edit) == 1
        assert "graph 1: entry must be an object" in capsys.readouterr().err


class TestTuneCommand:
    def test_report_has_one_entry_per_seed(self, node_ds_path, ckpt_path, tmp_path):
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", "edgeprompt", "--shots", "2", "--epochs", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0  # default --seeds is 0,1,2,3,4
        report = json.loads((tmp_path / "tune_report.json").read_text())
        assert len(report["runs"][0]["seeds"]) == 5
        assert (tmp_path / "tune_report.csv").exists()

    def test_left_out_flags_take_the_tuners_defaults(self, node_ds_path, ckpt_path,
                                                     tmp_path):
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", "edgeprompt+", "--seeds", "0", "--out-dir", str(tmp_path)])
        assert rc == 0
        defaults = PromptTuner(None)
        report = json.loads((tmp_path / "tune_report.json").read_text())
        for name in ("epochs", "lr", "batch_size", "readout"):
            assert report["config"][name] == getattr(defaults, name), name
        assert len(report["runs"][0]["seeds"][0]["loss_history"]) == defaults.epochs
        row = (tmp_path / "tune_report.csv").read_text().splitlines()[1]
        assert row.endswith(f",{defaults.epochs}")

    def test_classifier_only_emits_no_prompt_files(self, node_ds_path, ckpt_path,
                                                   tmp_path):
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", "classifier-only", "--shots", "2", "--epochs", "2",
                   "--seeds", "0", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert not list(tmp_path.glob("*.prompts"))
        report = json.loads((tmp_path / "tune_report.json").read_text())
        assert report["runs"][0]["seeds"][0]["prompt_file"] is None

    def test_mean_equals_mean_of_seed_accuracies(self, node_ds_path, ckpt_path,
                                                 tmp_path):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        report = json.loads((tmp_path / "tune_report.json").read_text())
        run = report["runs"][0]
        accs = [e["test_acc"] for e in run["seeds"]]
        assert run["mean_test_acc"] == pytest.approx(np.mean(accs), abs=1e-12)
        assert run["std_test_acc"] == pytest.approx(np.std(accs, ddof=1), abs=1e-12)

    def test_report_validates_against_schema(self, node_ds_path, ckpt_path,
                                             tmp_path):
        import jsonschema
        from importlib import resources

        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        schema = json.loads(
            resources.files("edgeprompt.schemas")
            .joinpath("run_report.schema.json").read_text()
        )
        report = json.loads((tmp_path / "tune_report.json").read_text())
        jsonschema.validate(report, schema)

    def test_csv_columns_fixed(self, node_ds_path, ckpt_path, tmp_path):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        header = (tmp_path / "tune_report.csv").read_text().splitlines()[0]
        assert header == "seed,method,strategy,shots,anchors,train_acc,test_acc,epochs"

    def test_empty_seed_list_rejected(self, node_ds_path, ckpt_path, tmp_path):
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", "edgeprompt", "--seeds", "",
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_task_mismatch_rejected(self, graph_ds_path, ckpt_path, tmp_path):
        rc = main(["tune", "--dataset", graph_ds_path, "--checkpoint", ckpt_path,
                   "--method", "edgeprompt", "--task", "node",
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_anchor_sweep_one_invocation(self, node_ds_path, ckpt_path, tmp_path):
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", "edgeprompt+", "--shots", "2", "--epochs", "2",
                   "--seeds", "0", "--anchors", "1,2,4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "tune_report.json").read_text())
        assert [run["anchors"] for run in report["runs"]] == [1, 2, 4]
        rows = (tmp_path / "tune_report.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # header + one row per (anchors, seed)

    @pytest.mark.parametrize("method", ["edgeprompt", "gpf", "classifier-only"])
    def test_anchor_sweep_without_anchors_rejected(self, node_ds_path, ckpt_path,
                                                   tmp_path, method, capsys):
        # these methods use no anchor count: a sweep would fit the same run twice
        out = tmp_path / "out"
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", method, "--shots", "2", "--epochs", "2",
                   "--seeds", "0", "--anchors", "2,5", "--out-dir", str(out)])
        assert rc == 2
        assert f"which {method} does not use" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism_byte_stable_outputs(self, node_ds_path, ckpt_path,
                                             tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run_tune(node_ds_path, ckpt_path, d) == 0
        csv_a = (dirs[0] / "tune_report.csv").read_bytes()
        csv_b = (dirs[1] / "tune_report.csv").read_bytes()
        assert csv_a == csv_b
        reports = []
        for d in dirs:
            rep = json.loads((d / "tune_report.json").read_text())
            rep.pop("wall_clock_seconds")
            reports.append(rep)
        assert reports[0] == reports[1]
        prompts_a = sorted(p.name for p in dirs[0].glob("*.prompts"))
        assert prompts_a == sorted(p.name for p in dirs[1].glob("*.prompts"))
        for name in prompts_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestEvalCommand:
    def test_reproduces_report_accuracy_exactly(self, node_ds_path, ckpt_path,
                                                tmp_path, capsys):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        report = json.loads((tmp_path / "tune_report.json").read_text())
        entry = report["runs"][0]["seeds"][0]
        prompt_path = tmp_path / entry["prompt_file"]
        rc = main(["eval", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--prompts", str(prompt_path),
                   "--json", str(tmp_path / "eval.json")])
        assert rc == 0
        out = json.loads((tmp_path / "eval.json").read_text())
        assert out["accuracy"] == pytest.approx(entry["test_acc"], abs=0)

    def test_digest_mismatch_exits_2(self, node_ds_path, ckpt_path, tmp_path):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        prompt_path = next(tmp_path.glob("*.prompts"))
        other = str(tmp_path / "other.bin")
        assert main(["pretrain", "--strategy", "graphcl", "--dataset",
                     node_ds_path, "--out", other, "--hidden", "8",
                     "--epochs", "1", "--node-batch", "16", "--seed", "77"]) == 0
        rc = main(["eval", "--dataset", node_ds_path, "--checkpoint", other,
                   "--prompts", str(prompt_path)])
        assert rc == 2

    def test_empty_test_split_rejected(self, node_ds_path, ckpt_path, tmp_path):
        rc = main(["tune", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--method", "edgeprompt", "--shots", "5", "--epochs", "2",
                   "--seeds", "0", "--out-dir", str(tmp_path)])
        assert rc == 0  # 5 shots on 5-per-class cliques: all train, no test
        prompt_path = next(tmp_path.glob("*.prompts"))
        rc = main(["eval", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--prompts", str(prompt_path)])
        assert rc == 2


    def test_prompt_file_missing_a_tensor_exits_1(self, node_ds_path, ckpt_path,
                                                  tmp_path, capsys):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        lp = load_prompts(next(tmp_path.glob("*.prompts")))
        del lp.tensors["head.bias"]
        broken = str(tmp_path / "broken.prompts")
        save_prompts(lp, broken)
        rc = main(["eval", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--prompts", broken])
        assert rc == 1
        assert "'head.bias'" in capsys.readouterr().err


    def test_prompt_file_with_another_slope_exits_1(self, node_ds_path, ckpt_path,
                                                    tmp_path, capsys):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        lp = load_prompts(next(tmp_path.glob("*.prompts")))
        lp.metadata["leaky_slope"] = 0.9
        broken = str(tmp_path / "slope.prompts")
        save_prompts(lp, broken)
        rc = main(["eval", "--dataset", node_ds_path, "--checkpoint", ckpt_path,
                   "--prompts", broken])
        assert rc == 1
        assert "leaky_slope 0.9" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_1_naming_the_tensor(self, node_ds_path, ckpt_path,
                                                              tmp_path, capsys):
        assert run_tune(node_ds_path, ckpt_path, tmp_path) == 0
        prompt_path = str(next(tmp_path.glob("*.prompts")))
        ckpt = load_checkpoint(ckpt_path)
        ckpt.tensors["layers.0.bias"][0, 1] = np.nan
        broken = str(tmp_path / "nan.bin")
        save_checkpoint(ckpt, broken)
        for argv in (["tune", "--dataset", node_ds_path, "--checkpoint", broken,
                      "--method", "gpf", "--epochs", "1", "--seeds", "0",
                      "--out-dir", str(tmp_path / "tuned")],
                     ["eval", "--dataset", node_ds_path, "--checkpoint", broken,
                      "--prompts", prompt_path]):
            assert main(argv) == 1, argv[0]
            assert "'layers.0.bias' contains NaN or Inf" in capsys.readouterr().err


class TestVerifyCommand:
    def test_theorem1_pass(self, capsys):
        rc = main(["verify", "theorem1", "--p", "0.8", "--q", "0.2", "--T", "2.0",
                   "--nodes", "1000", "--trials", "8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True

    def test_theorem1_infeasible_target_exits_2(self):
        rc = main(["verify", "theorem1", "--p", "0.8", "--q", "0.2", "--T", "3.0"])
        assert rc == 2

    def test_theorem2_pass(self, tmp_path, capsys):
        out = tmp_path / "t2.json"
        rc = main(["verify", "theorem2", "--nodes", "6", "--trials", "25",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["max_residual"] < 1e-9


class TestGenCSBM:
    def test_node_container(self, tmp_path):
        out = tmp_path / "node.json"
        rc = main(["gen-csbm", "--out", str(out), "--task", "node",
                   "--n-per-class", "10", "--feature-dim", "3", "--seed", "1"])
        assert rc == 0
        from edgeprompt.data import load_dataset

        ds = load_dataset(out)
        assert ds.task == "node"
        assert ds.graphs[0].num_nodes == 20

    def test_graph_container(self, tmp_path):
        out = tmp_path / "graph.json"
        rc = main(["gen-csbm", "--out", str(out), "--task", "graph",
                   "--n-per-class", "4", "--num-graphs", "8", "--seed", "2"])
        assert rc == 0
        from edgeprompt.data import load_dataset

        ds = load_dataset(out)
        assert ds.task == "graph"
        assert len(ds.graphs) == 8

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EDGEPROMPT_OUTPUT_ROOT", str(tmp_path))
        rc = main(["gen-csbm", "--out", "sub/ds.json", "--task", "node",
                   "--n-per-class", "5"])
        assert rc == 0
        assert (tmp_path / "sub" / "ds.json").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, node_ds_path,
                                                     tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden=8\nepochs=3\nnode-batch=16\nseed=5\n")
        out = tmp_path / "ck.bin"
        rc = main(["pretrain", "--config", str(cfg), "--strategy", "graphcl",
                   "--dataset", node_ds_path, "--out", str(out),
                   "--epochs", "1"])
        assert rc == 0
        ckpt = load_checkpoint(out)
        assert ckpt.metadata["epochs"] == 1  # flag beat config
        assert ckpt.dims[1] == 8             # config beat default
        assert ckpt.seed == 5

    def test_unknown_config_key_exits_2(self, node_ds_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n")
        rc = main(["pretrain", "--config", str(cfg), "--strategy", "graphcl",
                   "--dataset", node_ds_path, "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert "unrecognized arguments: --bogus-key=1" in capsys.readouterr().err

    # each once escaped as a traceback (ValueError, ArgumentTypeError,
    # UnicodeDecodeError) or, for readout, wrote artifacts that eval refuses
    @pytest.mark.parametrize("text", [b"epochs=abc\n", b"anchors=x\n", b"readout=bogus\n",
                                      b"epochs=\xff\xfe\n"])
    def test_bad_value_exits_2_without_writing(self, node_ds_path, ckpt_path, tmp_path,
                                               text):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert run_tune(node_ds_path, ckpt_path, out, "--config", str(cfg)) == 2
        assert not out.exists()

    def test_config_line_is_its_flag(self, node_ds_path, ckpt_path, tmp_path):
        # a value may start with "-", and a key may abbreviate its flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nprefix=-x\nread = mean\n")
        out = tmp_path / "out"
        assert run_tune(node_ds_path, ckpt_path, out, "--config", str(cfg)) == 0
        report = json.loads((out / "-x_report.json").read_text())
        assert report["config"]["readout"] == "mean"

    def test_line_without_equals_names_file_and_line(self, node_ds_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden=8\nepochs\n")
        rc = main(["pretrain", "--config", str(cfg), "--strategy", "graphcl",
                   "--dataset", node_ds_path, "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert f"{cfg}:2: expected key=value" in capsys.readouterr().err

    def test_required_flags_stay_on_the_command_line(self, node_ds_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset={node_ds_path}\n")
        rc = main(["pretrain", "--config", str(cfg), "--strategy", "graphcl",
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert not (tmp_path / "x.bin").exists()


# each once escaped as a bare ZeroDivisionError, OverflowError, ValueError
# or IndexError, exited 1 (temperature nan, noise-scale inf), wrote an
# artifact that its loader rejects (num-graphs 0, lr nan or inf), wrote a
# checkpoint whose two views were one model (noise-scale nan or -1), or
# left an empty output directory (tune)
@pytest.mark.parametrize("argv", [
    ["pretrain", "--strategy", "graphcl", "--hidden", "0"],
    ["pretrain", "--strategy", "graphcl", "--hidden", "-3"],
    ["pretrain", "--strategy", "graphcl", "--seed", "-1"],
    ["pretrain", "--strategy", "graphcl", "--lr", "nan"],
    ["pretrain", "--strategy", "ep-gppt", "--lr", "inf"],
    ["pretrain", "--strategy", "simgrace", "--temperature", "nan"],
    ["pretrain", "--strategy", "simgrace", "--noise-scale", "nan"],
    ["pretrain", "--strategy", "simgrace", "--noise-scale", "-1"],
    ["pretrain", "--strategy", "simgrace", "--noise-scale", "inf"],
    ["pretrain", "--strategy", "graphcl", "--drop-ratio", "-0.5"],
    ["pretrain", "--strategy", "graphcl", "--drop-ratio", "nan"],
    ["pretrain", "--strategy", "graphcl", "--drop-ratio", "inf"],
    ["tune", "--method", "edgeprompt", "--seeds", "-1"],
    ["tune", "--method", "edgeprompt", "--lr", "nan"],
    ["verify", "theorem1", "--p", "0.8", "--q", "0.2", "--T", "2", "--nodes", "0"],
    ["verify", "theorem1", "--p", "1.5", "--q", "0.2", "--T", "2"],
    ["verify", "theorem2", "--nodes", "1"],
    ["verify", "theorem2", "--trials", "0"],
    ["verify", "theorem2", "--seed", "-1", "--trials", "1"],
    ["gen-csbm", "--n-per-class", "0"],
    ["gen-csbm", "--p", "2"],
    ["gen-csbm", "--separation", "0"],
    ["gen-csbm", "--separation", "nan"],
    ["gen-csbm", "--feature-dim", "0"],
    ["gen-csbm", "--feature-dim", "-3"],
    ["gen-csbm", "--seed", "-1"],
    ["gen-csbm", "--task", "graph", "--num-graphs", "0"],
], ids=" ".join)
def test_out_of_range_value_exits_2_without_writing(argv, node_ds_path, ckpt_path,
                                                     tmp_path):
    out = tmp_path / "out"
    paths = {"pretrain": ["--dataset", node_ds_path, "--out", str(out)],
             "tune": ["--dataset", node_ds_path, "--checkpoint", ckpt_path,
                      "--epochs", "1", "--out-dir", str(out)],
             "verify": ["--out", str(out)],
             "gen-csbm": ["--out", str(out)]}
    assert main(argv + paths[argv[0]]) == 2
    assert not out.exists()


# a table of flag values, each run on a node and a graph dataset: whatever
# a value does, main ends it in an exit code and never in a traceback
FLOAT_FLAGS = ["lr", "drop-ratio", "perturb-ratio", "temperature", "noise-scale", "mask-ratio"]
INT_FLAGS = ["layers", "hidden", "epochs", "batch-size", "seed", "node-batch"]
PRETRAIN_VALUES = ([(flag, v) for flag in FLOAT_FLAGS for v in ("-0.5", "nan", "inf", "1.5")]
                   + [(flag, v) for flag in INT_FLAGS for v in ("-1", "0")])
TUNE_VALUES = ([("lr", v) for v in ("-0.5", "nan", "inf")]
               + [(flag, v) for flag in ("epochs", "batch-size", "shots", "anchors")
                  for v in ("-1", "0")] + [("seeds", "-1")])


def _escapes(argv, table):
    """The (flag, value, outcome) of each row that ``main`` did not end
    in exit code 0, 1 or 2."""
    escapes = []
    for flag, value in table:
        try:
            rc = main(argv + [f"--{flag}={value}"])
        except Exception as exc:
            escapes.append((flag, value, repr(exc)))
        else:
            if rc not in (0, 1, 2):
                escapes.append((flag, value, rc))
    return escapes


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("strategy", sorted(PRETRAINERS))
def test_no_pretrain_flag_value_escapes(strategy, task, node_ds_path, graph_ds_path,
                                        tmp_path):
    ds = node_ds_path if task == "node" else graph_ds_path
    argv = ["pretrain", "--strategy", strategy, "--dataset", ds,
            "--out", str(tmp_path / "ck.bin"), "--epochs=1", "--hidden=4",
            "--node-batch=8", "--batch-size=4"]
    assert _escapes(argv, PRETRAIN_VALUES) == []


@pytest.mark.parametrize("task", ["node", "graph"])
@pytest.mark.parametrize("method", METHODS)
def test_no_tune_flag_value_escapes(method, task, node_ds_path, graph_ds_path, ckpt_path,
                                    graph_ckpt_path, tmp_path):
    ds, ckpt = ((node_ds_path, ckpt_path) if task == "node"
                else (graph_ds_path, graph_ckpt_path))
    argv = ["tune", "--dataset", ds, "--checkpoint", ckpt, "--method", method,
            "--out-dir", str(tmp_path / "out"), "--epochs=1", "--seeds=0", "--shots=2",
            "--batch-size=4"]
    assert _escapes(argv, TUNE_VALUES) == []
