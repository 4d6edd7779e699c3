"""CLI tests: subcommands, exit codes, logging, reproducible outputs, the
allocator policy."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvgnn
from curvgnn import cli, curvature, graphs
from curvgnn.cli import _build_parser, _train_config, main
from curvgnn.training import RunConfig


def write_tree_edges(tmp_path, depth=4, name="tree.tsv"):
    g = graphs.balanced_binary_tree(depth)
    lines = [f"{u}\t{v}" for u, v in g.edge_array()]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p, g


def test_delta_on_tree_prints_zero(tmp_path, capsys):
    edges, _ = write_tree_edges(tmp_path)
    assert main(["delta", "--edges", str(edges), "--mode", "exact"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_delta_sampled_reports_bound(tmp_path, capsys):
    edges, _ = write_tree_edges(tmp_path)
    assert main(["delta", "--edges", str(edges), "--mode", "sampled",
                 "--samples", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "lower bound" in out


def test_log_level_info_prints_component_line(tmp_path, capsys):
    # a path 0-1-2-3-4 and an edge 5-6: delta runs on the largest component
    p = tmp_path / "two.tsv"
    p.write_text("0\t1\n1\t2\n2\t3\n3\t4\n5\t6\n")
    assert main(["--log-level", "info", "delta", "--edges", str(p)]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "0"
    assert "graph not connected; using largest component (5 of 7 nodes)" in out.err
    assert main(["delta", "--edges", str(p)]) == 0  # default level: warning
    out = capsys.readouterr()
    assert out.out.strip() == "0" and out.err == ""


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["delta", "--no-such-flag", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["delta", "--edges", str(tmp_path / "absent.tsv")]) == 2
    assert "data error" in capsys.readouterr().err


def test_distortion_grid_row_count(tmp_path, capsys):
    edges, g = write_tree_edges(tmp_path)
    emb = curvature.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    emb_path = tmp_path / "emb.npy"
    np.save(emb_path, emb)
    assert main(["distortion", "--edges", str(edges), "--embeddings",
                 str(emb_path), "--zeta", "1.0", "--grid", "0.2:4.0:0.2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 20
    z0, d0, used, excl = rows[0].split(",")
    assert float(z0) == 0.2 and float(d0) >= 0.0


def test_distortion_tree_layout_flag(tmp_path, capsys):
    edges, _ = write_tree_edges(tmp_path, depth=3)
    assert main(["distortion", "--edges", str(edges), "--tree-layout", "1.0",
                 "--grid", "0.5:1.5:0.5"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_tree_layout_beyond_float64_is_data_error(tmp_path, capsys):
    # at zeta 0.1 the depth-8 leaves sit near cosh(72): the tangent frame
    # there cannot be built in float64
    edges, _ = write_tree_edges(tmp_path, depth=8)
    assert main(["distortion", "--edges", str(edges), "--tree-layout", "0.9",
                 "--zeta", "0.1"]) == 2
    assert "data error: tree layout" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["0", "-1", "nan"])
def test_tree_layout_edge_length_must_be_positive_and_finite(tmp_path, capsys, length):
    edges, _ = write_tree_edges(tmp_path, depth=3)
    assert main(["distortion", "--edges", str(edges), f"--tree-layout={length}"]) == 1
    assert "tree layout edge length must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["text", "npz"])
def test_embeddings_file_that_is_not_an_array_is_data_error(tmp_path, capsys, kind):
    edges, g = write_tree_edges(tmp_path, depth=3)
    path = edges
    if kind == "npz":  # an archive, not one array
        path = tmp_path / "emb.npz"
        np.savez(path, emb=curvature.tree_layout_hyperbolic(g, 1.0))
    assert main(["estimate-curvature", "--edges", str(edges), "--embeddings", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err and "pickle" not in err


@pytest.mark.parametrize("sources", [["--embeddings", "EMB", "--tree-layout", "0.1"], []],
                         ids=["both", "neither"])
def test_distortion_takes_exactly_one_embedding_source(tmp_path, capsys, sources):
    edges, g = write_tree_edges(tmp_path, depth=3)
    emb = tmp_path / "emb.npy"
    np.save(emb, curvature.tree_layout_hyperbolic(g, 1.0))
    argv = ["distortion", "--edges", str(edges), "--grid", "1:1:1"]
    assert main(argv + [str(emb) if a == "EMB" else a for a in sources]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert ("not allowed with argument --embeddings" if sources
            else "one of the arguments --embeddings --tree-layout is required") in err


@pytest.mark.parametrize("command", ["delta", "distortion", "estimate-curvature"])
@pytest.mark.parametrize("text", ["# no edges\n", "3\t3\n"], ids=["empty", "self-loop"])
def test_edge_file_without_edges_is_data_error(tmp_path, capsys, command, text):
    edges = tmp_path / "none.tsv"
    edges.write_text(text)
    emb = tmp_path / "emb.npy"
    np.save(emb, np.tile([1.0, 0.0, 0.0], (4, 1)))
    extra = {"delta": [], "distortion": ["--tree-layout", "1.0"],
             "estimate-curvature": ["--embeddings", str(emb)]}[command]
    assert main([command, "--edges", str(edges)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(edges) in err


def test_estimate_curvature_prints_number(tmp_path, capsys):
    edges, g = write_tree_edges(tmp_path, depth=5)
    emb = curvature.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    emb_path = tmp_path / "emb.npy"
    np.save(emb_path, emb)
    argv = ["estimate-curvature", "--edges", str(edges), "--embeddings",
            str(emb_path), "--zeta", "1.0", "--seed", "0"]
    assert main(argv) == 0
    val = float(capsys.readouterr().out.strip())
    assert val < 0.0  # hyperbolic tree layout
    assert main(argv + ["--samples", "5"]) == 0
    want = curvature.estimate_kappa(g, emb, 1.0, n_s=5, seed=0).kappa
    assert capsys.readouterr().out.strip() == f"{want:.6g}"


def test_bad_grid_is_usage_error(tmp_path, capsys):
    edges, _ = write_tree_edges(tmp_path)
    assert main(["distortion", "--edges", str(edges), "--tree-layout", "1.0",
                 "--grid", "nonsense"]) == 1


@pytest.mark.parametrize("grid", ["0:inf:0.5", "nan:1:0.5", "0:1:inf"])
def test_non_finite_grid_is_usage_error(tmp_path, capsys, grid):
    edges, _ = write_tree_edges(tmp_path)
    assert main(["distortion", "--edges", str(edges), "--tree-layout", "1.0",
                 "--grid", grid]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: bad grid {grid!r}; start, stop and step must be finite\n"


@pytest.mark.parametrize("grid", ["0:1:0.5", "-1:1:0.5"])
def test_grid_with_a_non_positive_curvature_is_usage_error(tmp_path, capsys, grid):
    edges, _ = write_tree_edges(tmp_path)
    assert main(["distortion", "--edges", str(edges), "--tree-layout", "1.0",
                 f"--grid={grid}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: bad grid {grid!r}; every curvature must be positive\n"


@pytest.mark.parametrize("command,zeta", [("distortion", "0"), ("distortion", "-1"),
                                          ("estimate-curvature", "0"),
                                          ("estimate-curvature", "nan")])
def test_non_positive_or_non_finite_zeta_is_usage_error(tmp_path, capsys, command, zeta):
    edges, g = write_tree_edges(tmp_path, depth=3)
    emb = tmp_path / "emb.npy"
    np.save(emb, curvature.tree_layout_hyperbolic(g, 1.0))
    assert main([command, "--edges", str(edges), "--embeddings", str(emb),
                 "--zeta", zeta]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --zeta: must be positive and finite")


def test_off_manifold_embeddings_are_data_error(tmp_path, capsys):
    edges, g = write_tree_edges(tmp_path, depth=3)
    bad = np.ones((g.n_nodes, 3))  # not on any hyperboloid
    emb_path = tmp_path / "bad.npy"
    np.save(emb_path, bad)
    assert main(["estimate-curvature", "--edges", str(edges),
                 "--embeddings", str(emb_path), "--zeta", "1.0"]) == 2
    assert "data error" in capsys.readouterr().err


def test_estimate_wrong_row_count_is_data_error(tmp_path, capsys):
    edges, g = write_tree_edges(tmp_path, depth=4)
    emb = curvature.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)[:10]
    emb_path = tmp_path / "short.npy"
    np.save(emb_path, emb)
    assert main(["estimate-curvature", "--edges", str(edges),
                 "--embeddings", str(emb_path), "--zeta", "1.0"]) == 2
    assert "data error" in capsys.readouterr().err


def test_train_twice_identical_metrics(tmp_path, capsys):
    args = ["train", "--synthetic-tree", "4", "--task", "lp", "--seed", "7",
            "--epochs", "4", "--val-frac", "0.15", "--test-frac", "0.15"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0

    def load(folder):
        recs = []
        for line in (tmp_path / folder / "metrics.jsonl").read_text().splitlines():
            d = json.loads(line)
            d.pop("wall_ms")  # timing is the one nondeterministic field
            recs.append(d)
        return recs

    assert load("a") == load("b")


def test_train_then_eval_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--synthetic-tree", "4", "--seed", "3", "--epochs", "3",
                 "--val-frac", "0.15", "--test-frac", "0.15",
                 "--out", str(out)]) == 0
    train_line = capsys.readouterr().out
    assert "test=" in train_line
    assert main(["eval", "--checkpoint", str(out / "checkpoint.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    summary = json.loads((out / "result.json").read_text())
    assert payload["test_metric"] == summary["test_metric"]


# the fields of a version-4 checkpoint; each malformed case below breaks one
CHECKPOINT_FIELDS = {"format_version": 4, "config": {"synthetic_tree_depth": 2},
                     "model": {}, "epoch": 1, "best_val_metric": 0.5}


@pytest.mark.parametrize("text", [
    "not json", "[1, 2]", json.dumps({"format_version": 4}),
    json.dumps({**CHECKPOINT_FIELDS, "config": [1]}),
    json.dumps({**CHECKPOINT_FIELDS, "config": {"no_such_field": 1}}),
    json.dumps({k: v for k, v in CHECKPOINT_FIELDS.items() if k != "model"})],
    ids=["not-json", "list", "no-config", "config-not-object", "unknown-field", "no-model"])
def test_eval_of_a_malformed_checkpoint_is_data_error(tmp_path, capsys, text):
    path = tmp_path / "ck.json"
    path.write_text(text)
    assert main(["eval", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err


def test_eval_version_and_layer_count_errors_keep_their_messages(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--synthetic-tree", "3", "--epochs", "2", "--val-frac", "0.2",
                 "--test-frac", "0.2", "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "checkpoint.json"
    blob = json.loads(path.read_text())
    for key, value, message in [
            ("config", {**blob["config"], "n_layers": 3},
             "error: snapshot has 2 layers, the model 3\n"),
            ("format_version", 3, "error: unsupported checkpoint version 3\n")]:
        path.write_text(json.dumps({**blob, key: value}))
        assert main(["eval", "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err == message


def test_train_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"synthetic_tree_depth": 4, "task": "lp", "epochs": 2, "seed": 1,
           "val_frac": 0.15, "test_frac": 0.15}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--epochs", "3",
                 "--out", str(out)]) == 0
    lines = (out / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # the flag overrode the file


def test_train_unknown_config_field(tmp_path):
    cfg_path = tmp_path / "bad.json"
    # the last 14 were RunConfig fields before they became fixed settings
    for field in ("no_such_field", "activation", "fd_r", "fd_t", "normalize_features",
                  "weight_decay", "early_stop_patience", "eps_start", "eps_floor",
                  "eps_decay", "kappa_samples", "eq_patience", "state_bin_width",
                  "nc_train_frac", "nc_val_frac"):
        cfg_path.write_text(json.dumps({field: 1}))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("text", ["[1, 2]", "[[\"epochs\", 3]]", "null", "3"])
def test_train_config_that_is_not_an_object_is_data_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(cfg_path) in err


@pytest.mark.parametrize("field,value", [("epochs", "ten"), ("epochs", 10.5),
                                         ("lr", "3e-4"), ("rl_enabled", 1),
                                         ("dropout", True), ("edge_path", 7)])
def test_train_config_field_of_wrong_type_is_usage_error(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synthetic_tree_depth": 3, field: value}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ")


@pytest.mark.parametrize("manifest", [[[1, 2], [3, 4]], {"rows": [[1, 2], [3]]},
                                      {"rows": [[1, "a"], [3, 4]]},
                                      {"rows": [[1, {}], [3, 4]]}],
                         ids=["array", "ragged", "string", "object"])
def test_bad_json_feature_manifest_is_data_error(tmp_path, capsys, manifest):
    edges = tmp_path / "e.tsv"
    edges.write_text("0\t1\n")
    feats = tmp_path / "f.json"
    feats.write_text(json.dumps(manifest))
    assert main(["train", "--edges", str(edges), "--features", str(feats),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(feats) in err


def nc_train_args(tmp_path, labels: str) -> list:
    """`train --task nc` on a depth-3 tree with features and these labels."""
    edges, g = write_tree_edges(tmp_path, depth=3)
    feats = tmp_path / "feats.csv"
    feats.write_text("".join(f"{v % 2},0.5\n" for v in range(g.n_nodes)))
    label_path = tmp_path / "labels.csv"
    label_path.write_text(labels)
    return ["train", "--task", "nc", "--edges", str(edges), "--features", str(feats),
            "--labels", str(label_path), "--epochs", "2", "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("labels,count", [("# no node labelled\n", 0),
                                          ("".join(f"{v},0\n" for v in range(15)), 1)],
                         ids=["none", "one-class"])
def test_node_classification_without_two_labelled_classes_is_data_error(
        tmp_path, capsys, labels, count):
    assert main(nc_train_args(tmp_path, labels)) == 2
    assert capsys.readouterr().err.startswith(
        "data error: node classification needs labelled nodes in >= 2 classes, "
        f"got {count}")


@pytest.mark.parametrize("labels,split", [("0,0\n1,0\n2,1\n3,1\n", "test"),
                                          ("0,0\n1,1\n", "val")],
                         ids=["two-per-class", "one-per-class"])
def test_node_classification_with_an_empty_split_is_data_error(tmp_path, capsys, labels,
                                                               split):
    """Two labelled nodes per class fill train and val only, one fills train
    only; either must fail before training, naming the empty split."""
    assert main(nc_train_args(tmp_path, labels)) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: node classification leaves the {split} split empty")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task", ["lp", "nc"])
@pytest.mark.parametrize("fracs,message", [
    (["--val-frac", "9", "--test-frac", "-3"], "val_frac must lie in (0, 1), got 9.0"),
    (["--test-frac", "-3"], "test_frac must lie in (0, 1), got -3.0"),
    (["--val-frac", "0.5", "--test-frac", "0.5"], "val_frac + test_frac must be below 1")],
    ids=["val", "test", "sum"])
def test_split_fractions_are_usage_errors_naming_the_field(tmp_path, capsys, task, fracs,
                                                          message):
    # node classification splits 70/15/15 whatever the fractions, but bad
    # values are rejected for it too
    argv = nc_train_args(tmp_path, "".join(f"{v},{v % 3}\n" for v in range(15)))
    argv[argv.index("--task") + 1] = task
    assert main(argv + fracs) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_train_dropout_of_one_is_rejected(tmp_path, capsys):
    assert main(["train", "--synthetic-tree", "4", "--dropout", "1.0",
                 "--out", str(tmp_path)]) == 1
    assert "dropout" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["train", "--synthetic-tree", "3", "--out", "o"],
    ["delta", "--edges", "e.tsv"],
    ["distortion", "--edges", "e.tsv", "--tree-layout", "0.5"],
    ["estimate-curvature", "--edges", "e.tsv", "--embeddings", "x.npy"]],
    ids=["train", "delta", "distortion", "estimate-curvature"])
def test_negative_seed_is_usage_error_naming_the_flag(capsys, command):
    # argparse rejects it before any file is read
    assert main([*command, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --seed: must be >= 0")


@pytest.mark.parametrize("fields", [{"seed": -1}, {"synthetic_tree_depth": -3},
                                    {"synthetic_tree_depth": 0},
                                    {"distortion_every": -2}],
                         ids=["seed", "depth-3", "depth0", "distortion_every"])
def test_train_config_negative_count_is_usage_error_naming_the_field(
        tmp_path, capsys, fields):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"synthetic_tree_depth": 3, **fields}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    field = next(iter(fields))
    assert capsys.readouterr().err.startswith(f"error: {field} must be >= ")


def test_train_negative_synthetic_tree_flag_names_the_field(tmp_path, capsys):
    assert main(["train", "--synthetic-tree", "-3", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: synthetic_tree_depth must be >= 1")


def test_every_train_option_sets_its_config_field():
    defaults = RunConfig()
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    options = [a for a in sub.choices["train"]._actions
               if a.option_strings and a.dest not in ("help", "config", "out")]
    assert len(options) == 18
    for action in options:
        assert action.dest in RunConfig.__dataclass_fields__, action.option_strings
        flag = action.option_strings[0]
        if action.nargs == 0:  # --no-rl
            argv, want = [flag], action.const
        elif action.choices:
            want = next(c for c in action.choices if c != getattr(defaults, action.dest))
            argv = [flag, want]
        else:
            want = {int: 3, cli._seed: 3, float: 0.25, None: "file.tsv"}[action.type]
            argv = [flag, str(want)]
        assert want != getattr(defaults, action.dest), flag
        args = _build_parser().parse_args(["train", *argv, "--out", "o"])
        assert getattr(_train_config(args), action.dest) == want, flag


def test_divergence_exit_code(tmp_path, monkeypatch, capsys):
    from curvgnn import training

    def blow_up(config, out_dir=None):
        raise training.TrainingDiverged("non-finite loss at epoch 1")

    monkeypatch.setattr(training, "train", blow_up)
    assert main(["train", "--synthetic-tree", "4", "--out", str(tmp_path)]) == 3
    assert "diverged" in capsys.readouterr().err


def test_keep_freed_heap_without_mallopt_does_nothing(monkeypatch):
    # a C library handle without mallopt, as outside glibc
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_heap() is False

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    assert cli._keep_freed_heap() is False


def _fresh_env():
    """The inherited environment, one BLAS thread, this package first on
    PYTHONPATH: for a fresh interpreter that imports curvgnn."""
    src = str(Path(curvgnn.__file__).resolve().parent.parent)
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# one train through cli.main in a fresh interpreter; prints the run's exit code
# and the minor page faults taken during the cli.main call
_FAULT_RUN = """
import json, resource, sys
from curvgnn import cli
if sys.argv[1] == "off":
    cli._keep_freed_heap = lambda: None
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(["train", "--synthetic-tree", "7", "--seed", "7", "--epochs", "60",
               "--out", sys.argv[2]])
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"rc": rc, "minflt": after - before}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's")
def test_kept_heap_halves_page_faults_with_identical_outputs(tmp_path):
    runs = {}
    for mode in ("on", "off"):
        proc = subprocess.run([sys.executable, "-c", _FAULT_RUN, mode, str(tmp_path / mode)],
                              env=_fresh_env(), capture_output=True, text=True, check=True)
        runs[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
    assert runs["on"]["rc"] == runs["off"]["rc"] == 0
    assert runs["on"]["minflt"] <= runs["off"]["minflt"] / 2, runs

    def records(mode):
        lines = (tmp_path / mode / "metrics.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
                for line in lines]

    assert records("on") == records("off")
    for name in ("result.json", "embeddings.npy"):
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes()


# every subcommand through cli.main in one fresh interpreter; prints the exit
# codes and whether numpy.ma was imported
_IMPORT_RUN = """
import json, sys
from curvgnn import cli
d = sys.argv[1]
edges, feats, labels = d + "/tree.tsv", d + "/feats.csv", d + "/labels.csv"
runs = [["delta", "--edges", edges],
        ["distortion", "--edges", edges, "--tree-layout", "1.0", "--grid", "0.5:1.0:0.5"],
        ["estimate-curvature", "--edges", edges, "--embeddings", d + "/emb.npy"],
        ["train", "--edges", edges, "--features", feats, "--epochs", "2", "--out", d + "/lp"],
        ["eval", "--checkpoint", d + "/lp/checkpoint.json"],
        ["train", "--task", "nc", "--edges", edges, "--features", feats, "--labels", labels,
         "--epochs", "2", "--out", d + "/nc"]]
rcs = [cli.main(argv) for argv in runs]
print(json.dumps({"rcs": rcs, "numpy_ma": "numpy.ma" in sys.modules}))
"""


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique without return_* flags imports numpy.ma, a large share of a
    # cold command's start-up; the package builds distinct-value sets with a
    # sort instead
    _, g = write_tree_edges(tmp_path, depth=4)
    feats = np.random.default_rng(0).normal(size=(g.n_nodes, 4))
    (tmp_path / "feats.csv").write_text(
        "\n".join(",".join(f"{x:.6f}" for x in row) for row in feats) + "\n")
    (tmp_path / "labels.csv").write_text("".join(f"{v},{v % 3}\n" for v in range(g.n_nodes)))
    np.save(tmp_path / "emb.npy", curvature.tree_layout_hyperbolic(g, 1.0, edge_length=1.0))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_RUN, str(tmp_path)],
                          env=_fresh_env(), capture_output=True, text=True, check=True)
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    assert run["rcs"] == [0] * 6, proc.stderr
    assert not run["numpy_ma"]
