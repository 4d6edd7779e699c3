"""CLI tests: subcommands, exit codes, reproducible outputs."""

import json

import numpy as np
import pytest

from curvgnn import curvature, graphs
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
    trace_a = (tmp_path / "a" / "trace.csv").read_text()
    trace_b = (tmp_path / "b" / "trace.csv").read_text()
    assert trace_a == trace_b


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


def test_train_dropout_of_one_is_rejected(tmp_path, capsys):
    assert main(["train", "--synthetic-tree", "4", "--dropout", "1.0",
                 "--out", str(tmp_path)]) == 1
    assert "dropout" in capsys.readouterr().err


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
            want = {int: 3, float: 0.25, None: "file.tsv"}[action.type]
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
