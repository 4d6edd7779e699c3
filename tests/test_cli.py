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


def test_keep_freed_heap_without_mallopt_does_nothing(monkeypatch):
    # a C library handle without mallopt, as outside glibc
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_heap() is False

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_library)
    assert cli._keep_freed_heap() is False


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
    src = str(Path(curvgnn.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = {}
    for mode in ("on", "off"):
        proc = subprocess.run([sys.executable, "-c", _FAULT_RUN, mode, str(tmp_path / mode)],
                              env=env, capture_output=True, text=True, check=True)
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
