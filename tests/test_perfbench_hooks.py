"""The benchmark's tracer (perfbench/tracer.py) still reaches the package.

`tracer.install` wraps module attributes by name, and its hooks read call
parameters by name. A renamed function or parameter in src/ would drop a
span or break a hook, and only the benchmark would notice. This runs one
command of each benchmark kind under the tracer. It needs a fresh
interpreter because `install` patches attributes process-wide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import curvgnn
from curvgnn import curvature, graphs, layers
from curvgnn.autodiff import backward

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the names in tracer.py's table that src/ no longer defines, and their spans;
# the next change to perfbench/ drops them
STALE = ["curvgnn.graphs.path_distance_row"]
STALE_SPANS = ["graphs.path_distance_row"]

# every command through cli.main under the tracer; prints the names install
# did not find, the exit codes and the spans that were never entered
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from curvgnn import cli
d = sys.argv[2]
tr = tracer.Tracer()
missing = tracer.install(tr)
edges = d + "/tree.tsv"
runs = [["train", "--config", d + "/cfg.json", "--synthetic-tree", "5", "--epochs", "4",
         "--out", d + "/run"],
        ["delta", "--edges", edges, "--mode", "sampled", "--samples", "50", "--seed", "1"],
        ["distortion", "--edges", edges, "--tree-layout", "1.0", "--grid", "0.5:1.0:0.5"],
        ["estimate-curvature", "--edges", edges, "--embeddings", d + "/emb.npy"]]
rcs = [cli.main(argv) for argv in runs]
metrics = tracer.aggregate([tr.dump()])
uncalled = [name for name in tracer.SPAN_NAMES if metrics[name + ".calls"][0] == 0]
print(json.dumps({"missing": missing, "rcs": rcs, "uncalled": uncalled,
                  "tape_nodes": metrics["autodiff.tape_nodes"][0]}))
"""


def test_tracer_hooks_every_traced_name(tmp_path):
    g = graphs.balanced_binary_tree(4)
    (tmp_path / "tree.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in g.edge_array()))
    np.save(tmp_path / "emb.npy", curvature.tree_layout_hyperbolic(g, 1.0, edge_length=1.0))
    (tmp_path / "cfg.json").write_text(json.dumps({"distortion_every": 2}))
    src = str(Path(curvgnn.__file__).resolve().parent.parent)
    # no .pyc files under perfbench/: the benchmark's start-up times depend on them
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(PERFBENCH), str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    assert run["missing"] == STALE
    assert run["rcs"] == [0, 0, 0, 0], proc.stderr  # a hook that raises fails its command
    assert run["uncalled"] == STALE_SPANS  # every span of a wrapped name is entered
    # the tracer counts a tape by walking its parents after backward, which
    # consumes the values but keeps the parents
    assert run["tape_nodes"] > 1


def test_tape_node_count_is_the_same_after_backward(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    rng = np.random.default_rng(5)
    g = graphs.balanced_binary_tree(3)
    g.features = rng.standard_normal((g.n_nodes, 4))
    model = layers.HyperbolicGNN(4, 4, 2, 1.0, rng)
    loss = layers.lp_loss(model.forward(g, training=True, rng=rng), g.edge_array()[:5],
                          np.array([[0, 9], [3, 12]]), 1.0)
    before = tracer._tape_nodes(loss)
    backward(loss)
    assert tracer._tape_nodes(loss) == before > 1
