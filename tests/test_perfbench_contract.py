"""The benchmark's output checks (perfbench/run.py) accept what `train` writes.

`check_train` reads metrics.jsonl, result.json (its `final_zetas` list
included), embeddings.npy and checkpoint.json by name and shape. A change
to those outputs that the benchmark cannot read would fail every benchmark
command, and only the benchmark would notice. This runs one 3-epoch train
the way the benchmark does (a `child.py` process) and checks its outputs
with the benchmark's own code, in a fresh interpreter, because run.py sets
thread variables in the environment when imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import curvgnn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# one train through Bench.run, then check_train on its outputs, and again
# once result.json has lost a field the check reads; prints both problem lists
_CHECKED_TRAIN = """
import json, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
work = Path(sys.argv[2])
out = work / "run"
bench = run.Bench(work, time.perf_counter() + 120)
op = bench.run(["train", "--synthetic-tree", "4", "--epochs", "3", "--out", out])
run.check_train(op, out, 31)
result = json.loads((out / "result.json").read_text())
del result["final_zetas"]
(out / "result.json").write_text(json.dumps(result))
broken = run.Op(op.argv, op.rc, op.out, op.report, op.spawn_t)
run.check_train(broken, out, 31)
print(json.dumps({"problems": op.problems, "broken": broken.problems}))
"""


def test_check_train_accepts_a_train_output_directory(tmp_path):
    src = str(Path(curvgnn.__file__).resolve().parent.parent)
    # no .pyc files under perfbench/: the benchmark's start-up times depend on them
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHECKED_TRAIN, str(PERFBENCH), str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    assert run["problems"] == []
    assert len(run["broken"]) == 1 and "final_zetas" in run["broken"][0]
