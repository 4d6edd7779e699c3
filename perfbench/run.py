"""End-to-end and per-layer benchmark of curvgnn.

    python3 perfbench/run.py --workload tree7-lp --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Workloads (inputs are made by gen.py from --seed):

  tree7-lp    link prediction on the 255-node binary tree, RL on, in-loop
              distortion every 10 epochs, 100 epochs
  pa2708-lp   link prediction on a 2708-node preferential-attachment graph,
              RL on, no in-loop distortion, 40 epochs
  tree9-diag  diagnostics on a 1023-node tree: rounds of a 2-point
              distortion sweep (--tree-layout) and a sampled delta, with
              estimate-curvature calls in between

Every command is one fresh process (child.py) calling `curvgnn.cli.main`.
With --trace 0 the run reports the end-to-end metrics below, measured
untraced; with --trace 1 it runs each command untraced and then traced
and reports the per-layer metrics of the traced run plus the overhead.

End-to-end metrics (every workload reports each; BENCHMARK.json bounds them):

  setup_s      median time from process spawn to the first training step
               (train workloads: import, input load, split, model build,
               first eval) or to the end of the graph load (tree9-diag)
  main_s       median wall time of the main operation: `train` until its
               outputs are written (train_s), or one sweep plus one delta
               (sweep_s + delta_s)
  step_ms      train workloads: (last - first training-step start) /
               (epochs - 1), i.e. 1000 / epochs_per_s, median over trains;
               tree9-diag: median estimate-curvature command time (estimate_s)
  peak_rss_mb  largest ru_maxrss over the workload's processes

The human-readable lines give these and the named quantities
(train_s, epochs_per_s, sweep_s, delta_s, estimate_s) with sample counts,
and error_rate = failed / attempted commands. A command fails on a nonzero
exit code or on any failed output check. The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # one thread per process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # every command is killed once the whole run is this old

TRAIN = {  # per round: set-up probes, then one full train
    "tree7-lp": {"probes": 2, "min_rounds": 4},
    "pa2708-lp": {"probes": 3, "min_rounds": 1},
}
DIAG_GRID = "0.5:1.0:0.5"
DIAG_GRID_POINTS = 2
DIAG_DELTA_SAMPLES = 300
DIAG_ROUNDS = 2
DIAG_ESTIMATES = 6  # per round
WORKLOADS = (*TRAIN, "tree9-diag")

E2E_UNITS = {"setup_s": "s", "main_s": "s", "step_ms": "ms", "peak_rss_mb": "MB"}


class Op:
    """One finished command: exit code, stdout, child report and own problems."""

    def __init__(self, argv, rc, out, report, spawn_t):
        self.argv, self.rc, self.out, self.report, self.spawn_t = argv, rc, out, report, spawn_t
        self.problems: list[str] = []
        if rc != 0:
            self.problems.append(f"exit code {rc}")
        elif report is None:
            self.problems.append("no report written")

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def seconds(self) -> float:
        return self.report["main_t1"] - self.report["main_t0"]

    @property
    def steps(self) -> list[float]:
        return self.report["steps"]


class Bench:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.ops: list[Op] = []
        self.numba_enabled = None

    def run(self, argv, *, trace=False, probe=False) -> Op:
        k = len(self.ops)
        spec = self.work / f"spec-{k}.json"
        report = self.work / f"report-{k}.json"
        spec.write_text(json.dumps({"argv": [str(a) for a in argv], "report": str(report),
                                    "trace": trace, "probe": probe}))
        spawn_t = time.perf_counter()
        timeout = max(1.0, self.deadline - spawn_t)
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
            rc, out, err = -9, e.stdout or "", f"timed out after {timeout:.0f} s"
        rep = json.loads(report.read_text()) if report.exists() else None
        op = Op(argv, rc, out if isinstance(out, str) else out.decode(), rep, spawn_t)
        if rep is not None:
            self.numba_enabled = rep["numba_enabled"]
        if rc != 0:
            sys.stderr.write(f"command {argv[0]} failed ({rc}):\n{err}\n")
        self.ops.append(op)
        return op

    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _records(out_dir: Path) -> list[dict]:
    with open(out_dir / "metrics.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_train(op: Op, out_dir: Path, n_nodes: int) -> None:
    """Outputs of one `train`: records, embeddings, curvatures, checkpoint."""
    import numpy as np
    from curvgnn import manifold, training

    if not op.ok:
        return
    p = op.problems
    try:
        result = json.loads((out_dir / "result.json").read_text())
        records = _records(out_dir)
        n_ep = result["epochs_run"]
        if [r["epoch"] for r in records] != list(range(1, n_ep + 1)):
            p.append("metrics.jsonl does not hold one record per epoch")
        if len(op.steps) != n_ep:
            p.append(f"{len(op.steps)} training steps for {n_ep} epochs")
        if not all(math.isfinite(r["train_loss"]) for r in records):
            p.append("non-finite training loss")
        if not all(0.0 <= r["val_metric"] <= 1.0 for r in records):
            p.append("val_metric outside [0, 1]")
        cfg = training.RunConfig()
        zetas = [z for r in records for z in r["zetas"]] + result["final_zetas"]
        if not all(cfg.zeta_min <= z <= cfg.zeta_max for z in zetas):
            p.append("a curvature left [zeta_min, zeta_max]")
        emb = np.load(out_dir / "embeddings.npy")
        if emb.shape[0] != n_nodes:
            p.append(f"embeddings have {emb.shape[0]} rows for {n_nodes} nodes")
        manifold.check_on_manifold(emb, result["final_zetas"][-1])
        training.load_checkpoint(out_dir / "checkpoint.json")
    except Exception as e:  # any unreadable or invalid output is a failed check
        p.append(f"output check raised {type(e).__name__}: {e}")


def check_same_run(op: Op, out_dir: Path, ref_dir: Path) -> None:
    """Same seed and config: identical records apart from wall_ms, identical
    embedding bytes."""
    if not op.ok:
        return
    strip = [{k: v for k, v in r.items() if k != "wall_ms"} for r in _records(out_dir)]
    ref = [{k: v for k, v in r.items() if k != "wall_ms"} for r in _records(ref_dir)]
    if strip != ref:
        op.problems.append(f"records differ from {ref_dir.name} under the same seed")
    if (out_dir / "embeddings.npy").read_bytes() != (ref_dir / "embeddings.npy").read_bytes():
        op.problems.append(f"embeddings differ from {ref_dir.name} under the same seed")


def check_sweep(op: Op, n_points: int, n_nodes: int) -> None:
    if not op.ok:
        return
    lines = op.out.strip().splitlines()
    if len(lines) != n_points:
        op.problems.append(f"sweep printed {len(lines)} lines for {n_points} grid points")
    for line in lines:
        try:
            z, mean, used, excluded = line.split(",")
            ok = (int(used) == n_nodes * (n_nodes - 1) and int(excluded) == 0
                  and math.isfinite(float(mean)) and float(mean) >= 0.0)
        except ValueError:
            ok = False
        if not ok:
            op.problems.append(f"sweep line {line!r}: expected a finite mean over "
                               f"{n_nodes * (n_nodes - 1)} pairs")


def check_delta_zero(op: Op) -> None:
    if op.ok and op.out.split()[:1] != ["0"]:
        op.problems.append(f"delta on a tree printed {op.out.strip()!r}, expected 0")


def check_kappa(op: Op) -> None:
    if not op.ok:
        return
    try:
        ok = math.isfinite(float(op.out.strip()))
    except ValueError:
        ok = False
    if not ok:
        op.problems.append(f"estimate-curvature printed {op.out.strip()!r}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _train(b: Bench, inputs: dict, name: str, ref: Path | None, trace=False):
    out = b.work / name
    op = b.run(["train", "--config", inputs["config"], "--out", out], trace=trace)
    check_train(op, out, inputs["n_nodes"])
    if ref is not None:
        check_same_run(op, out, ref)
    return op, out


def _step_ms(op: Op) -> float:
    s = op.steps
    return (s[-1] - s[0]) / (len(s) - 1) * 1e3


def _setup(op: Op) -> float:
    first = op.report["steps"][:1] or op.report["loads"][:1]
    return first[0] - op.spawn_t


def _probe(b: Bench, inputs: dict) -> Op:
    op = b.run(["train", "--config", inputs["config"], "--out", b.work / "probe"],
               probe=True)
    if op.ok and len(op.steps) != 1:
        op.problems.append("set-up probe did not reach a training step")
    return op


def bench_train(b: Bench, workload: str, inputs: dict, seconds: float):
    """Rounds of [set-up probes, one full train], repeated until `seconds`
    have passed, so every metric samples the whole run. Returns the samples
    of the bounded metrics and of the named quantities."""
    plan = TRAIN[workload]
    probes, trains, ref = [], [], None
    t0 = time.perf_counter()
    while len(trains) < plan["min_rounds"] or time.perf_counter() - t0 < seconds:
        probes += [_probe(b, inputs) for _ in range(plan["probes"])]
        op, out = _train(b, inputs, f"train-{len(trains)}", ref)
        if ref is None and op.ok:
            ref = out
        trains.append(op)
    good = [op for op in trains if op.ok]
    steps = [_step_ms(op) for op in good if len(op.steps) > 1]
    return {
        "setup_s": [_setup(op) for op in probes + trains if op.ok and op.steps],
        "main_s": [op.seconds for op in good],
        "step_ms": steps,
        "peak_rss_mb": _peak_mb(good),
    }, {
        "train_s": ([op.seconds for op in good], "s"),
        "epochs_per_s": ([1e3 / x for x in steps], "1/s"),
    }


def _peak_mb(ops: list[Op]) -> list[float]:
    return [max(op.report["maxrss_kb"] for op in ops) / 1024.0] if ops else []


def _diag_commands(inputs: dict, seed: int):
    edges = inputs["edges"]
    sweep = ["distortion", "--edges", edges, "--tree-layout", inputs["edge_len"],
             "--zeta", inputs["zeta"], "--grid", DIAG_GRID, "--seed", seed]
    delta = ["delta", "--edges", edges, "--mode", "sampled",
             "--samples", DIAG_DELTA_SAMPLES, "--seed", seed]

    def estimate(i):
        return ["estimate-curvature", "--edges", edges, "--embeddings", inputs["layout"],
                "--zeta", inputs["zeta"], "--seed", seed * 1000 + i]
    return sweep, delta, estimate


def _run_diag(b: Bench, inputs: dict, seed: int, seconds: float, rounds: int, k: int,
              trace=False):
    """Rounds of [sweep, delta, k estimates], then estimates until `seconds`
    have passed."""
    n = inputs["n_nodes"]
    sweep_argv, delta_argv, estimate = _diag_commands(inputs, seed)
    t0 = time.perf_counter()
    sweeps, deltas, ests = [], [], []
    for _ in range(rounds):
        sweeps.append(b.run(sweep_argv, trace=trace))
        check_sweep(sweeps[-1], DIAG_GRID_POINTS, n)
        deltas.append(b.run(delta_argv, trace=trace))
        check_delta_zero(deltas[-1])
        for _ in range(k):
            ests.append(b.run(estimate(len(ests)), trace=trace))
            check_kappa(ests[-1])
    while time.perf_counter() - t0 < seconds:
        ests.append(b.run(estimate(len(ests)), trace=trace))
        check_kappa(ests[-1])
    return sweeps, deltas, ests


def bench_diag(b: Bench, inputs: dict, seed: int, seconds: float):
    """Samples of the bounded metrics and of the named quantities."""
    sweeps, deltas, ests = _run_diag(b, inputs, seed, seconds, DIAG_ROUNDS, DIAG_ESTIMATES)
    every = [op for op in sweeps + deltas + ests if op.ok]
    passes = [sw.seconds + de.seconds for sw, de in zip(sweeps, deltas) if sw.ok and de.ok]
    return {
        "setup_s": [_setup(op) for op in every if op.report["loads"]],
        "main_s": passes,
        "step_ms": [op.seconds * 1e3 for op in ests if op.ok],
        "peak_rss_mb": _peak_mb(every),
    }, {
        "sweep_s": ([op.seconds for op in sweeps if op.ok], "s"),
        "delta_s": ([op.seconds for op in deltas if op.ok], "s"),
        "estimate_s": ([op.seconds for op in ests if op.ok], "s"),
    }


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def trace_train(b: Bench, inputs: dict) -> dict:
    import tracer

    plain, ref = _train(b, inputs, "untraced", None)
    traced, out = _train(b, inputs, "traced", ref if plain.ok else None, trace=True)
    if not (plain.ok and traced.ok):
        return {}
    dump = traced.report["trace"]
    metrics = tracer.aggregate([dump])
    for name, ms in tracer.children_ms(dump, "training.train")[:5]:
        print(f"training.train child {name} = {ms:.6g} ms")
    result = json.loads((out / "result.json").read_text())
    gaps = sorted((b2 - a) * 1e3 for a, b2 in zip(traced.steps, traced.steps[1:]))
    q = statistics.quantiles(gaps, n=20, method="inclusive") if len(gaps) > 1 else [0.0] * 19
    metrics.update({
        "nashq.freeze_epoch": (result["freeze_epoch"] or 0, "epoch"),
        "training.checkpoint_bytes": ((out / "checkpoint.json").stat().st_size, "B"),
        "training.epochs_run": (result["epochs_run"], "count"),
        "training.epoch_ms_p50": (statistics.median(gaps) if gaps else 0.0, "ms"),
        "training.epoch_ms_p95": (q[18], "ms"),
        "training.unattributed_ms": (tracer.loop_unattributed_ms(dump, traced.steps), "ms"),
        "trace.overhead_frac": (traced.seconds / plain.seconds - 1.0, "ratio"),
    })
    return metrics


def trace_diag(b: Bench, inputs: dict, seed: int) -> dict:
    import tracer

    flat_plain = [op for ops in _run_diag(b, inputs, seed, 0.0, 1, 1) for op in ops]
    flat_traced = [op for ops in _run_diag(b, inputs, seed, 0.0, 1, 1, trace=True)
                   for op in ops]
    for p, t in zip(flat_plain, flat_traced):
        if t.ok and p.ok and t.out != p.out:
            t.problems.append("traced output differs from the untraced one")
    if not all(op.ok for op in flat_plain + flat_traced):
        return {}
    metrics = tracer.aggregate([op.report["trace"] for op in flat_traced])
    metrics.update({
        "nashq.freeze_epoch": (0, "epoch"),
        "training.checkpoint_bytes": (0, "B"),
        "training.epochs_run": (0, "count"),
        "training.epoch_ms_p50": (0.0, "ms"),
        "training.epoch_ms_p95": (0.0, "ms"),
        "training.unattributed_ms": (0.0, "ms"),
        "trace.overhead_frac": (sum(op.seconds for op in flat_traced)
                                / sum(op.seconds for op in flat_plain) - 1.0, "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment(b: Bench) -> dict:
    import numpy

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": version("scipy"), "numba_enabled": b.numba_enabled,
            "machine": platform.machine(), "git_sha": sha}


def main() -> int:
    ap = argparse.ArgumentParser(description="curvgnn end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result (samples, environment) here")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "curvgnn" / "cli.py").is_file():
        print(f"no curvgnn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = gen.generate(args.workload, args.seed, work / "inputs")
    b = Bench(work, deadline)

    if args.trace:
        metrics = (trace_diag(b, inputs, args.seed) if args.workload == "tree9-diag"
                   else trace_train(b, inputs))
        samples = {}
    else:
        samples, named = (bench_diag(b, inputs, args.seed, args.seconds)
                          if args.workload == "tree9-diag"
                          else bench_train(b, args.workload, inputs, args.seconds))
        metrics = {name: (statistics.median(values), E2E_UNITS[name])
                   for name, values in samples.items() if values}
        for name, (values, unit) in [*((k, (v, E2E_UNITS[k])) for k, v in samples.items()),
                                     *named.items()]:
            med = statistics.median(values) if values else float("nan")
            print(f"{args.workload} {name} = {med:.6g} {unit}  (median, n={len(values)})")

    missing = sorted({m for op in b.ops if op.report for m in op.report["untraced"]})
    if missing:
        print("not found, so not traced: " + ", ".join(missing))
    failed, attempted = b.failed(), len(b.ops)
    for op in b.ops:
        for problem in op.problems:
            print(f"FAILED {op.argv[0]}: {problem}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g}  ({failed}/{attempted})")
    env = environment(b)
    print("env " + json.dumps(env))
    correct = failed == 0 and len(metrics) > 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "env": env, **result,
             "samples": samples}, indent=1))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
