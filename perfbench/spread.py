"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --seeds 0-9 --out perfbench/baseline/e2e.json \
        tree7-lp tree9-diag pa2708-lp

For every workload and metric it reports the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. Runs are sequential, one
benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="0-9", help="lo-hi or a,b,c")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
            result = json.loads(lines[-1]) if lines else {"correct": False}
            print(f"{workload} seed {seed}: rc={proc.returncode} correct={result['correct']}",
                  flush=True)
            runs.append({"seed": seed, "env": env, **result})
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if r.get("correct")]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bound, "n": len(values)}
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bound}", flush=True)
        summary["workloads"][workload] = {"metrics": rows, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
