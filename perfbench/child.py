"""Run one curvgnn CLI command in a fresh process and write a timing report.

    python3 perfbench/child.py SPEC.json

SPEC holds `argv` (passed to `curvgnn.cli.main`), `report` (path of the
JSON report to write), `trace` (wrap the package's public functions, see
tracer.py) and `probe` (stop at the first training step: a set-up-only run).

Times are raw time.perf_counter() values, which on Linux read the system
monotonic clock, so the parent can subtract its own stamps from them.
Always recorded: the start of every training step (a call of
HyperbolicGNN.forward with training=True), the end of every load_graph
call, the command's start and end, its exit code and peak RSS.
"""

import functools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class ProbeDone(BaseException):
    """Raised at the first training step of a set-up probe; the CLI lets it pass."""


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from curvgnn import _kernels, cli, graphs, layers

    steps: list[float] = []
    loads: list[float] = []

    forward = layers.HyperbolicGNN.forward

    @functools.wraps(forward)
    def stamped_forward(self, *args, **kwargs):
        if kwargs.get("training"):
            steps.append(time.perf_counter())
            if spec["probe"]:
                raise ProbeDone
        return forward(self, *args, **kwargs)

    load_graph = graphs.load_graph

    @functools.wraps(load_graph)
    def stamped_load_graph(*args, **kwargs):
        out = load_graph(*args, **kwargs)
        loads.append(time.perf_counter())
        return out

    layers.HyperbolicGNN.forward = stamped_forward
    graphs.load_graph = stamped_load_graph

    tr = None
    missing: list[str] = []
    if spec["trace"]:
        import tracer

        tr = tracer.Tracer()
        missing = tracer.install(tr)

    t0 = time.perf_counter()
    try:
        rc = cli.main(spec["argv"])
    except ProbeDone:
        rc = 0
    t1 = time.perf_counter()
    sys.stdout.flush()
    report = {
        "rc": rc,
        "main_t0": t0, "main_t1": t1, "steps": steps, "loads": loads,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numba_enabled": bool(getattr(_kernels, "NUMBA_ENABLED", False)),
        "trace": tr.dump() if tr else None, "untraced": missing,
    }
    Path(spec["report"]).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
