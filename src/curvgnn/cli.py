"""Command-line entry points.

Subcommands: train, eval, delta, distortion, estimate-curvature.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
Options may come from a JSON config file (--config); explicit flags win.
--log-level (before the subcommand) sends the package's log records at or
above that level to stderr.

Counts that size a diagnostic's arrays have stated limits, and a count
beyond one is a usage error, not an allocation numpy refuses. A
``distortion`` grid has at most GRID_POINTS_MAX points: the sweep holds
every point's remapped embeddings and edge lengths at once, 8 (n (d+1) +
2m) bytes a point (41 KB on a 1023-node tree with a 3-column layout).
``estimate-curvature --samples`` is at most ESTIMATE_SAMPLES_MAX
quadruples per node: each quadruple holds about 90 + 24 (d+1) bytes at
once (160 bytes on that tree). ``delta --samples`` is at most
DELTA_SAMPLES_MAX quadruples: about 330 bytes and one Python-level draw
(~40 us) each.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import logging
import math
import sys

import numpy as np

from . import curvature, graphs, training
from .training import RunConfig, TrainingDiverged


class UsageError(Exception):
    pass


# the count limits of the module docstring
GRID_POINTS_MAX = 1000
ESTIMATE_SAMPLES_MAX = 1000
DELTA_SAMPLES_MAX = 100_000


# glibc mallopt parameters (malloc.h). A training step builds tens of MB of
# tape temporaries and frees them; by default glibc hands the freed top of the
# heap back to the OS, so every forward pass faults the same pages in again.
# Serving requests below glibc's 64-bit mmap ceiling (32 MB) from the heap,
# and trimming only beyond 64 MB of free top, keeps those pages for the next
# step. Allocation never changes a value, so outputs are unaffected.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> bool:
    """Tell glibc to keep the process's freed heap; False where there is no mallopt.

    The CLI owns its process, so it sets this allocator policy once; the
    library itself leaves the allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return True


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Send the package's log records at ``level`` and above to stderr.

    The handler and level are undone on exit, so repeated in-process calls
    of ``main`` do not stack handlers.
    """
    logger = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators from non-negative ints."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _zeta(text: str) -> float:
    """A --zeta value: a curvature parameter is positive and finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _count(limit: int):
    """An argparse type for a sample count: an int of at most `limit`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {value}")
        return value
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="curvgnn",
                description="Hyperbolic GNN with adaptive curvature search")
    p.add_argument("--log-level", choices=_LOG_LEVELS, default="warning",
                   help="log records at this level and above go to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    # every train option but --config and --out has a RunConfig field as dest
    tr = sub.add_parser("train", help="run the curvature-search training loop")
    tr.add_argument("--config", help="JSON file of RunConfig fields")
    tr.add_argument("--edges", dest="edge_path")
    tr.add_argument("--features", dest="feature_path")
    tr.add_argument("--labels", dest="label_path")
    tr.add_argument("--synthetic-tree", type=int, dest="synthetic_tree_depth",
                    help="train on a balanced binary tree of this depth")
    tr.add_argument("--task", choices=["lp", "nc"])
    tr.add_argument("--seed", type=_seed)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--dim", type=int)
    tr.add_argument("--layers", type=int, dest="n_layers")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--dropout", type=float)
    tr.add_argument("--zeta0", type=float)
    tr.add_argument("--gamma", type=float)
    tr.add_argument("--alpha", type=float)
    tr.add_argument("--beta", type=float)
    tr.add_argument("--val-frac", type=float, dest="val_frac")
    tr.add_argument("--test-frac", type=float, dest="test_frac")
    tr.add_argument("--no-rl", action="store_const", const=False, dest="rl_enabled",
                    help="fixed-curvature control run (RL disabled)")
    tr.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("eval", help="evaluate a saved checkpoint on its test split")
    ev.add_argument("--checkpoint", required=True)

    de = sub.add_parser("delta", help="Gromov delta-hyperbolicity of a graph")
    de.add_argument("--edges", required=True)
    de.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    de.add_argument("--samples", type=_count(DELTA_SAMPLES_MAX), default=5000)
    de.add_argument("--seed", type=_seed, default=0)

    di = sub.add_parser("distortion",
                        help="sweep embedding distortion over a curvature grid")
    di.add_argument("--edges", required=True)
    source = di.add_mutually_exclusive_group(required=True)
    source.add_argument("--embeddings", help=".npy of ambient coordinates (n, d+1)")
    source.add_argument("--tree-layout", type=float, dest="tree_layout",
                        help="instead of --embeddings, lay the graph out as a tree "
                             "with this edge length")
    di.add_argument("--zeta", type=_zeta, default=1.0,
                    help="curvature the embeddings live at")
    di.add_argument("--grid", default="0.2:4.0:0.2", help="start:stop:step, inclusive")
    di.add_argument("--seed", type=_seed, default=0)

    ec = sub.add_parser("estimate-curvature",
                        help="parallelogram-law curvature estimate of an embedding")
    ec.add_argument("--edges", required=True)
    ec.add_argument("--embeddings", required=True)
    ec.add_argument("--zeta", type=_zeta, default=1.0)
    ec.add_argument("--samples", type=_count(ESTIMATE_SAMPLES_MAX), dest="n_s",
                    help="quadruples per node (default: estimate_kappa's)")
    ec.add_argument("--seed", type=_seed, default=0)
    return p


def _train_config(args) -> RunConfig:
    fields: dict = {}
    if args.config:
        fields.update(graphs.read_json(args.config, "config"))
    fields.update({k: v for k, v in vars(args).items()
                   if k not in ("command", "config", "out", "log_level") and v is not None})
    unknown = set(fields) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise UsageError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**fields)


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise UsageError(f"bad grid {text!r}; expected start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"bad grid {text!r}; start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise UsageError("grid needs step > 0 and stop >= start")
    if start <= 0:
        raise UsageError(f"bad grid {text!r}; every curvature must be positive")
    # one point past the limit shows that the grid exceeds it
    n = min(int(round((stop - start) / step)) + 1, GRID_POINTS_MAX + 1)
    grid = start + step * np.arange(n)
    grid = grid[grid <= stop + 1e-9]
    if len(grid) > GRID_POINTS_MAX:
        raise UsageError(f"bad grid {text!r}; at most {GRID_POINTS_MAX} points")
    return grid


def _load_edges(path) -> graphs.Graph:
    """The graph of a diagnostic command; each of them needs an edge."""
    g = graphs.load_graph(path)
    if g.n_edges == 0:
        raise graphs.DataError(f"{path} holds no edges")
    return g


def _load_embeddings(args, g: graphs.Graph) -> np.ndarray:
    """The --embeddings file, or distortion's --tree-layout (argparse lets
    exactly one of the two through)."""
    if getattr(args, "tree_layout", None) is not None:
        return curvature.tree_layout_hyperbolic(g, args.zeta, args.tree_layout)
    try:  # pickled objects stay refused
        emb = np.load(args.embeddings)
        if not isinstance(emb, np.ndarray):  # an .npz archive
            emb.close()
            raise ValueError("not a single array")
    except ValueError as e:
        raise graphs.DataError(f"cannot read {args.embeddings} as a .npy array") from e
    if emb.dtype.kind not in "iuf":  # no strings, no complex parts to drop
        raise graphs.DataError(f"embeddings must be real numbers, got dtype {emb.dtype}",
                               args.embeddings)
    if emb.ndim != 2 or emb.shape[0] != g.n_nodes:
        raise graphs.DataError(
            f"embeddings shape {emb.shape} does not match {g.n_nodes} nodes")
    return emb


def _cmd_train(args) -> int:
    config = _train_config(args)
    result = training.train(config, out_dir=args.out)
    print(f"best_val={result.best_val_metric:.4f} epoch={result.best_epoch} "
          f"test={result.test_metric:.4f} zeta={result.final_zeta}")
    return 0


def _cmd_eval(args) -> int:
    out = training.evaluate_checkpoint(args.checkpoint)
    print(json.dumps(out))
    return 0


def _cmd_delta(args) -> int:
    g = _load_edges(args.edges)
    d = graphs.gromov_delta(g, mode=args.mode,
                            n_samples=args.samples if args.mode == "sampled" else None,
                            seed=args.seed)
    if args.mode == "sampled":
        print(f"{d:g} (lower bound from {args.samples} sampled quadruples)")
    else:
        print(f"{d:g}")
    return 0


def _cmd_distortion(args) -> int:
    g = _load_edges(args.edges)
    emb = _load_embeddings(args, g)
    grid = _parse_grid(args.grid)
    for z, rep in curvature.distortion_sweep(g, emb, args.zeta, grid, seed=args.seed):
        print(f"{z:g},{rep.mean_distortion:.6f},{rep.pairs_used},{rep.pairs_excluded}")
    return 0


def _cmd_estimate(args) -> int:
    g = _load_edges(args.edges)
    emb = _load_embeddings(args, g)
    n_s = {} if args.n_s is None else {"n_s": args.n_s}
    est = curvature.estimate_kappa(g, emb, args.zeta, seed=args.seed, **n_s)
    print(f"{est.kappa:.6g}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "delta": _cmd_delta,
    "distortion": _cmd_distortion,
    "estimate-curvature": _cmd_estimate,
}


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _log_to_stderr(args.log_level):
            return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        if isinstance(e, graphs.DataError):
            print(f"data error: {e}", file=sys.stderr)
            return 2
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except TrainingDiverged as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
