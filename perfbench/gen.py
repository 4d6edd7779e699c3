"""Seeded, numpy-only input generator for the benchmark workloads.

Every input is a pure function of the workload seed. The program under test
only ever sees the files and the run config written here, never this
module, so the generator does not import the package.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PA_NODES = 2708  # Cora's node count
PA_M = 2  # edges per new node in preferential attachment
FEATURE_DIM = 16
# The workload seed draws graphs and features. The training seed, which fixes
# the edge split, initialisation and the agents' random draws, stays at the
# README desk run's value: on a tree the split decides how large the
# message-graph components are, and with them the cost of distortion.
TRAIN_SEED = 7
TREE9_DEPTH = 9
TREE9_ZETA = 1.0
TREE9_EDGE_LEN = 0.5


def _seq(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _components(n: int, edges: np.ndarray) -> int:
    """Number of connected components, by label propagation."""
    label = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        low = np.minimum(label[u], label[v])
        new = label.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]  # pointer jumping
        if np.array_equal(new, label):
            return int(np.unique(label).size)
        label = new


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"generated input is wrong: {what}")


def _check_graph(n: int, edges: np.ndarray, n_edges: int) -> None:
    _require(edges.shape == (n_edges, 2), f"{edges.shape[0]} edges, expected {n_edges}")
    _require(edges.min() >= 0 and edges.max() == n - 1, f"node ids must span [0, {n})")
    _require(bool(np.all(edges[:, 0] < edges[:, 1])), "edges must be u < v, no self-loops")
    keys = edges[:, 0] * n + edges[:, 1]
    _require(np.unique(keys).size == n_edges, "duplicate edges")
    _require(_components(n, edges) == 1, "graph must be connected")


def preferential_attachment(n: int, m: int, seed: int) -> np.ndarray:
    """Barabasi-Albert graph: each new node links to m distinct existing nodes
    drawn with probability proportional to degree. Starts from an (m+1)-clique."""
    rng = _seq(seed, 1)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    ends = [x for e in edges for x in e]  # node repeated once per incident edge
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            edges.append((t, v))
            ends += (t, v)
    return np.array(edges, dtype=np.int64)


def node_features(n: int, edges: np.ndarray, seed: int) -> np.ndarray:
    """Gaussian noise plus a normalized-degree channel in column 0."""
    feats = 0.2 * _seq(seed, 2).standard_normal((n, FEATURE_DIM))
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    feats[:, 0] = deg / deg.max()
    return feats


def binary_tree(depth: int) -> np.ndarray:
    """Balanced binary tree in heap order, node 0 the root (as --synthetic-tree)."""
    child = np.arange(1, 2 ** (depth + 1) - 1)
    return np.stack([(child - 1) // 2, child], axis=1)


def relabeled_tree(depth: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Balanced binary tree with seeded node ids; returns (edges, heap_to_id)."""
    n = 2 ** (depth + 1) - 1
    perm = _seq(seed, 3).permutation(n)
    child = np.arange(1, n)
    parent = (child - 1) // 2
    a, b = perm[parent], perm[child]
    edges = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order], perm


def tree_layout(depth: int, perm: np.ndarray, zeta: float, edge_len: float,
                seed: int) -> np.ndarray:
    """Geodesic layout of the heap-ordered binary tree on the 2-d hyperboloid.

    Built in the Poincare disk (curvature -1/zeta^2): every child sits at
    hyperbolic distance edge_len from its parent, fanned around the
    direction back to the grandparent with a seeded angular offset, then
    lifted to ambient hyperboloid coordinates (n, 3).
    """
    n = 2 ** (depth + 1) - 1
    r = np.tanh(edge_len / (2.0 * zeta))  # disk radius of a step from the origin
    jitter = _seq(seed, 4).uniform(-0.2, 0.2, size=n)
    pos = np.zeros(n, dtype=np.complex128)
    for v in range(n):
        kids = [c for c in (2 * v + 1, 2 * v + 2) if c < n]
        if not kids:
            continue
        p = pos[v]
        if v == 0:
            base, fan = jitter[v], [2.0 * np.pi * i / len(kids) for i in range(len(kids))]
        else:
            q = pos[(v - 1) // 2]
            back = (q - p) / (1.0 - np.conj(p) * q)  # grandparent seen from v at 0
            base = np.angle(back) + jitter[v]
            fan = [2.0 * np.pi * (i + 1) / (len(kids) + 1) for i in range(len(kids))]
        for c, ang in zip(kids, fan):
            w = r * np.exp(1j * (base + ang))
            pos[c] = (w + p) / (1.0 + np.conj(p) * w)  # move the origin back to v
    s = np.abs(pos) ** 2
    x = np.empty((n, 3))
    x[:, 0] = zeta * (1.0 + s) / (1.0 - s)
    x[:, 1] = zeta * 2.0 * pos.real / (1.0 - s)
    x[:, 2] = zeta * 2.0 * pos.imag / (1.0 - s)
    out = np.empty_like(x)
    out[perm] = x  # heap index -> file node id
    resid = np.abs(out[:, 0] ** 2 - (out[:, 1:] ** 2).sum(axis=1) - zeta * zeta)
    _require(bool(np.all(resid <= 1e-9 * np.maximum(1.0, out[:, 0] ** 2))),
             "layout off the hyperboloid")
    return out


def write_edges(path: Path, edges: np.ndarray) -> None:
    path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))


def write_features(path: Path, feats: np.ndarray) -> None:
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in feats))


def _train_config(out: Path, **fields) -> dict:
    config = {"edge_path": str(out / "edges.tsv"), "feature_path": str(out / "features.csv"),
              "task": "lp", "seed": TRAIN_SEED, **fields}
    (out / "config.json").write_text(json.dumps(config))
    return {"config": str(out / "config.json"), **config}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into out; return the run description."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "tree7-lp":
        n = 2 ** 8 - 1
        edges = binary_tree(7)
        _check_graph(n, edges, n - 1)
        write_edges(out / "edges.tsv", edges)
        write_features(out / "features.csv", node_features(n, edges, seed))
        return {"n_nodes": n, **_train_config(out, epochs=100)}
    if workload == "pa2708-lp":
        edges = preferential_attachment(PA_NODES, PA_M, seed)
        _check_graph(PA_NODES, edges, 3 + PA_M * (PA_NODES - PA_M - 1))
        write_edges(out / "edges.tsv", edges)
        write_features(out / "features.csv", node_features(PA_NODES, edges, seed))
        return {"n_nodes": PA_NODES, **_train_config(out, epochs=40, distortion_every=0)}
    if workload == "tree9-diag":
        n = 2 ** (TREE9_DEPTH + 1) - 1
        edges, perm = relabeled_tree(TREE9_DEPTH, seed)
        _check_graph(n, edges, n - 1)
        write_edges(out / "edges.tsv", edges)
        np.save(out / "layout.npy",
                tree_layout(TREE9_DEPTH, perm, TREE9_ZETA, TREE9_EDGE_LEN, seed))
        return {"edges": str(out / "edges.tsv"), "layout": str(out / "layout.npy"),
                "zeta": TREE9_ZETA, "edge_len": TREE9_EDGE_LEN, "n_nodes": n}
    raise ValueError(f"unknown workload {workload!r}")
