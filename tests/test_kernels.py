"""Kernel backends must agree bit-for-bit, and the backend switch must hold.

The parity tests compare the loop and numpy fallbacks with each other;
``test_bfs_hops_backends_agree`` also compares the public dispatcher, which
runs the jitted kernel only where numba can be imported. The numpy-only
``bfs_path_sums`` is checked against one loop-built BFS tree per source.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvgnn import _kernels, graphs

import path_oracle


def random_csr(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = graphs.Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    return g.csr()


def test_bfs_hops_backends_agree():
    rng = np.random.default_rng(0)
    for _ in range(5):
        indptr, indices = random_csr(rng, 40, 0.08)
        for s in (0, 7, 39):
            loop = _kernels._bfs_hops_loop(indptr, indices, s)
            vec = _kernels._bfs_hops_np(indptr, indices, s)
            pub = _kernels.bfs_hops(indptr, indices, s)
            assert np.array_equal(loop, vec)
            assert np.array_equal(loop, pub)


def test_bfs_tree_backends_agree():
    rng = np.random.default_rng(1)
    for _ in range(5):
        indptr, indices = random_csr(rng, 30, 0.1)
        h1, p1, o1 = _kernels._bfs_tree_loop(indptr, indices, 0)
        h2, p2, o2 = _kernels._bfs_tree_np(indptr, indices, 0)
        assert np.array_equal(h1, h2)
        assert np.array_equal(p1, p2)  # same smallest-predecessor rule
        # orders may enumerate a hop level differently; both must be valid
        for order, hops in ((o1, h1), (o2, h2)):
            reach = [v for v in order if hops[v] >= 0]
            assert all(hops[a] <= hops[b] for a, b in zip(reach, reach[1:]))


def test_delta_backends_agree():
    rng = np.random.default_rng(2)
    for _ in range(3):
        indptr, indices = random_csr(rng, 14, 0.25)
        g = graphs.Graph(14, [indices[indptr[i]:indptr[i + 1]] for i in range(14)])
        sub = graphs._largest_component_subgraph(g)
        if sub.n_nodes < 4:
            continue
        dist = graphs.hop_distance_matrix(sub)
        assert _kernels._delta_exact_loop(dist) == _kernels._delta_exact_np(dist)


def _tree_path_sums(indptr, indices, source, slot_len):
    """Reference row pair: one ``_bfs_tree_loop`` tree, then a walk down it."""
    hops, parent, order = _kernels._bfs_tree_loop(indptr, indices, source)
    step = np.zeros(len(hops))
    for v in np.flatnonzero(parent >= 0):
        nbrs = indices[indptr[v]:indptr[v + 1]]
        step[v] = slot_len[indptr[v] + np.flatnonzero(nbrs == parent[v])[0]]
    sums = path_oracle.path_sums(order, parent, step)
    sums[hops < 0] = np.inf
    return hops, sums


def test_bfs_path_sums_matches_per_source_trees():
    rng = np.random.default_rng(3)
    cases = [graphs.Graph.from_edges(5, np.array([[0, 1], [1, 2]])).csr()]
    for _ in range(8):
        n_core = int(rng.integers(6, 30))
        edges = [(i, j) for i in range(n_core) for j in range(i + 1, n_core)
                 if rng.random() < 2.0 / n_core]  # sparse: several components
        n_isolated = int(rng.integers(0, 4))  # isolated nodes take the highest ids
        g = graphs.Graph.from_edges(n_core + n_isolated,
                                    np.array(edges, dtype=np.int64).reshape(-1, 2))
        cases.append(g.csr())
    for indptr, indices in cases:
        n = len(indptr) - 1
        slot_len = rng.random(len(indices))  # one length per direction of each edge
        sources = rng.permutation(n)
        want = [_tree_path_sums(indptr, indices, int(s), slot_len) for s in sources]
        for block in (1, 4, n):
            for lo in range(0, n, block):
                hops, sums = _kernels.bfs_path_sums(indptr, indices,
                                                    sources[lo:lo + block], slot_len)
                for row, (want_hops, want_sums) in enumerate(want[lo:lo + block]):
                    assert np.array_equal(hops[row], want_hops)
                    assert np.array_equal(sums[row], want_sums)


def _numba_importable():
    try:
        from numba import njit  # noqa: F401
    except ImportError:
        return False
    return True


def _fresh_numba_enabled(flag):
    """``NUMBA_ENABLED`` as a new interpreter sees it with ``CURVGNN_NUMBA=flag``."""
    env = {k: v for k, v in os.environ.items() if k != "CURVGNN_NUMBA"}
    if flag is not None:
        env["CURVGNN_NUMBA"] = flag
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "from curvgnn import _kernels; print(_kernels.NUMBA_ENABLED)"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_numba_enabled_by_default():
    # the env flag is the only sanctioned way to disable the jitted path;
    # without numba the documented numpy/python fallbacks are selected
    numba_importable = _numba_importable()
    flag_on = os.environ.get("CURVGNN_NUMBA", "1").strip().lower() not in (
        "0", "false", "no", "off")
    assert _kernels.NUMBA_ENABLED == (numba_importable and flag_on)
    # fresh interpreters, so this session's module state is left alone
    for flag in ("0", " OFF ", "false", "no"):
        assert _fresh_numba_enabled(flag) == "False", flag
    assert _fresh_numba_enabled(None) == str(numba_importable)
