"""Hot graph kernels: numba-jitted loops with pure numpy/python fallbacks.

The jitted path is the default wherever numba can be imported; without
numba every kernel runs its fallback. Set the environment variable
``CURVGNN_NUMBA=0`` before import to force the fallback implementations
(useful for debugging). ``bfs_path_sums``, the all-sources kernel behind
embedding distortion, is numpy-only on every platform.

All kernels take CSR adjacency (``indptr``, ``indices``, both int64) and
are deterministic: hop counts are integers and floating-point reductions
happen in the same order on every path, so results are bit-identical
regardless of backend.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("CURVGNN_NUMBA", "1").strip().lower()
_DISABLED = _env in ("0", "false", "no", "off")

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # numba is optional: every kernel then runs its fallback
    _HAVE_NUMBA = False

NUMBA_ENABLED = _HAVE_NUMBA and not _DISABLED

UNREACHABLE = -1  # hop-count sentinel for nodes in another component


# ---------------------------------------------------------------------------
# loop implementations (compiled when numba is enabled, also runnable as-is)
# ---------------------------------------------------------------------------

def _bfs_hops_loop(indptr, indices, source):
    n = indptr.shape[0] - 1
    hops = np.full(n, -1, dtype=np.int64)
    queue = np.empty(n, dtype=np.int64)
    hops[source] = 0
    queue[0] = source
    head = 0
    tail = 1
    while head < tail:
        u = queue[head]
        head += 1
        du = hops[u]
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if hops[v] < 0:
                hops[v] = du + 1
                queue[tail] = v
                tail += 1
    return hops


def _bfs_tree_loop(indptr, indices, source):
    """BFS hop counts plus shortest-path tree with deterministic tie-break.

    parent[v] is the smallest-id neighbor of v one hop closer to source;
    order lists reachable nodes by nondecreasing hop count (then the
    unreachable ones, which downstream consumers skip via parent == -1).
    """
    n = indptr.shape[0] - 1
    hops = np.full(n, -1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    hops[source] = 0
    order[0] = source
    head = 0
    tail = 1
    while head < tail:
        u = order[head]
        head += 1
        du = hops[u]
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if hops[v] < 0:
                hops[v] = du + 1
                order[tail] = v
                tail += 1
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if hops[v] <= 0:
            continue
        target = hops[v] - 1
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if hops[u] == target:
                parent[v] = u  # neighbor lists are sorted: first hit is smallest
                break
    if tail < n:
        for v in range(n):
            if hops[v] < 0:
                order[tail] = v
                tail += 1
    return hops, parent, order


def _delta_exact_loop(dist):
    """Max four-point deviation over all quadruples of a hop-distance matrix."""
    n = dist.shape[0]
    best = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            d_ab = dist[a, b]
            for c in range(b + 1, n):
                d_ac = dist[a, c]
                d_bc = dist[b, c]
                for d in range(c + 1, n):
                    s1 = d_ab + dist[c, d]
                    s2 = d_ac + dist[b, d]
                    s3 = dist[a, d] + d_bc
                    if s1 < s2:
                        s1, s2 = s2, s1
                    if s1 < s3:
                        s1, s3 = s3, s1
                    if s2 < s3:
                        s2 = s3
                    dq = 0.5 * (s1 - s2)
                    if dq > best:
                        best = dq
    return best


if NUMBA_ENABLED:
    _bfs_hops_nb = _njit(cache=True)(_bfs_hops_loop)
    _bfs_tree_nb = _njit(cache=True)(_bfs_tree_loop)
    _delta_exact_nb = _njit(cache=True)(_delta_exact_loop)


# ---------------------------------------------------------------------------
# vectorized numpy fallbacks
# ---------------------------------------------------------------------------

def _bfs_hops_np(indptr, indices, source):
    """Level-synchronous BFS with boolean frontiers (no per-edge python loop)."""
    n = indptr.shape[0] - 1
    hops = np.full(n, -1, dtype=np.int64)
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    hops[source] = 0
    level = 0
    while frontier.any():
        srcs = np.flatnonzero(frontier)
        spans = [np.arange(indptr[s], indptr[s + 1]) for s in srcs]
        reach = indices[np.concatenate(spans)] if spans else np.empty(0, dtype=np.int64)
        nxt = np.zeros(n, dtype=bool)
        nxt[reach] = True
        nxt &= hops < 0
        hops[nxt] = level + 1
        frontier = nxt
        level += 1
    return hops


def _bfs_tree_np(indptr, indices, source):
    hops = _bfs_hops_np(indptr, indices, source)
    n = hops.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if hops[v] <= 0:
            continue
        nbrs = indices[indptr[v]:indptr[v + 1]]
        closer = nbrs[hops[nbrs] == hops[v] - 1]
        parent[v] = closer[0]  # sorted neighbors: first is smallest id
    reach_order = np.argsort(hops, kind="stable").astype(np.int64)
    n_unreach = int((hops < 0).sum())
    if n_unreach:
        reach_order = np.concatenate((reach_order[n_unreach:], reach_order[:n_unreach]))
    return hops, parent, reach_order


def _delta_exact_np(dist):
    """Blocked broadcast version: for each pair (a,b) scan all pairs (c,d)."""
    n = dist.shape[0]
    iu_c, iu_d = np.triu_indices(n, k=1)
    d_cd = dist[iu_c, iu_d]
    best = 0.0
    for a in range(n):
        row_a = dist[a]
        for b in range(a + 1, n):
            keep = iu_c > b
            if not keep.any():
                continue
            c = iu_c[keep]
            d = iu_d[keep]
            s1 = row_a[b] + d_cd[keep]
            s2 = row_a[c] + dist[b, d]
            s3 = row_a[d] + dist[b, c]
            stack = np.sort(np.stack((s1, s2, s3)), axis=0)
            dq = 0.5 * float((stack[2] - stack[1]).max())
            if dq > best:
                best = dq
    return best


# ---------------------------------------------------------------------------
# numpy-only kernels
# ---------------------------------------------------------------------------

def bfs_path_sums(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray,
                  slot_len: np.ndarray):
    """Hop rows and BFS-tree path sums from a block of sources, shape (B, n).

    Row b belongs to ``sources[b]``: ``hops[b]`` is ``bfs_hops`` from it
    (UNREACHABLE for other components) and ``sums[b, v]`` adds
    ``slot_len`` along the ``bfs_tree`` path to v (0 at the source, +inf
    where unreachable). ``slot_len[k]`` is the length of CSR slot k, the
    edge from the node owning slot k to ``indices[k]``. Each node's parent
    is the neighbour in its first CSR slot one hop closer to the source,
    the smallest-predecessor rule of ``bfs_tree``, and sums grow from the
    root one level at a time, so every entry is bit-identical to walking
    each source's tree alone. Temporaries hold O(B * (n + slots))
    elements, so callers bound memory through B.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    hops = np.full(sources.shape[0] * n, UNREACHABLE, dtype=np.int64)
    # push BFS on flat (row * n + node) positions, all rows at once
    frontier = np.arange(sources.shape[0], dtype=np.int64) * n + sources
    hops[frontier] = 0
    levels = []
    while True:
        node = frontier % n
        d = deg[node]
        slot = np.repeat(indptr[node] - (np.cumsum(d) - d), d) + np.arange(d.sum())
        reach = np.repeat(frontier - node, d) + indices[slot]
        new = np.sort(reach[hops[reach] == UNREACHABLE])
        if new.size == 0:
            break
        # dedupe by sort: numpy 2's hash-based np.unique was ~10x slower on
        # these few-thousand-element frontiers
        frontier = new[np.concatenate(([True], new[1:] != new[:-1]))]
        hops[frontier] = len(levels) + 1
        levels.append(frontier)
    hops = hops.reshape(sources.shape[0], n)
    sums = np.zeros(hops.size, dtype=np.float64)
    if levels:
        # first slot of each node whose neighbour is one hop closer; the
        # reduceat segments start only at nodes that own slots, so an empty
        # adjacency list (e.g. isolated nodes at the highest ids) neither
        # clips nor shifts a neighbour's segment. Hop counts and slot ids
        # are held as int32 here to halve the (B, slots) temporaries.
        owner = np.repeat(np.arange(n), deg)
        h = hops.astype(np.int32)
        closer = h[:, indices] == h[:, owner] - 1
        cand = np.where(closer, np.arange(indices.shape[0], dtype=np.int32),
                        indices.shape[0])
        has_slots = deg > 0
        parent_slot = np.zeros(hops.shape, dtype=np.int64)
        parent_slot[:, has_slots] = np.minimum.reduceat(cand, indptr[:-1][has_slots],
                                                        axis=1)
        parent_slot = parent_slot.ravel()
        for pos in levels:
            k = parent_slot[pos]
            sums[pos] = sums[pos - pos % n + indices[k]] + slot_len[k]
    sums = sums.reshape(hops.shape)
    sums[hops == UNREACHABLE] = np.inf
    return hops, sums


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------

def bfs_hops(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Hop counts from ``source``; UNREACHABLE (-1) marks other components."""
    if NUMBA_ENABLED:
        return _bfs_hops_nb(indptr, indices, np.int64(source))
    return _bfs_hops_np(indptr, indices, source)


def bfs_tree(indptr: np.ndarray, indices: np.ndarray, source: int):
    """(hops, parent, bfs_order) with smallest-predecessor tie-break."""
    if NUMBA_ENABLED:
        return _bfs_tree_nb(indptr, indices, np.int64(source))
    return _bfs_tree_np(indptr, indices, source)


def delta_exact(dist: np.ndarray) -> float:
    """Exact Gromov four-point maximum over all C(n,4) quadruples."""
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    if NUMBA_ENABLED:
        return float(_delta_exact_nb(dist))
    return float(_delta_exact_np(dist))
