"""Graph kernels on CSR adjacency, all built on one blocked push BFS.

``_bfs_levels`` runs a level-synchronous BFS from a block of sources at
once and ``_parent_slots`` picks each node's BFS-tree parent; hop rows
(``bfs_hops``), single-source trees (``bfs_tree``) and tree path sums
(``bfs_path_sums``) are thin layers over those two. ``delta_exact`` scans
the quadruples of a hop-distance matrix. Everything is numpy.

All kernels take CSR adjacency (``indptr``, ``indices``, both int64, each
neighbour list sorted) and are deterministic: hop counts are integers and
floating-point sums run in a fixed order. Their temporaries grow with the
number of sources in a call; ``block_sources`` sizes the blocks.
"""

from __future__ import annotations

import numpy as np

UNREACHABLE = -1  # hop-count sentinel for nodes in another component

# elements per (sources x CSR slots) temporary of one block of sources: large
# enough that per-call numpy overhead stays small, small enough that the
# block temporaries (~2.5 MB on a 1023-node tree) barely move peak RSS
BLOCK_ELEMENTS = 1 << 16


def block_sources(indptr: np.ndarray) -> int:
    """Sources per kernel call for this graph, from ``BLOCK_ELEMENTS``."""
    n = indptr.shape[0] - 1
    return max(1, BLOCK_ELEMENTS // max(int(indptr[-1]), n))


def _bfs_levels(indptr, indices, sources):
    """Push BFS from a block of sources: (B, n) hop rows and the frontiers.

    Row b of the hop rows belongs to ``sources[b]`` (UNREACHABLE for other
    components). ``levels[k]`` holds the flat positions ``b * n + v`` of
    the nodes first reached at hop k + 1, ascending.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = indptr.shape[0] - 1
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError(f"BFS source out of range [0, {n})")
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
    return hops.reshape(sources.shape[0], n), levels


def _parent_slots(indptr, indices, hops):
    """(B, n) CSR slot of each node's BFS-tree parent in each hop row.

    The parent is the neighbour in the node's first CSR slot one hop closer
    to the source: with sorted neighbour lists, the smallest such id.
    Entries are meaningful only where ``hops > 0``.
    """
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    # the reduceat segments start only at nodes that own slots, so an empty
    # adjacency list (e.g. isolated nodes at the highest ids) neither clips
    # nor shifts a neighbour's segment. Hop counts and slot ids are held as
    # int32 here to halve the (B, slots) temporaries.
    owner = np.repeat(np.arange(n), deg)
    h = hops.astype(np.int32)
    closer = h[:, indices] == h[:, owner] - 1
    cand = np.where(closer, np.arange(indices.shape[0], dtype=np.int32),
                    indices.shape[0])
    has_slots = deg > 0
    slots = np.zeros(hops.shape, dtype=np.int64)
    slots[:, has_slots] = np.minimum.reduceat(cand, indptr[:-1][has_slots], axis=1)
    return slots


def bfs_hops(indptr: np.ndarray, indices: np.ndarray, sources) -> np.ndarray:
    """(B, n) hop counts from each of ``sources``; UNREACHABLE (-1) elsewhere."""
    return _bfs_levels(indptr, indices, sources)[0]


def bfs_tree(indptr: np.ndarray, indices: np.ndarray, source: int):
    """(hops, parent, order) of the BFS tree from one source.

    parent[v] is the smallest-id neighbour of v one hop closer to source,
    -1 at the source and in other components. order lists the source, then
    each hop level in ascending id, then the unreachable nodes by id.
    """
    hops, levels = _bfs_levels(indptr, indices, [source])
    hops = hops[0]
    parent = np.full(hops.shape[0], -1, dtype=np.int64)
    if levels:
        reached = hops > 0
        parent[reached] = indices[_parent_slots(indptr, indices, hops[None])[0, reached]]
    order = np.concatenate([np.array([source], dtype=np.int64), *levels,
                            np.flatnonzero(hops == UNREACHABLE)])
    return hops, parent, order


def bfs_path_sums(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray,
                  slot_len: np.ndarray):
    """Hop rows and BFS-tree path sums from a block of sources, shape (B, n).

    Row b belongs to ``sources[b]``: ``hops[b]`` is ``bfs_hops`` from it
    and ``sums[b, v]`` adds ``slot_len`` along the ``bfs_tree`` path to v
    (0 at the source, +inf where unreachable). ``slot_len[k]`` is the
    length of CSR slot k, the edge from the node owning slot k to
    ``indices[k]``. Sums grow from the root one level at a time, so every
    entry is bit-identical to walking each source's tree alone.
    """
    hops, levels = _bfs_levels(indptr, indices, sources)
    n = hops.shape[1]
    sums = np.zeros(hops.size, dtype=np.float64)
    if levels:
        parent_slot = _parent_slots(indptr, indices, hops).ravel()
        for pos in levels:
            k = parent_slot[pos]
            sums[pos] = sums[pos - pos % n + indices[k]] + slot_len[k]
    sums = sums.reshape(hops.shape)
    sums[hops == UNREACHABLE] = np.inf
    return hops, sums


def delta_exact(dist: np.ndarray) -> float:
    """Exact Gromov four-point maximum over all C(n,4) quadruples.

    For each pair (a, b) one broadcast scans every pair (c, d) with
    b < c < d.
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
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
