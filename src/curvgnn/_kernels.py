"""Graph kernels on CSR adjacency, all built on one bit-parallel BFS.

``_bfs_bits`` runs a level-synchronous pull BFS from many sources at
once, one bit per source in words of ``WORD_BITS`` (the multi-source BFS
of Then et al., "The More the Merrier", PVLDB 2014): each level is one
gather of the frontier words over the CSR slots and one OR per node.
Hop rows (``bfs_hops``), single-source trees (``bfs_tree``) and the tree
paths of a block of sources (``bfs_paths``) are thin layers over it. A
BFS-tree parent is the first CSR slot one hop closer to the source, picked
for whole trees by ``_parent_slots`` and along the paths to requested nodes
only by ``_path_parents``. ``bfs_paths`` returns only the (row, node)
pairs a source reaches, with a plan of their tree paths; ``path_sums`` adds
any edge-length vector along that plan, one sum per pair, so one BFS serves
any number of length vectors.
``delta_exact`` scans the quadruples of a hop-distance matrix.
Everything is numpy.

All kernels take CSR adjacency (``indptr``, ``indices``, both int64, each
neighbour list sorted) and are deterministic: hop counts are integers and
floating-point sums run in a fixed order. Their (sources, n) outputs grow
with the number of sources in a call, so callers pass sources
``BLOCK_SOURCES`` at a time, or a few words at a time on small graphs.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64  # sources per uint64 word of the bit-parallel BFS
BLOCK_SOURCES = WORD_BITS  # sources per kernel call from the callers: one word


def sorted_unique(a):
    """Sorted distinct values of a, as ``np.unique(a)`` returns them.

    numpy 2's hash-based ``np.unique`` is ~10x slower than a sort on arrays
    of a few thousand elements, and without ``return_*`` flags its
    masked-array check imports ``numpy.ma``, a large share of a short CLI
    command's start-up.
    """
    a = np.sort(a)
    first = np.ones(a.shape, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _bfs_bits(indptr, indices, sources):
    """Bit-parallel pull BFS from a block of sources, as (n, words) bit arrays.

    Bit j % 64 of word j // 64 in node v's row stands for ``sources[j]``.
    Returns ``seen``, the nodes each source reaches, and the hop counts as
    bit planes: ``planes[i]`` holds bit i of every count.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = indptr.shape[0] - 1
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError(f"BFS source out of range [0, {n})")
    j = np.arange(sources.shape[0])
    seen = np.zeros((n, max(1, -(-j.shape[0] // WORD_BITS))), dtype=np.uint64)
    np.bitwise_or.at(seen, (sources, j // WORD_BITS),
                     np.left_shift(np.uint64(1), (j % WORD_BITS).astype(np.uint64)))
    # each level ORs the frontier words over a node's slots; the reduceat
    # segments start only at nodes that own slots, so an empty adjacency list
    # neither clips nor shifts a neighbour's segment (such a node is reached
    # only as a source)
    has_slots = np.diff(indptr) > 0
    starts = indptr[:-1][has_slots]
    front = seen
    planes = []
    level = 0
    while starts.size:
        new = np.zeros_like(seen)
        new[has_slots] = np.bitwise_or.reduceat(front[indices], starts, axis=0)
        new &= ~seen
        if not new.any():
            break
        level += 1
        seen = seen | new
        front = new
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(seen))
        for i, plane in enumerate(planes):
            if level >> i & 1:
                plane |= new
    return seen, planes


def _unpack(words):
    """(n, 64 * words) 0/1 bytes of an (n, words) bit array, column j = bit j."""
    # "<u8" pins the byte order, so byte k of a word holds bits 8k..8k+7
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")


def _hop_rows(seen, planes, n_src):
    """(n_src, n) hop rows from the BFS bits; -1 at unreached nodes.

    The rows come in the smallest signed integer type that holds -1 and
    every count below 2 ** len(planes) (int8 up to depth 127), which keeps
    the (sources, slots) temporaries of the parent search small. Unpacking
    costs one pass per bit plane rather than one per level.
    """
    dtype = np.min_scalar_type(-(1 << len(planes)))
    hops = -_unpack(~seen).astype(dtype)  # 0 at reached nodes, -1 elsewhere
    for i, plane in enumerate(planes):
        hops += _unpack(plane).astype(dtype) << i
    return np.ascontiguousarray(hops[:, :n_src].T)


def _split_by_hop(pos, hop):
    """``pos`` grouped by ``hop``: entry k >= 1 holds the positions at hop
    k in their given order, entry 0 those at hop 0 or -1."""
    order = np.argsort(hop, kind="stable")  # a radix sort on int8 hops
    return np.split(pos[order], np.searchsorted(hop[order],
                                                np.arange(1, hop.max(initial=0) + 1)))


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
    # nor shifts a neighbour's segment. Slot ids are held as int32 to halve
    # the (B, slots) temporaries.
    owner = np.repeat(np.arange(n), deg)
    closer = hops[:, indices] == hops[:, owner] - 1
    cand = np.where(closer, np.arange(indices.shape[0], dtype=np.int32),
                    indices.shape[0])
    has_slots = deg > 0
    slots = np.zeros(hops.shape, dtype=np.int32)
    slots[:, has_slots] = np.minimum.reduceat(cand, indptr[:-1][has_slots], axis=1)
    return slots


def bfs_hops(indptr: np.ndarray, indices: np.ndarray, sources) -> np.ndarray:
    """(B, n) hop counts from each of ``sources``; -1 at unreached nodes."""
    return _hop_rows(*_bfs_bits(indptr, indices, sources), len(sources)).astype(np.int64)


def bfs_tree(indptr: np.ndarray, indices: np.ndarray, source: int):
    """(hops, parent) of the BFS tree from one source.

    parent[v] is the smallest-id neighbour of v one hop closer to source,
    -1 at the source and in other components.
    """
    hops = _hop_rows(*_bfs_bits(indptr, indices, [source]), 1)[0]
    parent = np.full(hops.shape[0], -1, dtype=np.int64)
    reached = hops > 0
    if reached.any():
        parent[reached] = indices[_parent_slots(indptr, indices, hops[None])[0, reached]]
    return hops.astype(np.int64), parent


def _path_parents(indptr, indices, hops, pos):
    """Parent slots along the BFS-tree paths to reached flat positions ``pos``.

    Walks the union of the paths bottom-up, one hop level at a time, and
    picks each node's parent by the rule of ``_parent_slots``. Returns
    (positions, parent slots) pairs, one per level, from hop 1 downwards.
    """
    n = hops.shape[1]
    flat = hops.ravel()
    deg = np.diff(indptr)
    todo = sorted_unique(pos)
    levels = _split_by_hop(todo, flat[todo])
    steps = []
    cur = levels[-1]
    for level in range(len(levels) - 1, 0, -1):
        base = cur - cur % n
        d = deg[cur - base]
        first = np.cumsum(d) - d
        slot = np.repeat(indptr[cur - base] - first, d) + np.arange(first[-1] + d[-1])
        closer = flat[np.repeat(base, d) + indices[slot]] == level - 1
        k = np.minimum.reduceat(np.where(closer, slot, indices.shape[0]), first)
        steps.append((cur, k))
        cur = sorted_unique(np.concatenate((base + indices[k], levels[level - 1])))
    return steps[::-1]


def bfs_paths(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, pairs=None):
    """The reached (row, node) pairs of a block of sources and their tree paths.

    Row b belongs to ``sources[b]``; a node is reached when it lies one or
    more hops from the row's source. Returns (rows, nodes, paths) for the
    reached pairs only: every one in row-major order without ``pairs``,
    else those of ``pairs = (rows, nodes)`` in their given order,
    duplicates kept. ``paths`` lists, one hop level at a time from the
    root down, each resolved (row, node) position, its tree parent's
    position and the CSR slot of the edge between them. None of it depends
    on edge lengths, so one call serves the path sums of any number of
    length vectors.
    """
    hops = _hop_rows(*_bfs_bits(indptr, indices, sources), len(sources))
    n = hops.shape[1]
    flat = hops.ravel()
    # positions and slots fit int32 on any graph the (B, n) hop rows fit
    # memory for, which halves the plan next to int64
    idx = np.int32 if max(flat.size, indices.shape[0]) < 2 ** 31 else np.int64
    if pairs is None:
        take = flat > 0
        rows, nodes = np.nonzero(take.reshape(hops.shape))
        parent_slot = _parent_slots(indptr, indices, hops).ravel()
        levels = _split_by_hop(np.arange(flat.size, dtype=idx), flat)[1:]
        steps = [(at, parent_slot[at]) for at in levels]
    else:
        take = np.asarray(pairs[0], dtype=np.int64) * n + pairs[1]
        ok = flat[take] > 0
        rows, nodes, take = pairs[0][ok], pairs[1][ok], take[ok]
        steps = _path_parents(indptr, indices, hops, take)
    steps = [(at.astype(idx, copy=False), (at - at % n + indices[k]).astype(idx),
              k.astype(idx, copy=False)) for at, k in steps]
    return rows, nodes, (flat.size, steps, take)


def path_sums(paths, slot_len: np.ndarray) -> np.ndarray:
    """BFS-tree path sums of the pairs of a ``bfs_paths`` plan, one per pair.

    The sum of (b, v) adds ``slot_len`` along the ``bfs_tree`` path from
    ``sources[b]`` to v; ``slot_len[k]`` is the length of CSR slot k, the
    edge from the node owning slot k to ``indices[k]``. Sums grow from the
    root one level at a time, so every one is bit-identical to walking
    each source's tree alone.
    """
    size, steps, take = paths
    sums = np.zeros(size)
    for at, up, k in steps:
        step = np.take(sums, up)
        step += np.take(slot_len, k)
        sums[at] = step
    return sums[take]


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
