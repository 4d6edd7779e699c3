"""Loop references for the adjacency build, BFS trees and path-sum distances.

``csr_loop`` builds sorted neighbour lists one edge at a time: the
adjacency that ``graphs.Graph.from_edges`` must reproduce. One scalar queue
BFS tree per source (``_bfs_tree_loop``) and one python-level walk down it
are the definition that ``_kernels.bfs_tree``, ``_kernels.path_sums`` over
a ``_kernels.bfs_paths`` plan and ``curvature.embedding_distortion`` must
reproduce bit for bit.
``connected_components_loop`` finds components one single-source BFS at a
time: the order and members ``graphs.connected_components`` must reproduce.
``path_graph`` and ``cycle_graph`` build the simplest test inputs.
"""

import numpy as np

from curvgnn import _kernels, graphs, manifold


def path_graph(n: int) -> graphs.Graph:
    """Nodes 0..n-1 joined in a line."""
    edges = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64)
    return graphs.Graph.from_edges(n, edges)


def cycle_graph(n: int) -> graphs.Graph:
    """Nodes 0..n-1 joined in a ring."""
    edges = np.array([(i, (i + 1) % n) for i in range(n)], dtype=np.int64)
    return graphs.Graph.from_edges(n, edges)


def csr_loop(n_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the undirected graph on n_nodes, edge by edge.

    Self-loops are dropped and each unordered pair is kept once; both
    directions are stored and every node's neighbours come sorted.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pairs = {(min(u, v), max(u, v)) for u, v in edges.tolist() if u != v}
    nbrs = [[] for _ in range(n_nodes)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum([len(a) for a in nbrs], out=indptr[1:])
    indices = np.array([v for a in nbrs for v in sorted(a)], dtype=np.int64)
    return indptr, indices


def adjacent(g: graphs.Graph, v: int) -> np.ndarray:
    """Sorted neighbours of node v: its slice of the CSR arrays."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]]


class DisconnectedError(ValueError):
    """A node pair in different components was handed to a path query."""


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


def path_sums(order, parent, step_len):
    """Accumulate per-node path lengths along a BFS tree.

    step_len[v] is the embedded length of the tree edge (v, parent[v]);
    entries for the source and unreachable nodes are ignored. Nodes are
    processed in BFS order so parents are finished before children.
    """
    total = np.zeros(order.shape[0], dtype=np.float64)
    for v in order:
        p = parent[v]
        if p >= 0:
            total[v] = total[p] + step_len[v]
    return total


def path_distance_row(g, emb, zeta, source):
    """Embedded lengths of BFS shortest paths from source to every node.

    Paths follow the BFS tree with the smallest-predecessor tie-break; the
    length of a path is the sum of hyperbolic distances over consecutive
    node pairs. Returns (lengths, hops); unreachable nodes carry +inf.
    """
    indptr, indices = g.indptr, g.indices
    hops, parent, order = _bfs_tree_loop(indptr, indices, int(source))
    has_parent = parent >= 0
    step = np.zeros(g.n_nodes, dtype=np.float64)
    if has_parent.any():
        kids = np.flatnonzero(has_parent)
        step[kids] = manifold.hyp_distance(emb[kids], emb[parent[kids]], zeta)
    total = path_sums(order, parent, step)
    total[hops < 0] = np.inf
    return total, hops


def hyperbolic_graph_distance(g, emb, i, j, zeta):
    """Embedded length of the shortest hop path between nodes i and j."""
    total, hops = path_distance_row(g, emb, zeta, i)
    if hops[j] < 0:
        raise DisconnectedError(f"nodes {i} and {j} are in different components")
    return float(total[j])


def connected_components_loop(g):
    """Components as one single-source BFS from each smallest unassigned id."""
    unassigned = np.ones(g.n_nodes, dtype=bool)
    comps = []
    while unassigned.any():
        source = int(np.argmax(unassigned))
        members = np.flatnonzero(_kernels.bfs_hops(g.indptr, g.indices, [source])[0] >= 0)
        comps.append(members)
        unassigned[members] = False
    return comps
