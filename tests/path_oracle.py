"""Per-source reference for embedded path-sum distances.

One BFS tree per source (``_kernels.bfs_tree``) and one python-level walk
down it: the definition that ``_kernels.bfs_path_sums`` and
``curvature.embedding_distortion`` must reproduce bit for bit.
"""

import numpy as np

from curvgnn import _kernels, manifold


class DisconnectedError(ValueError):
    """A node pair in different components was handed to a path query."""


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
    indptr, indices = g.csr()
    hops, parent, order = _kernels.bfs_tree(indptr, indices, int(source))
    has_parent = parent >= 0
    step = np.zeros(g.n_nodes, dtype=np.float64)
    if has_parent.any():
        kids = np.flatnonzero(has_parent)
        step[kids] = manifold.hyp_distance(emb[kids], emb[parent[kids]], zeta,
                                           validate=False)
    total = path_sums(order, parent, step)
    total[hops < 0] = np.inf
    return total, hops


def hyperbolic_graph_distance(g, emb, i, j, zeta):
    """Embedded length of the shortest hop path between nodes i and j."""
    total, hops = path_distance_row(g, emb, zeta, i)
    if hops[j] < 0:
        raise DisconnectedError(f"nodes {i} and {j} are in different components")
    return float(total[j])
