"""Scalar references for the vectorised samplers.

``sample_negative_edges_loop`` is the one-pair-at-a-time rejection loop
that ``graphs.sample_negative_edges`` must reproduce: same pairs in the
same order, and the generator left in the same state.
"""

import numpy as np


def has_edge(g, u: int, v: int) -> bool:
    nu = g.indices[g.indptr[u]:g.indptr[u + 1]]
    i = np.searchsorted(nu, v)
    return i < len(nu) and nu[i] == v


def sample_negative_edges_loop(g, count: int, rng: np.random.Generator,
                               forbidden: set | None = None) -> np.ndarray:
    """Draw (u, v) as two scalar integers; keep unseen non-edges u != v."""
    n = g.n_nodes
    pos = {min(u, v) * n + max(u, v) for u, v in g.edge_array().tolist()}
    if forbidden:
        pos |= forbidden
    out = np.empty((count, 2), dtype=np.int64)
    seen = set()
    k = 0
    while k < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = min(u, v) * n + max(u, v)
        if key in pos or key in seen:
            continue
        seen.add(key)
        out[k, 0], out[k, 1] = u, v
        k += 1
    return out
