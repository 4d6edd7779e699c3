"""Geometric feedback for curvature search.

Three ingredients: the embedding-distortion score comparing embedded
distances against path-sum graph distances, a parallelogram-law deviation
estimator for the sectional curvature of the embedded graph, and the
blend rule that turns an estimate into the next curvature parameter. A
geodesic tree layout feeds the diagnostics. All distances come from
``manifold``. A distortion sweep over a curvature grid runs one BFS per
block of sources and scores every grid point on its trees.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels, graphs, manifold

log = logging.getLogger(__name__)

KAPPA_CEILING = -1e-4  # estimates are clamped below this before 1/sqrt(-kappa)

DISTORTION_EXACT_LIMIT = 2000  # above this many nodes, pairs are sampled
DISTORTION_SAMPLE_FACTOR = 100  # sampled pair count = factor * |V|
# coordinates per distance call in embedding_distortion: bounds the temporaries
# of one call (~256 KB each), which are slower once they fall out of cache
DISTANCE_CHUNK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class DistortionReport:
    mean_distortion: float
    pairs_used: int
    pairs_excluded: int


@dataclass(frozen=True)
class CurvatureEstimate:
    kappa: float
    n_samples: int  # valid quadruples


def parallelogram_deviation(d_am, d_bc, d_ab, d_ac):
    """Quadratic distance combination that vanishes for Euclidean midpoints.

    For points a, b, c with m the midpoint of segment (b, c):
    d(a,m)^2 + d(b,c)^2/4 - (d(a,b)^2 + d(a,c)^2)/2. Zero in flat space,
    negative when the space curves hyperbolically.
    """
    d_am, d_bc = np.asarray(d_am, float), np.asarray(d_bc, float)
    d_ab, d_ac = np.asarray(d_ab, float), np.asarray(d_ac, float)
    if np.any(d_am < 0) or np.any(d_bc < 0) or np.any(d_ab < 0) or np.any(d_ac < 0):
        raise ValueError("distances must be nonnegative")
    return d_am**2 + 0.25 * d_bc**2 - 0.5 * (d_ab**2 + d_ac**2)


def parallelogram_deviation_normalized(d_am, d_bc, d_ab, d_ac):
    """Deviation scaled by 1/(2 d(a,m)); requires d(a,m) > 0."""
    d_am = np.asarray(d_am, float)
    if np.any(d_am <= 0):
        raise ValueError("degenerate sample: d(a, m) must be positive")
    return parallelogram_deviation(d_am, d_bc, d_ab, d_ac) / (2.0 * d_am)


# ---------------------------------------------------------------------------
# embedding distortion
# ---------------------------------------------------------------------------

def embedding_distortion(g: graphs.Graph, emb: np.ndarray, zeta) -> DistortionReport:
    """Mean |d^2/g^2 - 1| over ordered connected node pairs (i != j).

    d is the hyperbolic distance between the endpoint embeddings; g is the
    sum of hyperbolic edge lengths along the BFS shortest hop path. A pair
    has no defined ratio when its endpoints lie in different components or
    when g is 0 (every edge on the path has collapsed to one point); such
    pairs are excluded and counted in ``pairs_excluded``, and the mean runs
    over the pairs actually used. Graphs above DISTORTION_EXACT_LIMIT nodes
    are scored on a sample of pairs drawn from seed 0 instead of all of them
    (``distortion_sweep`` takes a seed).
    """
    return _distortion_reports(g, [(emb, zeta)], 0)[0]


def distortion_sweep(g: graphs.Graph, emb: np.ndarray, zeta_base, grid,
                     seed: int = 0) -> list[tuple[float, DistortionReport]]:
    """Remap fixed embeddings across a curvature grid and score each point.

    Each report equals ``embedding_distortion`` of that point's remapped
    embeddings (with ``seed`` drawing the sampled pairs); the BFS trees
    behind g are built once per source block for the whole grid.
    """
    points = [(manifold.transfer_curvature(emb, zeta_base, z), z) for z in grid]
    return [(float(z), rep) for z, rep in zip(grid, _distortion_reports(g, points, seed))]


def _distortion_reports(g, points, seed):
    """One ``DistortionReport`` per (embeddings, zeta) point, in order.

    Hop rows and tree paths do not depend on the embeddings, so each block
    of sources runs ``_kernels.bfs_paths`` once for every point.
    """
    if g.n_edges == 0:
        raise ValueError("distortion is undefined on an edgeless graph")
    n = g.n_nodes
    # the edge lengths first: their (slots, d+1) temporaries are gone before
    # the sampled pairs exist
    owner = np.repeat(np.arange(n), np.diff(g.indptr))
    slot_lens = []
    for emb, zeta in points:
        manifold.check_on_manifold(emb, zeta)
        slot_lens.append(manifold.hyp_distance(np.take(emb, owner, axis=0),
                                               np.take(emb, g.indices, axis=0), zeta))
    del owner
    exact = n <= DISTORTION_EXACT_LIMIT
    excluded = 0
    if exact:
        sources = np.arange(n)
        # several words per block on small graphs, so that a block never
        # spans more (source, node) entries than one word does at the limit
        block = _kernels.BLOCK_SOURCES * max(1, DISTORTION_EXACT_LIMIT // n)
    else:
        n_pairs = DISTORTION_SAMPLE_FACTOR * n
        log.info("distortion: sampling %d ordered pairs on %d nodes", n_pairs, n)
        rng = np.random.default_rng(seed)
        # int32 draws take the same values and generator steps as int64 ones
        # at half the memory. Each whole-sample array is dropped once the next
        # is built, so the sample peaks at its two draws plus the int64 order
        # of one stable sort (and that sort's buffer).
        src = rng.integers(0, n, size=n_pairs, dtype=np.int32)
        dst = rng.integers(0, n, size=n_pairs, dtype=np.int32)
        keep = src != dst
        excluded = n_pairs - int(np.count_nonzero(keep))
        src = src[keep]
        dst = dst[keep]
        del keep
        by_src = np.argsort(src, kind="stable")  # keeps each source's draw order
        dst = dst[by_src]
        del by_src
        counts = np.bincount(src, minlength=n)
        del src
        sources = np.flatnonzero(counts)
        bounds = np.concatenate(([0], np.cumsum(counts[sources])))
        block = _kernels.BLOCK_SOURCES
    scores = [[0.0, 0, excluded] for _ in points]  # ratio sum, pairs used, excluded
    for lo in range(0, len(sources), block):
        block_src = sources[lo:lo + block]
        pairs = None
        if not exact:  # only the tree paths to the sampled targets are resolved
            per_row = np.diff(bounds[lo:lo + len(block_src) + 1])
            pairs = (np.repeat(np.arange(len(block_src)), per_row),
                     dst[bounds[lo]:bounds[lo + len(block_src)]])
        _score_block(g, block_src, pairs, points, slot_lens, scores)
    if any(used == 0 for _, used, _ in scores):
        raise ValueError("no connected node pairs" if exact
                         else "no connected node pairs in the sample")
    return [DistortionReport(total / used, used, excluded)
            for total, used, excluded in scores]


def _score_block(g, block_src, pairs, points, slot_lens, scores):
    """Add one block of sources to each point's [ratio sum, used, excluded].

    The block's pairs are ``pairs = (rows, targets)``, or without them
    every (source, node) pair. A pair counts when its target is reached
    (hops > 0) along a path of positive length.
    """
    rows, targets, paths = _kernels.bfs_paths(g.indptr, g.indices, block_src, pairs)
    asked = (g.n_nodes - 1) * len(block_src) if pairs is None else len(pairs[0])
    # each pair's source and target, in the smallest type that holds a node
    # id: these two arrays are most of what a block keeps. Rows ascend.
    node_id = np.min_scalar_type(g.n_nodes)
    ends = np.take(block_src, rows).astype(node_id)
    targets = targets.astype(node_id)
    del rows  # with the in-place ratios below, this bounds a block's peak memory
    ratios = np.empty(len(ends))  # one point's at a time
    for (emb, zeta), slot_len, score in zip(points, slot_lens, scores):
        g_pair = _kernels.path_sums(paths, slot_len)
        ok = g_pair > 0
        e, t = ends, targets
        if not ok.all():
            e, t, g_pair = e[ok], t[ok], g_pair[ok]
        d = ratios[:len(e)]
        chunk = max(1, DISTANCE_CHUNK_ELEMENTS // emb.shape[1])
        for s in range(0, len(e), chunk):
            part = slice(s, s + chunk)
            d[part] = manifold.hyp_distance(np.take(emb, e[part], axis=0),
                                            np.take(emb, t[part], axis=0), zeta)
        # |(d / g)^2 - 1|, in place
        d /= g_pair
        d **= 2
        d -= 1.0
        np.abs(d, out=d)
        # one sum per source row, in row order, as the per-row loop did
        for row in np.split(d, np.flatnonzero(np.diff(e)) + 1):
            score[0] += float(row.sum())
        score[1] += len(e)
        score[2] += asked - len(e)


# ---------------------------------------------------------------------------
# curvature estimation and update
# ---------------------------------------------------------------------------

def sample_quadruples(g: graphs.Graph, n_s: int, rng: np.random.Generator):
    """n_s quadruples (m, a, b, c) per node m of degree >= 2, grouped by m.

    b, c are an ordered pair of distinct neighbours of m, uniform over all
    d(d-1) such pairs, and a is uniform over the n - 3 nodes outside
    {m, b, c}. Rows come node by node in ascending id, n_s rows each.
    """
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr)
    m = np.repeat(np.flatnonzero(deg >= 2), n_s)
    d = deg[m]
    i = rng.integers(0, d)
    j = rng.integers(0, d - 1)
    j += j >= i  # skip slot i: j is uniform over the other d - 1 slots
    b = indices[indptr[m] + i]
    c = indices[indptr[m] + j]
    a = rng.integers(0, g.n_nodes - 3, size=m.size)
    for taken in np.sort(np.stack([m, b, c]), axis=0):  # ascending, distinct
        a += a >= taken
    return m, a, b, c


def estimate_kappa(g: graphs.Graph, emb: np.ndarray, zeta, n_s: int = 2,
                   seed: int = 0) -> CurvatureEstimate:
    """Average normalized parallelogram deviation over sampled quadruples.

    For every node m of degree >= 2, draw n_s quadruples: b, c distinct
    neighbors of m, and a uniform outside {m, b, c} (``sample_quadruples``).
    Distances are taken between current embeddings. All quadruples come
    from one ``default_rng(seed)``, so an estimate is reproducible from
    (graph, embeddings, zeta, n_s, seed).
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    if g.n_nodes < 4:
        raise ValueError("need at least 4 nodes to sample quadruples")
    manifold.check_on_manifold(emb, zeta)
    m_idx, a_idx, b_idx, c_idx = sample_quadruples(g, n_s, np.random.default_rng(seed))
    if m_idx.size == 0:
        raise ValueError("no node of degree >= 2; cannot estimate curvature")

    d_am = manifold.hyp_distance(emb[a_idx], emb[m_idx], zeta)
    d_bc = manifold.hyp_distance(emb[b_idx], emb[c_idx], zeta)
    d_ab = manifold.hyp_distance(emb[a_idx], emb[b_idx], zeta)
    d_ac = manifold.hyp_distance(emb[a_idx], emb[c_idx], zeta)
    valid = d_am > 1e-12
    if not valid.any():
        raise ValueError("all sampled quadruples degenerate (d(a,m) = 0)")
    xi = np.zeros(m_idx.size)
    xi[valid] = parallelogram_deviation_normalized(
        d_am[valid], d_bc[valid], d_ab[valid], d_ac[valid])

    # the mean, over nodes with a valid sample, of each node's mean over
    # the valid samples of its n_s rows (nodes in ascending id)
    counts = valid.reshape(-1, n_s).sum(axis=1)
    sums = xi.reshape(-1, n_s).sum(axis=1)
    has = counts > 0
    return CurvatureEstimate(kappa=float((sums[has] / counts[has]).mean()),
                             n_samples=int(valid.sum()))


def update_curvature(zeta_prev: float, kappa: float, gamma: float,
                     zeta_min: float = manifold.DEFAULT_ZETA_MIN,
                     zeta_max: float = manifold.DEFAULT_ZETA_MAX) -> float:
    """Blend the previous curvature parameter toward 1/sqrt(-kappa).

    kappa is clamped below KAPPA_CEILING first (the estimator can report
    nonnegative values on near-flat configurations) and the result is
    clamped into [zeta_min, zeta_max]; both clamps are logged.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    if kappa > KAPPA_CEILING:
        log.info("kappa %.4g clamped to %.4g before update", kappa, KAPPA_CEILING)
        kappa = KAPPA_CEILING
    target = 1.0 / np.sqrt(-kappa)
    z = (1.0 - gamma) * zeta_prev + gamma * target
    if z < zeta_min or z > zeta_max:
        log.info("zeta %.4g clamped into [%g, %g]", z, zeta_min, zeta_max)
    return float(min(max(z, zeta_min), zeta_max))


# ---------------------------------------------------------------------------
# geodesic tree layout (diagnostics / synthetic benchmarks)
# ---------------------------------------------------------------------------

def tree_layout_hyperbolic(g: graphs.Graph, zeta, edge_length: float = 1.0) -> np.ndarray:
    """Embed a tree in the 2-d hyperboloid by recursive geodesic placement.

    Node 0 is the root, at the origin. Children fan out around the
    direction back to the parent, each placed at geodesic distance
    edge_length (a Sarkar-style construction). Only meaningful for trees;
    cycles reuse whatever BFS tree is found first.
    Each BFS level is placed in one batch of rows, one row per child.
    ``edge_length`` must be positive and finite.
    """
    if not 0.0 < edge_length < np.inf:  # also false for nan
        raise ValueError(f"tree layout edge length must be positive and finite, "
                         f"got {edge_length:g}")
    z = manifold.as_zeta(zeta)
    hops, parent = _kernels.bfs_tree(g.indptr, g.indices, 0)
    if np.any(hops < 0):
        raise ValueError("tree layout requires a connected graph")
    pos = np.zeros((g.n_nodes, 3), dtype=np.float64)
    pos[0] = manifold.origin(2, z)
    for level in range(1, int(hops.max()) + 1):
        kids = np.flatnonzero(hops == level)
        kids = kids[np.argsort(parent[kids], kind="stable")]  # by parent, then id
        up = parent[kids]
        start = np.searchsorted(up, up)  # each sibling group's first row
        k = (np.searchsorted(up, up, side="right") - start)[:, None]
        rank = (np.arange(len(kids)) - start)[:, None]
        x = pos[up]
        if level == 1:
            ang = 2.0 * np.pi * rank / k
            directions = np.hstack([np.zeros_like(ang), np.cos(ang), np.sin(ang)])
        else:
            u = manifold.log_map(x, pos[parent[up]], z)
            u_hat = u / np.maximum(manifold.lorentz_norm(u), 1e-300)
            ang = 2.0 * np.pi * (rank + 1) / (k + 1)
            directions = np.cos(ang) * u_hat + np.sin(ang) * _tangent_perp(x, u_hat, z)
        pos[kids] = manifold.exp_map(x, edge_length * directions, z)
    return pos


def _tangent_perp(x: np.ndarray, u_hat: np.ndarray, zeta: float) -> np.ndarray:
    """Unit tangent vectors at the rows of x orthogonal to u_hat (2-d
    hyperboloid), each from the first axis whose projection keeps norm > 1e-8."""
    perp = np.empty_like(x)
    todo = np.ones(len(x), dtype=bool)
    for e in np.eye(3):
        w = e + (manifold.lorentz_inner(x, e, keepdims=True) / (zeta * zeta)) * x  # onto T_x
        w = w - manifold.lorentz_inner(w, u_hat, keepdims=True) * u_hat
        nw = manifold.lorentz_norm(w)
        take = todo & (nw[:, 0] > 1e-8)
        perp[take] = w[take] / nw[take]
        todo &= ~take
    if todo.any():
        raise graphs.DataError(
            f"tree layout too far out for float64 at zeta={zeta}: no tangent "
            "direction orthogonal to the parent's")
    return perp
