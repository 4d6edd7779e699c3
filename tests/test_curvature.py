"""Curvature feedback tests: deviation law, distortion, estimation, update."""

import tracemalloc

import numpy as np
import pytest

from curvgnn import _kernels, curvature as C, graphs, manifold as M, training

import geometry_oracle as geo
import path_oracle
from test_kernels import word_boundary_graph


# ---------------------------------------------------------------------------
# parallelogram deviation
# ---------------------------------------------------------------------------

def test_deviation_euclidean_square_example():
    # a=(0,1), b=(-1,0), c=(1,0), m=(0,0)
    xi = C.parallelogram_deviation(1.0, 2.0, np.sqrt(2.0), np.sqrt(2.0))
    assert xi == pytest.approx(0.0, abs=1e-15)


def test_deviation_star_hop_metric_example():
    xi = C.parallelogram_deviation(1.0, 2.0, 2.0, 2.0)
    assert xi == -2.0
    assert C.parallelogram_deviation_normalized(1.0, 2.0, 2.0, 2.0) == -1.0


def test_deviation_zero_on_random_euclidean_midpoints():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b, c = rng.standard_normal((3, 4))
        m = 0.5 * (b + c)
        xi = C.parallelogram_deviation(
            np.linalg.norm(a - m), np.linalg.norm(b - c),
            np.linalg.norm(a - b), np.linalg.norm(a - c))
        assert abs(xi) < 1e-9


def test_deviation_negative_on_hyperboloid_triangle():
    # geodesic triangle with m the geodesic midpoint of (b, c), distances
    # measured on the manifold: negative curvature shows as xi < 0
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.standard_normal((3, 3)) * 2.0
        a, b, c = (M.to_hyperboloid(x, 1.0) for x in w)
        m = M.exp_map(b, 0.5 * M.log_map(b, c, 1.0), 1.0)
        xi = C.parallelogram_deviation_normalized(
            float(M.hyp_distance(a, m, 1.0)), float(M.hyp_distance(b, c, 1.0)),
            float(M.hyp_distance(a, b, 1.0)), float(M.hyp_distance(a, c, 1.0)))
        assert xi < 1e-9


def test_deviation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        C.parallelogram_deviation(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        C.parallelogram_deviation_normalized(0.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# embedding distortion
# ---------------------------------------------------------------------------

def seeded_distortion(g, emb, zeta, seed):
    """``embedding_distortion`` with its sampled pairs drawn from ``seed``: a
    one-point sweep at ``zeta`` scores a copy of ``emb`` itself."""
    [(_, rep)] = C.distortion_sweep(g, emb, zeta, [zeta], seed)
    return rep


def test_distortion_zero_on_single_edge():
    g = path_oracle.path_graph(2)
    emb = M.to_hyperboloid(np.array([[0.0, 0.0], [1.0, 0.3]]), 1.0)
    rep = C.embedding_distortion(g, emb, 1.0)
    assert rep.mean_distortion == pytest.approx(0.0, abs=1e-12)
    assert rep.pairs_used == 2  # ordered pairs


def test_distortion_ratio_arithmetic():
    # |d^2/g^2 - 1| with d=2, g=1 is 3
    assert abs((2.0 / 1.0) ** 2 - 1.0) == 3.0


def brute_force_distortion(g, emb, zeta):
    total, used = 0.0, 0
    for i in range(g.n_nodes):
        for j in range(g.n_nodes):
            if i == j:
                continue
            try:
                gh = path_oracle.hyperbolic_graph_distance(g, emb, i, j, zeta)
            except path_oracle.DisconnectedError:
                continue
            dh = float(M.hyp_distance(emb[i], emb[j], zeta))
            total += abs((dh / gh) ** 2 - 1.0)
            used += 1
    return total / used, used


def test_distortion_matches_brute_force_on_p4():
    g = path_oracle.path_graph(4)
    rng = np.random.default_rng(3)
    emb = M.to_hyperboloid(rng.standard_normal((4, 3)), 1.0)
    rep = C.embedding_distortion(g, emb, 1.0)
    want, used = brute_force_distortion(g, emb, 1.0)
    assert rep.mean_distortion == pytest.approx(want, rel=1e-12)
    assert rep.pairs_used == used


def test_distortion_counts_excluded_pairs():
    g = graphs.Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    emb = M.to_hyperboloid(np.random.default_rng(0).standard_normal((4, 2)), 1.0)
    rep = C.embedding_distortion(g, emb, 1.0)
    assert rep.pairs_used == 4      # the two edges, both directions
    assert rep.pairs_excluded == 8  # cross-component ordered pairs


def test_distortion_excludes_zero_length_paths():
    # adjacent nodes 1 and 3 share one embedding: their path sum is 0 and
    # the pair has no ratio, so it is excluded in both orders
    g = graphs.balanced_binary_tree(3)
    emb = M.to_hyperboloid(np.random.default_rng(5).standard_normal((g.n_nodes, 3)), 1.0)
    emb[3] = emb[1]
    rep = C.embedding_distortion(g, emb, 1.0)
    assert np.isfinite(rep.mean_distortion)
    mean, used, excluded = per_source_report(g, emb, 1.0)
    assert excluded == 2
    assert (rep.pairs_used, rep.pairs_excluded) == (used, excluded)
    assert rep.mean_distortion == pytest.approx(mean, rel=1e-12)


def per_source_report(g, emb, zeta):
    """(mean, used, excluded) over every ordered pair, one loop BFS tree per
    source: a pair is used when its target is reached along a path of
    positive length, and excluded otherwise."""
    total, used, excluded = 0.0, 0, 0
    for i in range(g.n_nodes):
        g_row, hops = path_oracle.path_distance_row(g, emb, zeta, i)
        t = np.flatnonzero((hops > 0) & (g_row > 0))
        d = M.hyp_distance(emb[np.full(len(t), i)], emb[t], zeta)
        total += float(np.abs((d / g_row[t]) ** 2 - 1.0).sum())
        used += len(t)
        excluded += g.n_nodes - 1 - len(t)
    return total / used, used, excluded


def test_distortion_on_disconnected_graphs_matches_per_source_trees():
    # random forests with isolated nodes scattered among their ids, and the
    # tree7 message graph, a forest once the held-out edges are gone: the
    # exact branch must exclude every pair across components
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(6):
        n = int(rng.integers(20, 120))
        m = int(rng.integers(n // 2, n - 2))  # tree nodes; the rest are isolated
        edges = np.array([(int(rng.integers(0, v)), v) for v in range(1, m)
                          if rng.random() < 0.9])
        cases.append(graphs.Graph.from_edges(n, rng.permutation(n)[edges]))
    tree = graphs.balanced_binary_tree(7)
    cfg = training.RunConfig()
    for seed in (0, 1, 2):
        split = graphs.make_lp_split(tree, cfg.val_frac, cfg.test_frac, seed)
        cases.append(tree.with_edges(split.train_pos))
    for g in cases:
        zeta = float(rng.uniform(0.5, 2.0))
        emb = M.to_hyperboloid(rng.standard_normal((g.n_nodes, 3)), zeta)
        rep = C.embedding_distortion(g, emb, zeta)
        mean, used, excluded = per_source_report(g, emb, zeta)
        assert excluded > 0
        assert (rep.pairs_used, rep.pairs_excluded) == (used, excluded)
        assert rep.mean_distortion == pytest.approx(mean, rel=1e-12)


def test_distortion_requires_edges():
    g = graphs.Graph.from_edges(3, np.empty((0, 2)))
    emb = M.to_hyperboloid(np.zeros((3, 2)), 1.0)
    with pytest.raises(ValueError):
        C.embedding_distortion(g, emb, 1.0)


def test_diagnostics_reject_off_manifold_embeddings():
    # the numpy maps evaluate whatever they get; the diagnostics check the
    # embeddings they are given, once, on entry
    g = graphs.balanced_binary_tree(3)
    emb = C.tree_layout_hyperbolic(g, 1.0)
    bad = np.array([1.0, 1.0, 1.0])  # <x,x> = 1, not on any hyperboloid
    assert np.isfinite(M.hyp_distance(bad, M.origin(2, 1.0), 1.0))
    emb[5] = bad
    with pytest.raises(graphs.DataError):
        C.embedding_distortion(g, emb, 1.0)
    with pytest.raises(graphs.DataError):
        C.estimate_kappa(g, emb, 1.0)


def test_distortion_invariant_under_lorentz_boost():
    g = graphs.balanced_binary_tree(3)
    emb = C.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    a = 0.7  # boost rapidity; an exact isometry of the hyperboloid
    boost = np.eye(3)
    boost[0, 0] = boost[1, 1] = np.cosh(a)
    boost[0, 1] = boost[1, 0] = np.sinh(a)
    moved = emb @ boost.T
    d0 = C.embedding_distortion(g, emb, 1.0).mean_distortion
    d1 = C.embedding_distortion(g, moved, 1.0).mean_distortion
    assert abs(d0 - d1) < 1e-6


def test_distortion_sampled_path_is_seed_deterministic(monkeypatch):
    monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", 10)
    g = graphs.balanced_binary_tree(4)
    emb = C.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    a = seeded_distortion(g, emb, 1.0, 5)
    b = seeded_distortion(g, emb, 1.0, 5)
    assert a == b
    monkeypatch.undo()
    full = C.embedding_distortion(g, emb, 1.0)
    assert abs(a.mean_distortion - full.mean_distortion) < 0.15


def test_distortion_sampled_path_matches_redrawn_pairs(monkeypatch):
    monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", 10)
    rng = np.random.default_rng(9)
    n = 40
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.06]
    g = graphs.Graph.from_edges(n, np.array(edges).reshape(-1, 2))
    emb = M.to_hyperboloid(rng.standard_normal((n, 3)), 1.5)
    rows = [path_oracle.path_distance_row(g, emb, 1.5, i) for i in range(n)]
    for seed in (0, 4):
        draw = np.random.default_rng(seed)
        src = draw.integers(0, n, size=C.DISTORTION_SAMPLE_FACTOR * n)
        dst = draw.integers(0, n, size=C.DISTORTION_SAMPLE_FACTOR * n)
        total, used, excluded = 0.0, 0, 0
        for i, j in zip(src, dst):
            g_row, hops = rows[i]
            if i == j or hops[j] < 0:
                excluded += 1
                continue
            dh = float(M.hyp_distance(emb[i], emb[j], 1.5))
            total += abs((dh / g_row[j]) ** 2 - 1.0)
            used += 1
        rep = seeded_distortion(g, emb, 1.5, seed)
        assert (rep.pairs_used, rep.pairs_excluded) == (used, excluded)
        assert rep.mean_distortion == pytest.approx(total / used, rel=1e-12)


@pytest.mark.parametrize("n", [5, 2708, 10 ** 5, 2 ** 31 - 1])
def test_int32_pair_draws_repeat_int64_draws(n):
    """The sampled branch draws its pairs as int32: the same values and the
    same generator end state as the int64 draws the oracles here make."""
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    for size in (1, 999, C.DISTORTION_SAMPLE_FACTOR * 2708):
        assert np.array_equal(a.integers(0, n, size=size),
                              b.integers(0, n, size=size, dtype=np.int32))
    assert a.bit_generator.state == b.bit_generator.state


def test_sampled_distortion_peak_memory_per_pair(monkeypatch):
    """The sampled branch keeps its pairs as int32, drops each whole-sample
    array once the next is built and takes the edge lengths before sampling:
    its traced peak stays below 32 bytes per sampled pair (an int64 sample
    grouped by ``np.unique`` reached ~51) on a graph of Cora's density."""
    monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", 500)
    rng = np.random.default_rng(2)
    n = 1000
    kids = np.arange(1, n)  # each node past the first links to two earlier ones
    edges = np.concatenate([np.stack([kids, rng.integers(0, kids)], axis=1)
                            for _ in range(2)])
    g = graphs.Graph.from_edges(n, edges)
    emb = M.to_hyperboloid(0.1 * rng.standard_normal((n, 16)), 1.0)
    tracemalloc.start()
    try:
        rep = C.embedding_distortion(g, emb, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_pairs = C.DISTORTION_SAMPLE_FACTOR * n
    assert rep.pairs_used + rep.pairs_excluded == n_pairs
    assert peak < 32 * n_pairs


def sampled_report_from_whole_trees(g, emb, zeta, seed):
    """The sampled distortion report scored on whole BFS-tree rows.

    Same draws and exclusions as ``embedding_distortion``; each drawn source
    takes the sums to every node it reaches from a one-source ``bfs_paths``
    plan, and its pairs are summed in draw order, source by source in
    ascending id.
    """
    n = g.n_nodes
    draw = np.random.default_rng(seed)
    src = draw.integers(0, n, size=C.DISTORTION_SAMPLE_FACTOR * n)
    dst = draw.integers(0, n, size=C.DISTORTION_SAMPLE_FACTOR * n)
    excluded = int((src == dst).sum())
    owner = np.repeat(np.arange(n), np.diff(g.indptr))
    slot_len = M.hyp_distance(emb[owner], emb[g.indices], zeta)
    total, used = 0.0, 0
    for s in np.unique(src):
        _, nodes, paths = _kernels.bfs_paths(g.indptr, g.indices, [s])
        reached = np.zeros(n, dtype=bool)
        reached[nodes] = True
        sums = np.zeros(n)
        sums[nodes] = _kernels.path_sums(paths, slot_len)
        t = dst[(src == s) & (dst != s)]
        ok = reached[t] & (sums[t] > 0)
        excluded += int((~ok).sum())
        t = t[ok]
        d = M.hyp_distance(emb[np.full(len(t), s)], emb[t], zeta)
        total += float(np.abs((d / sums[t]) ** 2 - 1.0).sum())
        used += len(t)
    return C.DistortionReport(total / used, used, excluded)


def test_distortion_sampled_report_equals_whole_tree_report(monkeypatch):
    # the sampled branch resolves only the sampled tree paths, across three
    # 64-source blocks; unreachable pairs, zero-length paths and every tie
    # between shortest paths must come out exactly as on whole-tree rows
    monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", 10)
    rng = np.random.default_rng(21)
    for _ in range(2):
        g = word_boundary_graph(rng)
        emb = M.to_hyperboloid(rng.standard_normal((g.n_nodes, 3)), 0.8)
        u = int(np.flatnonzero(np.diff(g.indptr))[0])
        emb[g.indices[g.indptr[u]]] = emb[u]  # one edge of length 0
        for seed in (0, 1, 2):
            rep = seeded_distortion(g, emb, 0.8, seed)
            assert rep == sampled_report_from_whole_trees(g, emb, 0.8, seed)


def test_distortion_independent_of_distance_chunk(monkeypatch):
    # chunks of a few pairs split source rows across distance calls; the
    # report must equal the one-call-per-block result bit for bit
    rng = np.random.default_rng(12)
    g = graphs.Graph.from_edges(30, rng.integers(0, 26, size=(45, 2)))  # 26..29 isolated
    emb = M.to_hyperboloid(rng.standard_normal((30, 4)), 0.7)
    for limit in (2000, 10):  # exact, then sampled pairs
        monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", limit)
        monkeypatch.setattr(C, "DISTANCE_CHUNK_ELEMENTS", 1 << 20)
        whole = seeded_distortion(g, emb, 0.7, 3)
        monkeypatch.setattr(C, "DISTANCE_CHUNK_ELEMENTS", 3 * 5)
        assert seeded_distortion(g, emb, 0.7, 3) == whole


def report_bits(rep):
    return rep.mean_distortion.hex(), rep.pairs_used, rep.pairs_excluded


def sweep_graph(rng):
    """``word_boundary_graph`` (135 nodes, 5 isolated) embedded at zeta 0.8,
    with one edge of length 0."""
    g = word_boundary_graph(rng)
    emb = M.to_hyperboloid(rng.standard_normal((g.n_nodes, 3)), 0.8)
    u = int(np.flatnonzero(np.diff(g.indptr))[0])
    emb[g.indices[g.indptr[u]]] = emb[u]
    return g, emb


@pytest.mark.parametrize("limit", [2000, 200, 10], ids=["exact", "exact-1-word", "sampled"])
def test_sweep_equals_per_point_reports(monkeypatch, limit):
    # one BFS per block serves every grid point: each point's report must be
    # the one-point report of its remapped embeddings, bit for bit
    monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", limit)
    rng = np.random.default_rng(31)
    grid = [0.3, 0.8, 2.5, 7.0]
    for _ in range(2):
        g, emb = sweep_graph(rng)
        sweep = C.distortion_sweep(g, emb, 0.8, grid)
        assert [z for z, _ in sweep] == grid
        for z, rep in sweep:
            point = C.embedding_distortion(g, M.transfer_curvature(emb, 0.8, z), z)
            assert report_bits(rep) == report_bits(point)
            assert rep.pairs_excluded >= 2  # the zero-length edge, both ways
        for seed in (1, 2):
            sweep = C.distortion_sweep(g, emb, 0.8, grid, seed)
            for z, rep in sweep:
                point = seeded_distortion(g, M.transfer_curvature(emb, 0.8, z), z, seed)
                assert report_bits(rep) == report_bits(point)


@pytest.mark.parametrize("limit,blocks", [(2000, [135]), (300, [128, 7]), (200, [64, 64, 7]),
                                          (10, [64, 64, 7])],
                         ids=["exact-one-block", "exact-2-words", "exact-1-word", "sampled"])
def test_sweep_runs_one_bfs_per_source_block(monkeypatch, limit, blocks):
    # the exact branch takes BLOCK_SOURCES * max(1, limit // n) sources per
    # block; however long the grid, each block runs one BFS
    monkeypatch.setattr(C, "DISTORTION_EXACT_LIMIT", limit)
    sizes = []
    bfs_bits = _kernels._bfs_bits

    def counted(indptr, indices, sources):
        sizes.append(len(sources))
        return bfs_bits(indptr, indices, sources)

    monkeypatch.setattr(_kernels, "_bfs_bits", counted)
    g, emb = sweep_graph(np.random.default_rng(32))
    for grid in ([1.0], [0.5, 1.0, 2.0], [0.2, 0.4, 0.8, 1.6, 3.2]):
        sizes.clear()
        assert len(C.distortion_sweep(g, emb, 0.8, grid, 4)) == len(grid)
        assert sizes == blocks
    sizes.clear()
    C.embedding_distortion(g, emb, 0.8)
    assert sizes == blocks


# ---------------------------------------------------------------------------
# curvature estimation
# ---------------------------------------------------------------------------

def test_estimate_deterministic_under_seed():
    g = graphs.balanced_binary_tree(4)
    emb = C.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    a = C.estimate_kappa(g, emb, 1.0, n_s=3, seed=9)
    b = C.estimate_kappa(g, emb, 1.0, n_s=3, seed=9)
    assert a.kappa == b.kappa and a.n_samples == b.n_samples


def test_estimate_negative_on_hyperbolic_tree_layout():
    g = graphs.balanced_binary_tree(5)  # 63 nodes
    emb = C.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    est = C.estimate_kappa(g, emb, 1.0, n_s=2, seed=0)
    assert est.kappa < 0.0
    assert est.n_samples >= 31  # every internal node contributes


def test_estimate_near_zero_on_flat_configuration():
    # equally spaced collinear points: every interior node is the exact
    # midpoint of its two neighbors, so the deviation vanishes
    n = 40
    g = path_oracle.path_graph(n)
    pts = np.zeros((n, 2))
    pts[:, 0] = np.arange(n) * 0.05
    emb = M.to_hyperboloid(pts, 1000.0)
    est = C.estimate_kappa(g, emb, 1000.0, n_s=2, seed=1)
    assert abs(est.kappa) < 0.05


def sampler_graph():
    """Star of 4 leaves around node 0, then the path 4-5-6-7 and isolated 8."""
    return graphs.Graph.from_edges(9, np.array(
        [[0, 1], [0, 2], [0, 3], [0, 4], [4, 5], [5, 6], [6, 7]]))


def test_quadruple_sampler_structure():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(4, 40))
        g = graphs.Graph.from_edges(n, rng.integers(0, n, size=(2 * n, 2)))
        n_s = int(rng.integers(1, 6))
        m, a, b, c = C.sample_quadruples(g, n_s, np.random.default_rng(trial))
        eligible = np.flatnonzero(g.degrees() >= 2)
        assert np.array_equal(m, np.repeat(eligible, n_s))
        for mi, ai, bi, ci in zip(m, a, b, c):
            nbrs = path_oracle.adjacent(g, mi)
            assert bi != ci and bi in nbrs and ci in nbrs
            assert 0 <= ai < n and ai not in (mi, bi, ci)


def test_quadruple_sampler_frequencies_are_uniform():
    # 60000 draws per node: a cell of the ordered (b, c) table expects
    # 60000/12 = 5000 hits (sd ~68), a cell of a expects 60000/6 = 10000
    # (sd ~91); 5% relative tolerance is over 3.5 sd for every cell
    g = sampler_graph()
    n_s = 60000
    for seed in (1, 2):
        m, a, b, c = C.sample_quadruples(g, n_s, np.random.default_rng(seed))
        for node in (0, 4, 5, 6):
            rows = m == node
            nbrs = path_oracle.adjacent(g, node)
            d = len(nbrs)
            pair = np.searchsorted(nbrs, b[rows]) * d + np.searchsorted(nbrs, c[rows])
            freq = np.bincount(pair, minlength=d * d).reshape(d, d)
            assert np.all(np.diag(freq) == 0)
            off = freq[~np.eye(d, dtype=bool)]
            assert np.abs(off / (n_s / (d * (d - 1))) - 1.0).max() < 0.05
            # a given (b, c) is uniform over the n - 3 other nodes
            for bc in ((nbrs[0], nbrs[1]), (nbrs[-1], nbrs[0])):
                sel = rows & (b == bc[0]) & (c == bc[1])
                counts = np.bincount(a[sel], minlength=g.n_nodes)
                assert counts[[node, *bc]].sum() == 0
                assert np.count_nonzero(counts) == g.n_nodes - 3
            counts = np.bincount(a[rows], minlength=g.n_nodes)
            others = np.setdiff1d(np.arange(g.n_nodes), [node])
            assert counts[node] == 0
            # marginal of a: each node is excluded when it is b or c, so the
            # expected count is n_s * (1 - P(x in {b, c})) / (n - 3)
            p_bc = np.where(np.isin(others, nbrs), 2.0 / d, 0.0)
            expect = n_s * (1.0 - p_bc) / (g.n_nodes - 3)
            never = expect == 0.0  # both neighbours of a degree-2 node
            assert np.all(counts[others][never] == 0)
            assert np.abs(counts[others][~never] / expect[~never] - 1.0).max() < 0.05


@pytest.mark.parametrize("n_s", [1, 2, 3, 9])
def test_estimate_node_values_match_per_node_loop(n_s):
    # kappa is the mean of the per-node means over the valid samples, which
    # the loop below takes node by node; a node without a valid sample (two
    # of them at n_s = 1) must not count
    rng = np.random.default_rng(n_s)
    g = graphs.Graph.from_edges(30, rng.integers(0, 30, size=(60, 2)))
    pts = 0.7 * rng.standard_normal((30, 2))
    pts[10:16] = pts[9]  # coincident points give degenerate d(a, m) = 0
    emb = M.to_hyperboloid(pts, 1.3)
    est = C.estimate_kappa(g, emb, 1.3, n_s=n_s, seed=5)
    m, a, b, c = C.sample_quadruples(g, n_s, np.random.default_rng(5))
    want = np.full(g.n_nodes, np.nan)
    n_valid = 0
    for node in np.unique(m):
        vals = []
        for k in np.flatnonzero(m == node):
            d_am = M.hyp_distance(emb[a[k]], emb[m[k]], 1.3)
            if d_am > 1e-12:
                vals.append(C.parallelogram_deviation_normalized(
                    d_am, M.hyp_distance(emb[b[k]], emb[c[k]], 1.3),
                    M.hyp_distance(emb[a[k]], emb[b[k]], 1.3),
                    M.hyp_distance(emb[a[k]], emb[c[k]], 1.3)))
        n_valid += len(vals)
        if vals:
            want[node] = np.mean(vals)
    ok = ~np.isnan(want)
    assert est.n_samples == n_valid
    assert est.kappa == pytest.approx(want[ok].mean(), rel=1e-12)


def test_estimate_error_cases():
    g = path_oracle.path_graph(3)  # only 3 nodes
    emb = M.to_hyperboloid(np.zeros((3, 2)), 1.0)
    with pytest.raises(ValueError):
        C.estimate_kappa(g, emb, 1.0)
    pairs = graphs.Graph.from_edges(4, np.array([[0, 1], [2, 3]]))  # max degree 1
    emb4 = M.to_hyperboloid(np.zeros((4, 2)), 1.0)
    with pytest.raises(ValueError):
        C.estimate_kappa(pairs, emb4, 1.0)


# ---------------------------------------------------------------------------
# curvature update
# ---------------------------------------------------------------------------

def test_update_fixed_point():
    assert C.update_curvature(1.0, -1.0, 0.2) == pytest.approx(1.0)


def test_update_arithmetic():
    assert C.update_curvature(1.0, -4.0, 0.2) == pytest.approx(0.9)


def test_update_clamps_nonnegative_kappa():
    z = C.update_curvature(1.0, 0.3, 0.2)
    assert np.isfinite(z)
    assert M.DEFAULT_ZETA_MIN <= z <= M.DEFAULT_ZETA_MAX


def test_update_respects_bounds_and_monotonicity():
    zs = [C.update_curvature(2.0, k, 0.5) for k in (-9.0, -4.0, -1.0, -0.25)]
    assert zs == sorted(zs)  # larger 1/sqrt(-kappa) moves zeta up
    for z in zs:
        assert M.DEFAULT_ZETA_MIN <= z <= M.DEFAULT_ZETA_MAX
    with pytest.raises(ValueError):
        C.update_curvature(1.0, -1.0, 1.5)


# ---------------------------------------------------------------------------
# polar oracles
# ---------------------------------------------------------------------------

def test_polar_exact_antipodal_collapse():
    for zeta in (0.5, 1.0, 3.0):
        d = geo.polar_distance_exact(1.2, 0.0, 0.8, np.pi, zeta)
        assert d == pytest.approx(2.0, rel=1e-9)


def test_polar_exact_matches_manifold_distance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        zeta = float(rng.uniform(0.3, 5.0))
        r1, r2 = rng.uniform(0, 3.0, 2)
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        want = float(M.hyp_distance(geo.polar_to_point(r1, t1, zeta),
                                    geo.polar_to_point(r2, t2, zeta), zeta))
        assert geo.polar_distance_exact(r1, t1, r2, t2, zeta) == pytest.approx(
            want, rel=1e-9, abs=1e-9)


def test_polar_approx_agrees_in_validity_regime():
    exact = geo.polar_distance_exact(5.0, 0.0, 5.0, np.pi / 2, 1.0)
    approx = geo.polar_distance_approx(5.0, 0.0, 5.0, np.pi / 2, 1.0)
    assert abs(exact - approx) / exact < 0.01


def test_polar_exact_euclidean_limit():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r1, r2 = rng.uniform(0.05, 1.0, 2)
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        planar = np.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * np.cos(t1 - t2))
        if planar < 1e-2:
            continue
        got = geo.polar_distance_exact(r1, t1, r2, t2, 1000.0)
        assert abs(got - planar) / planar < 1e-3


def test_polar_approx_rejects_zero_angle():
    with pytest.raises(ValueError):
        geo.polar_distance_approx(1.0, 0.5, 2.0, 0.5, 1.0)


def test_tree_layout_is_on_manifold_with_unit_edges():
    g = graphs.balanced_binary_tree(4)
    emb = C.tree_layout_hyperbolic(g, 1.0, edge_length=1.0)
    M.check_on_manifold(emb, 1.0)
    for u, v in g.edge_array():
        d = float(M.hyp_distance(emb[u], emb[v], 1.0))
        assert d == pytest.approx(1.0, rel=1e-9)


def test_tree_layout_matches_per_node_reference():
    rng = np.random.default_rng(8)
    n = 300
    # relabel every node but the root 0, so that ids do not follow BFS order
    label = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    tree = np.stack([label[rng.integers(0, np.arange(1, n))], label[1:]], axis=1)
    g = graphs.Graph.from_edges(n, tree)
    for zeta, edge_length in ((1.0, 1.0), (1.0, 0.5), (0.7, 1.3)):
        got = C.tree_layout_hyperbolic(g, zeta, edge_length)
        want = geo.tree_layout_per_node(g, zeta, edge_length)
        assert np.array_equal(got, want)
