"""The blocked BFS kernels against scalar and brute-force references.

Hop rows are checked against Floyd-Warshall, BFS trees and path sums
against the scalar queue BFS of ``path_oracle._bfs_tree_loop``, exact delta
against the enumeration of all quadruples, and sampled delta against a
per-sample loop over the same draws. Graphs have several components and
isolated nodes at the highest ids; blocks of sources are 1, 4 and n wide.
"""

import numpy as np
import pytest

from curvgnn import _kernels, graphs

import path_oracle
from test_graphs import brute_force_delta, floyd_warshall


def multi_component_graph(rng, n_isolated=None):
    """Sparse random graph (several components) plus isolated high-id nodes."""
    n_core = int(rng.integers(6, 30))
    edges = [(i, j) for i in range(n_core) for j in range(i + 1, n_core)
             if rng.random() < 2.0 / n_core]
    if n_isolated is None:
        n_isolated = int(rng.integers(0, 4))
    return graphs.Graph.from_edges(n_core + n_isolated,
                                   np.array(edges, dtype=np.int64).reshape(-1, 2))


def random_tree(rng, n):
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    return graphs.Graph.from_edges(n, np.array(list(zip(parents, range(1, n)))))


def test_bfs_hops_match_floyd_warshall():
    rng = np.random.default_rng(0)
    cases = [graphs.Graph.from_edges(5, np.array([[0, 1], [1, 2]]))]
    cases += [multi_component_graph(rng) for _ in range(8)]
    for g in cases:
        indptr, indices = g.indptr, g.indices
        n = g.n_nodes
        fw = floyd_warshall(g)
        sources = rng.permutation(n)
        for block in (1, 4, n):
            for lo in range(0, n, block):
                hops = _kernels.bfs_hops(indptr, indices, sources[lo:lo + block])
                want = fw[sources[lo:lo + block]]
                assert hops.shape == want.shape
                assert np.array_equal(np.where(hops < 0, np.inf, hops), want)
                assert np.all((hops == _kernels.UNREACHABLE) == np.isinf(want))


def test_bfs_hops_rejects_out_of_range_sources():
    g = path_oracle.path_graph(4)
    indptr, indices = g.indptr, g.indices
    for bad in ([4], [0, -1]):
        with pytest.raises(ValueError):
            _kernels.bfs_hops(indptr, indices, bad)


def test_bfs_tree_matches_loop_reference():
    rng = np.random.default_rng(1)
    cases = [multi_component_graph(rng) for _ in range(6)]
    cases += [random_tree(rng, 40), graphs.cycle_graph(9), graphs.balanced_binary_tree(4)]
    for g in cases:
        indptr, indices = g.indptr, g.indices
        for s in range(g.n_nodes):
            hops, parent, order = _kernels.bfs_tree(indptr, indices, s)
            want_hops, want_parent, _ = path_oracle._bfs_tree_loop(indptr, indices, s)
            assert np.array_equal(hops, want_hops)
            assert np.array_equal(parent, want_parent)  # smallest-predecessor rule
            # the documented BFS order: by hop count (the source alone at 0),
            # ties by id, the other components last; so parents precede children
            level = np.where(hops == _kernels.UNREACHABLE, g.n_nodes, hops)
            assert order.dtype == np.int64
            assert np.array_equal(order, np.lexsort((np.arange(g.n_nodes), level)))
            rank = np.argsort(order)
            kids = np.flatnonzero(parent >= 0)
            assert np.all(rank[parent[kids]] < rank[kids])


def test_delta_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    cases = [graphs.cycle_graph(4), graphs.cycle_graph(7), random_tree(rng, 12)]
    while len(cases) < 8:
        g = graphs._largest_component_subgraph(multi_component_graph(rng, 0))
        if g.n_nodes >= 4:
            cases.append(g)
    for g in cases:
        dist = graphs.hop_distance_matrix(g)
        assert _kernels.delta_exact(dist) == brute_force_delta(g)


def sampled_delta_loop(g, n_samples, seed):
    """Sampled four-point delta, one quadruple and its BFS rows at a time."""
    sub = graphs._largest_component_subgraph(g)
    indptr, indices = sub.indptr, sub.indices
    rng = np.random.default_rng(seed)
    rows = {}
    best = 0.0
    for _ in range(n_samples):
        quad = rng.choice(sub.n_nodes, size=4, replace=False)
        for s in quad[:3]:
            if int(s) not in rows:
                rows[int(s)] = path_oracle._bfs_tree_loop(indptr, indices, int(s))[0]
        a, b, c, d = (int(q) for q in quad)
        pairs = sorted([rows[a][b] + rows[c][d], rows[a][c] + rows[b][d],
                        rows[a][d] + rows[b][c]])
        best = max(best, 0.5 * (pairs[2] - pairs[1]))
    return float(best)


@pytest.mark.parametrize("block_elements", [_kernels.BLOCK_ELEMENTS, 1, 200])
def test_sampled_delta_matches_per_sample_loop(monkeypatch, block_elements):
    # small BLOCK_ELEMENTS forces one BFS source per block, or a few
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(3)
    cases = [graphs.balanced_binary_tree(5), random_tree(rng, 50), graphs.cycle_graph(11)]
    cases += [multi_component_graph(rng, 2) for _ in range(3)]
    for g in cases:
        if graphs._largest_component_subgraph(g).n_nodes < 4:
            continue
        for seed in range(10):
            for n_samples in (1, 300):
                got = graphs.gromov_delta(g, "sampled", n_samples=n_samples, seed=seed)
                assert got == sampled_delta_loop(g, n_samples, seed)


@pytest.mark.parametrize("block_elements", [_kernels.BLOCK_ELEMENTS, 1, 100])
def test_hop_distance_matrix_blocks_match_floyd_warshall(monkeypatch, block_elements):
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(4)
    for _ in range(4):
        g = multi_component_graph(rng)
        fw = floyd_warshall(g)
        assert np.array_equal(graphs.hop_distance_matrix(g), fw)
        nodes = rng.integers(0, g.n_nodes, size=7)
        assert np.array_equal(graphs.hop_distance_matrix(g, nodes), fw[nodes])


def _tree_path_sums(indptr, indices, source, slot_len):
    """Reference row pair: one ``_bfs_tree_loop`` tree, then a walk down it."""
    hops, parent, order = path_oracle._bfs_tree_loop(indptr, indices, source)
    step = np.zeros(len(hops))
    for v in np.flatnonzero(parent >= 0):
        nbrs = indices[indptr[v]:indptr[v + 1]]
        step[v] = slot_len[indptr[v] + np.flatnonzero(nbrs == parent[v])[0]]
    sums = path_oracle.path_sums(order, parent, step)
    sums[hops < 0] = np.inf
    return hops, sums


def test_bfs_path_sums_matches_per_source_trees():
    rng = np.random.default_rng(3)
    cases = [graphs.Graph.from_edges(5, np.array([[0, 1], [1, 2]]))]
    cases += [multi_component_graph(rng) for _ in range(8)]
    for indptr, indices in ((g.indptr, g.indices) for g in cases):
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
