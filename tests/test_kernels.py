"""The bit-parallel BFS kernels against scalar and brute-force references.

Hop rows are checked against Floyd-Warshall, BFS trees and path sums
against the scalar queue BFS of ``path_oracle._bfs_tree_loop``, exact delta
against the enumeration of all quadruples, sampled delta against a
per-sample loop over the same draws, and components against one
single-source BFS per component (``path_oracle.connected_components_loop``).
Graphs have several components and isolated nodes at the highest ids.
Calls pass 1 to 130 sources, so they fill one uint64 word of BFS bits, end
one bit before or after a word boundary, or span three words; callers'
blocks are 1 source, one word, a few words, or every source; tie-rich
graphs (triangles, preferential attachment) make the smallest-id parent
rule decide between shortest paths.
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


def tie_rich_edges(rng, n):
    """Preferential attachment in which each new node closes a triangle.

    Node v links to an endpoint u drawn by degree and to one of u's
    neighbours, so many nodes have several shortest paths from a source.
    """
    edges = [(0, 1), (1, 2), (0, 2)]
    nbrs = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    ends = [0, 1, 1, 2, 0, 2]
    for v in range(3, n):
        u = ends[int(rng.integers(len(ends)))]
        w = nbrs[u][int(rng.integers(len(nbrs[u])))]
        edges += [(u, v), (w, v)]
        nbrs[v] = [u, w]
        nbrs[u].append(v)
        nbrs[w].append(v)
        ends += [u, v, w, v]
    return edges


def word_boundary_graph(rng):
    """130 connected nodes in four components, then 5 isolated high ids.

    The components (tie-rich, a tree, a cycle, a sparse random graph) are
    interleaved by a random relabelling of ids 0..129.
    """
    parts = [tie_rich_edges(rng, 60),
             [(int(rng.integers(0, v)), v) for v in range(1, 35)],
             [(v, (v + 1) % 15) for v in range(15)],
             [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.15]]
    edges, offset = [], 0
    for part, size in zip(parts, (60, 35, 15, 20)):
        edges += [(a + offset, b + offset) for a, b in part]
        offset += size
    relabel = rng.permutation(offset)
    return graphs.Graph.from_edges(offset + 5, relabel[np.array(edges)])


def source_calls(rng, n):
    """Source arrays of one kernel call each: 1, 63, 64, 65 and 130 sources
    (drawn with repeats where n is smaller), and one call in which every
    source appears three times, across word boundaries."""
    calls = [rng.choice(n, size=k, replace=k > n) for k in (1, 63, 64, 65, 130)]
    tripled = np.repeat(rng.permutation(n)[:40], 3)
    calls.append(tripled[rng.permutation(len(tripled))])
    return calls


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(5)
    cases = [np.empty(0, dtype=np.int64), np.array([7]), np.array([3, 3, 3]),
             np.array([-2, 5, -2, 0, 5])]
    cases += [rng.integers(-50, 50, size=int(rng.integers(1, 300))) for _ in range(40)]
    for a in cases:
        got = _kernels.sorted_unique(a)
        assert got.dtype == a.dtype and np.array_equal(got, np.unique(a))


def test_bfs_hops_match_floyd_warshall():
    rng = np.random.default_rng(0)
    cases = [graphs.Graph.from_edges(5, np.array([[0, 1], [1, 2]]))]
    cases += [multi_component_graph(rng) for _ in range(6)]
    cases += [word_boundary_graph(rng) for _ in range(3)]
    cases.append(path_oracle.path_graph(200))  # hops beyond int8 (depth 199)
    for g in cases:
        fw = floyd_warshall(g)
        for sources in source_calls(rng, g.n_nodes):
            hops = _kernels.bfs_hops(g.indptr, g.indices, sources)
            want = fw[sources]
            assert hops.shape == want.shape and hops.dtype == np.int64
            assert np.array_equal(np.where(hops < 0, np.inf, hops), want)
            assert np.all((hops == -1) == np.isinf(want))


def test_bfs_hops_rejects_out_of_range_sources():
    g = path_oracle.path_graph(4)
    indptr, indices = g.indptr, g.indices
    for bad in ([4], [0, -1]):
        with pytest.raises(ValueError):
            _kernels.bfs_hops(indptr, indices, bad)


def test_bfs_tree_matches_loop_reference():
    rng = np.random.default_rng(1)
    cases = [multi_component_graph(rng) for _ in range(6)]
    cases += [random_tree(rng, 40), path_oracle.cycle_graph(9), graphs.balanced_binary_tree(4),
              graphs.Graph.from_edges(70, np.array(tie_rich_edges(rng, 70)))]
    for g in cases:
        indptr, indices = g.indptr, g.indices
        for s in range(g.n_nodes):
            hops, parent = _kernels.bfs_tree(indptr, indices, s)
            want_hops, want_parent, order = path_oracle._bfs_tree_loop(indptr, indices, s)
            assert np.array_equal(hops, want_hops)
            assert np.array_equal(parent, want_parent)  # smallest-predecessor rule
            # the reference's queue order, which its path sums walk: the
            # source first, nondecreasing hop count, the other components
            # last; so parents precede children
            level = np.where(hops == -1, g.n_nodes, hops)
            assert order.dtype == np.int64 and order[0] == s
            assert np.array_equal(np.sort(order), np.arange(g.n_nodes))
            assert np.all(np.diff(level[order]) >= 0)
            rank = np.argsort(order)
            kids = np.flatnonzero(parent >= 0)
            assert np.all(rank[parent[kids]] < rank[kids])


def test_delta_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    cases = [path_oracle.cycle_graph(4), path_oracle.cycle_graph(7), random_tree(rng, 12)]
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


def spy_call_sizes(monkeypatch):
    """Record the number of sources of every ``bfs_hops`` call."""
    sizes = []
    bfs_hops = _kernels.bfs_hops

    def spy(indptr, indices, sources):
        sizes.append(len(sources))
        return bfs_hops(indptr, indices, sources)

    monkeypatch.setattr(_kernels, "bfs_hops", spy)
    return sizes


def assert_blocked(call, block):
    """One caller's ``bfs_hops`` calls: whole blocks, then one partial or whole."""
    assert call[:-1] == [block] * (len(call) - 1) and 0 < call[-1] <= block


def assert_doubling(call, block):
    """``connected_components``' calls: 1, 2, 4, ... sources up to whole blocks,
    the last one partial or whole."""
    want = [min(1 << i, block) for i in range(len(call))]
    assert call[:-1] == want[:-1] and 0 < call[-1] <= want[-1]


def many_component_graph(rng):
    """A word-boundary graph, then 300 isolated ids and a few small paths, so
    the component search passes several whole blocks."""
    g = word_boundary_graph(rng)
    n = g.n_nodes + 300
    paths = [(v, v + 1) for v in range(n, n + 30) if v % 4]
    return graphs.Graph.from_edges(n + 31, np.concatenate((g.edge_array(), paths)))


@pytest.mark.parametrize("block_sources", [1 << 16, 1, 3, 100, _kernels.WORD_BITS])
def test_connected_components_match_loop_reference(monkeypatch, block_sources):
    monkeypatch.setattr(_kernels, "BLOCK_SOURCES", block_sources)
    sizes = spy_call_sizes(monkeypatch)
    rng = np.random.default_rng(6)
    cases = [multi_component_graph(rng) for _ in range(6)]
    cases += [word_boundary_graph(rng), many_component_graph(rng), random_tree(rng, 40),
              graphs.Graph.from_edges(3, np.empty((0, 2), dtype=np.int64))]
    calls = []
    for g in cases:
        want = path_oracle.connected_components_loop(g)
        start = len(sizes)
        got = graphs.connected_components(g)
        calls.append(sizes[start:])
        assert_doubling(calls[-1], block_sources)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    # a tree takes one single-source call; over 300 components fill whole blocks
    assert [1] in calls and min(block_sources, 128) in sum(calls, [])


# sources per kernel call: one word (the default), one source, a few words
# (100 and 200 sources span two and four words), and every source at once
@pytest.mark.parametrize("block_sources", [1 << 16, 1, 200, _kernels.WORD_BITS])
def test_sampled_delta_matches_per_sample_loop(monkeypatch, block_sources):
    monkeypatch.setattr(_kernels, "BLOCK_SOURCES", block_sources)
    sizes = spy_call_sizes(monkeypatch)
    rng = np.random.default_rng(3)
    cases = [graphs.balanced_binary_tree(5), random_tree(rng, 50), path_oracle.cycle_graph(11),
             random_tree(rng, 65), graphs.balanced_binary_tree(7)]
    cases += [multi_component_graph(rng, 2) for _ in range(3)]
    for g in cases:
        if graphs._largest_component_subgraph(g).n_nodes < 4:
            continue
        start = len(sizes)
        graphs.connected_components(g)  # its own doubling blocks, then the rows'
        comp_calls = sizes[start:]
        assert_doubling(comp_calls, block_sources)
        for seed in range(10):
            for n_samples in (1, 300):
                start = len(sizes)
                got = graphs.gromov_delta(g, "sampled", n_samples=n_samples, seed=seed)
                assert sizes[start:start + len(comp_calls)] == comp_calls
                assert_blocked(sizes[start + len(comp_calls):], block_sources)
                assert got == sampled_delta_loop(g, n_samples, seed)
    # one sample has three row nodes; 300 samples on the larger graphs fill
    # whole blocks (over 200 distinct row nodes on the 255-node tree) and
    # leave partial ones
    assert min(block_sources, 3) in sizes
    assert block_sources in sizes if block_sources < 1 << 16 else max(sizes) > 200
    assert block_sources == 1 or any(3 < k < block_sources for k in sizes)


@pytest.mark.parametrize("block_sources", [1 << 16, 1, 100, _kernels.WORD_BITS])
def test_hop_distance_matrix_blocks_match_floyd_warshall(monkeypatch, block_sources):
    monkeypatch.setattr(_kernels, "BLOCK_SOURCES", block_sources)
    sizes = spy_call_sizes(monkeypatch)
    rng = np.random.default_rng(4)
    cases = [multi_component_graph(rng) for _ in range(3)]
    cases += [word_boundary_graph(rng), random_tree(rng, 65)]
    for g in cases:
        fw = floyd_warshall(g)
        start = len(sizes)
        assert np.array_equal(graphs.hop_distance_matrix(g), fw)
        assert_blocked(sizes[start:], block_sources)
    # with one-word blocks, 65 and 135 nodes end in a 1- and a 7-source
    # block after whole ones
    if block_sources == _kernels.WORD_BITS:
        assert {1, 7, _kernels.WORD_BITS} <= set(sizes)


def _tree_path_sums(indptr, indices, source, slot_len):
    """Reference row pair: one ``_bfs_tree_loop`` tree, then a walk down it."""
    hops, parent, order = path_oracle._bfs_tree_loop(indptr, indices, source)
    step = np.zeros(len(hops))
    for v in np.flatnonzero(parent >= 0):
        nbrs = indices[indptr[v]:indptr[v + 1]]
        step[v] = slot_len[indptr[v] + np.flatnonzero(nbrs == parent[v])[0]]
    return hops, path_oracle.path_sums(order, parent, step)


def test_bfs_path_sums_matches_per_source_trees():
    # whole trees, and the paths to requested (row, node) pairs only: the
    # plan must hold exactly the pairs the reference reaches (hops > 0), and
    # their sums must equal the reference bit for bit, for every length
    # vector summed along one ``bfs_paths`` plan
    rng = np.random.default_rng(3)
    cases = [graphs.Graph.from_edges(5, np.array([[0, 1], [1, 2]]))]
    cases += [multi_component_graph(rng) for _ in range(4)]
    cases += [word_boundary_graph(rng) for _ in range(2)]
    cases += [graphs.Graph.from_edges(150, np.array(tie_rich_edges(rng, 150))),
              path_oracle.path_graph(140)]
    for indptr, indices in ((g.indptr, g.indices) for g in cases):
        n = len(indptr) - 1
        # one length per direction of each edge; the second vector has zeros
        lengths = [rng.random(len(indices)), rng.random(len(indices)).round(1)]
        trees = [{}, {}]
        for sources in source_calls(rng, n):
            want = [[tree.setdefault(int(s), _tree_path_sums(indptr, indices, int(s), slot_len))
                     for s in sources] for tree, slot_len in zip(trees, lengths)]
            want_hops = np.array([w[0] for w in want[0]])
            want_sums = [np.array([w[1] for w in ws]) for ws in want]
            # every reached pair, row-major
            rows, nodes, paths = _kernels.bfs_paths(indptr, indices, sources)
            assert np.array_equal(np.stack((rows, nodes)), np.nonzero(want_hops > 0))
            for slot_len, ws in zip(lengths, want_sums):
                assert np.array_equal(_kernels.path_sums(paths, slot_len), ws[rows, nodes])
            # the reached ones of the given pairs, in their order, repeats kept
            for n_pairs in (0, 1, 5 * n):
                row = rng.integers(0, len(sources), size=n_pairs)
                node = rng.integers(0, n, size=n_pairs)
                rows, nodes, paths = _kernels.bfs_paths(indptr, indices, sources, (row, node))
                keep = want_hops[row, node] > 0
                assert np.array_equal(rows, row[keep]) and np.array_equal(nodes, node[keep])
                for slot_len, ws in zip(lengths, want_sums):
                    assert np.array_equal(_kernels.path_sums(paths, slot_len), ws[rows, nodes])
