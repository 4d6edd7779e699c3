"""Graph store tests: loaders, splits, BFS vs Floyd-Warshall, delta oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest

from curvgnn import graphs, manifold as M
from curvgnn.graphs import DataError, Graph

import path_oracle
import sampling_oracle


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def test_load_edge_list_dedups_reversed_pairs(tmp_path):
    p = write(tmp_path, "e.tsv", "0\t1\n1\t0\n# comment\n0\t1\n")
    g = Graph.from_edges(2, graphs.load_edge_list(p))
    assert g.n_edges == 1


def test_empty_edge_file_with_features_gives_isolated_nodes(tmp_path):
    e = write(tmp_path, "e.tsv", "# nothing here\n")
    f = write(tmp_path, "f.csv", "1.0,0.0\n0.0,1.0\n0.5,0.5\n")
    g = graphs.load_graph(e, f)
    assert g.n_nodes == 3 and g.n_edges == 0
    assert g.features.shape == (3, 2)


def test_edge_parse_error_carries_line_number(tmp_path):
    p = write(tmp_path, "e.tsv", "0\t1\n0 1 2\n")
    with pytest.raises(DataError, match="e.tsv:2"):
        graphs.load_edge_list(p)


def test_edge_list_lines_end_at_universal_newlines_only(tmp_path):
    """\\r\\n and a lone \\r end a line; a form feed inside a line is
    whitespace between the ids, not a line break, so the malformed line is
    the fourth. A byte that is not UTF-8 is counted in the same lines."""
    p = tmp_path / "e.tsv"
    p.write_bytes(b"0\t1\r\n1\t2\r2\x0c3\n3\t4\t5\n")
    with pytest.raises(DataError, match=r"e\.tsv:4: expected"):
        graphs.load_edge_list(p)
    p.write_bytes(b"0\t1\r\n1\t2\r2\x0c3\xff\n")
    with pytest.raises(DataError, match=r"e\.tsv:3: edge list is not UTF-8"):
        graphs.load_edge_list(p)


def test_non_integer_edge_error(tmp_path):
    p = write(tmp_path, "e.tsv", "0\tx\n")
    with pytest.raises(DataError, match=":1"):
        graphs.load_edge_list(p)


def test_edge_id_out_of_feature_range(tmp_path):
    e = write(tmp_path, "e.tsv", "0\t5\n")
    f = write(tmp_path, "f.csv", "1.0\n2.0\n")
    with pytest.raises(DataError, match="node 5"):
        graphs.load_graph(e, f)


def test_feature_manifest_json(tmp_path):
    p = write(tmp_path, "f.json", '{"n": 2, "f": 3, "rows": [[1,2,3],[4,5,6]]}')
    feats = graphs.load_features(p)
    assert feats.shape == (2, 3)
    bad = write(tmp_path, "bad.json", '{"n": 3, "f": 3, "rows": [[1,2,3]]}')
    with pytest.raises(DataError):
        graphs.load_features(bad)


def test_ragged_feature_rows_error(tmp_path):
    p = write(tmp_path, "f.csv", "1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match=":2"):
        graphs.load_features(p)


def test_conflicting_labels_error(tmp_path):
    p = write(tmp_path, "l.csv", "0,1\n1,2\n0,3\n")
    with pytest.raises(DataError, match="l.csv:3"):
        graphs.load_labels(p, 2)
    ok = write(tmp_path, "ok.csv", "0,1\n0,1\n")  # duplicate but consistent
    assert graphs.load_labels(ok, 1)[0] == 1


def test_edge_id_beyond_int64_is_data_error(tmp_path):
    p = write(tmp_path, "e.tsv", "0\t1\n0\t99999999999999999999\n")
    with pytest.raises(DataError, match=r"e\.tsv:2: node id does not fit in int64"):
        graphs.load_edge_list(p)
    top = write(tmp_path, "top.tsv", f"0\t{2 ** 63 - 1}\n")  # the largest int64 is read
    assert graphs.load_edge_list(top).tolist() == [[0, 2 ** 63 - 1]]


def test_node_id_beyond_the_node_limit_is_data_error(tmp_path):
    # an int64 id that would size a 14.6 TiB indptr, refused before any array
    p = write(tmp_path, "e.tsv", "0\t1\n0\t2000000000000\n")
    with pytest.raises(DataError, match=r"e\.tsv: node id 2000000000000 is beyond the "
                                        r"limit of 16777216 nodes"):
        graphs.load_graph(p)


def test_class_id_beyond_int64_is_data_error(tmp_path):
    p = write(tmp_path, "l.csv", "0,1\n1,99999999999999999999\n")
    with pytest.raises(DataError, match=r"l\.csv:2: class id 99999999999999999999 does not"):
        graphs.load_labels(p, 2)


LINE_ENDS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}


@pytest.mark.parametrize("end", LINE_ENDS)
@pytest.mark.parametrize("final_end", [True, False], ids=["final-end", "no-final-end"])
def test_readers_split_lines_at_any_universal_newline(tmp_path, end, final_end):
    """\\n, \\r\\n and a lone \\r end a line alike, with or without a final
    line end: blank lines and comments are skipped, the arrays are the same,
    and an error names the same line."""
    def put(name, lines):
        p = tmp_path / name
        p.write_bytes((LINE_ENDS[end].join(lines) + (LINE_ENDS[end] if final_end else ""))
                      .encode())
        return p

    edges = put("e.tsv", ["# header", "0\t1", "", "1\t2  # trailing", "  ", "2\t0"])
    assert graphs.load_edge_list(edges).tolist() == [[0, 1], [1, 2], [2, 0]]
    feats = put("f.csv", ["1.5,-2", "", "3e-1, 4", "0.1,0.2"])
    np.testing.assert_array_equal(graphs.load_features(feats),
                                  [[1.5, -2.0], [0.3, 4.0], [0.1, 0.2]])
    labels = put("l.csv", ["# node,class", "2,1", "", "0,0"])
    assert graphs.load_labels(labels, 3).tolist() == [0, -1, 1]
    for name, lines, read in (
            ("bad.tsv", ["0\t1", "", "0 1 2"], graphs.load_edge_list),
            ("bad.csv", ["1,2", "", "3"], graphs.load_features),
            ("bad_l.csv", ["0,1", "", "1,x"], lambda p: graphs.load_labels(p, 2))):
        with pytest.raises(DataError, match=rf"{name}:3: "):
            read(put(name, lines))


def test_feature_reader_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    """The CSV reader holds the text, its lines and one flat float64 buffer,
    not a Python float object per value: its traced peak stays below 3.5
    times the file size (a list of per-row lists reached ~5.9 times)."""
    rng = np.random.default_rng(3)
    p = write(tmp_path, "f.csv", "".join(",".join(repr(float(x)) for x in row) + "\n"
                                         for row in rng.standard_normal((2000, 16))))
    tracemalloc.start()
    try:
        feats = graphs.load_features(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feats.shape == (2000, 16)
    assert peak < 3.5 * p.stat().st_size


def test_edge_reader_peak_memory_per_edge(tmp_path):
    """The edge reader collects ids in one flat int64 buffer, not a tuple of
    two Python ints per edge: its traced peak stays below 110 bytes per edge
    (a list of per-edge tuples reached ~180)."""
    edges = np.random.default_rng(4).integers(0, 3000, size=(20000, 2))
    p = write(tmp_path, "e.tsv", "".join(f"{u}\t{v}\n" for u, v in edges))
    tracemalloc.start()
    try:
        got = graphs.load_edge_list(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, edges)
    assert peak < 110 * len(edges)


def test_self_loops_dropped():
    g = Graph.from_edges(3, np.array([[0, 0], [0, 1]]))
    assert g.n_edges == 1


def random_multigraph(rng, n, m):
    """n nodes, up to m random edges; high ids often left isolated."""
    hi = int(rng.integers(1, n + 1))
    return Graph.from_edges(n, rng.integers(0, hi, size=(m, 2)))


def test_edge_array_matches_loop_reference():
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        edges = messy_edges(rng, n, int(rng.integers(0, 3 * n)))
        indptr, indices = path_oracle.csr_loop(n, edges)
        want = np.array([(u, v) for u in range(n) for v in indices[indptr[u]:indptr[u + 1]]
                         if u < v], dtype=np.int64).reshape(-1, 2)
        got = Graph.from_edges(n, edges).edge_array()
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


def messy_edges(rng, n, m):
    """m endpoint pairs below a random id cap (ids above it stay isolated),
    with some pairs repeated, some reversed and some turned into self-loops."""
    hi = int(rng.integers(1, n + 1))
    edges = rng.integers(0, hi, size=(m, 2))
    if m:
        picks = rng.integers(0, m, size=(3, max(1, m // 4)))
        edges = np.concatenate([edges, edges[picks[0]], edges[picks[1], ::-1]])
        edges[picks[2], 1] = edges[picks[2], 0]
    return edges[rng.permutation(len(edges))]


def test_from_edges_matches_loop_reference():
    rng = np.random.default_rng(8)
    cases = [(1, np.empty((0, 2), dtype=np.int64)), (1, np.array([[0, 0]])),
             (5, np.empty((0, 2), dtype=np.int64)), (4, np.array([[2, 1], [1, 2], [1, 1]])),
             # a repeat, a reversed pair and a self-loop; the highest id is isolated
             (6, np.array([[3, 1], [0, 2], [3, 1], [1, 3], [2, 2], [4, 0]]))]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        cases.append((n, messy_edges(rng, n, int(rng.integers(0, 4 * n)))))
    for n, edges in cases:
        g = Graph.from_edges(n, edges)
        want_ptr, want_idx = path_oracle.csr_loop(n, edges)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        assert np.array_equal(g.indptr, want_ptr) and np.array_equal(g.indices, want_idx)
        assert g.n_edges == len(want_idx) // 2
        assert np.array_equal(g.degrees(), np.diff(want_ptr))
        owner = np.repeat(np.arange(n), np.diff(want_ptr))
        want_edges = np.stack([owner, want_idx], axis=1)[owner < want_idx]
        assert np.array_equal(g.edge_array(), want_edges)


def test_from_edges_rejects_out_of_range_endpoints():
    for n, edges in ((3, [[0, 3]]), (3, [[-1, 2]]), (1, [[0, 1]])):
        with pytest.raises(DataError, match="out of range"):
            Graph.from_edges(n, np.array(edges))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def big_ring(n=1000):
    return path_oracle.cycle_graph(n)


def test_lp_split_deterministic():
    g = big_ring()
    a = graphs.make_lp_split(g, 0.05, 0.10, seed=3)
    b = graphs.make_lp_split(g, 0.05, 0.10, seed=3)
    for name in ("train_pos", "val_pos", "test_pos", "val_neg", "test_neg"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_lp_split_counts_on_1000_edges():
    sp = graphs.make_lp_split(big_ring(), 0.05, 0.10, seed=0)
    assert len(sp.val_pos) == 50
    assert len(sp.test_pos) == 100
    assert len(sp.train_pos) == 850
    assert len(sp.val_neg) == 50 and len(sp.test_neg) == 100


def test_lp_split_negatives_are_true_nonedges():
    g = graphs.balanced_binary_tree(6)
    sp = graphs.make_lp_split(g, 0.10, 0.15, seed=5)
    for neg in (sp.val_neg, sp.test_neg):
        for u, v in neg:
            assert u != v
            assert not sampling_oracle.has_edge(g, int(u), int(v))
    # positive sets partition the edges
    all_pos = np.concatenate([sp.train_pos, sp.val_pos, sp.test_pos])
    keys = np.sort(np.minimum(all_pos[:, 0], all_pos[:, 1]) * g.n_nodes
                   + np.maximum(all_pos[:, 0], all_pos[:, 1]))
    want = np.sort(np.minimum(g.edge_array()[:, 0], g.edge_array()[:, 1]) * g.n_nodes
                   + np.maximum(g.edge_array()[:, 0], g.edge_array()[:, 1]))
    assert np.array_equal(keys, want)


class CountingRng:
    """Delegates to a Generator and counts the calls to ``integers``."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.gen.integers(*args, **kwargs)


def assert_sampler_matches_loop(g, count, seed, forbidden=None):
    """Same pairs and same generator end state as the scalar loop; rounds.

    The loop takes ``forbidden`` as a set of keys, the sampler as a key
    array."""
    ref_rng = np.random.default_rng(seed)
    want = sampling_oracle.sample_negative_edges_loop(g, count, ref_rng, forbidden)
    rng = CountingRng(seed)
    keys = None if forbidden is None else np.array(sorted(forbidden), dtype=np.int64)
    got = graphs.sample_negative_edges(g, count, rng, keys)
    assert got.dtype == np.int64 and got.shape == (count, 2)
    assert np.array_equal(got, want)
    assert rng.gen.bit_generator.state == ref_rng.bit_generator.state
    return rng.calls


def test_negative_sampler_matches_scalar_loop_on_random_graphs():
    rng = np.random.default_rng(8)
    for trial in range(80):
        n = int(rng.integers(2, 40))
        g = random_multigraph(rng, n, int(rng.integers(0, 2 * n)))
        free = n * (n - 1) // 2 - g.n_edges
        assert_sampler_matches_loop(g, int(rng.integers(0, free + 1)), seed=trial)


def test_negative_sampler_matches_scalar_loop_on_edgeless_graph():
    g = Graph.from_edges(9, np.empty((0, 2), dtype=np.int64))
    for count in (0, 1, 20, 36):
        assert_sampler_matches_loop(g, count, seed=count)


def test_negative_sampler_matches_scalar_loop_with_forbidden_keys():
    rng = np.random.default_rng(2)
    for trial in range(30):
        n = int(rng.integers(5, 30))
        g = random_multigraph(rng, n, n)
        nonedges = [u * n + v for u in range(n) for v in range(u + 1, n)
                    if not sampling_oracle.has_edge(g, u, v)]
        k = int(rng.integers(1, len(nonedges)))
        forbidden = set(rng.choice(nonedges, size=k, replace=False).tolist())
        count = int(rng.integers(0, len(nonedges) - k + 1))
        assert_sampler_matches_loop(g, count, seed=trial, forbidden=forbidden)
    # the split's own use: test negatives avoid the val negatives
    g = graphs.balanced_binary_tree(5)
    val_neg = graphs.sample_negative_edges(g, 40, np.random.default_rng(1))
    forbidden = set((val_neg.min(axis=1) * g.n_nodes + val_neg.max(axis=1)).tolist())
    assert_sampler_matches_loop(g, 60, seed=3, forbidden=forbidden)


def test_negative_sampler_matches_scalar_loop_on_near_dense_graphs():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(6, 25))
        pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
        holes = int(rng.integers(1, 6))
        keep = rng.permutation(len(pairs))[holes:]
        g = Graph.from_edges(n, pairs[keep])
        assert g.n_edges == len(pairs) - holes
        # every free pair (the last ones take many rounds), or all but one
        for count in (holes, holes - 1):
            calls = assert_sampler_matches_loop(g, count, seed=100 + trial)
            if count >= 2:
                assert calls > 1


def test_negative_sampler_rejects_too_dense_request():
    g = path_oracle.cycle_graph(5)  # 5 edges of 10 pairs
    with pytest.raises(DataError, match="too dense"):
        graphs.sample_negative_edges(g, 6, np.random.default_rng(0))


def test_lp_split_too_few_edges():
    g = path_oracle.path_graph(4)
    with pytest.raises(DataError):
        graphs.make_lp_split(g, 0.05, 0.05, seed=0)
    with pytest.raises(ValueError):
        graphs.make_lp_split(big_ring(), 0.6, 0.6, seed=0)


def test_nc_split_stratified_disjoint():
    g = path_oracle.cycle_graph(60)
    g.labels = np.arange(60) % 3
    sp = graphs.make_nc_split(g, seed=1)
    ids = np.concatenate([sp.train, sp.val, sp.test])
    assert len(np.unique(ids)) == len(ids) == 60
    for cls in range(3):
        assert (g.labels[sp.train] == cls).sum() >= 1
        assert (g.labels[sp.test] == cls).sum() >= 1


# ---------------------------------------------------------------------------
# hop distances
# ---------------------------------------------------------------------------

def floyd_warshall(g: Graph):
    n = g.n_nodes
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u in range(n):
        for v in path_oracle.adjacent(g, u):
            d[u, v] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def test_hop_distance_basics():
    g = path_oracle.path_graph(3)
    h = graphs.hop_distance_matrix(g)[0]
    assert h[0] == 0 and h[2] == 2


def test_hop_distances_match_floyd_warshall():
    rng = np.random.default_rng(2)
    for trial in range(5):
        g = random_graph(rng, 60, 0.06)
        fw = floyd_warshall(g)
        assert np.array_equal(graphs.hop_distance_matrix(g), fw)


# ---------------------------------------------------------------------------
# embedded path distance
# ---------------------------------------------------------------------------

def tree6():
    #     0
    #    / \
    #   1   2
    #  / \   \
    # 3   4   5
    return Graph.from_edges(6, np.array([[0, 1], [0, 2], [1, 3], [1, 4], [2, 5]]))


def brute_force_path_distance(g, emb, zeta, i, j):
    """Enumerate all simple paths; shortest by hops, tie-break not needed on trees."""
    best = None
    stack = [(i, [i])]
    while stack:
        node, path = stack.pop()
        if node == j:
            if best is None or len(path) < len(best):
                best = path
            continue
        for nxt in path_oracle.adjacent(g, node):
            if nxt not in path:
                stack.append((int(nxt), path + [int(nxt)]))
    assert best is not None
    return sum(float(M.hyp_distance(emb[a], emb[b], zeta))
               for a, b in zip(best, best[1:]))


def test_graph_distance_adjacent_pair_is_embedding_distance():
    g = tree6()
    rng = np.random.default_rng(4)
    emb = M.to_hyperboloid(rng.standard_normal((6, 3)), 1.0)
    got = path_oracle.hyperbolic_graph_distance(g, emb, 0, 1, 1.0)
    assert got == pytest.approx(float(M.hyp_distance(emb[0], emb[1], 1.0)), abs=1e-12)


def test_graph_distance_two_hop_sum():
    g = path_oracle.path_graph(3)
    rng = np.random.default_rng(6)
    emb = M.to_hyperboloid(rng.standard_normal((3, 2)), 1.0)
    want = float(M.hyp_distance(emb[0], emb[1], 1.0) + M.hyp_distance(emb[1], emb[2], 1.0))
    assert path_oracle.hyperbolic_graph_distance(g, emb, 0, 2, 1.0) == pytest.approx(want)


def test_graph_distance_matches_brute_force_on_tree():
    g = tree6()
    rng = np.random.default_rng(8)
    emb = M.to_hyperboloid(rng.standard_normal((6, 3)), 2.0)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            got = path_oracle.hyperbolic_graph_distance(g, emb, i, j, 2.0)
            want = brute_force_path_distance(g, emb, 2.0, i, j)
            assert got == pytest.approx(want, rel=1e-12)


def test_graph_distance_disconnected_pair_raises():
    g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
    emb = M.to_hyperboloid(np.random.default_rng(0).standard_normal((4, 2)), 1.0)
    with pytest.raises(path_oracle.DisconnectedError):
        path_oracle.hyperbolic_graph_distance(g, emb, 0, 3, 1.0)


def test_path_tie_break_prefers_smallest_predecessor():
    # two shortest 0->3 paths (via 1 or 2); the tie-break must pick 1
    g = Graph.from_edges(4, np.array([[0, 1], [0, 2], [1, 3], [2, 3]]))
    emb = M.to_hyperboloid(np.random.default_rng(1).standard_normal((4, 2)), 1.0)
    want = float(M.hyp_distance(emb[0], emb[1], 1.0) + M.hyp_distance(emb[1], emb[3], 1.0))
    assert path_oracle.hyperbolic_graph_distance(g, emb, 0, 3, 1.0) == pytest.approx(want)


# ---------------------------------------------------------------------------
# Gromov delta
# ---------------------------------------------------------------------------

def brute_force_delta(g: Graph) -> float:
    d = floyd_warshall(g)
    best = 0.0
    for a, b, c, e in itertools.combinations(range(g.n_nodes), 4):
        sums = sorted([d[a, b] + d[c, e], d[a, c] + d[b, e], d[a, e] + d[b, c]])
        best = max(best, 0.5 * (sums[2] - sums[1]))
    return best


def test_delta_zero_on_trees():
    assert graphs.gromov_delta(graphs.balanced_binary_tree(4), "exact") == 0.0
    assert graphs.gromov_delta(path_oracle.path_graph(12), "exact") == 0.0


def test_delta_one_on_four_cycle():
    assert graphs.gromov_delta(path_oracle.cycle_graph(4), "exact") == 1.0


def test_delta_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(10)
    for trial in range(4):
        g = random_graph(rng, 25, 0.15)
        sub = graphs._largest_component_subgraph(g)
        if sub.n_nodes < 4:
            continue
        assert graphs.gromov_delta(g, "exact") == pytest.approx(brute_force_delta(sub))


def test_delta_sampled_is_lower_bound():
    g = path_oracle.cycle_graph(14)
    exact = graphs.gromov_delta(g, "exact")
    for seed in range(3):
        sampled = graphs.gromov_delta(g, "sampled", n_samples=60, seed=seed)
        assert sampled <= exact + 1e-12


def test_delta_needs_four_nodes():
    with pytest.raises(ValueError):
        graphs.gromov_delta(path_oracle.path_graph(3), "exact")


def test_delta_uses_largest_component():
    # a triangle (diameter 1) plus a 6-cycle: delta of the 6-cycle dominates
    tri = [[0, 1], [1, 2], [0, 2]]
    hexa = [[3 + i, 3 + (i + 1) % 6] for i in range(6)]
    g = Graph.from_edges(9, np.array(tri + hexa))
    want = graphs.gromov_delta(path_oracle.cycle_graph(6), "exact")
    assert graphs.gromov_delta(g, "exact") == want
