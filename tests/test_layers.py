"""Layer tests: manifold-op composition oracle, attention, losses, gradients."""

import copy
import dataclasses
import json
import tracemalloc

import mpmath
import numpy as np
import pytest

from curvgnn import autodiff as ad, graphs, layers as L, manifold as M
from curvgnn.autodiff import Tensor, backward

import geometry_oracle as geo
import path_oracle
from grad_oracle import finite_diff_check


def rand_points(rng, n, dim, zeta, scale=1.0):
    return M.to_hyperboloid(rng.standard_normal((n, dim)) * scale, zeta)


# ---------------------------------------------------------------------------
# differentiable manifold ops agree with the geometry kernel
# ---------------------------------------------------------------------------

def test_linear_transform_identity():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((5, 3))
    out = L.linear_transform(t, np.eye(3), np.zeros(3), 1.0)
    assert np.max(np.abs(out.data - M.to_hyperboloid(t, 1.0))) < 1e-8


def test_linear_transform_fixes_origin():
    rng = np.random.default_rng(2)
    W = rng.standard_normal((3, 4))
    out = L.linear_transform(np.zeros((1, 3)), W, np.zeros(4), 2.0)
    assert out.data[0] == pytest.approx(M.origin(4, 2.0), abs=1e-9)


def test_linear_transform_matches_manifold_composition():
    """Step-by-step composition through the geometry kernel as oracle."""
    rng = np.random.default_rng(3)
    zeta = 0.8
    tang = rng.standard_normal((6, 4))
    W = rng.standard_normal((4, 3)) * 0.7
    b = rng.standard_normal(3) * 0.3
    got = L.linear_transform(tang, W, b, zeta).data

    point = M.to_hyperboloid(tang @ W, zeta)
    carried = geo.parallel_transport(np.broadcast_to(M.origin(3, zeta), point.shape),
                                     point, geo.tangent_from_euclidean(b), zeta,
                                     validate=False)
    want = M.exp_map(point, carried, zeta)
    assert np.max(np.abs(got - want)) < 1e-10


# ---------------------------------------------------------------------------
# attention and aggregation
# ---------------------------------------------------------------------------

def test_attention_single_neighbor_weight_one():
    rng = np.random.default_rng(4)
    params = L.init_layer(rng, 3, 3)
    pts = rand_points(rng, 2, 3, 1.0)
    w = geo.attention_weights(pts[0], pts[1:2], params, 1.0)
    assert w == pytest.approx([1.0])


def test_attention_identical_neighbors_split_evenly():
    rng = np.random.default_rng(5)
    params = L.init_layer(rng, 3, 3)
    pts = rand_points(rng, 2, 3, 1.0)
    nbrs = np.stack([pts[1], pts[1]])
    w = geo.attention_weights(pts[0], nbrs, params, 1.0)
    assert w == pytest.approx([0.5, 0.5])


def test_attention_sums_to_one():
    rng = np.random.default_rng(6)
    params = L.init_layer(rng, 4, 4)
    for _ in range(20):
        pts = rand_points(rng, 6, 4, 1.0)
        w = geo.attention_weights(pts[0], pts[1:], params, 1.0)
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)


def test_aggregate_single_neighbor_full_weight():
    rng = np.random.default_rng(7)
    pts = rand_points(rng, 2, 3, 1.0)
    got = geo.aggregate(pts[0], pts[1:2], [1.0], 1.0)
    assert got == pytest.approx(pts[1], abs=1e-8)


def test_aggregate_of_identical_points_is_identity():
    rng = np.random.default_rng(8)
    p = rand_points(rng, 1, 3, 1.0)[0]
    got = geo.aggregate(p, np.stack([p, p, p]), [0.2, 0.3, 0.5], 1.0)
    assert got == pytest.approx(p, abs=1e-9)


def test_aggregate_symmetric_neighbors_cancel():
    zeta = 1.0
    center = M.origin(2, zeta)
    v = np.array([0.0, 0.8, 0.0])
    plus = M.exp_map(center, v, zeta)
    minus = M.exp_map(center, -v, zeta)
    got = geo.aggregate(center, np.stack([plus, minus]), [0.5, 0.5], zeta)
    assert got == pytest.approx(center, abs=1e-9)


# ---------------------------------------------------------------------------
# node-side attention projection and log-map sum against per-edge forms
# ---------------------------------------------------------------------------

def random_message_graph(rng, n_max=25):
    """Random multigraph whose highest ids stay isolated, plus its edge plan."""
    n = int(rng.integers(2, n_max))
    hi = int(rng.integers(1, n))  # ids >= hi have no edges
    g = graphs.Graph.from_edges(n, rng.integers(0, hi, size=(int(rng.integers(0, 3 * n)), 2)))
    return g, L.message_edges(g)


def self_loop_edges(g):
    """(src, dst, indptr, nbr_rows): g's message edges with each node's
    self-loop after its neighbours, built one node at a time. These are the
    edges the per-edge oracles of geometry_oracle take; nbr_rows are the
    rows of the plan's edges among them, in plan order."""
    src, dst, counts = [], [], []
    for i in range(g.n_nodes):
        nbrs = path_oracle.adjacent(g, i).tolist()
        src.extend(nbrs + [i])
        dst.extend([i] * (len(nbrs) + 1))
        counts.append(len(nbrs) + 1)
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return src, dst, indptr, np.flatnonzero(src != dst)


def segment_weights(rng, indptr):
    """Positive weights that sum to 1 over each node's message block, self-loop
    included; every block is nonempty."""
    w = rng.uniform(0.1, 1.0, size=(indptr[-1], 1))
    return w / np.repeat(np.add.reduceat(w, indptr[:-1]), np.diff(indptr), axis=0)


def edge_op_case(rng, d):
    """Random multigraph with isolated nodes, a layer with a nonzero att_b1,
    and origin-tangent rows."""
    g, edges = random_message_graph(rng)
    params = L.init_layer(rng, d, d)
    params.att_b1.data = rng.standard_normal(d)
    return g, edges, params, rng.standard_normal((g.n_nodes, d))


def run_probed(op, leaves, probe):
    """Values of op() and the gradients of sum(op() * probe) on the leaves.
    The values are read before backward, which consumes the tape."""
    for t in leaves:
        t.grad = None
    out = op()
    value = out.data
    backward(ad.tsum(out * Tensor(probe)))
    return [value] + [t.grad for t in leaves]


def assert_close_to_max(got, want, rel=1e-12):
    """Each array within rel of the largest magnitude in want: a gradient that
    is 0 in exact arithmetic (att_b1 when no relu clips) is rounding alone."""
    top = max(np.max(np.abs(b), initial=1e-300) for b in want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= rel * top


def test_attention_scores_match_concat_reference():
    """The fused attention weights agree with the neighbour rows of the
    softmax of the (E, 2d) concatenated-row scores over the edges with
    self-loops, in value and in every gradient."""
    rng = np.random.default_rng(30)
    for trial in range(30):
        g, plan, params, tang0 = edge_op_case(rng, int(rng.integers(1, 6)))
        src, dst, indptr, nbr = self_loop_edges(g)
        tang = Tensor(tang0, requires_grad=True)
        leaves = [tang, params.att_w1, params.att_b1, params.att_w2]
        probe = rng.standard_normal((len(plan.src), 1))
        want = run_probed(lambda: ad.gather_rows(geo.segment_softmax(
            geo.attention_scores_concat(tang, src, dst, params), dst, indptr), nbr),
            leaves, probe)
        got = run_probed(lambda: L.attention_weights(tang, params, plan), leaves, probe)
        assert_close_to_max(got[:1], want[:1])
        assert_close_to_max(got[1:], want[1:])


def test_fused_edge_ops_equal_composed_oracles():
    """Both per-edge tape ops compute exactly what their compositions of tape
    primitives compute over the edges with self-loops; their closed-form
    VJPs agree up to rounding. The self-loop rows are the oracles' only
    extra rows: the attention op returns the others, and the self-loop
    weight of sum_logs multiplies a log map of exactly 0."""
    rng = np.random.default_rng(34)
    for trial in range(30):
        g, plan, params, tang0 = edge_op_case(rng, int(rng.integers(1, 6)))
        src, dst, indptr, nbr = self_loop_edges(g)
        tang = Tensor(tang0, requires_grad=True)
        leaves = [tang, params.att_w1, params.att_b1, params.att_w2]
        probe = rng.standard_normal((len(plan.src), 1))
        want = run_probed(lambda: ad.gather_rows(geo.attention_weights_composed(
            tang, params, src, dst, indptr), nbr), leaves, probe)
        got = run_probed(lambda: L.attention_weights(tang, params, plan), leaves, probe)
        assert np.array_equal(got[0], want[0])
        assert_close_to_max(got[1:], want[1:])

        zeta = float(rng.choice([0.1, 1.0, 10.0]))
        h = Tensor(rand_points(rng, g.n_nodes, 3, zeta, scale=zeta), requires_grad=True)
        w = Tensor(segment_weights(rng, indptr), requires_grad=True)
        probe = rng.standard_normal(h.shape)
        want = run_probed(lambda: geo.sum_logs_composed(h, src, dst, indptr, w, zeta),
                          [h, w], probe)
        got = run_probed(lambda: M.sum_logs(h, plan, ad.gather_rows(w, nbr), zeta),
                         [h, w], probe)
        assert np.array_equal(got[0], want[0])
        assert_close_to_max(got[1:], want[1:])


def test_attention_weights_gradients_match_finite_differences():
    rng = np.random.default_rng(35)
    g = graphs.Graph.from_edges(6, [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4]])  # 5 isolated
    plan = L.message_edges(g)
    params = L.init_layer(rng, 3, 3)
    params.att_b1.data = rng.standard_normal(3)
    tang = rng.standard_normal((g.n_nodes, 3))
    probe = Tensor(rng.standard_normal((len(plan.src), 1)))

    def weighted(t, p):
        return ad.tsum(L.attention_weights(t, p, plan) * probe)

    assert finite_diff_check(lambda t: weighted(t, params), tang) < 1e-5
    for name in ("att_w1", "att_b1", "att_w2"):
        err = finite_diff_check(
            lambda t: weighted(tang, dataclasses.replace(params, **{name: t})),
            getattr(params, name).data)
        assert err < 1e-5, f"{name}: rel err {err}"


def test_sum_logs_matches_summed_log_maps():
    rng = np.random.default_rng(31)
    for zeta in (0.1, 1.0, 10.0):
        for trial in range(20):
            g, plan = random_message_graph(rng)
            src, dst, indptr, nbr = self_loop_edges(g)
            h = rand_points(rng, g.n_nodes, 3, zeta, scale=zeta)
            w = segment_weights(rng, indptr)
            got = M.sum_logs(h, plan, w[nbr], zeta).data
            per_edge = geo.log_at(h[dst], h[src], zeta)
            want = geo.segment_sum(Tensor(w) * per_edge, indptr).data
            scale = np.max(np.abs(h), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            lonely = np.diff(g.indptr) == 0  # only the self-loop: sums to exactly 0
            assert np.all(got[lonely] == 0.0)


def mp_sum_logs(h, src, dst, weights, zeta):
    """50-digit sum_e w_e log_{h_dst}(h_src) per node on the float inputs,
    with u from the difference form that the tape op evaluates."""
    with mpmath.workdps(50):
        z = mpmath.mpf(zeta)
        out = [[mpmath.mpf(0)] * h.shape[1] for _ in range(h.shape[0])]
        for e, (j, i) in enumerate(zip(src, dst)):
            x = [mpmath.mpf(c) for c in h[i]]
            y = [mpmath.mpf(c) for c in h[j]]
            diff = [a - b for a, b in zip(x, y)]
            u = (-diff[0] ** 2 + mpmath.fsum(c * c for c in diff[1:])) / (2 * z * z)
            if u == 0:
                continue
            c = mpmath.acosh(1 + u) / mpmath.sqrt(u * (u + 2))
            a = mpmath.mpf(weights[e, 0]) * c
            for k in range(h.shape[1]):
                out[i][k] += a * (y[k] - (1 + u) * x[k])
        return np.array([[float(v) for v in row] for row in out])


def test_sum_logs_matches_mpmath():
    rng = np.random.default_rng(32)
    g = graphs.Graph.from_edges(7, [[0, 1], [1, 2], [1, 3], [3, 4], [2, 4]])  # 5, 6 isolated
    plan = L.message_edges(g)
    src, dst, indptr, nbr = self_loop_edges(g)
    w = segment_weights(rng, indptr)
    for zeta in (0.1, 1.0, 10.0):
        h = rand_points(rng, g.n_nodes, 3, zeta, scale=1.5 * zeta)
        h[6] = h[5]  # coinciding points far apart in id
        got = M.sum_logs(h, plan, w[nbr], zeta).data
        want = mp_sum_logs(h, src, dst, w, zeta)
        norm = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(norm, 1e-300))
        assert np.all(got[5:] == 0.0)


def test_sum_logs_gradients_match_finite_differences():
    rng = np.random.default_rng(33)
    g = graphs.Graph.from_edges(6, [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4]])  # 5 isolated
    plan = L.message_edges(g)
    zeta = 1.3
    _, _, indptr, nbr = self_loop_edges(g)
    h = rand_points(rng, g.n_nodes, 3, zeta)
    w = segment_weights(rng, indptr)[nbr]
    probe = Tensor(rng.standard_normal(h.shape))

    def wrt_h(t):
        return ad.tsum(M.sum_logs(t, plan, w, zeta) * probe)

    def wrt_w(t):
        return ad.tsum(M.sum_logs(h, plan, t, zeta) * probe)

    assert finite_diff_check(wrt_h, h) < 1e-5
    assert finite_diff_check(wrt_w, w) < 1e-5


# ---------------------------------------------------------------------------
# the edge plan: reverse edges and sums by dst
# ---------------------------------------------------------------------------

def hub_graph(rng, hub_degree=24):
    """Random graph whose node 0 has at least hub_degree neighbours and whose
    highest ids stay isolated."""
    n = hub_degree + int(rng.integers(3, 12))
    hi = n - int(rng.integers(1, 4))  # ids >= hi have no edges
    spokes = np.stack([np.zeros(hub_degree, dtype=np.int64), np.arange(1, hub_degree + 1)], 1)
    extra = rng.integers(0, hi, size=(int(rng.integers(0, 2 * n)), 2))
    return graphs.Graph.from_edges(n, np.concatenate([spokes, extra]))


def test_edge_plan_pairs_every_edge_with_its_reverse():
    rng = np.random.default_rng(40)
    for trial in range(20):
        g = hub_graph(rng)
        plan = L.message_edges(g)
        assert plan.counts[0] >= 24  # the hub's spokes
        assert plan.counts[-1] == 0  # the highest id is isolated
        assert np.array_equal(plan.counts, np.diff(g.indptr))
        assert np.array_equal(plan.src[plan.rev], plan.dst)
        assert np.array_equal(plan.dst[plan.rev], plan.src)
        assert np.array_equal(plan.rev[plan.rev], np.arange(len(plan.src)))
        assert len(plan.src) == 2 * g.n_edges and not np.any(plan.src == plan.dst)


def test_edge_plan_sums_by_dst_like_scatter_rows():
    """sum_by_dst is byte-equal to the scatter by dst at every width, and a
    sum over the reverse edges to the scatter by src: both add each node's
    rows in the same order."""
    rng = np.random.default_rng(41)
    dim = 5
    for trial in range(10):
        g = hub_graph(rng)
        plan = L.message_edges(g)
        n = g.n_nodes
        for width in (1, dim, dim + 1, dim):  # the last one reuses its slot index
            values = rng.standard_normal((len(plan.src), width)) * 10.0 ** rng.integers(
                -5, 5, size=(len(plan.src), 1))
            got = plan.sum_by_dst(values)
            want = ad.scatter_rows(values, plan.dst, n)
            assert got.shape == (n, width) and got.tobytes() == want.tobytes()
            by_src = plan.sum_by_dst(values[plan.rev])
            want = ad.scatter_rows(values, plan.src, n)
            assert by_src.tobytes() == want.tobytes()
        assert sorted(plan.slots) == [dim, dim + 1]


def test_edge_plan_rejects_bad_edge_lists():
    with pytest.raises(ValueError, match="reverse"):  # 1 -> 0 without 0 -> 1
        ad.edge_plan(np.array([1]), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="cover"):  # a segment ends before it starts
        ad.edge_plan(np.array([1, 0]), np.array([0, 2, 1]))
    with pytest.raises(ValueError, match="cover"):  # the last edge has no segment
        ad.edge_plan(np.array([0, 1, 1]), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="order"):  # node 0's neighbours unsorted
        ad.edge_plan(np.array([2, 1, 0, 0, 0, 1]), np.array([0, 2, 4, 6]))
    plan = ad.edge_plan(np.array([1, 0]), np.array([0, 1, 2, 2]))  # node 2 isolated
    assert np.array_equal(plan.dst, [0, 1]) and np.array_equal(plan.rev, [1, 0])
    assert np.array_equal(plan.counts, [1, 1, 0])
    plan = ad.edge_plan(np.array([0, 1]), np.array([0, 1, 2]))  # self-loops only
    assert np.array_equal(plan.dst, [0, 1]) and np.array_equal(plan.rev, [0, 1])


@pytest.mark.parametrize("zeta", [0.1, 1.0, 10.0])
def test_edge_ops_gradients_match_finite_differences_on_a_hub(zeta):
    rng = np.random.default_rng(42)
    g = hub_graph(rng)
    plan = L.message_edges(g)
    _, _, indptr, nbr = self_loop_edges(g)
    h = rand_points(rng, g.n_nodes, 3, zeta, scale=zeta)
    w = segment_weights(rng, indptr)[nbr]
    probe = Tensor(rng.standard_normal(h.shape))
    step = 1e-5 * zeta  # the coordinates scale with zeta

    def wrt_h(t):
        return ad.tsum(M.sum_logs(t, plan, w, zeta) * probe)

    def wrt_w(t):
        return ad.tsum(M.sum_logs(h, plan, t, zeta) * probe)

    assert finite_diff_check(wrt_h, h, step) < 1e-5
    assert finite_diff_check(wrt_w, w) < 1e-5

    params = L.init_layer(rng, 3, 3)
    params.att_b1.data = rng.standard_normal(3)
    tang = M.to_tangent_coords(h, zeta)
    att_probe = Tensor(rng.standard_normal((len(plan.src), 1)))

    def weighted(t, p):
        return ad.tsum(L.attention_weights(t, p, plan) * att_probe)

    assert finite_diff_check(lambda t: weighted(t, params), tang, step) < 1e-5
    for name in ("att_w1", "att_b1", "att_w2"):
        err = finite_diff_check(
            lambda t: weighted(tang, dataclasses.replace(params, **{name: t})),
            getattr(params, name).data)
        assert err < 1e-5, f"{name}: rel err {err}"


# ---------------------------------------------------------------------------
# layer / model forward
# ---------------------------------------------------------------------------

def test_single_node_identity_layer_preserves_lift():
    """A lone node under W = I, b = 0 keeps its (nonnegative) tangent
    coordinates: its lift and log at the origin cancel, and its only
    message is its own self-loop."""
    g = graphs.Graph.from_edges(1, np.empty((0, 2)))
    g.features = np.array([[0.3, 0.5, 0.1]])
    rng = np.random.default_rng(12)
    params = L.init_layer(rng, 3, 3)
    params.W.data = np.eye(3)
    params.b.data = np.zeros(3)
    out = L.layer_forward(g.features, g, params, 1.0, edges=L.message_edges(g))
    assert out.data[0] == pytest.approx(g.features[0], abs=1e-9)


def test_eval_forward_is_deterministic():
    g = graphs.balanced_binary_tree(3)
    g.features = graphs.random_plus_degree_features(g, 4, 0)
    rng = np.random.default_rng(13)
    model = L.HyperbolicGNN(4, 4, 2, 1.0, rng, dropout=0.5)
    a = model.forward(g, training=False).data
    b = model.forward(g, training=False).data
    assert np.array_equal(a, b)


def test_snapshot_restore_round_trips_exactly():
    g = graphs.balanced_binary_tree(3)
    g.features = graphs.random_plus_degree_features(g, 4, 0)
    src = L.HyperbolicGNN(4, 5, 2, 1.0, np.random.default_rng(15), n_classes=3)
    src.zeta = 2.3
    snap = src.snapshot()
    assert list(snap) == ["layers", "zeta", "W_cls", "b_cls"]
    assert [list(layer) for layer in snap["layers"]] == [
        ["W", "b", "att_w1", "att_b1", "att_w2"]] * 2
    dst = L.HyperbolicGNN(4, 5, 2, 1.0, np.random.default_rng(16), n_classes=3)
    dst.restore(json.loads(json.dumps(snap)))
    assert dst.zeta == src.zeta
    for a, b in zip(src.parameters(), dst.parameters()):
        assert b.data.dtype == np.float64 and np.array_equal(a.data, b.data)
    assert json.dumps(dst.snapshot()) == json.dumps(snap)
    assert np.array_equal(dst.forward(g).data, src.forward(g).data)
    assert "W_cls" not in L.HyperbolicGNN(4, 5, 1, 1.0, np.random.default_rng(0)).snapshot()
    with pytest.raises(ValueError):  # a layer missing from the snapshot
        dst.restore({**snap, "layers": snap["layers"][:1]})
    # a malformed snapshot changes nothing, though its first tensors are sound
    other = L.HyperbolicGNN(4, 5, 2, 1.0, np.random.default_rng(17), n_classes=3).snapshot()
    with pytest.raises(graphs.DataError, match="layer 1 att_w2"):
        dst.restore({**other, "layers": [other["layers"][0],
                                         {**other["layers"][1], "att_w2": [1.0]}]})
    assert json.dumps(dst.snapshot()) == json.dumps(snap)


def test_training_dropout_changes_outputs():
    g = graphs.balanced_binary_tree(3)
    g.features = graphs.random_plus_degree_features(g, 4, 0)
    model = L.HyperbolicGNN(4, 4, 2, 1.0, np.random.default_rng(13), dropout=0.5)
    rng = np.random.default_rng(1)
    a = model.forward(g, training=True, rng=rng).data
    b = model.forward(g, training=True, rng=rng).data
    assert not np.array_equal(a, b)


def test_model_forward_constraint_residuals():
    g = graphs.balanced_binary_tree(4)
    g.features = graphs.random_plus_degree_features(g, 6, 1)
    for zeta in (0.6, 1.2, 2.0):
        model = L.HyperbolicGNN(6, 5, 3, zeta, np.random.default_rng(14))
        emb = model.forward(g).data
        assert np.max(M.manifold_residual(emb, zeta)) < 1e-6


def test_forward_matches_boundary_round_trip_reference():
    """Lifting once at the output computes what wrapping every activation
    onto the hyperboloid and logging it back did."""
    g = graphs.balanced_binary_tree(4)
    g.features = graphs.random_plus_degree_features(g, 6, 1)
    for n_layers, zeta in ((2, 1.0), (2, 0.3), (2, 3.0), (3, 0.6), (3, 2.0)):
        model = L.HyperbolicGNN(6, 5, n_layers, zeta, np.random.default_rng(16))
        got = model.forward(g).data
        want = geo.forward_with_boundary_round_trips(model, g).data
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_message_edges_match_loop_reference():
    """The plan's edges are the self-loop edges of the loop reference without
    their self-loops."""
    rng = np.random.default_rng(6)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        hi = int(rng.integers(1, n + 1))  # ids >= hi stay isolated
        g = graphs.Graph.from_edges(n, rng.integers(0, hi, size=(int(rng.integers(0, 3 * n)), 2)))
        src, dst, indptr, nbr = self_loop_edges(g)
        want = (src[nbr], dst[nbr], np.diff(indptr) - 1)
        for got, want in zip(L.message_edges(g), want):
            assert got.dtype == np.int64 and np.array_equal(got, want)


def tree_with_isolated_nodes(rng, d):
    """Nodes 0..25 joined as a tree, 26..39 isolated, with (40, d) features."""
    tree = graphs.balanced_binary_tree(4).edge_array()
    g = graphs.Graph.from_edges(40, tree[(tree < 26).all(axis=1)])
    g.features = 0.5 * rng.standard_normal((g.n_nodes, d))
    return g


def closure_arrays(fn):
    """Every array a function's closure holds, also inside tuples, lists,
    dicts such as a plan, Tensors and the closures of nested functions."""
    arrays, seen = [], set()
    held = [c.cell_contents for c in getattr(fn, "__closure__", None) or ()]
    while held:
        v = held.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, Tensor):
            arrays.append(v.data)
        elif isinstance(v, np.ndarray):
            arrays.append(v)
        elif isinstance(v, (tuple, list)):
            held.extend(v)
        elif isinstance(v, dict):
            held.extend(v.values())
        elif callable(v):
            held.extend(c.cell_contents for c in getattr(v, "__closure__", None) or ())
    return arrays


def tape_nodes(loss):
    """Every node of the tape of loss, each once."""
    nodes, seen, todo = [], set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    return nodes


def tape_arrays(loss):
    """Every array the tape of loss holds, each once: each node's value and
    what its VJP closure captures."""
    arrays = {}
    for node in tape_nodes(loss):
        for a in [node.data] + closure_arrays(node._vjp):
            arrays[id(a)] = a
    return list(arrays.values())


def test_train_step_tape_has_no_self_loop_rows():
    """An LP train step runs over the 2m CSR edges: no array its tape holds
    has the n + 2m rows of the edge arrays with a self-loop per node."""
    rng = np.random.default_rng(22)
    g = tree_with_isolated_nodes(rng, 4)
    plan = L.message_edges(g)
    assert len(plan.src) == 2 * g.n_edges == 50
    model = L.HyperbolicGNN(4, 5, 2, 1.0, rng)
    opt = ad.Adam(model.parameters(), lr=1e-2)
    emb = model.forward(g, training=True, rng=rng, edges=plan)
    loss = L.lp_loss(emb, g.edge_array()[:10], np.array([[0, 30], [5, 39], [12, 27]]), 1.0)
    rows = [a.shape[0] for a in tape_arrays(loss) if a.ndim]
    assert 50 in rows and g.n_nodes + 50 not in rows
    backward(loss)
    opt.step()
    assert all(p.grad is not None and np.all(np.isfinite(p.grad)) for p in model.parameters())


def test_lp_step_tape_keeps_no_endpoint_rows_and_no_sum_logs_edge_rows():
    """Of an LP step's tape, no pair set keeps a (P, d+1) array: the decoder
    rebuilds its row differences from the embeddings. No sum_logs VJP holds
    an (E, d+1) array either: it recomputes its edge rows from the node rows."""
    rng = np.random.default_rng(23)
    g = tree_with_isolated_nodes(rng, 4)
    plan = L.message_edges(g)
    model = L.HyperbolicGNN(4, 5, 2, 1.0, rng)
    emb = model.forward(g, training=True, rng=rng, edges=plan)
    pos, neg = g.edge_array()[:11], np.array([[0, 30], [5, 39], [12, 27]])
    loss = L.lp_loss(emb, pos, neg, 1.0)
    arrays = tape_arrays(loss)
    for pairs in (pos, neg):
        assert not [a for a in arrays if a.shape == (len(pairs), 6)]
    sum_logs = [n for n in tape_nodes(loss) if n._vjp and "sum_logs" in n._vjp.__qualname__]
    assert len(sum_logs) == 2
    for node in sum_logs:
        held = [a.shape for a in closure_arrays(node._vjp) if a.ndim == 2]
        assert (50, 1) in held and (g.n_nodes, 6) in held
        assert not [shape for shape in held if shape[0] == 50 and shape[1] > 1]


def test_attention_vjp_holds_no_edge_hidden_rows():
    """The attention node keeps no (E, d) hidden rows and no (n, d) self-loop
    rows: its VJP rebuilds both from tang, whose value is the only (n, d)
    array its closure holds."""
    rng = np.random.default_rng(25)
    g = tree_with_isolated_nodes(rng, 5)
    plan = L.message_edges(g)
    params = L.init_layer(rng, 5, 5)
    tang = Tensor(rng.standard_normal((g.n_nodes, 5)), requires_grad=True)
    w = L.attention_weights(tang, params, plan)
    for _ in range(2):  # the second time, the plan's slots are filled
        held = closure_arrays(w._vjp)
        assert not [a for a in held if a.shape == (len(plan.src), 5)]
        assert [id(a) for a in held if a.shape == (g.n_nodes, 5)] == [id(tang.data)]
        backward(ad.tsum(w * Tensor(rng.standard_normal(w.shape))))
        w = L.attention_weights(tang, params, plan)


def test_lp_step_peak_memory_per_row():
    """One LP training step (forward, loss, backward, Adam) of a generated
    Cora-density graph peaks below 70 traced bytes per n (d+1) + E d: the
    attention, decoder and dropout nodes keep only (E, 1), (P,) and boolean
    rows and rebuild the rest in their VJPs (the tape that kept them reached
    ~84)."""
    rng = np.random.default_rng(5)
    n, d = 1000, 16
    kids = np.arange(1, n)  # each node past the first links to two earlier ones
    g = graphs.Graph.from_edges(n, np.concatenate(
        [np.stack([kids, rng.integers(0, kids)], axis=1) for _ in range(2)]))
    g.features = 0.5 * rng.standard_normal((n, d))
    plan = L.message_edges(g)
    model = L.HyperbolicGNN(d, d, 2, 1.0, rng, dropout=0.5)
    opt = ad.Adam(model.parameters(), lr=1e-2)
    pos = g.edge_array()

    def step():
        neg = graphs.sample_negative_edges(g, len(pos), rng)
        emb = model.forward(g, training=True, rng=rng, edges=plan)
        loss = L.lp_loss(emb, pos, neg, model.zeta)
        opt.zero_grad()
        backward(loss)
        opt.step()

    step()  # fills the plan's slots, which every later step shares
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70 * (n * (d + 1) + len(plan.src) * d)


def test_no_tape_forward_equals_taped_forward():
    """The eval forward run inside no_tape computes the same bytes as the
    taped one and returns a constant; the same call outside records a tape."""
    rng = np.random.default_rng(24)
    g = tree_with_isolated_nodes(rng, 4)
    plan = L.message_edges(g)
    model = L.HyperbolicGNN(4, 5, 2, 0.7, rng)
    taped = model.forward(g, training=False, edges=plan)
    with ad.no_tape():
        plain = model.forward(g, training=False, edges=plan)
    assert plain.data.tobytes() == taped.data.tobytes()
    assert plain._parents == () and taped._parents


def test_isolated_nodes_keep_their_self_loop_and_layer_matches_oracles():
    """On the edges with self-loops, an isolated node's only message is its
    own, with weight 1 and a log map of 0; the layer forward equals the
    self-loop compositions of geometry_oracle."""
    rng = np.random.default_rng(23)
    g = tree_with_isolated_nodes(rng, 3)
    plan = L.message_edges(g)
    src, dst, indptr, nbr = self_loop_edges(g)
    lonely = plan.counts == 0
    params, zeta = L.init_layer(rng, 3, 4), 0.7
    params.att_b1.data = rng.standard_normal(4)
    h1 = L.linear_transform(g.features, params.W, params.b, zeta)
    tang = M.log_origin(h1, zeta)
    w = L.attention_weights(tang, params, plan).data
    w_all = geo.attention_weights_composed(tang, params, src, dst, indptr).data
    assert np.array_equal(w, w_all[nbr])
    assert np.all(w_all[indptr[1:] - 1][lonely] == 1.0)
    assert np.all(plan.sum_by_dst(w)[lonely] == 0.0)
    pulled = M.sum_logs(h1, plan, w, zeta).data
    assert np.all(pulled[lonely] == 0.0)
    want = ad.relu(M.log_origin(M.exp_at(h1, geo.sum_logs_composed(
        h1, src, dst, indptr, w_all, zeta), zeta), zeta))
    got = L.layer_forward(g.features, g, params, zeta, edges=plan)
    assert np.array_equal(got.data, want.data)


def test_permutation_equivariance_of_aggregation():
    g = graphs.balanced_binary_tree(3)
    g.features = graphs.random_plus_degree_features(g, 4, 2)
    model = L.HyperbolicGNN(4, 4, 2, 1.0, np.random.default_rng(15))
    emb = model.forward(g).data

    perm = np.random.default_rng(3).permutation(g.n_nodes)
    inv = np.argsort(perm)
    edges = perm[g.edge_array()]
    g2 = graphs.Graph.from_edges(g.n_nodes, edges, features=g.features[inv])
    model2 = L.HyperbolicGNN(4, 4, 2, 1.0, np.random.default_rng(15))
    emb2 = model2.forward(g2).data
    assert np.max(np.abs(emb2[perm] - emb)) < 1e-9


# ---------------------------------------------------------------------------
# decoders and losses
# ---------------------------------------------------------------------------

def test_fermi_dirac_midpoint_and_closed_form():
    assert geo.fermi_dirac_score(np.sqrt(2.0), r=2.0, t=1.0) == pytest.approx(0.5)
    assert geo.fermi_dirac_score(0.0, r=2.0, t=1.0) == pytest.approx(
        1.0 / (np.exp(-2.0) + 1.0))
    with pytest.raises(ValueError):
        geo.fermi_dirac_score(1.0, 2.0, 0.0)


def test_fermi_dirac_monotone_decreasing():
    d = np.linspace(0, 5, 40)
    s = geo.fermi_dirac_score(d, 2.0, 0.7)
    assert np.all(np.diff(s) < 0)


def test_lp_loss_is_ln2_at_score_half():
    # place both pair types exactly at d^2 = r so every score is 0.5
    d = np.sqrt(L.FERMI_DIRAC_R)
    pts = M.to_hyperboloid(np.array([[0.0], [d], [2 * d], [3 * d]]), 1000.0)
    # on one ray at zeta=1000 the distances are radius differences (~Euclidean)
    loss = L.lp_loss(pts, [[0, 1], [1, 2]], [[2, 3], [0, 1]], 1000.0)
    assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-5)


def test_lp_loss_vanishes_when_separated():
    # the far negative's term vanishes; a positive pair at distance ~0 keeps
    # its floor softplus(-r / t), so the mean over the two is half of that
    pts = M.to_hyperboloid(np.array([[0.0], [0.01], [5.0], [-5.0]]), 1.0)
    loss = L.lp_loss(pts, [[0, 1]], [[2, 3]], 1.0)
    floor = np.log1p(np.exp(-L.FERMI_DIRAC_R / L.FERMI_DIRAC_T))
    assert float(loss.data) == pytest.approx(floor / 2.0, rel=1e-3)


def test_lp_loss_matches_hand_computed_bce():
    rng = np.random.default_rng(17)
    emb = rand_points(rng, 5, 3, 1.0)
    pos = np.array([[0, 1], [1, 2]])
    neg = np.array([[3, 4]])
    p = L.lp_scores(emb, np.vstack([pos, neg]), 1.0)
    want = -(np.log(p[0]) + np.log(p[1]) + np.log(1 - p[2])) / 3.0
    got = float(L.lp_loss(emb, pos, neg, 1.0).data)
    assert got == pytest.approx(want, rel=1e-9)
    with pytest.raises(ValueError):
        L.lp_loss(emb, np.empty((0, 2)), neg, 1.0)


def test_nc_logits_zero_weights_uniform():
    rng = np.random.default_rng(18)
    emb = rand_points(rng, 4, 3, 1.0)
    logits = L.nc_logits(emb, 1.0, np.zeros((3, 5)), np.zeros(5))
    probs = geo.softmax(logits, axis=-1).data
    assert probs == pytest.approx(np.full((4, 5), 0.2))


def test_nc_logits_identical_embeddings_identical_rows():
    rng = np.random.default_rng(19)
    p = rand_points(rng, 1, 3, 1.0)
    emb = np.repeat(p, 3, axis=0)
    W = rng.standard_normal((3, 4))
    logits = L.nc_logits(emb, 1.0, W, np.zeros(4)).data
    assert np.allclose(logits[0], logits[1]) and np.allclose(logits[1], logits[2])


# ---------------------------------------------------------------------------
# curvature is a change of scale (ROADMAP item 15)
# ---------------------------------------------------------------------------

def scale_case(seed):
    """A depth-5 tree with random features, and a 2-layer model with a
    classifier head whose biases are random, so that scaling them is no
    identity."""
    g = graphs.balanced_binary_tree(5)
    g.features = graphs.random_plus_degree_features(g, 6, seed)
    rng = np.random.default_rng(seed)
    model = L.HyperbolicGNN(6, 5, 2, 1.0, rng, n_classes=3)
    for layer in model.layers:
        layer.b.data = 0.3 * rng.standard_normal(layer.b.data.shape)
        layer.att_b1.data = 0.3 * rng.standard_normal(layer.att_b1.data.shape)
    model.b_cls.data = rng.standard_normal(model.b_cls.data.shape)
    return g, model


def scaled_layer(layer, s, s_in=1.0):
    """``layer`` at s times its curvature, reading an input s_in times its
    own: x -> s x maps its hyperboloid onto the new one, so it takes b and
    att_b1 times s, att_w2 over s and W times s over s_in."""
    out = copy.deepcopy(layer)
    out.W.data = out.W.data * (s / s_in)
    out.b.data = out.b.data * s
    out.att_b1.data = out.att_b1.data * s
    out.att_w2.data = out.att_w2.data / s
    return out


def rescaled(model, zeta):
    """``model`` moved to the curvature ``zeta`` as a change of scale s =
    zeta / model.zeta: every layer scales by s, every layer after the first
    reads an input scaled by s, and the classifier's W_cls takes over s."""
    s = zeta / model.zeta
    out = copy.deepcopy(model)
    out.zeta = zeta
    out.layers = [scaled_layer(layer, s, s if i else 1.0)
                  for i, layer in enumerate(model.layers)]
    out.W_cls.data = out.W_cls.data / s
    return out


@pytest.mark.parametrize("zeta", [0.3, 2.5, 7.0])
def test_curvature_is_a_change_of_scale(monkeypatch, zeta):
    # the model at zeta embeds zeta times what the unit model embeds; LP
    # scores agree once the unit decoder takes r / zeta^2 and t / zeta^2,
    # and NC logits agree as they are
    g, unit = scale_case(7)
    model = rescaled(unit, zeta)
    emb, emb_unit = model.forward(g).data, unit.forward(g).data
    assert_close_to_max([emb], [zeta * emb_unit])
    pairs = np.array([[u, v] for u in range(0, g.n_nodes, 3) for v in range(1, g.n_nodes, 4)
                      if u != v])
    scores = L.lp_scores(emb, pairs, zeta)
    assert np.abs(L.lp_scores(emb_unit, pairs, 1.0) - scores).max() > 1e-3  # r, t matter
    monkeypatch.setattr(L, "FERMI_DIRAC_R", L.FERMI_DIRAC_R / zeta ** 2)
    monkeypatch.setattr(L, "FERMI_DIRAC_T", L.FERMI_DIRAC_T / zeta ** 2)
    assert_close_to_max([scores], [L.lp_scores(emb_unit, pairs, 1.0)])
    logits = L.nc_logits(emb, zeta, model.W_cls, model.b_cls).data
    assert_close_to_max([logits], [L.nc_logits(emb_unit, 1.0, unit.W_cls, unit.b_cls).data])


def test_an_inner_layer_curvature_is_absorbed_by_the_next_layer():
    # layer 1 at 0.8 rather than 1 outputs 0.8 times the tangent rows; with
    # W over 0.8, layer 2 at 1.4 reads the same input, so its outputs agree
    g, model = scale_case(8)
    first, second = model.layers
    plan = L.message_edges(g)

    def two_layers(first, zeta1, second):
        mid = L.layer_forward(g.features, g, first, zeta1, edges=plan)
        return L.layer_forward(mid, g, second, 1.4, edges=plan).data

    assert_close_to_max([two_layers(scaled_layer(first, 0.8), 0.8,
                                    scaled_layer(second, 1.0, 0.8))],
                        [two_layers(first, 1.0, second)])


# ---------------------------------------------------------------------------
# gradients through full layers and losses
# ---------------------------------------------------------------------------

def model_loss_fd_check(task, n_nodes=12, rel_tol=1e-4):
    """Finite differences over every parameter tensor of a small model."""
    g = graphs.balanced_binary_tree(3)  # 15 nodes
    g = graphs.Graph.from_edges(n_nodes, g.edge_array()[
        (g.edge_array() < n_nodes).all(axis=1)])
    rng = np.random.default_rng(20)
    g.features = 0.5 * rng.standard_normal((n_nodes, 4))
    g.labels = rng.integers(0, 3, n_nodes)
    model = L.HyperbolicGNN(4, 4, 2, 1.0, rng, n_classes=3 if task == "nc" else None)
    pos = np.array([[0, 1], [1, 3], [2, 5]])
    neg = np.array([[7, 2], [4, 9], [8, 1]])
    nodes = np.arange(n_nodes)

    def loss_value():
        emb = model.forward(g)
        if task == "lp":
            return L.lp_loss(emb, pos, neg, model.zeta)
        logits = L.nc_logits(emb, model.zeta, model.W_cls, model.b_cls)
        return L.nc_loss(logits, g.labels, nodes)

    loss = loss_value()
    for p in model.parameters():
        p.grad = None
    backward(loss)
    h = 1e-5
    worst = 0.0
    for p in model.parameters():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_value().data)
            flat[i] = orig - h
            dn = float(loss_value().data)
            flat[i] = orig
            num = (up - dn) / (2 * h)
            a = grad.reshape(-1)[i]
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-8))
    assert worst < rel_tol, f"{task}: FD rel err {worst}"


def test_lp_loss_gradients_match_finite_differences():
    model_loss_fd_check("lp")


def test_nc_loss_gradients_match_finite_differences():
    model_loss_fd_check("nc")


def test_layer_forward_gradient_wrt_inputs():
    g = path_oracle.path_graph(5)
    rng = np.random.default_rng(21)
    params = L.init_layer(rng, 3, 3)

    feats = 0.4 * rng.standard_normal((5, 3))
    plan = L.message_edges(g)

    def f(t):
        out = M.exp_origin(L.layer_forward(t, g, params, 1.0, edges=plan), 1.4)
        o = np.broadcast_to(M.origin(3, 1.4), out.data.shape)
        return ad.tsum(geo.dist_composed(Tensor(np.ascontiguousarray(o)), out, 1.4))

    assert finite_diff_check(f, feats) < 1e-4
