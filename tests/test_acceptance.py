"""Acceptance suite: one test per release criterion.

Each test evaluates its criterion at the stated tolerance, prints a
PASS/FAIL line (visible with ``pytest -s``), and then asserts. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import os
import time

import numpy as np
import pytest

from curvgnn import autodiff as ad
from curvgnn import curvature as C
from curvgnn import graphs, layers, manifold as M, nashq
from curvgnn.autodiff import Tensor, backward
from curvgnn.training import RunConfig, model_from_checkpoint, roc_auc, train

import geometry_oracle as geo
import path_oracle
from grad_oracle import finite_diff_check
from test_nashq import BEST_RESPONSE_TOL


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def rand_tangent_at(rng, x, dim, zeta, norm):
    w = rng.standard_normal(dim)
    w *= norm / max(np.linalg.norm(w), 1e-12)
    return geo.parallel_transport(M.origin(dim, zeta), x,
                                  geo.tangent_from_euclidean(w), zeta, validate=False)


# ---------------------------------------------------------------------------
# 1. geometry suite
# ---------------------------------------------------------------------------

def test_criterion_1_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    # exp/log round-trips to 1e-8 (ratio d/zeta bounded for float64 conditioning)
    worst_rt = 0.0
    for _ in range(500):
        zeta = float(rng.uniform(0.1, 10.0))
        dim = int(rng.integers(2, 6))
        x = M.to_hyperboloid(rng.standard_normal(dim) * 0.3 * min(zeta, 1.0), zeta)
        v = rand_tangent_at(rng, x, dim, zeta,
                            float(rng.uniform(0, min(5.0, 12.0 * zeta))))
        y = M.exp_map(x, v, zeta)
        vb = M.log_map(x, y, zeta)
        worst_rt = max(worst_rt, float(np.max(np.abs(vb - v))))
        yb = M.exp_map(x, vb, zeta)
        worst_rt = max(worst_rt, float(np.max(np.abs(yb - y) / np.maximum(np.abs(y), 1.0))))

    # manifold constraint after 1e4 random op chains
    worst_resid = 0.0
    for _ in range(10000):
        zeta = float(rng.uniform(0.1, 10.0))
        dim = int(rng.integers(2, 6))
        x = M.origin(dim, zeta)
        for _step in range(6):
            op = rng.integers(0, 4)
            if op == 0:
                v = rand_tangent_at(rng, x, dim, zeta,
                                    float(rng.uniform(0, min(1.0, zeta))))
                x = M.exp_map(x, v, zeta)
            elif op == 1:
                z2 = float(np.clip(zeta * rng.uniform(0.75, 1.33), 0.1, 10.0))
                x = M.transfer_curvature(x, zeta, z2)
                zeta = z2
            elif op == 2:
                x = geo.project_to_manifold(x, zeta)
            else:
                y = M.to_hyperboloid(rng.standard_normal(dim) * 0.5 * min(1.0, zeta),
                                     zeta)
                x = M.exp_map(x, 0.5 * M.log_map(x, y, zeta), zeta)
        worst_resid = max(worst_resid, float(M.manifold_residual(x, zeta)))

    # parallel transport isometry
    worst_iso = 0.0
    for _ in range(500):
        zeta = float(rng.uniform(0.1, 10.0))
        x = M.to_hyperboloid(rng.standard_normal(3) * 0.5 * min(zeta, 1.0), zeta)
        y = M.to_hyperboloid(rng.standard_normal(3) * 0.5 * min(zeta, 1.0), zeta)
        u = rand_tangent_at(rng, x, 3, zeta, float(rng.uniform(0, 3.0)))
        v = rand_tangent_at(rng, x, 3, zeta, float(rng.uniform(0, 3.0)))
        pu = geo.parallel_transport(x, y, u, zeta, validate=False)
        pv = geo.parallel_transport(x, y, v, zeta, validate=False)
        worst_iso = max(
            worst_iso,
            abs(float(M.lorentz_inner(pu, pv)) - float(M.lorentz_inner(u, v))),
            abs(float(M.lorentz_inner(y, pv))))

    # Euclidean limit at zeta = 1000 for lifted points of norm <= 1
    a = rng.uniform(-1, 1, (300, 6))
    b = rng.uniform(-1, 1, (300, 6))
    for m in (a, b):
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1.0)
    d_h = M.hyp_distance(M.to_hyperboloid(a, 1000.0), M.to_hyperboloid(b, 1000.0),
                         1000.0)
    d_e = np.linalg.norm(a - b, axis=1)
    keep = d_e > 1e-3
    worst_lim = float(np.max(np.abs(d_h[keep] - d_e[keep]) / d_e[keep]))

    elapsed = time.perf_counter() - t0
    ok = (worst_rt < 1e-8 and worst_resid < 1e-6 and worst_iso < 1e-8
          and worst_lim < 1e-3 and elapsed < 10.0)
    report(1, ok, f"roundtrip {worst_rt:.2e}, residual {worst_resid:.2e}, "
                  f"transport {worst_iso:.2e}, euclid-limit {worst_lim:.2e}, "
                  f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------

def _fd_model_loss(task):
    g = graphs.balanced_binary_tree(3)  # 15 nodes <= 20
    rng = np.random.default_rng(2)
    g.features = 0.5 * rng.standard_normal((g.n_nodes, 4))
    g.labels = rng.integers(0, 3, g.n_nodes)
    model = layers.HyperbolicGNN(4, 4, 2, 1.0, rng,
                                 n_classes=3 if task == "nc" else None)
    model.zeta = 1.4
    pos = np.array([[0, 1], [1, 3], [2, 5], [6, 13]])
    neg = np.array([[7, 2], [4, 9], [8, 1], [14, 3]])
    nodes = np.arange(g.n_nodes)

    def loss_value():
        emb = model.forward(g)
        if task == "lp":
            return layers.lp_loss(emb, pos, neg, model.zeta)
        logits = layers.nc_logits(emb, model.zeta, model.W_cls, model.b_cls)
        return layers.nc_loss(logits, g.labels, nodes)

    loss = loss_value()
    for p in model.parameters():
        p.grad = None
    backward(loss)
    h, worst = 1e-5, 0.0
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
    return worst


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    x_any = rng.standard_normal((3, 4))
    x_pos = np.abs(rng.standard_normal((3, 4))) + 0.5
    other = rng.standard_normal((3, 4))
    mat = rng.standard_normal((4, 3))
    cases = [
        lambda t: t + Tensor(other), lambda t: t - Tensor(other),
        lambda t: t * Tensor(other),
        lambda t: t / Tensor(np.abs(other) + 1.0),
        lambda t: -t, lambda t: ad.scale(t, 1.7),
        lambda t: ad.matmul(t, Tensor(mat)),
        geo.exp, geo.cosh, geo.sinh, ad.sigmoid, ad.softplus,
        lambda t: ad.relu(t + 0.05),
        lambda t: geo.softmax(t, axis=-1) * Tensor(other),
        ad.logsumexp,
        lambda t: geo.concat([t, ad.scale(t, 2.0)], axis=-1),
        lambda t: ad.tsum(t, axis=0), lambda t: ad.tmean(t, axis=1),
        lambda t: ad.gather_rows(t, np.array([0, 2, 2])),
        lambda t: geo.segment_sum(t, np.array([0, 1, 3])),
        lambda t: geo.lorentz_inner(t, Tensor(other)),
        geo.spatial, geo.first_col, geo.pad_zero_column,
    ]
    worst_prim = 0.0
    for fn in cases:
        worst_prim = max(worst_prim, finite_diff_check(
            lambda t, fn=fn: ad.tsum(fn(t)), x_any))
    for fn in (geo.sqrt, geo.log):
        worst_prim = max(worst_prim, finite_diff_check(
            lambda t, fn=fn: ad.tsum(fn(t)), x_pos))
    worst_prim = max(worst_prim, finite_diff_check(
        lambda t: ad.tsum(geo.acosh1p(t)), np.abs(x_any) + 0.5))

    worst_lp = _fd_model_loss("lp")
    worst_nc = _fd_model_loss("nc")
    elapsed = time.perf_counter() - t0
    ok = worst_prim < 1e-4 and worst_lp < 1e-4 and worst_nc < 1e-4 and elapsed < 60.0
    report(2, ok, f"primitives {worst_prim:.2e}, lp {worst_lp:.2e}, "
                  f"nc {worst_nc:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. curvature estimator
# ---------------------------------------------------------------------------

def test_criterion_3_curvature_estimator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)

    worst_xi = 0.0
    for _ in range(1000):
        a, b, c = rng.standard_normal((3, 3))
        m = 0.5 * (b + c)
        xi = C.parallelogram_deviation(
            np.linalg.norm(a - m), np.linalg.norm(b - c),
            np.linalg.norm(a - b), np.linalg.norm(a - c))
        worst_xi = max(worst_xi, abs(float(xi)))

    tree = graphs.balanced_binary_tree(5)  # 63 nodes
    emb = C.tree_layout_hyperbolic(tree, 1.0, edge_length=1.0)
    kappa_tree = C.estimate_kappa(tree, emb, 1.0, n_s=2, seed=0).kappa

    n = 50
    path = path_oracle.path_graph(n)
    pts = np.zeros((n, 2))
    pts[:, 0] = np.arange(n) * 0.04
    kappa_flat = C.estimate_kappa(path, M.to_hyperboloid(pts, 1000.0), 1000.0,
                                  n_s=2, seed=0).kappa

    elapsed = time.perf_counter() - t0
    ok = (worst_xi < 1e-9 and kappa_tree < 0.0 and abs(kappa_flat) < 0.05
          and elapsed < 30.0)
    report(3, ok, f"|xi| {worst_xi:.2e}, tree kappa {kappa_tree:.3f}, "
                  f"flat kappa {kappa_flat:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. distortion oracle
# ---------------------------------------------------------------------------

def _brute_distortion(g, emb, zeta):
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
    return total / used


def test_criterion_4_distortion_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for nodes, p in ((20, 0.12), (35, 0.08), (50, 0.05)):
        edges = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)
                 if rng.random() < p]
        g = graphs.Graph.from_edges(nodes, np.array(edges).reshape(-1, 2))
        if g.n_edges == 0:
            continue
        emb = M.to_hyperboloid(rng.standard_normal((nodes, 3)), 1.0)
        got = C.embedding_distortion(g, emb, 1.0).mean_distortion
        want = _brute_distortion(g, emb, 1.0)
        worst = max(worst, abs(got - want) / max(want, 1e-12))

    tree = graphs.balanced_binary_tree(5)
    emb = C.tree_layout_hyperbolic(tree, 1.0, edge_length=1.0)
    grid = 0.2 + 0.2 * np.arange(20)
    sweep = [rep.mean_distortion for _, rep in C.distortion_sweep(tree, emb, 1.0, grid)]
    i_min = int(np.argmin(sweep))
    interior = 0 < i_min < len(sweep) - 1
    below_ends = sweep[i_min] < sweep[0] and sweep[i_min] < sweep[-1]

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and interior and below_ends and elapsed < 120.0
    report(4, ok, f"brute-force gap {worst:.2e}, sweep min at "
                  f"zeta={grid[i_min]:.1f} ({sweep[i_min]:.3f} vs ends "
                  f"{sweep[0]:.3f}/{sweep[-1]:.3f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Nash-Q suite
# ---------------------------------------------------------------------------

def test_criterion_5_nash_q_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)

    worst_gap = 0.0
    for _ in range(10000):
        q1 = rng.uniform(-1, 1, (2, 2))
        q2 = rng.uniform(-1, 1, (2, 2))
        sol = nashq.nash_equilibrium_2x2(q1, q2)
        v1 = sol.pi_hgnn @ q1 @ sol.pi_ace
        v2 = sol.pi_hgnn @ q2 @ sol.pi_ace
        gap = max(max(q1[0] @ sol.pi_ace, q1[1] @ sol.pi_ace) - v1,
                  max(sol.pi_hgnn @ q2[:, 0], sol.pi_hgnn @ q2[:, 1]) - v2)
        worst_gap = max(worst_gap, float(gap))

    pennies = nashq.nash_equilibrium_2x2([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    pennies_exact = (np.array_equal(pennies.pi_hgnn, [0.5, 0.5])
                     and np.array_equal(pennies.pi_ace, [0.5, 0.5]))

    payoff = np.array([[0.2, 0.9], [0.5, 0.1]])
    hits = 0
    for trial in range(100):
        trng = np.random.default_rng(1000 + trial)
        tables = nashq.QTables()
        s = (0,)
        for ep in range(500):
            eps = max(0.1, 0.9 * 0.995 ** ep)
            a = nashq.epsilon_greedy_joint(tables.solve(s), eps, trng)
            r = float(payoff[int(a[0]), int(a[1])])
            nashq.q_update(tables, s, a, (r, r), s, alpha=0.5, beta=0.0)
        if tables.solve(s).pure == (0, 1):
            hits += 1

    elapsed = time.perf_counter() - t0
    ok = (worst_gap <= BEST_RESPONSE_TOL and pennies_exact and hits >= 95
          and elapsed < 60.0)
    report(5, ok, f"best-response gap {worst_gap:.2e}, pennies exact "
                  f"{pennies_exact}, bandit {hits}/100, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 & 7. end-to-end desk-scale LP and curvature-trace behavior
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_scale_runs():
    t0 = time.perf_counter()
    runs = {}
    for seed in (0, 1, 2):
        ace = train(RunConfig(synthetic_tree_depth=7, epochs=200, seed=seed,
                              task="lp", val_frac=0.05, test_frac=0.10))
        control = train(RunConfig(synthetic_tree_depth=7, epochs=200, seed=seed,
                                  task="lp", val_frac=0.05, test_frac=0.10,
                                  rl_enabled=False, zeta0=1.0))
        runs[seed] = (ace, control)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def final_distortion(res):
    """Distortion of a run's final embeddings over its message graph, the
    number `curvgnn eval` reports for its checkpoint."""
    _, _, task = model_from_checkpoint(res.checkpoint)
    return C.embedding_distortion(task.msg_graph, res.final_embeddings,
                                  res.final_zeta).mean_distortion


def test_criterion_6_desk_scale_link_prediction(desk_scale_runs):
    aucs = {s: desk_scale_runs[s][0].test_metric for s in (0, 1, 2)}
    passing = [s for s, a in aucs.items() if a >= 0.85]
    dist = {s: [final_distortion(res) for res in desk_scale_runs[s]] for s in (0, 1, 2)}
    dist_ok = all(dist[s][0] <= dist[s][1] + 1e-12 for s in passing)
    elapsed = desk_scale_runs["elapsed"]
    ok = len(passing) >= 2 and dist_ok and elapsed < 600.0
    detail = ", ".join(f"seed{s}: auc={aucs[s]:.3f} "
                       f"dist {dist[s][0]:.3f}<={dist[s][1]:.3f}"
                       for s in (0, 1, 2))
    report(6, ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_7_curvature_trace_behavior(desk_scale_runs):
    ok_all, details = True, []
    for seed in (0, 1, 2):
        ace = desk_scale_runs[seed][0]
        zetas = np.array([rec.zetas for rec in ace.records])  # (epoch, layer)
        span = float(zetas.max() - zetas.min())
        # final 20 pre-freeze epochs (or the last 20 RL epochs if no freeze)
        end = ace.freeze_epoch if ace.freeze_epoch is not None else len(ace.records)
        window = zetas[max(end - 20, 0):end]
        stds = [float(np.std(window[:, layer])) for layer in range(zetas.shape[1])]
        ok = span >= 0.3 and all(s < 0.05 for s in stds)
        ok_all &= ok
        details.append(f"seed{seed}: span={span:.2f} stds={[f'{s:.3f}' for s in stds]}")
    report(7, ok_all, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. delta-hyperbolicity
# ---------------------------------------------------------------------------

def _brute_delta(g):
    dist = graphs.hop_distance_matrix(g)
    best = 0.0
    for a, b, c, d in itertools.combinations(range(g.n_nodes), 4):
        sums = sorted([dist[a, b] + dist[c, d], dist[a, c] + dist[b, d],
                       dist[a, d] + dist[b, c]])
        best = max(best, 0.5 * (sums[2] - sums[1]))
    return best


def test_criterion_8_delta_hyperbolicity():
    t0 = time.perf_counter()
    tree_ok = (graphs.gromov_delta(graphs.balanced_binary_tree(5), "exact") == 0.0
               and graphs.gromov_delta(path_oracle.path_graph(30), "exact") == 0.0)
    c4_ok = graphs.gromov_delta(path_oracle.cycle_graph(4), "exact") == 1.0

    rng = np.random.default_rng(8)
    match = True
    for nodes, p in ((30, 0.12), (45, 0.07), (60, 0.05)):
        edges = [(i, j) for i in range(nodes) for j in range(i + 1, nodes)
                 if rng.random() < p]
        g = graphs.Graph.from_edges(nodes, np.array(edges).reshape(-1, 2))
        sub = graphs._largest_component_subgraph(g)
        if sub.n_nodes < 4:
            continue
        match &= graphs.gromov_delta(g, "exact") == _brute_delta(sub)

    elapsed = time.perf_counter() - t0
    ok = tree_ok and c4_ok and match
    report(8, ok, f"trees zero {tree_ok}, C4 one {c4_ok}, brute-force match "
                  f"{match}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. optional full-scale check (report-only, never gates)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not os.environ.get("CURVGNN_CORA_DIR"),
                    reason="set CURVGNN_CORA_DIR to run the full-scale check")
def test_criterion_9_full_scale_cora_report_only():
    root = os.environ["CURVGNN_CORA_DIR"]
    cfg = RunConfig(edge_path=os.path.join(root, "edges.tsv"),
                    feature_path=os.path.join(root, "features.csv"),
                    task="lp", epochs=500, seed=0)
    t0 = time.perf_counter()
    res = train(cfg)
    elapsed = time.perf_counter() - t0
    within = abs(res.test_metric * 100.0 - 93.55) <= 3.0
    print(f"ACCEPTANCE 9 (report-only): test AUC {res.test_metric:.4f} "
          f"(target 0.9355 +/- 0.03 -> {'within' if within else 'outside'}), "
          f"{elapsed:.0f}s")
