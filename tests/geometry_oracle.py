"""Reference geometry and per-node layer operations that only tests use.

Closed forms the package does not need (parallel transport between two
arbitrary points, the polar law of cosines and its large-radius shortcut,
a drift projection), the tape primitives that the package does not call
(``exp``, ``log``, ``cosh``, ``sinh``, ``sqrt``, ``acosh1p``,
``clamp_min``, ``softmax``, ``sum_last``, ``lorentz_inner``, ``concat``,
``pad_zero_column``, ``spatial``, ``first_col``, ``segment_sum``; the
references below and the primitive checks use them), the composed tape
forms of the one-node ops of ``manifold`` (exp and log at the origin, the
distance, the exp map, transport from the origin, the weighted sum of log
maps), of the array ``manifold.log_map`` (``log_at``) and of
``layers.attention_weights``, one-node versions of what
``layers.layer_forward`` does for every node at once (attention,
aggregation), the per-edge form of the attention scores, the model forward
with a hyperboloid point at every layer boundary, the node-by-node tree
layout, and the Fermi-Dirac score in numpy.
"""

import numpy as np

from curvgnn import _kernels, autodiff as ad, manifold
from curvgnn.autodiff import Tensor
from curvgnn.graphs import DataError
from curvgnn.layers import layer_forward, message_edges


# ---------------------------------------------------------------------------
# hyperboloid closed forms
# ---------------------------------------------------------------------------

def parallel_transport(x, y, v, zeta, validate: bool = True) -> np.ndarray:
    """Move tangent vector v from T_x to T_y along the connecting geodesic.

    P(v) = v + <y, v>_L / (zeta^2 - <x, y>_L) * (x + y); a linear isometry
    of tangent spaces.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    z = manifold.as_zeta(zeta)
    if validate:
        manifold.check_on_manifold(x, z)
        manifold.check_on_manifold(y, z)
        check_tangent(v, x)
    num = manifold.lorentz_inner(y, v, keepdims=True)
    den = z * z - manifold.lorentz_inner(x, y, keepdims=True)  # >= 2*zeta^2 > 0
    return v + (num / den) * (x + y)


def check_tangent(v, x) -> None:
    """Raise DataError unless <x, v>_L = 0 within tolerance."""
    ip = manifold.lorentz_inner(x, v)
    scale = 1.0 + np.abs(x[..., 0]) * np.max(np.abs(np.asarray(v)), axis=-1, initial=0.0)
    if np.any(np.abs(ip) > manifold.MANIFOLD_TOL * scale):
        raise DataError(f"vector not tangent: <x,v> = {float(np.max(np.abs(ip))):.3e}")


def tangent_from_euclidean(w) -> np.ndarray:
    """Lift a Euclidean vector w in R^n to (0, w), tangent at the origin."""
    w = np.asarray(w, dtype=np.float64)
    zeros = np.zeros(w.shape[:-1] + (1,), dtype=np.float64)
    return np.concatenate([zeros, w], axis=-1)


def project_to_manifold(raw, zeta) -> np.ndarray:
    """Renormalize after float drift: recompute x0 from the spatial part."""
    raw = np.asarray(raw, dtype=np.float64)
    z = manifold.as_zeta(zeta)
    xs = raw[..., 1:]
    if not np.all(np.isfinite(xs)):
        raise DataError("non-finite spatial coordinates")
    x0 = np.sqrt(z * z + (xs * xs).sum(axis=-1, keepdims=True))
    return np.concatenate([x0, xs], axis=-1)


# ---------------------------------------------------------------------------
# polar coordinates on the 2-d hyperboloid
# ---------------------------------------------------------------------------

def polar_to_point(r: float, theta: float, zeta) -> np.ndarray:
    """Point at geodesic radius r and angle theta on the 2-d hyperboloid."""
    z = manifold.as_zeta(zeta)
    return np.array([
        z * np.cosh(r / z),
        z * np.sinh(r / z) * np.cos(theta),
        z * np.sinh(r / z) * np.sin(theta),
    ])


def polar_distance_exact(r: float, theta: float, r2: float, theta2: float,
                         zeta) -> float:
    """Hyperbolic law of cosines between (r, theta) and (r2, theta2)."""
    z = manifold.as_zeta(zeta)
    if r < 0 or r2 < 0:
        raise ValueError("radii must be nonnegative")
    arg = (np.cosh(r / z) * np.cosh(r2 / z)
           - np.sinh(r / z) * np.sinh(r2 / z) * np.cos(theta - theta2))
    return float(z * np.arccosh(np.clip(arg, 1.0, manifold.ACOSH_ARG_MAX)))


def polar_distance_approx(r: float, theta: float, r2: float, theta2: float,
                          zeta) -> float:
    """Large-radius shortcut r + r2 + 2 zeta ln sin(dtheta/2).

    Valid when both radii are large relative to zeta and the angle gap is
    not too small; undefined at dtheta = 0.
    """
    z = manifold.as_zeta(zeta)
    half = 0.5 * abs(theta - theta2)
    s = np.sin(half)
    if s <= 0.0:
        raise ValueError("approximation undefined at zero angular separation")
    return float(r + r2 + 2.0 * z * np.log(s))


# ---------------------------------------------------------------------------
# tape primitives that the package no longer calls
# ---------------------------------------------------------------------------

def exp(a) -> Tensor:
    a = ad.as_tensor(a)
    out = np.exp(a.data)
    return ad._make(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = ad.as_tensor(a)
    return ad._make(np.log(a.data), (a,), lambda g: (g / a.data,))


def cosh(a) -> Tensor:
    a = ad.as_tensor(a)
    return ad._make(np.cosh(a.data), (a,), lambda g: (g * np.sinh(a.data),))


def sinh(a) -> Tensor:
    a = ad.as_tensor(a)
    return ad._make(np.sinh(a.data), (a,), lambda g: (g * np.cosh(a.data),))


def sqrt(a) -> Tensor:
    a = ad.as_tensor(a)
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / np.maximum(out, 1e-150),)

    return ad._make(out, (a,), vjp)


def acosh1p(a) -> Tensor:
    """``manifold.acosh1p`` with the derivative ``manifold.acosh1p_slope``."""
    a = ad.as_tensor(a)
    return ad._make(manifold.acosh1p(a.data), (a,),
                    lambda g: (g * manifold.acosh1p_slope(a.data),))


def clamp_min(a, floor: float) -> Tensor:
    a = ad.as_tensor(a)
    floor = float(floor)
    out = np.maximum(a.data, floor)
    return ad._make(out, (a,), lambda g: (g * (a.data > floor),))


def softmax(a, axis: int = -1) -> Tensor:
    a = ad.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return ad._make(out, (a,), vjp)


def sum_last(a) -> Tensor:
    """Sum over the last axis, kept as an axis of length 1."""
    a = ad.as_tensor(a)
    return ad._make(a.data.sum(axis=-1, keepdims=True), (a,),
                    lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def lorentz_inner(u, v, keepdims: bool = True) -> Tensor:
    """Batched Minkowski product -u0*v0 + sum_i ui*vi over the last axis
    (``manifold.minkowski``)."""
    u, v = ad.as_tensor(u), ad.as_tensor(v)
    if u.data.shape[-1] != v.data.shape[-1]:
        raise ValueError("dimension mismatch in lorentz_inner")
    out = manifold.minkowski(u.data, v.data, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, -1)
        return (
            ad._unbroadcast(gg * _mink_flip(v.data), u.data.shape),
            ad._unbroadcast(gg * _mink_flip(u.data), v.data.shape),
        )

    return ad._make(out, (u, v), vjp)


def _mink_flip(x: np.ndarray) -> np.ndarray:
    flipped = x.copy()
    flipped[..., 0] = -flipped[..., 0]
    return flipped


def concat(parts, axis: int = -1) -> Tensor:
    parts = [ad.as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return ad._make(out, tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))


def pad_zero_column(a) -> Tensor:
    """Prefix a zero time-component: w in R^n -> (0, w), tangent at the origin."""
    a = ad.as_tensor(a)
    return concat([Tensor(np.zeros(a.data.shape[:-1] + (1,))), a], axis=-1)


def _column_slice(a, cols: slice) -> Tensor:
    a = ad.as_tensor(a)

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[..., cols] = g
        return (ga,)

    return ad._make(a.data[..., cols], (a,), vjp)


def spatial(a) -> Tensor:
    """Drop the time component: (x0, xs) -> xs."""
    return _column_slice(a, slice(1, None))


def first_col(a) -> Tensor:
    """Keep only the time component as a (..., 1) slice."""
    return _column_slice(a, slice(None, 1))


def segment_sum(a, indptr: np.ndarray) -> Tensor:
    """Sum contiguous row blocks: out[k] = sum of a[indptr[k]:indptr[k+1]].

    Every segment must be nonempty. Each block is added row by row from
    zero, in row order: the order of ``autodiff.EdgePlan.sum_by_dst``, so
    the sums are bit-equal to it.
    """
    a = ad.as_tensor(a)
    counts = np.diff(indptr)
    if np.any(counts <= 0) or indptr[-1] != a.data.shape[0]:
        raise ValueError("segments must be nonempty and cover every row")
    out = np.zeros((len(counts),) + a.data.shape[1:])
    np.add.at(out, np.repeat(np.arange(len(counts)), counts), a.data)
    return ad._make(out, (a,), lambda g: (np.repeat(g, counts, axis=0),))


def attention_scores(tang, src, dst, params) -> Tensor:
    """MLP score of [tang_dst, tang_src] per edge, shape (E, 1), with each
    half of att_w1 applied to the n node rows: the scores inside
    ``layers.attention_weights``."""
    d = tang.data.shape[-1]
    halves = np.arange(2 * d).reshape(2, d)
    proj_dst = ad.matmul(tang, ad.gather_rows(params.att_w1, halves[0])) + params.att_b1
    proj_src = ad.matmul(tang, ad.gather_rows(params.att_w1, halves[1]))
    hidden = ad.relu(ad.gather_rows(proj_dst, dst) + ad.gather_rows(proj_src, src))
    return ad.matmul(hidden, params.att_w2)


# ---------------------------------------------------------------------------
# the maps of manifold, composed from tape primitives
# ---------------------------------------------------------------------------

def _acosh1p_arg(x: Tensor, y: Tensor, zeta: float, keepdims: bool) -> Tensor:
    """u with d(x, y) = zeta * arccosh(1 + u): ``manifold._dist_arg`` of x - y."""
    diff = x - y
    q = clamp_min(lorentz_inner(diff, diff, keepdims=keepdims), 0.0)
    return ad.scale(q, 0.5 / (zeta * zeta))


def _log_coef(x: Tensor, y: Tensor, zeta: float):
    """c and u with log_x(y) = c (y - (1 + u) x): ``manifold._log_coef`` of
    the u of ``_acosh1p_arg``."""
    u = _acosh1p_arg(x, y, zeta, keepdims=True)
    return acosh1p(u) / sqrt(u * (u + 2.0) + manifold.NORM_GUARD), u


def log_at(x, y, zeta: float) -> Tensor:
    """``manifold.log_map`` as a chain of tape primitives."""
    x, y = ad.as_tensor(x), ad.as_tensor(y)
    c, u = _log_coef(x, y, zeta)
    return c * (y - (u + 1.0) * x)


def exp_origin_composed(w, zeta: float) -> Tensor:
    """``manifold.exp_origin`` as a chain of tape primitives."""
    w = ad.as_tensor(w)
    r = sqrt(sum_last(w * w) + manifold.NORM_GUARD)
    t = ad.scale(r, 1.0 / zeta)
    x0 = ad.scale(cosh(t), zeta)
    coef = ad.scale(sinh(t), zeta) / r
    return concat([x0, coef * w], axis=-1)


def log_origin_composed(x, zeta: float) -> Tensor:
    """``manifold.log_origin`` as a chain of tape primitives."""
    x = ad.as_tensor(x)
    xs = spatial(x)
    sq = sum_last(xs * xs)
    u = sq / ad.scale(first_col(x) + zeta, zeta)
    d = ad.scale(acosh1p(u), zeta)
    return (d / sqrt(sq + manifold.NORM_GUARD)) * xs


def dist_composed(x, y, zeta: float) -> Tensor:
    """The geodesic distance of ``manifold.hyp_distance`` and
    ``manifold.dist_pairs`` as a chain of tape primitives."""
    x, y = ad.as_tensor(x), ad.as_tensor(y)
    return ad.scale(acosh1p(_acosh1p_arg(x, y, zeta, keepdims=False)), zeta)


def exp_at_composed(x, v, zeta: float) -> Tensor:
    """``manifold.exp_at`` as a chain of tape primitives."""
    x, v = ad.as_tensor(x), ad.as_tensor(v)
    nv = sqrt(clamp_min(lorentz_inner(v, v), 0.0) + manifold.NORM_GUARD)
    t = ad.scale(nv, 1.0 / zeta)
    return cosh(t) * x + (ad.scale(sinh(t), zeta) / nv) * v


def transport_from_origin_composed(x, b, zeta: float) -> Tensor:
    """``manifold.transport_from_origin`` as a chain of tape primitives."""
    x = ad.as_tensor(x)
    bt = pad_zero_column(ad.as_tensor(b))
    num = lorentz_inner(x, bt, keepdims=True)
    den = ad.scale(first_col(x) + zeta, zeta)
    return bt + (num / den) * (x + Tensor(manifold.origin(x.data.shape[-1] - 1, zeta)))


# ---------------------------------------------------------------------------
# the per-edge stage of a layer, composed from tape primitives
# ---------------------------------------------------------------------------

def segment_softmax(scores: Tensor, dst: np.ndarray, indptr: np.ndarray) -> Tensor:
    """Softmax of the scores over each dst segment."""
    seg_max = np.maximum.reduceat(scores.data, indptr[:-1], axis=0)
    shifted = scores - Tensor(seg_max[dst])  # constant shift, exact in gradient
    e = exp(shifted)
    denom = segment_sum(e, indptr)
    return e / ad.gather_rows(denom, dst)


def attention_weights_composed(tang, params, src, dst, indptr) -> Tensor:
    """``layers.attention_weights`` as a chain of tape primitives."""
    return segment_softmax(attention_scores(tang, src, dst, params), dst, indptr)


def sum_logs_composed(h, src, dst, indptr, weights, zeta: float) -> Tensor:
    """``manifold.sum_logs`` as a chain of tape primitives: sum_e a_e h[src_e]
    - (sum_e a_e (1 + u_e)) h_i with a = w c, c and u from ``_log_coef``."""
    h = ad.as_tensor(h)
    h_src = ad.gather_rows(h, src)
    c, u = _log_coef(ad.gather_rows(h, dst), h_src, zeta)
    a = ad.as_tensor(weights) * c
    beta = segment_sum(a * (u + 1.0), indptr)
    return segment_sum(a * h_src, indptr) - beta * h


# ---------------------------------------------------------------------------
# one node of a layer
# ---------------------------------------------------------------------------

def attention_weights(h_center, h_neighbors, params, zeta: float) -> np.ndarray:
    """Softmax attention of one node over its neighbor list (sums to 1)."""
    h_neighbors = np.atleast_2d(np.asarray(h_neighbors, dtype=np.float64))
    k = h_neighbors.shape[0]
    pts = np.concatenate([np.asarray(h_center, dtype=np.float64)[None, :], h_neighbors])
    tang = manifold.log_origin(Tensor(pts), zeta)
    src = np.arange(1, k + 1, dtype=np.int64)
    dst = np.zeros(k, dtype=np.int64)
    scores = attention_scores(tang, src, dst, params)
    return softmax(scores, axis=0).data.reshape(-1)


def attention_scores_concat(tang, src, dst, params) -> Tensor:
    """Per-edge attention scores from the concatenated [tang_dst, tang_src]
    rows: the (E, 2d) form that ``attention_scores`` splits into two
    node-side projections."""
    feat = concat([ad.gather_rows(tang, dst), ad.gather_rows(tang, src)], axis=-1)
    hidden = ad.relu(ad.matmul(feat, params.att_w1) + params.att_b1)
    return ad.matmul(hidden, params.att_w2)


def aggregate(h_center, h_neighbors, weights, zeta: float) -> np.ndarray:
    """Weighted tangent-space average around h_center, mapped back."""
    h_neighbors = np.atleast_2d(np.asarray(h_neighbors, dtype=np.float64))
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    center = np.asarray(h_center, dtype=np.float64)[None, :]
    tang = manifold.log_map(center, h_neighbors, zeta)
    return manifold.exp_map(center, (w * tang).sum(axis=0, keepdims=True), zeta)[0]


def fermi_dirac_score(d, r: float, t: float):
    """Edge probability 1 / (exp((d^2 - r)/t) + 1); decreasing in d."""
    if t <= 0:
        raise ValueError("temperature t must be positive")
    d = np.asarray(d, dtype=np.float64)
    z = (r - d * d) / t
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                    np.exp(z) / (1.0 + np.exp(z)))


# ---------------------------------------------------------------------------
# model forward with HGCN's layer boundaries
# ---------------------------------------------------------------------------

def forward_with_boundary_round_trips(model, g) -> Tensor:
    """``HyperbolicGNN.forward`` (eval) with every layer boundary on the
    model's hyperboloid: the features are lifted, each activation is
    wrapped onto the hyperboloid, and each layer starts with log at the
    origin (HGCN's boundary, Chami et al. 2019)."""
    zeta = model.zeta
    plan = message_edges(g)
    h = manifold.exp_origin(Tensor(np.asarray(g.features, dtype=np.float64)), zeta)
    for layer in model.layers:
        t = layer_forward(manifold.log_origin(h, zeta), g, layer, zeta, edges=plan)
        h = manifold.exp_origin(t, zeta)
    return h


# ---------------------------------------------------------------------------
# tree layout, one node at a time
# ---------------------------------------------------------------------------

def tree_layout_per_node(g, zeta, edge_length: float = 1.0) -> np.ndarray:
    """``curvature.tree_layout_hyperbolic`` placing one parent's children per
    step, from the root node 0: children fan out around the direction back
    to the grandparent."""
    z = manifold.as_zeta(zeta)
    indptr, indices = g.indptr, g.indices
    hops, parent = _kernels.bfs_tree(indptr, indices, 0)
    if np.any(hops < 0):
        raise ValueError("tree layout requires a connected graph")
    order = np.argsort(hops, kind="stable")  # parents before their children
    pos = np.zeros((g.n_nodes, 3), dtype=np.float64)
    pos[0] = manifold.origin(2, z)
    for v in order:
        nbrs = indices[indptr[v]:indptr[v + 1]]
        children = nbrs[parent[nbrs] == v]
        if not children.size:
            continue
        x = pos[v]
        k = len(children)
        if v == 0:
            ang = 2.0 * np.pi * np.arange(k) / k
            directions = np.stack([np.zeros(k), np.cos(ang), np.sin(ang)], axis=1)
        else:
            u = manifold.log_map(x, pos[parent[v]], z)
            u_hat = u / max(manifold.lorentz_norm(u)[0], 1e-300)
            u_perp = _tangent_perp_one(x, u_hat, z)
            ang = 2.0 * np.pi * np.arange(1, k + 1)[:, None] / (k + 1)
            directions = np.cos(ang) * u_hat + np.sin(ang) * u_perp
        pos[children] = manifold.exp_map(x, edge_length * directions, z)
    return pos


def _tangent_perp_one(x: np.ndarray, u_hat: np.ndarray, zeta: float) -> np.ndarray:
    """Unit tangent vector at x orthogonal to u_hat (2-d hyperboloid)."""
    z = zeta
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        w = e + (manifold.lorentz_inner(x, e) / (z * z)) * x  # project onto T_x
        w = w - manifold.lorentz_inner(w, u_hat) * u_hat
        nw = manifold.lorentz_norm(w)[0]
        if nw > 1e-8:
            return w / nw
    raise RuntimeError("failed to build an orthogonal tangent direction")
