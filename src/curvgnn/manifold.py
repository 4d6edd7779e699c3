"""Variable-curvature hyperboloid geometry: every formula, written once.

Points live on the upper sheet of a two-sheeted hyperboloid embedded in
Minkowski space R^{n,1}: ``<x, x>_L = -zeta^2`` with ``x0 >= zeta > 0``,
where ``<.,.>_L`` is the Lorentzian scalar product of signature
``(-, +, ..., +)``. The sectional curvature is ``K = -1/zeta^2``, so larger
``zeta`` means a flatter space. Arrays of shape ``(..., n+1)`` are batches
of ambient points or tangent vectors.

Each formula is one function, so the model's gradients and the numpy
diagnostics evaluate the same numbers. The array helpers are shared by
the maps: ``acosh1p(u)`` is arccosh(1 + u) in the log1p form, exact down
to u ~ 0, with u clamped to [0, ACOSH_ARG_MAX]; ``acosh1p_slope`` is its
derivative, evaluated at max(u, ACOSH_GRAD_EPS) so that gradients stay
finite when distances collapse to 0, and 0 above the upper clamp;
``_dist_arg`` forms the u of d(x, y) = zeta arccosh(1 + u), and
``_log_coef`` the c of the log map c (y - (1 + u) x). Each tape op is one
node of the ``autodiff`` tape with a closed-form VJP whose parents are
exactly its inputs. Of the numpy API, ``hyp_distance`` and ``log_map``
evaluate their formulas on arrays; the other maps run their tape op on
constants (no tape is recorded) and return its ``.data``:

=====================  =========================  ================================
formula                tape op (-> Tensor)        array function
=====================  =========================  ================================
Lorentz product                                   ``minkowski``, ``lorentz_inner``
arccosh(1 + u)                                    ``acosh1p``, ``acosh1p_slope``
distance argument u                               ``_dist_arg``
log-map coefficient c                             ``_log_coef``
exp at the origin      ``exp_origin``             ``to_hyperboloid``
log at the origin      ``log_origin``             ``to_tangent_coords``
geodesic distance                                 ``hyp_distance``
distance of row pairs  ``dist_pairs``
log map at x                                      ``log_map``
weighted log-map sum   ``sum_logs``
exp map at x           ``exp_at``                 ``exp_map``
transport from origin  ``transport_from_origin``
=====================  =========================  ================================

The tape ops and the ``_`` helpers check nothing. Every other function
that takes a curvature checks it with ``as_zeta`` (positive and finite,
else a ``graphs.DataError``), and ``lorentz_inner`` checks the last axes.
Only ``check_on_manifold`` checks that points lie on the hyperboloid:
embeddings are checked once, where they enter a diagnostic. All functions
are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import DataError

DEFAULT_ZETA_MIN = 0.1
DEFAULT_ZETA_MAX = 10.0

# NaN guard for the arccosh(1 + u) argument; far beyond any distance the
# package can meaningfully represent, it only keeps inf out of downstream math
ACOSH_ARG_MAX = 1e120
ACOSH_GRAD_EPS = 1e-7

# keeps sqrt-of-sum-of-squares differentiable at exactly zero
NORM_GUARD = 1e-30

# relative tolerance of check_on_manifold on |<x,x>_L + zeta^2|
MANIFOLD_TOL = 1e-6

_EPS = np.finfo(np.float64).eps


def as_zeta(zeta) -> float:
    """Return zeta as a positive, finite float; a DataError otherwise."""
    z = float(zeta)
    if not (z > 0) or not math.isfinite(z):
        raise DataError(f"curvature parameter must be positive and finite, got {z}")
    return z


def lorentz_inner(u: np.ndarray, v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Lorentzian scalar product -u0*v0 + sum_i u_i*v_i over the last axis."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape[-1] != v.shape[-1]:
        raise DataError(f"dimension mismatch: {u.shape[-1]} vs {v.shape[-1]}")
    if u.shape[-1] < 2:
        raise DataError("ambient dimension must be at least 2")
    return minkowski(u, v, keepdims=keepdims)


def lorentz_norm(v: np.ndarray) -> np.ndarray:
    """sqrt(<v,v>_L) for spacelike vectors, shape (..., 1); negative inner
    products clip to 0."""
    return np.sqrt(np.maximum(lorentz_inner(v, v, keepdims=True), 0.0))


def origin(dim: int, zeta) -> np.ndarray:
    """The hyperboloid base point (zeta, 0, ..., 0) in ambient dimension dim+1."""
    z = as_zeta(zeta)
    o = np.zeros(dim + 1, dtype=np.float64)
    o[0] = z
    return o


def manifold_residual(x: np.ndarray, zeta) -> np.ndarray:
    """|<x,x>_L + zeta^2| — zero for points exactly on the manifold."""
    z = as_zeta(zeta)
    return np.abs(lorentz_inner(x, x) + z * z)


def check_on_manifold(x: np.ndarray, zeta) -> None:
    """Raise DataError if x drifts off the hyperboloid.

    The comparison adds a rounding-noise floor proportional to the squared
    coordinate magnitude: far from the origin the quadratic form is a
    difference of huge, nearly equal terms and an absolute test would
    trip on float cancellation alone.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite coordinates")
    z = as_zeta(zeta)
    resid = manifold_residual(x, z)
    floor = 64.0 * _EPS * (x[..., 0] ** 2 + z * z)
    bad = resid > MANIFOLD_TOL * max(1.0, z * z) + floor
    if np.any(bad):
        worst = float(np.max(resid))
        raise DataError(f"point off manifold at zeta={z}: residual {worst:.3e}")
    if np.any(x[..., 0] <= 0):
        raise DataError("point on the lower hyperboloid sheet")


# ---------------------------------------------------------------------------
# array helpers shared by the maps
# ---------------------------------------------------------------------------

def minkowski(u: np.ndarray, v: np.ndarray, keepdims: bool = True) -> np.ndarray:
    """-u0*v0 + sum_i u_i*v_i over the last axis of two arrays; the spatial
    sum is one einsum."""
    out = np.einsum("...i,...i->...", u[..., 1:], v[..., 1:]) - u[..., 0] * v[..., 0]
    return out[..., None] if keepdims else out


def acosh1p(u: np.ndarray) -> np.ndarray:
    """arccosh(1 + u) as log1p(u + sqrt(u (u + 2))), u clamped to [0, ACOSH_ARG_MAX]."""
    u = np.minimum(np.maximum(u, 0.0), ACOSH_ARG_MAX)
    return np.log1p(u + np.sqrt(u * (u + 2.0)))


def acosh1p_slope(u: np.ndarray) -> np.ndarray:
    """The derivative of acosh1p: 1 / sqrt(u (u + 2)) at max(u, ACOSH_GRAD_EPS),
    and 0 above ACOSH_ARG_MAX."""
    uc = np.minimum(np.maximum(u, ACOSH_GRAD_EPS), ACOSH_ARG_MAX)
    return np.where(u > ACOSH_ARG_MAX, 0.0, 1.0 / np.sqrt(uc * (uc + 2.0)))


def _dist_arg(diff: np.ndarray, zeta: float, keepdims: bool = True):
    """(q, k, u) with d(x, y) = zeta * arccosh(1 + u) for diff = x - y.

    u = k max(q, 0) with q = <x-y, x-y>_L and k = 1 / (2 zeta^2): on the
    manifold it equals -<x,y>_L/zeta^2 - 1, without the cancellation of the
    large x0*y0 product for nearby points.
    """
    q = minkowski(diff, diff, keepdims=keepdims)
    k = float(0.5 / (zeta * zeta))
    return q, k, np.maximum(q, 0.0) * k


def _log_coef(u: np.ndarray):
    """(s, c) with log_x(y) = c (y - (1 + u) x) for u from ``_dist_arg``.

    c = d(x, y) / |y - (1 + u) x|_L, where the norm is zeta * s with
    s = sqrt(u (u + 2)) identically; taking it from u avoids the
    cancellation of the huge components far from the base point, and zeta
    cancels. c is 0 when the points coincide.
    """
    s = np.sqrt(u * (u + 2.0) + NORM_GUARD)
    return s, acosh1p(u) / s


# ---------------------------------------------------------------------------
# tape ops: one node each
# ---------------------------------------------------------------------------

def exp_origin(w, zeta: float) -> Tensor:
    """Wrap spatial tangent coordinates (.., d) onto the hyperboloid (.., d+1):
    (zeta cosh(r/zeta), zeta sinh(r/zeta) w/r) with r = |w|; one tape node."""
    w = ad.as_tensor(w)
    wd = w.data
    r = np.sqrt((wd * wd).sum(axis=-1, keepdims=True) + NORM_GUARD)
    t = r * (1.0 / zeta)
    ch, sh = np.cosh(t), np.sinh(t)
    coef = (sh * zeta) / r
    out = np.concatenate([ch * zeta, coef * wd], axis=-1)

    def vjp(g):
        g_coef = (g[..., 1:] * wd).sum(axis=-1, keepdims=True)
        # x0 = zeta cosh(r/zeta) and coef have r-slopes sinh(r/zeta) and (cosh - coef)/r
        g_r = g[..., :1] * sh + g_coef * (ch - coef) / r
        return (coef * g[..., 1:] + (g_r / r) * wd,)

    return ad._make(out, (w,), vjp)


def log_origin(x, zeta: float) -> Tensor:
    """Spatial tangent coordinates of a point, inverse of exp_origin; one tape node.

    The radius is zeta * arccosh(1 + u) with the cancellation-free
    u = x0/zeta - 1 = |x_s|^2 / (zeta (x0 + zeta)).
    """
    x = ad.as_tensor(x)
    xd = x.data
    xs = xd[..., 1:]
    sq = (xs * xs).sum(axis=-1, keepdims=True)
    den = (xd[..., :1] + zeta) * zeta
    u = sq / den
    nrm = np.sqrt(sq + NORM_GUARD)
    c = (acosh1p(u) * zeta) / nrm
    out = c * xs

    def vjp(g):
        g_c = (g * xs).sum(axis=-1, keepdims=True)
        # c = zeta acosh1p(u) / nrm with u = sq / den and nrm = sqrt(sq + guard)
        g_u = (g_c / nrm) * zeta * acosh1p_slope(u)
        g_sq = g_u / den - (g_c * c / nrm) * 0.5 / nrm
        gx = np.empty_like(xd)
        gx[..., :1] = -(g_u * u / den) * zeta
        gx[..., 1:] = c * g + (2.0 * g_sq) * xs
        return (gx,)

    return ad._make(out, (x,), vjp)


def _row_diffs(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The (P, d+1) row differences x[i_p] - x[j_p]."""
    diff = np.take(x, i, axis=0)
    diff -= np.take(x, j, axis=0)
    return diff


def dist_pairs(x, i: np.ndarray, j: np.ndarray, zeta: float) -> Tensor:
    """The distances d(x[i_p], x[j_p]) = zeta * arccosh(1 + u) of row pairs,
    with u from ``_dist_arg`` of the row differences; one tape node with
    input x. It keeps only (P,) rows: its VJP rebuilds the (P, d+1) row
    differences from x, whose value lives until x's own VJP, and scatters
    the difference gradient into both endpoints."""
    x = ad.as_tensor(x)
    xd = x.data
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    q, k, u = _dist_arg(_row_diffs(xd, i, j), zeta, keepdims=False)

    def vjp(g):
        # u = k max(<diff, diff>_L, 0)
        g_q = (g * zeta) * acosh1p_slope(u) * k * (q > 0.0)
        g_diff = _row_diffs(xd, i, j)
        g_diff *= (2.0 * g_q)[..., None]
        g_diff[..., 0] = -g_diff[..., 0]
        g_x = ad.scatter_rows(g_diff, i, xd.shape[0])
        g_x -= ad.scatter_rows(g_diff, j, xd.shape[0])
        return (g_x,)

    return ad._make(acosh1p(u) * zeta, (x,), vjp)


def sum_logs(h, plan: ad.EdgePlan, weights, zeta: float) -> Tensor:
    """Per node i, the weighted sum of log maps sum_e w_e log_{h_i}(h[src_e])
    over the edges e with dst_e = i of the plan; one tape node with inputs h
    and weights.

    Since log_x(y) = c (y - (1 + u) x) with u from ``_dist_arg`` and c from
    ``_log_coef``, the sum is sum_e a_e h[src_e] - beta_i h_i with a = w c
    and beta_i = sum_e a_e (1 + u_e), so only scalars and source rows are
    summed per edge and h_i is scaled once per node; a node without edges
    sums to 0. Every per-edge sum is the plan's ``sum_by_dst``; the VJP's
    gradient for h is one of them, since diff = h[dst] - h[src] negates
    exactly on the reverse edge.
    """
    h, weights = ad.as_tensor(h), ad.as_tensor(weights)
    x, w = h.data, weights.data
    h_src = np.take(x, plan.src, axis=0)
    diff = np.repeat(x, plan.counts, axis=0) - h_src  # h[dst] - h[src]
    _, k, u = _dist_arg(diff, zeta)
    s, c = _log_coef(u)
    a = w * c
    beta = plan.sum_by_dst(a * (u + 1.0))
    out = plan.sum_by_dst(a * h_src) - beta * x

    def vjp(g):
        # it keeps only (E, 1) rows and recomputes h_src and diff from x; each
        # (E, d+1) temporary is updated in place and deleted after its last use
        h_src = np.take(x, plan.src, axis=0)
        g_beta = np.repeat(-np.einsum("ij,ij->i", g, x)[:, None], plan.counts, axis=0)
        g_a = np.einsum("ij,ij->i", np.repeat(g, plan.counts, axis=0), h_src)[:, None]
        g_a += g_beta * (u + 1.0)
        # c = acosh1p(u) / s with ds/du = (u + 1) / s
        g_u = g_beta * a + g_a * w * (acosh1p_slope(u) - c * (u + 1.0) / s) / s
        # u = k max(<diff, diff>_L, 0); row e also carries the src-side terms of
        # its reverse edge rev[e], whose src is dst_e and whose diff is exactly -diff_e
        sigma = (2.0 * k) * g_u * (u > 0.0)
        g_edge = np.repeat(x, plan.counts, axis=0)
        g_edge -= h_src  # diff = h[dst] - h[src], as in the forward
        del h_src
        g_edge *= sigma + sigma[plan.rev]
        g_edge[:, 0] = -g_edge[:, 0]
        g_src = np.take(g, plan.src, axis=0)
        g_src *= a[plan.rev]
        g_edge += g_src
        del g_src
        g_h = plan.sum_by_dst(g_edge)
        del g_edge
        g_h -= beta * g
        return g_h, g_a * c

    return ad._make(out, (h, weights), vjp)


def exp_at(x, v, zeta: float) -> Tensor:
    """Follow the geodesic from x with initial velocity v (tangent at x):
    cosh(|v|/zeta) x + zeta sinh(|v|/zeta) v/|v|; one tape node."""
    x, v = ad.as_tensor(x), ad.as_tensor(v)
    xd, vd = x.data, v.data
    q = minkowski(vd, vd)
    nv = np.sqrt(np.maximum(q, 0.0) + NORM_GUARD)
    t = nv * (1.0 / zeta)
    ch, sh = np.cosh(t), np.sinh(t)
    coef = (sh * zeta) / nv
    out = ch * xd + coef * vd

    def vjp(g):
        g_ch = (g * xd).sum(axis=-1, keepdims=True)
        g_coef = (g * vd).sum(axis=-1, keepdims=True)
        # cosh(nv/zeta) and coef have nv-slopes sinh(nv/zeta)/zeta and (cosh - coef)/nv
        g_nv = g_ch * sh / zeta + g_coef * (ch - coef) / nv
        g_q = g_nv * 0.5 / nv * (q > 0.0)
        g_vv = (2.0 * g_q) * vd  # through <v, v>_L
        g_vv[..., 0] = -g_vv[..., 0]
        return (ad._unbroadcast(ch * g, xd.shape), ad._unbroadcast(coef * g + g_vv, vd.shape))

    return ad._make(out, (x, v), vjp)


def transport_from_origin(x, b, zeta: float) -> Tensor:
    """Parallel-transport a tangent-at-origin vector (0, b) to T_x; one tape node.

    P(v) = v + <x, v>_L / (zeta^2 - <o, x>_L) * (o + x); a linear isometry
    of tangent spaces.
    """
    x, b = ad.as_tensor(x), ad.as_tensor(b)
    xd, bd = x.data, b.data
    bt = np.concatenate([np.zeros(bd.shape[:-1] + (1,)), bd], axis=-1)
    num = minkowski(xd, bt)
    den = (xd[..., :1] + zeta) * zeta  # zeta^2 - <o, x> = zeta (zeta + x0)
    m = num / den
    out = bt + m * (xd + origin(xd.shape[-1] - 1, zeta))

    def vjp(g):  # rebuilds o + x rather than keeping an (n, d+1) array on the tape
        xo = xd + origin(xd.shape[-1] - 1, zeta)
        g_m = (g * xo).sum(axis=-1, keepdims=True)
        g_num = g_m / den
        # num = <x, (0, b)>_L and den = zeta (x0 + zeta)
        g_x = m * g + g_num * bt
        g_x[..., :1] -= (g_m * m / den) * zeta
        g_b = g[..., 1:] + g_num * xd[..., 1:]
        return ad._unbroadcast(g_x, xd.shape), ad._unbroadcast(g_b, bd.shape)

    return ad._make(out, (x, b), vjp)


# ---------------------------------------------------------------------------
# numpy API
# ---------------------------------------------------------------------------

def hyp_distance(x: np.ndarray, y: np.ndarray, zeta) -> np.ndarray:
    """Geodesic distance zeta * arccosh(1 + u) between batches of points, with
    u from ``_dist_arg``."""
    z = as_zeta(zeta)
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    _, _, u = _dist_arg(diff, z, keepdims=False)
    return acosh1p(u) * z


def log_map(x: np.ndarray, y: np.ndarray, zeta) -> np.ndarray:
    """Tangent vector at x pointing to y, with Lorentz norm d(x, y); zero where
    x == y. It is c (y - (1 + u) x) with u from ``_dist_arg`` and c from
    ``_log_coef``."""
    z = as_zeta(zeta)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _, _, u = _dist_arg(x - y, z)
    _, c = _log_coef(u)
    return c * (y - (u + 1.0) * x)


def exp_map(x: np.ndarray, v: np.ndarray, zeta) -> np.ndarray:
    """Follow the geodesic from x with initial velocity v for unit time (``exp_at``)."""
    return exp_at(x, v, as_zeta(zeta)).data


def to_hyperboloid(w: np.ndarray, zeta) -> np.ndarray:
    """Map Euclidean features to the manifold: exp at the origin of (0, w)."""
    return exp_origin(w, as_zeta(zeta)).data


def to_tangent_coords(x: np.ndarray, zeta) -> np.ndarray:
    """Spatial coordinates of log at the origin: the inverse of to_hyperboloid."""
    return log_origin(x, as_zeta(zeta)).data


def transfer_curvature(x: np.ndarray, zeta_from, zeta_to) -> np.ndarray:
    """Carry a point to another curvature: exp_o at zeta_to of log_o at zeta_from.

    The origin's tangent space is shared across curvatures, so this keeps
    the tangent coordinates and re-wraps them on the new hyperboloid.
    """
    z0 = as_zeta(zeta_from)
    z1 = as_zeta(zeta_to)
    if z0 == z1:
        return np.asarray(x, dtype=np.float64).copy()
    return to_hyperboloid(to_tangent_coords(x, z0), z1)
