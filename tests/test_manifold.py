"""Geometry kernel tests: closed forms, high-precision oracle, invariants."""

import mpmath
import numpy as np
import pytest

from curvgnn import autodiff as ad, manifold as M
from curvgnn.autodiff import Tensor, backward
from curvgnn.graphs import DataError

import geometry_oracle as geo
from grad_oracle import finite_diff_check


def rand_point(rng, dim, zeta, radius=1.0):
    w = rng.standard_normal(dim)
    w *= rng.uniform(0, radius) / max(np.linalg.norm(w), 1e-12)
    return M.to_hyperboloid(w, zeta)


def rand_tangent(rng, x, dim, zeta, norm):
    w = rng.standard_normal(dim)
    w *= norm / max(np.linalg.norm(w), 1e-12)
    return geo.parallel_transport(M.origin(dim, zeta), x,
                                  geo.tangent_from_euclidean(w), zeta, validate=False)


# ---------------------------------------------------------------------------
# Lorentz product
# ---------------------------------------------------------------------------

def test_lorentz_inner_time_sign():
    assert M.lorentz_inner(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == -1.0


def test_lorentz_inner_orthogonal_spatial():
    assert M.lorentz_inner(np.array([0.0, 1, 0]), np.array([0.0, 0, 1])) == 0.0


def test_lorentz_inner_arithmetic():
    assert M.lorentz_inner(np.array([2.0, 1, 1]), np.array([3.0, 1, 2])) == -3.0


def test_lorentz_inner_symmetric_bilinear():
    rng = np.random.default_rng(0)
    u, v, w = rng.standard_normal((3, 5))
    assert M.lorentz_inner(u, v) == pytest.approx(M.lorentz_inner(v, u))
    lhs = M.lorentz_inner(u, 2.0 * v + w)
    assert lhs == pytest.approx(2.0 * M.lorentz_inner(u, v) + M.lorentz_inner(u, w))


def minkowski_product_sum(u, v, keepdims):
    """The Lorentz product as a product, a spatial .sum and a subtraction."""
    prod = u * v
    out = prod[..., 1:].sum(axis=-1, keepdims=keepdims)
    return out - (prod[..., :1] if keepdims else prod[..., 0])


def test_minkowski_einsum_matches_product_sum():
    """Within a few ulps of the summed magnitudes on (E, 17) rows, where the
    einsum may add in another order; byte-equal on 3-coordinate rows, whose
    two spatial products admit one order."""
    rng = np.random.default_rng(5)
    eps = np.finfo(np.float64).eps
    for keepdims in (True, False):
        u, v = rng.standard_normal((2, 2000, 17)) * 10.0 ** rng.integers(-3, 4, size=(2, 2000, 1))
        got = M.minkowski(u, v, keepdims=keepdims)
        want = minkowski_product_sum(u, v, keepdims)
        assert got.shape == want.shape
        scale = np.abs(u * v).sum(axis=-1, keepdims=keepdims)
        assert np.all(np.abs(got - want) <= 4 * eps * scale)
        u, v = u[..., :3], v[..., :3]
        assert M.minkowski(u, v, keepdims=keepdims).tobytes() == \
            minkowski_product_sum(u, v, keepdims).tobytes()
    u = rng.standard_normal((4, 17))
    assert M.minkowski(u, u[0], keepdims=True).shape == (4, 1)  # broadcasts


def test_lorentz_inner_dimension_mismatch():
    with pytest.raises(DataError):
        M.lorentz_inner(np.zeros(3), np.zeros(4))
    with pytest.raises(DataError):
        M.lorentz_inner(np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_identity_at_origin():
    o = M.origin(3, 2.0)
    assert M.hyp_distance(o, o, 2.0) == 0.0


def test_distance_unit_speed_geodesic():
    x = np.array([1.0, 0.0])
    y = np.array([np.cosh(1.0), np.sinh(1.0)])
    assert M.hyp_distance(x, y, 1.0) == pytest.approx(1.0, abs=1e-12)


def mp_distance(x, y, zeta):
    """50-digit reference: zeta * acosh(-<x,y>_L / zeta^2) on exact inputs."""
    with mpmath.workdps(50):
        xs = [mpmath.mpf(c) for c in x]
        ys = [mpmath.mpf(c) for c in y]
        ip = -xs[0] * ys[0] + mpmath.fsum(a * b for a, b in zip(xs[1:], ys[1:]))
        z = mpmath.mpf(zeta)
        return float(z * mpmath.acosh(-ip / z**2))


def test_distance_against_mpmath_oracle():
    rng = np.random.default_rng(7)
    zeta = 2.0
    for _ in range(50):
        x = rand_point(rng, 4, zeta, radius=3.0)
        y = rand_point(rng, 4, zeta, radius=3.0)
        want = mp_distance(x, y, zeta)
        got = float(M.hyp_distance(x, y, zeta))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def mp_difference_distance(x, y, zeta):
    """50-digit zeta * acosh(1 + <x-y, x-y>_L / (2 zeta^2)) on the float inputs.

    On the manifold this equals zeta * acosh(-<x,y>_L / zeta^2); evaluated
    exactly, it measures only the rounding of the float formula, which is
    what decides the accuracy of the distance between nearby points.
    """
    with mpmath.workdps(50):
        d = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x, y)]
        q = -d[0] ** 2 + mpmath.fsum(c * c for c in d[1:])
        z = mpmath.mpf(zeta)
        return float(z * mpmath.acosh(1 + q / (2 * z * z)))


SEPARATIONS = [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]


def test_tape_distance_matches_mpmath_at_small_separations():
    rng = np.random.default_rng(41)
    for zeta in (0.5, 1.0, 3.0):
        for radius in (0.0, 0.5, 2.0):
            x = rand_point(rng, 3, zeta, radius=radius)
            for sep in SEPARATIONS:
                v = rand_tangent(rng, x, 3, zeta, norm=sep)
                y = M.exp_map(x, v, zeta)
                want = mp_difference_distance(x, y, zeta)
                assert want == pytest.approx(sep, rel=1e-4)  # the pair is sep apart
                got = float(M.hyp_distance(x[None], y[None], zeta)[0])
                assert got == pytest.approx(want, rel=1e-12, abs=0)
                assert float(M.hyp_distance(x, y, zeta)) == got


def mp_pair_at_radius(rng, radius, dim, sep):
    """Two points sep apart, 80 digits exact, each rounded once to float64.

    x lies at the given radius from the origin (zeta = 1) in a random
    direction u; y follows the geodesic from x for length sep along a random
    unit tangent orthogonal to the radial one, so it stays at about the
    same radius.
    """
    with mpmath.workdps(80):
        def unit(v):
            norm = mpmath.sqrt(mpmath.fsum(c * c for c in v))
            return [c / norm for c in v]

        u = unit([mpmath.mpf(float(c)) for c in rng.standard_normal(dim)])
        w = [mpmath.mpf(float(c)) for c in rng.standard_normal(dim)]
        dot = mpmath.fsum(a * b for a, b in zip(u, w))
        w = unit([b - dot * a for a, b in zip(u, w)])
        r, s = mpmath.mpf(radius), mpmath.mpf(sep)
        x = [mpmath.cosh(r)] + [mpmath.sinh(r) * a for a in u]
        y = [mpmath.cosh(s) * x[0]] + [mpmath.cosh(s) * a + mpmath.sinh(s) * b
                                       for a, b in zip(x[1:], w)]
        return np.array([float(c) for c in x]), np.array([float(c) for c in y])


# radius: (median, max) relative error bound of hyp_distance for points 0.1
# apart there. Twice the errors measured for ROADMAP item 19 (7e-14 / 3e-13,
# 5e-9 / 9e-9, 6e-5 / 1.4e-4), since those come from one seed and the
# errors of other seeds spread by up to ~1.5x about them.
RADIUS_PRECISION = {5: (1.4e-13, 6e-13), 10: (1e-8, 1.8e-8), 15: (1.2e-4, 2.8e-4)}


@pytest.mark.parametrize("radius", RADIUS_PRECISION)
def test_distance_precision_far_from_the_origin(radius):
    """A point at radius r has coordinates near e^r / 2, which float64 holds
    only to about e^r * 1e-16, so the error of a short distance there grows
    like e^(2r): pinned at r in {5, 10, 15} (zeta = 1) for 20 pairs in 8
    dimensions."""
    rng = np.random.default_rng(19)
    errors = []
    for _ in range(20):
        x, y = mp_pair_at_radius(rng, radius, 8, 0.1)
        errors.append(abs(float(M.hyp_distance(x, y, 1.0)) - 0.1) / 0.1)
    median_bound, max_bound = RADIUS_PRECISION[radius]
    assert np.median(errors) < median_bound
    assert max(errors) < max_bound


def test_tape_log_origin_matches_mpmath_near_origin():
    rng = np.random.default_rng(43)
    for zeta in (0.5, 1.0, 3.0):
        for sep in SEPARATIONS:
            w = rng.standard_normal(3)
            x = M.to_hyperboloid(w * (sep / np.linalg.norm(w)), zeta)
            with mpmath.workdps(50):
                xs = [mpmath.mpf(c) for c in x[1:]]
                s = mpmath.sqrt(mpmath.fsum(c * c for c in xs))
                r = zeta * mpmath.asinh(s / zeta)  # |x_s| = zeta sinh(r / zeta)
                want = np.array([float(r * c / s) for c in xs])
            got = M.log_origin(x[None], zeta).data[0]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert np.array_equal(M.to_tangent_coords(x, zeta), got)


def test_distance_symmetry_nonnegativity_triangle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        zeta = float(rng.uniform(0.1, 10.0))
        a, b, c = (rand_point(rng, 3, zeta, radius=2.0 * min(zeta, 1.0))
                   for _ in range(3))
        dab = float(M.hyp_distance(a, b, zeta))
        dba = float(M.hyp_distance(b, a, zeta))
        dac = float(M.hyp_distance(a, c, zeta))
        dcb = float(M.hyp_distance(c, b, zeta))
        assert dab == pytest.approx(dba, rel=1e-12, abs=1e-12)
        assert dab >= 0.0
        assert dab <= dac + dcb + 1e-8


# ---------------------------------------------------------------------------
# log / exp
# ---------------------------------------------------------------------------

def test_log_of_same_point_is_zero():
    o = M.origin(2, 1.0)
    assert np.allclose(M.log_map(o, o, 1.0), 0.0)


def test_log_unit_geodesic_direction():
    x = np.array([1.0, 0.0])
    y = np.array([np.cosh(1.0), np.sinh(1.0)])
    v = M.log_map(x, y, 1.0)
    assert float(M.lorentz_norm(v)[0]) == pytest.approx(1.0, abs=1e-12)
    assert v == pytest.approx(np.array([0.0, 1.0]), abs=1e-12)


def test_exp_of_zero_vector():
    o = M.origin(3, 0.5)
    assert np.array_equal(M.exp_map(o, np.zeros(4), 0.5), o)


def test_exp_closed_form_at_origin():
    got = M.exp_map(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
    assert got == pytest.approx(np.array([np.cosh(1.0), np.sinh(1.0)]), abs=1e-12)


def test_exp_log_roundtrips_both_directions():
    # |v| capped at 12 zeta: beyond d/zeta ~ 14 the exp map's conditioning
    # (error growing like cosh(d/zeta)) makes 1e-8 unreachable in float64
    rng = np.random.default_rng(3)
    for _ in range(300):
        zeta = float(rng.uniform(0.1, 10.0))
        dim = int(rng.integers(2, 6))
        x = rand_point(rng, dim, zeta, radius=min(zeta, 1.0))
        v = rand_tangent(rng, x, dim, zeta,
                         norm=float(rng.uniform(0, min(5.0, 12.0 * zeta))))
        y = M.exp_map(x, v, zeta)
        v_back = M.log_map(x, y, zeta)
        assert np.max(np.abs(v_back - v)) < 1e-8
        y_back = M.exp_map(x, v_back, zeta)
        rel = np.max(np.abs(y_back - y) / np.maximum(np.abs(y), 1.0))
        assert rel < 1e-8


def test_exp_preserves_constraint_and_distance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        zeta = float(rng.uniform(0.1, 10.0))
        x = rand_point(rng, 3, zeta, radius=min(zeta, 1.0))
        v = rand_tangent(rng, x, 3, zeta, norm=float(rng.uniform(0, 2.0 * zeta)))
        y = M.exp_map(x, v, zeta)
        M.check_on_manifold(y, zeta)
        assert float(M.hyp_distance(x, y, zeta)) == pytest.approx(
            float(M.lorentz_norm(v)[0]), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

def test_transport_to_same_point_is_identity():
    rng = np.random.default_rng(9)
    x = rand_point(rng, 4, 1.5, radius=1.0)
    v = rand_tangent(rng, x, 4, 1.5, norm=2.0)
    assert geo.parallel_transport(x, x, v, 1.5) == pytest.approx(v, abs=1e-10)


def test_transport_isometry_and_tangency():
    rng = np.random.default_rng(13)
    for _ in range(200):
        zeta = float(rng.uniform(0.1, 10.0))
        x = rand_point(rng, 3, zeta, radius=min(zeta, 1.0))
        y = rand_point(rng, 3, zeta, radius=min(zeta, 1.0))
        u = rand_tangent(rng, x, 3, zeta, norm=float(rng.uniform(0, 3.0)))
        v = rand_tangent(rng, x, 3, zeta, norm=float(rng.uniform(0, 3.0)))
        pu = geo.parallel_transport(x, y, u, zeta, validate=False)
        pv = geo.parallel_transport(x, y, v, zeta, validate=False)
        assert float(M.lorentz_inner(y, pv)) == pytest.approx(0.0, abs=1e-8)
        assert float(M.lorentz_inner(pu, pv)) == pytest.approx(
            float(M.lorentz_inner(u, v)), rel=1e-8, abs=1e-8)
        assert float(M.lorentz_norm(pv)[0]) == pytest.approx(
            float(M.lorentz_norm(v)[0]), rel=1e-8, abs=1e-8)


def test_transport_is_linear():
    rng = np.random.default_rng(17)
    x = rand_point(rng, 3, 1.0, radius=0.5)
    y = rand_point(rng, 3, 1.0, radius=0.5)
    u = rand_tangent(rng, x, 3, 1.0, norm=1.0)
    v = rand_tangent(rng, x, 3, 1.0, norm=1.5)
    lhs = geo.parallel_transport(x, y, 2.0 * u - 3.0 * v, 1.0)
    rhs = (2.0 * geo.parallel_transport(x, y, u, 1.0)
           - 3.0 * geo.parallel_transport(x, y, v, 1.0))
    assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# feature lift / curvature transfer / projection
# ---------------------------------------------------------------------------

def test_lift_of_zero_is_origin():
    assert np.array_equal(M.to_hyperboloid(np.zeros(3), 2.0), M.origin(3, 2.0))


def test_lift_single_axis():
    got = M.to_hyperboloid(np.array([1.0, 0.0, 0.0]), 1.0)
    want = np.array([np.cosh(1.0), np.sinh(1.0), 0.0, 0.0])
    assert got == pytest.approx(want, abs=1e-12)


def test_lift_constraint_residual():
    rng = np.random.default_rng(21)
    for zeta in (0.1, 1.0, 10.0):
        w = rng.standard_normal((64, 5)) * min(zeta, 1.0)
        h = M.to_hyperboloid(w, zeta)
        assert np.max(M.manifold_residual(h, zeta)) < 1e-8
        back = M.to_tangent_coords(h, zeta)
        assert np.max(np.abs(back - w)) < 1e-8


def test_transfer_same_curvature_is_identity():
    rng = np.random.default_rng(23)
    h = rand_point(rng, 3, 1.7, radius=2.0)
    assert M.transfer_curvature(h, 1.7, 1.7) == pytest.approx(h, abs=1e-12)


def test_transfer_roundtrip_and_origin_fixed():
    rng = np.random.default_rng(25)
    for _ in range(50):
        z1 = float(rng.uniform(0.1, 10.0))
        z2 = float(rng.uniform(0.1, 10.0))
        h = rand_point(rng, 3, z1, radius=min(z1, 1.0))
        back = M.transfer_curvature(M.transfer_curvature(h, z1, z2), z2, z1)
        assert np.max(np.abs(back - h) / np.maximum(np.abs(h), 1.0)) < 1e-8
        o = M.origin(3, z1)
        assert M.transfer_curvature(o, z1, z2) == pytest.approx(M.origin(3, z2), abs=1e-12)


def test_project_keeps_valid_point():
    rng = np.random.default_rng(27)
    h = rand_point(rng, 4, 1.0, radius=1.5)
    assert geo.project_to_manifold(h, 1.0) == pytest.approx(h, abs=1e-12)


def test_project_closed_form():
    got = geo.project_to_manifold(np.array([0.0, 1.0, 0.0]), 1.0)
    assert got == pytest.approx(np.array([np.sqrt(2.0), 1.0, 0.0]), abs=1e-15)


def test_project_repairs_drift():
    rng = np.random.default_rng(29)
    h = rand_point(rng, 4, 2.0, radius=1.0)
    drifted = h + rng.normal(0, 1e-4, size=h.shape)
    fixed = geo.project_to_manifold(drifted, 2.0)
    assert float(M.manifold_residual(fixed, 2.0)) < 1e-12


# ---------------------------------------------------------------------------
# Euclidean limit and curvature parameter
# ---------------------------------------------------------------------------

def test_euclidean_limit_at_large_zeta():
    rng = np.random.default_rng(31)
    a = rng.uniform(-1, 1, (100, 6))
    b = rng.uniform(-1, 1, (100, 6))
    for m in (a, b):
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1.0)
    d_h = M.hyp_distance(M.to_hyperboloid(a, 1000.0), M.to_hyperboloid(b, 1000.0), 1000.0)
    d_e = np.linalg.norm(a - b, axis=1)
    keep = d_e > 1e-3
    assert np.max(np.abs(d_h[keep] - d_e[keep]) / d_e[keep]) < 1e-3


def test_as_zeta_rejects_bad_values():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DataError):
            M.as_zeta(bad)


# ---------------------------------------------------------------------------
# the one-node tape ops against their compositions of tape primitives
# ---------------------------------------------------------------------------

FUSED = {  # one-node op, its composed reference
    "exp_origin": (M.exp_origin, geo.exp_origin_composed),
    "log_origin": (M.log_origin, geo.log_origin_composed),
    "exp_at": (M.exp_at, geo.exp_at_composed),
    "transport_from_origin": (M.transport_from_origin, geo.transport_from_origin_composed),
}

FORWARDS = {  # the one-node ops, and the array distance and log map, with their compositions
    **FUSED,
    "hyp_distance": (lambda x, y, zeta: Tensor(M.hyp_distance(x, y, zeta)), geo.dist_composed),
    "log_map": (lambda x, y, zeta: Tensor(M.log_map(x, y, zeta)), geo.log_at),
}


def origin_tangents(rng, n, dim, zeta, t_max):
    """(n, dim) tangent coordinates at the origin with |w| / zeta spread over
    [0, t_max]; the first row is zero."""
    w = rng.standard_normal((n, dim))
    w *= zeta * rng.uniform(0.0, t_max, (n, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
    w[0] = 0.0
    return w


def fused_inputs(rng, name, zeta, t_max, n=8, dim=3):
    """Arrays for one call of a one-node op: points at geodesic radius up to
    zeta * t_max, vectors of Lorentz norm up to zeta * t_max, and a zero row 0
    (w = 0, the origin, coinciding points, v = 0, b = 0)."""
    def points():
        return M.to_hyperboloid(origin_tangents(rng, n, dim, zeta, t_max), zeta)

    if name == "exp_origin":
        return [origin_tangents(rng, n, dim, zeta, t_max)]
    if name == "log_origin":
        return [points()]
    if name in ("hyp_distance", "log_map"):
        x, y = points(), points()
        y[0] = x[0]
        return [x, y]
    if name == "exp_at":
        x = points()
        v = geo.parallel_transport(np.broadcast_to(M.origin(dim, zeta), x.shape), x,
                                   geo.tangent_from_euclidean(
                                       origin_tangents(rng, n, dim, zeta, t_max)),
                                   zeta, validate=False)
        return [x, v]
    b = origin_tangents(rng, n, dim, zeta, t_max)
    return [points(), b if rng.random() < 0.5 else b[1]]  # per row, or one bias


def away_from_zero_row(arrays):
    """Drop row 0: at the origin, log_origin's guarded radius has slope 0
    where the map has slope 1, in this op and in its composition alike."""
    return [a[1:] if a.ndim == 2 else a for a in arrays]


def probed(op, arrays, zeta, probe):
    """Value of op and the gradients of sum(op * probe) on each input."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves, zeta)
    backward(ad.tsum(out * Tensor(probe)))
    return out, leaves


@pytest.mark.parametrize("name", list(FORWARDS))
def test_fused_op_forward_equals_composition(name):
    """The same arithmetic in the same order: equal values from the origin out
    to radius 20 zeta, where cosh still fits in a float64 many times over."""
    fused, composed = FORWARDS[name]
    rng = np.random.default_rng(60)
    for zeta in (0.1, 1.0, 10.0):
        for t_max in (1e-9, 1e-3, 1.0, 5.0, 20.0):
            for _ in range(5):
                arrays = fused_inputs(rng, name, zeta, t_max)
                got = fused(*arrays, zeta).data
                want = composed(*arrays, zeta).data
                assert np.array_equal(got, want), (zeta, t_max)


@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_gradients_match_composition(name):
    """Where the maps are well conditioned the closed-form VJP and the chain of
    primitive VJPs differ by rounding only. Far out (t >~ 5 at small zeta)
    both are dominated by rounding and need not agree."""
    fused, composed = FUSED[name]
    rng = np.random.default_rng(61)
    for zeta in (0.1, 1.0, 10.0):
        for t_max in (1e-3, 0.5, 2.0):
            for _ in range(5):
                arrays = fused_inputs(rng, name, zeta, t_max)
                probe = rng.standard_normal(fused(*arrays, zeta).shape)
                _, got = probed(fused, arrays, zeta, probe)
                _, want = probed(composed, arrays, zeta, probe)
                for a, b in zip(got, want):
                    assert a.grad.shape == b.grad.shape
                    top = np.max(np.abs(b.grad))
                    assert np.max(np.abs(a.grad - b.grad)) <= 1e-10 * top, (zeta, t_max)


@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_gradients_match_finite_differences(name):
    fused, _ = FUSED[name]
    rng = np.random.default_rng(62)
    for zeta in (0.3, 1.0, 2.5):
        arrays = away_from_zero_row(fused_inputs(rng, name, zeta, 1.5, n=4))
        probe = Tensor(rng.standard_normal(fused(*arrays, zeta).shape))
        for i in range(len(arrays)):
            def f(t, i=i):
                args = arrays[:i] + [t] + arrays[i + 1:]
                return ad.tsum(fused(*args, zeta) * probe)

            err = finite_diff_check(f, arrays[i])
            assert err < 1e-5, f"{name} input {i} at zeta={zeta}: rel err {err}"


@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_is_one_tape_node(name):
    fused, _ = FUSED[name]
    arrays = fused_inputs(np.random.default_rng(63), name, 1.0, 1.0)
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fused(*leaves, 1.0)
    assert len(out._parents) == len(leaves)
    assert all(p is leaf for p, leaf in zip(out._parents, leaves))


def pair_case(rng, zeta, n=7, n_pairs=12, dim=3):
    """Points and row pairs with repeats, both orders and coinciding ends."""
    x = M.to_hyperboloid(rng.standard_normal((n, dim)) * zeta, zeta)
    pairs = rng.integers(0, n, size=(n_pairs, 2))
    pairs[:3, 1] = pairs[:3, 0]  # coinciding ends: distance exactly 0
    pairs[3] = pairs[4]
    pairs[5] = pairs[6, ::-1]
    return x, pairs[:, 0], pairs[:, 1]


def test_dist_pairs_equals_distance_of_gathered_rows():
    """Values byte-equal to the array distance of the gathered rows; the
    gradient is that of the distance's composition of tape primitives."""
    rng = np.random.default_rng(64)
    for zeta in (0.1, 1.0, 10.0):
        x0, i, j = pair_case(rng, zeta)
        probe = Tensor(rng.standard_normal(len(i)))
        got_x, want_x = Tensor(x0, requires_grad=True), Tensor(x0, requires_grad=True)
        got = M.dist_pairs(got_x, i, j, zeta)
        assert got.data.tobytes() == M.hyp_distance(x0[i], x0[j], zeta).tobytes()
        want = geo.dist_composed(ad.gather_rows(want_x, i), ad.gather_rows(want_x, j), zeta)
        assert got._parents == (got_x,)
        backward(ad.tsum(got * probe))
        backward(ad.tsum(want * probe))
        assert np.max(np.abs(got_x.grad - want_x.grad)) <= 1e-13 * np.max(np.abs(want_x.grad))


@pytest.mark.parametrize("zeta", [0.1, 1.0, 10.0])
def test_dist_pairs_gradient_matches_finite_differences(zeta):
    rng = np.random.default_rng(65)
    x0, i, j = pair_case(rng, zeta)
    probe = Tensor(rng.standard_normal(len(i)))
    err = finite_diff_check(lambda t: ad.tsum(M.dist_pairs(t, i, j, zeta) * probe), x0,
                            h=1e-5 * zeta)
    assert err < 1e-5, err
