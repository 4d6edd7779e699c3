"""Tape engine tests: closed-form gradients, finite-difference oracle, Adam."""

import numpy as np
import pytest

from curvgnn import autodiff as ad
from curvgnn.autodiff import Adam, Tensor, backward

import geometry_oracle as geo
from grad_oracle import finite_diff_check, grad_of


def test_softmax_symmetry():
    assert geo.softmax(Tensor([0.0, 0.0])).data == pytest.approx([0.5, 0.5])


def test_acosh1p_derivative_closed_form():
    g = grad_of(lambda u: ad.tsum(geo.acosh1p(u)), np.array([1.0]))
    assert g[0] == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


def test_quadratic_gradient():
    g = grad_of(lambda x: ad.tsum(x * x), np.array([1.0, 2.0, 3.0]))
    assert g == pytest.approx([2.0, 4.0, 6.0])


def test_constant_loss_gives_zero_gradients():
    w = Tensor(np.ones(3), requires_grad=True)
    loss = Tensor(np.array(5.0))
    backward(loss)
    assert w.grad is None  # untouched leaves stay at zero contribution


def test_linear_loss_gradient_structure():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    loss = ad.tsum(ad.matmul(Tensor(x[None, :]), W))
    backward(loss)
    # d/dW sum(x W) = x broadcast over output columns
    assert W.grad == pytest.approx(np.repeat(x[:, None], 3, axis=1))


def test_backward_rejects_nonscalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(t * 2.0)


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = ad.tsum(x * 2.0) + ad.tsum(x * x)
    backward(loss)
    assert x.grad == pytest.approx([2.0 + 2.0 * 3.0])


def test_backward_consumes_the_tape():
    """After backward an interior node's value is gone; the loss keeps its
    value, leaves keep theirs and their grads, and every node its parents."""
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([3.0, 4.0]))
    y = x * c
    z = ad.sigmoid(y)
    loss = ad.tsum(z)
    value = float(loss.data)
    backward(loss)
    for node in (y, z):
        with pytest.raises(AttributeError):
            node.data
        assert node._parents and "consumed" in repr(node)
    assert float(loss.data) == value
    assert np.array_equal(x.data, [1.0, 2.0]) and np.array_equal(c.data, [3.0, 4.0])
    s = 1.0 / (1.0 + np.exp(-np.array([3.0, 8.0])))
    assert x.grad == pytest.approx(s * (1.0 - s) * [3.0, 4.0], rel=1e-14)
    assert y._parents == (x, c) and z._parents == (y,)


def test_second_backward_over_a_consumed_tape_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = x * x
    loss = ad.tsum(y)
    backward(loss)
    grad = x.grad.copy()
    with pytest.raises(RuntimeError):
        backward(loss)
    with pytest.raises(RuntimeError):  # a new loss over the consumed one
        backward(loss * 2.0)
    assert np.array_equal(x.grad, grad)  # the refused calls added nothing


def test_no_tape_records_nothing_and_computes_the_same_values():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    W = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    taped = ad.softplus(ad.matmul(x, W))
    with ad.no_tape():
        plain = ad.softplus(ad.matmul(x, W))
    assert np.array_equal(plain.data, taped.data)
    assert plain._parents == () and not plain.requires_grad and plain._vjp is None
    with pytest.raises(KeyError), ad.no_tape():  # the block closes on an error too
        raise KeyError
    assert ad.matmul(x, W)._parents == (x, W)


def test_forward_values_independent_of_grad_tracking():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((4, 4))

    def pipeline(t):
        return geo.softmax(ad.matmul(ad.relu(t), ad.sigmoid(t)), axis=-1)

    plain = pipeline(Tensor(data)).data
    tracked = pipeline(Tensor(data, requires_grad=True)).data
    assert np.array_equal(plain, tracked)


# ---------------------------------------------------------------------------
# finite-difference checks for every primitive
# ---------------------------------------------------------------------------

def _scalarize(fn):
    return lambda t: ad.tsum(fn(t))


RNG = np.random.default_rng(42)
X_POS = np.abs(RNG.standard_normal((3, 4))) + 0.5
X_ANY = RNG.standard_normal((3, 4))
X_ACOSH = RNG.uniform(0.5, 3.0, (3, 4))
OTHER = RNG.standard_normal((3, 4))
MAT = RNG.standard_normal((4, 5))
IDX = np.array([0, 2, 1, 2])
SEG_PTR = np.array([0, 2, 3])  # two segments over 3 rows

PRIMITIVE_CASES = [
    ("add", lambda t: t + Tensor(OTHER), X_ANY),
    ("sub", lambda t: t - Tensor(OTHER), X_ANY),
    ("mul", lambda t: t * Tensor(OTHER), X_ANY),
    ("div", lambda t: t / Tensor(np.abs(OTHER) + 1.0), X_ANY),
    ("neg", lambda t: -t, X_ANY),
    ("scale", lambda t: ad.scale(t, 2.5), X_ANY),
    ("matmul", lambda t: ad.matmul(t, Tensor(MAT)), X_ANY),
    ("sqrt", geo.sqrt, X_POS),
    ("exp", geo.exp, X_ANY),
    ("log", geo.log, X_POS),
    ("cosh", geo.cosh, X_ANY),
    ("sinh", geo.sinh, X_ANY),
    ("acosh1p", geo.acosh1p, X_ACOSH),
    ("sigmoid", ad.sigmoid, X_ANY),
    ("softplus", ad.softplus, X_ANY),
    ("relu", ad.relu, X_ANY + 0.1),  # keep away from the kink
    ("clamp_min", lambda t: geo.clamp_min(t, -0.5), X_ANY + 2.0),
    ("concat", lambda t: geo.concat([t, t * 2.0], axis=-1), X_ANY),
    ("sum_last", geo.sum_last, X_ANY),
    ("sum_axis", lambda t: ad.tsum(t, axis=0), X_ANY),
    ("mean_axis", lambda t: ad.tmean(t, axis=1), X_ANY),
    # plain sum of a softmax is constant; weight it to get a live gradient
    ("softmax", lambda t: geo.softmax(t, axis=-1) * Tensor(OTHER), X_ANY),
    ("logsumexp", ad.logsumexp, X_ANY),
    ("gather_rows", lambda t: ad.gather_rows(t, IDX), X_ANY),
    ("segment_sum", lambda t: geo.segment_sum(t, SEG_PTR), X_ANY[:3]),
    ("lorentz_inner", lambda t: geo.lorentz_inner(t, Tensor(OTHER)), X_ANY),
    ("lorentz_inner_self", lambda t: geo.lorentz_inner(t, t), X_ANY),
    ("spatial", geo.spatial, X_ANY),
    ("first_col", geo.first_col, X_ANY),
    ("pad_zero_column", geo.pad_zero_column, X_ANY),
]


@pytest.mark.parametrize("name,fn,x", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_vjp_matches_finite_differences(name, fn, x):
    err = finite_diff_check(_scalarize(fn), x)
    assert err < 1e-4, f"{name}: rel err {err}"


def test_finite_diff_check_quadratic_is_exact():
    err = finite_diff_check(lambda t: ad.tsum(t * t), np.array([1.0, -2.0, 0.5]))
    assert err < 1e-9


def test_finite_diff_through_hyperbolic_distance():
    from curvgnn import manifold

    base = np.array([[0.4, -0.2, 0.7]])

    def f(t):
        h = manifold.exp_origin(t, 1.0)
        o = manifold.exp_origin(Tensor(np.zeros((1, 3))), 1.0)
        return ad.tsum(geo.dist_composed(o, h, 1.0))

    assert finite_diff_check(f, base) < 1e-4


def test_clamped_acosh1p_near_boundary_stays_finite():
    x = np.array([1e-9, -1e-9, 0.0])  # straddles the clamp
    err = finite_diff_check(_scalarize(geo.acosh1p), x, h=1e-6)
    assert np.isfinite(err)
    g = grad_of(_scalarize(geo.acosh1p), x)
    assert np.all(np.isfinite(g))


def test_dropout_semantics():
    rng = np.random.default_rng(0)
    t = Tensor(np.ones((100, 10)))
    out = ad.dropout(t, 0.5, rng)
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 2.0)  # inverted scaling
    assert ad.dropout(t, 0.0, rng) is t


def test_dropout_is_one_node_with_a_boolean_mask():
    """Dropout is one node with parent a; its closure keeps a boolean keep
    mask, and its value and gradient are the bytes of a times the float
    mask Tensor of the same draw."""
    x = np.random.default_rng(1).standard_normal((30, 7))
    a = Tensor(x, requires_grad=True)
    out = ad.dropout(a, 0.3, np.random.default_rng(2))
    assert out._parents == (a,)
    held = [c.cell_contents for c in out._vjp.__closure__]
    masks = [v for v in held if isinstance(v, np.ndarray)]
    assert len(masks) == 1 and masks[0].dtype == bool and masks[0].shape == x.shape
    assert not [v for v in held if isinstance(v, Tensor)]
    b = Tensor(x, requires_grad=True)
    want = b * Tensor((np.random.default_rng(2).random(x.shape) >= 0.3) / (1.0 - 0.3))
    assert out.data.tobytes() == want.data.tobytes()
    w = np.random.default_rng(3).standard_normal(x.shape)
    backward(ad.tsum(out * Tensor(w)))
    backward(ad.tsum(want * Tensor(w)))
    assert a.grad.tobytes() == b.grad.tobytes()


def gather_vjp_reference(shape, idx, g):
    ga = np.zeros(shape)
    np.add.at(ga, idx, g)
    return ga


@pytest.mark.parametrize("shape", [(7,), (7, 3), (5, 2, 4), (1, 3), (6, 0)])
def test_gather_rows_vjp_bit_equal_to_add_at(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    x = rng.standard_normal(shape)
    n = shape[0]
    cases = [
        np.empty(0, dtype=np.int64),
        np.arange(n),
        np.arange(-n, 0),  # negative rows wrap as in x[idx]
        rng.integers(-n, n, size=40),
        np.full(300, n - 1),  # long runs: the order of additions shows
        rng.integers(0, n, size=(4, 6)),  # 2-d index array
    ]
    for idx in cases:
        t = Tensor(x, requires_grad=True)
        out = ad.gather_rows(t, idx)
        # magnitudes over 10 decades so a reordered sum rounds differently
        w = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-5, 5, size=out.shape)
        backward(ad.tsum(out * Tensor(w)))
        want = gather_vjp_reference(shape, idx, w)
        assert t.grad.dtype == want.dtype and t.grad.shape == want.shape
        assert t.grad.tobytes() == want.tobytes()


def test_segment_sum_shape_errors():
    with pytest.raises(ValueError):
        geo.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1, 1, 3]))
    with pytest.raises(ValueError):
        geo.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 2]))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic():
    w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([w], lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        loss = ad.tsum(w * w)
        backward(loss)
        opt.step()
    assert np.max(np.abs(w.data)) < 1e-2


def test_adam_weight_decay_shrinks_unused_weights():
    w = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([w], lr=0.01, weight_decay=0.1)
    for _ in range(50):
        opt.zero_grad()
        opt.step()
    assert abs(w.data[0]) < 1.0
