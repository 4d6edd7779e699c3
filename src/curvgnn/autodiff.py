"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array; primitives record their inputs and a
vector-Jacobian closure on the output node, forming an implicit tape
(a DAG, topologically ordered by construction). ``backward`` walks the
tape in reverse, accumulates gradients on every node that requires them
and consumes the tape as it goes: once a node's VJP has run, its closure
and its value are dropped, so a step holds only what the rest of its
backward still reads. Nothing is recorded when no input requires a
gradient, or inside a ``no_tape()`` block, so forward-only evaluation
has no tape overhead and produces identical values.

The module knows no geometry. Other modules (``manifold``, ``layers``)
add their own one-node ops with closed-form VJPs through ``_make``. An
``EdgePlan`` is the row reduction their per-edge forwards and VJPs share:
built once per message graph, its ``sum_by_dst`` sums edge rows into
their dst rows, and a sum by src is ``sum_by_dst(values[plan.rev])``.
``scatter_rows`` is the adjoint of ``gather_rows``, whose index changes
on every call.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

# False inside a no_tape() block; a context variable, so one thread's block
# leaves another thread's tape alone
_recording = ContextVar("curvgnn_autodiff_recording", default=True)


class Tensor:
    """A float64 array plus the autodiff bookkeeping for one tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        shape = self.data.shape if hasattr(self, "data") else "consumed by backward"
        return f"Tensor(shape={shape}, requires_grad={self.requires_grad})"

    # operator sugar; all route through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextmanager
def no_tape():
    """Record no tape inside the block: every op returns a constant Tensor
    with the value it computes on the tape, so an eval forward holds no
    VJP closures and the arrays they capture."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data, parents: tuple, vjp) -> Tensor:
    """Wrap a primitive's output; parents are Tensors, and the output joins the
    tape only when one of them requires a gradient and no ``no_tape`` block
    is open."""
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Reverse accumulation from a scalar loss; grads land on .grad fields.

    Consumes the tape: after a node's VJP has run, its closure and its
    value are deleted, because every node that reads them comes later on
    the tape and has already run. The loss keeps its value, and leaves
    (nodes without parents) keep their values and grads; every node keeps
    its parents, so the tape's shape can still be walked. A second
    ``backward`` over a consumed node raises RuntimeError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents and node._vjp is None:
            raise RuntimeError("backward over a tape that a backward has consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if not node._parents:
            if g is not None and node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        vjp, node._vjp = node._vjp, None
        if node is not loss:
            del node.data
        if g is None:
            continue
        parent_grads = vjp(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            cur = grads.get(id(p))
            grads[id(p)] = pg if cur is None else cur + pg


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _make(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    a = as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), vjp)


def softplus(a) -> Tensor:
    """log(1 + exp(x)) in the overflow-safe form max(x,0) + log1p(exp(-|x|))."""
    a = as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def vjp(g):
        return (g * _sigmoid(x),)

    return _make(out, (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    return _make(out, (a,), lambda g: (g * (a.data > 0.0),))


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(out, (a,), vjp)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def logsumexp(a) -> Tensor:
    """log(sum(exp(a))) over the last axis."""
    a = as_tensor(a)
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out = (m + np.log(s))[..., 0]

    def vjp(g):
        return (g[..., None] * (e / s),)

    return _make(out, (a,), vjp)


def gather_rows(a, idx: np.ndarray) -> Tensor:
    """Select rows a[idx] along axis 0 (repeats allowed, negative rows wrap)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take(a.data, idx, axis=0)
    return _make(out, (a,), lambda g: (scatter_rows(g, idx, a.data.shape[0]),))


def scatter_rows(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the rows of g into n_rows rows at idx: the adjoint of a[idx].

    One bincount over the wrapped rows per column of g; like np.add.at it
    adds in index order starting from zero, so the sums are bit-identical.
    The modulo wraps negative rows as a[idx] does. An empty index or a
    zero-width row sums to zeros.
    """
    shape = (n_rows,) + g.shape[idx.ndim:]
    rows = idx.ravel() % max(n_rows, 1)
    width = int(np.prod(shape[1:], dtype=np.int64))
    out = np.zeros((n_rows, width))
    if rows.size and width:
        cols = g.reshape(rows.size, width)
        for col in range(width):
            out[:, col] = np.bincount(rows, weights=cols[:, col], minlength=n_rows)
    return out.reshape(shape)


class EdgePlan(NamedTuple):
    """The edges of one message graph, grouped by dst, and how to sum over them.

    Node i's segment is the next ``counts[i]`` edges, all with dst i, and
    may be empty (a node without edges); ``rev[e]`` is the index of the
    reverse edge of e. ``slots`` keeps the flat (dst, column) index of
    each row width that ``sum_by_dst`` has seen. Build it with
    ``edge_plan``.
    """

    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray
    rev: np.ndarray
    slots: dict

    def sum_by_dst(self, values: np.ndarray) -> np.ndarray:
        """Sum the (E, width) rows of values into (n, width) rows by dst.

        One bincount over flat (dst, column) slots that adds in edge order
        from zero, so the sums are bit-identical to
        ``scatter_rows(values, dst, n)``.
        """
        n, width = len(self.counts), values.shape[1]
        flat = self.dst if width == 1 else self.slots.get(width)
        if flat is None:
            flat = self.slots[width] = (self.dst[:, None] * width + np.arange(width)).ravel()
        out = np.bincount(flat, weights=values.ravel(), minlength=n * width)
        return out.astype(np.float64, copy=False).reshape(n, width)  # int if empty


def edge_plan(src: np.ndarray, indptr: np.ndarray) -> EdgePlan:
    """The plan of the edges src -> dst whose dst is i in segment
    ``indptr[i]:indptr[i+1]``.

    The edges must be in strictly increasing (dst, src) order, and every
    edge must have its reverse among them; each reverse is found by one
    searchsorted over the sorted keys. Raises ValueError otherwise, or
    when the segments do not cover the edges in order.
    """
    counts = np.diff(indptr)
    if np.any(counts < 0) or indptr[0] != 0 or indptr[-1] != len(src):
        raise ValueError("segments must cover every edge in order")
    n = len(counts)
    dst = np.repeat(np.arange(n), counts)
    keys = dst * n + src
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("edges must be in increasing (dst, src) order")
    rev_keys = src * n + dst
    rev = np.minimum(np.searchsorted(keys, rev_keys), len(keys) - 1)
    if np.any(keys[rev] != rev_keys):
        raise ValueError("every edge needs its reverse edge")
    return EdgePlan(src, dst, counts, rev, {})


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0.

    One tape node with parent a: it keeps the boolean keep mask of its one
    uniform draw, and its VJP rebuilds the scaled mask keep / (1 - p) that
    the forward multiplies by.
    """
    a = as_tensor(a)
    if p <= 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    out = a.data * (keep / (1.0 - p))
    return _make(out, (a,), lambda g: (g * (keep / (1.0 - p)),))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam over Euclidean parameter tensors, with optional L2 weight decay."""

    def __init__(self, params, lr: float = 3e-4, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            p.data -= self.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + ADAM_EPS)
