"""Tape gradients of scalar functions and their central-difference check."""

import numpy as np

from curvgnn.autodiff import Tensor, backward


def grad_of(f, x: np.ndarray) -> np.ndarray:
    """Gradient of a scalar-valued tensor function at x via the tape."""
    leaf = Tensor(np.array(x, dtype=np.float64, copy=True), requires_grad=True)
    out = f(leaf)
    if out.data.size != 1:
        raise ValueError("grad_of expects a scalar-valued function")
    backward(out)
    return np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad


def finite_diff_check(f, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    The relative error denominator is max(|a|, |b|, 1e-8) elementwise.
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = grad_of(f, x)
    numeric = np.zeros_like(x)
    flat = numeric.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += h
        xm[i] -= h
        fp = float(f(Tensor(xp.reshape(x.shape))).data)
        fm = float(f(Tensor(xm.reshape(x.shape))).data)
        flat[i] = (fp - fm) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
