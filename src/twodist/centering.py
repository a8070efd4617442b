"""Products with an orthonormal basis V of the all-ones complement.

Any orthonormal basis V of the hyperplane orthogonal to the all-ones vector
gives the same projected spectra; the one used here is a first row of
-1/sqrt(n) over an identity-plus-constant block: V = [0; I] + u 1.T with
u = [y; x 1], y = -1/sqrt(n) and x = -1/(n + sqrt(n)). Its three products,
V z (``lift``), V.T v (``restrict``) and V.T A V (``project_adjacency``), take
O(n^2) work instead of a dense O(n^3) product, read n off their input's
shape and accept a stack along leading axes. Each u-product is a closed form
in y, x and row sums, so a row of a stack rounds exactly as it does alone,
which a BLAS matrix-vector product on the stack does not promise.
"""

from __future__ import annotations

import math

import numpy as np


def _yx(n: int) -> tuple:
    """(y, x) of the order-n basis."""
    if n < 2:
        raise ValueError(f"basis requires n >= 2, got {n}")
    r = math.sqrt(n)
    return -1.0 / r, -1.0 / (n + r)


def lift(z: np.ndarray) -> np.ndarray:
    """V @ z for z of shape (..., n-1, r): rows [y 1.T z; z + x 1 (1.T z)]."""
    y, x = _yx(z.shape[-2] + 1)
    colsum = z.sum(axis=-2, keepdims=True)
    return np.concatenate([y * colsum, z + x * colsum], axis=-2)


def restrict(v: np.ndarray) -> np.ndarray:
    """V.T @ v for a vector stack v of shape (..., n): v[1:] + u.v, with
    u.v = y v_0 + x (sum v - v_0)."""
    y, x = _yx(v.shape[-1])
    v0 = v[..., :1]
    return v[..., 1:] + (y * v0 + x * (v.sum(axis=-1, keepdims=True) - v0))


def project_adjacency(a: np.ndarray) -> np.ndarray:
    """V.T @ a @ V for a hollow symmetric matrix (stack) a.

    With s = (a u)[1:] and c = u.T a u this is a[1:, 1:] + s 1.T + 1 s.T + c J,
    exactly symmetric. For the row sums d and the first column a_0 of a,
    a u = y a_0 + x (d - a_0) and c = 2 x y d_0 + x^2 (sum d - 2 d_0).
    """
    a = np.asarray(a, dtype=float)
    y, x = _yx(a.shape[-1])
    deg = a.sum(axis=-1)
    a0, d0 = a[..., 1:, 0], deg[..., :1]
    s = a0 * y + x * (deg[..., 1:] - a0)
    c = 2.0 * x * y * d0 + x * x * (deg.sum(axis=-1, keepdims=True) - 2.0 * d0)
    out = s[..., :, None] + s[..., None, :]  # the one n x n temporary, added into in place
    out += a[..., 1:, 1:]
    out += c[..., None]
    return out
