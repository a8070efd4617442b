"""Orthonormal basis of the all-ones complement and matrix projection onto it.

Any orthonormal basis V of the hyperplane orthogonal to the all-ones vector
gives the same projected spectra; the one used here is a first row of
-1/sqrt(n) over an identity-plus-constant block, built in closed form.

That V is a row selection plus a rank-one term, V = E + u 1.T with E = [0; I]
and u = [y; x 1], so products with it take O(n^2) work instead of a dense
O(n^3) product. Every function here accepts a stack of matrices or vectors
along leading axes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np


class VBasis(NamedTuple):
    """n x (n-1) matrix V with orthonormal columns spanning the complement of e,
    held as its rank-one part ``u`` only: ``V = [0; I] + u 1.T``.
    """

    n: int
    u: np.ndarray


@lru_cache(maxsize=128)
def build_v(n: int) -> VBasis:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector.

    Cached per n; the returned ``u`` is marked read-only.
    """
    if n < 2:
        raise ValueError(f"basis requires n >= 2, got {n}")
    y = -1.0 / np.sqrt(n)
    x = -1.0 / (n + np.sqrt(n))
    u = np.r_[y, np.full(n - 1, x)]
    u.flags.writeable = False
    return VBasis(n, u)


def _check_shape(m: np.ndarray, v: VBasis) -> None:
    if m.shape[-2:] != (v.n, v.n):
        raise ValueError(f"order mismatch: matrix {m.shape}, basis n={v.n}")


def lift(x: np.ndarray, v: VBasis) -> np.ndarray:
    """V @ x for x of shape (..., n-1, r): rows [y 1.T x; x + x_const 1 (1.T x)]."""
    colsum = x.sum(axis=-2, keepdims=True)
    return np.concatenate([v.u[0] * colsum, x + v.u[1] * colsum], axis=-2)


def lift_extremes(x: np.ndarray, v: VBasis) -> tuple:
    """(max, min) over the rows of V @ x for x of shape (..., n-1, r), read
    off the column max, min and sum of x without forming V @ x."""
    colsum = x.sum(axis=-2)
    first, shift = v.u[0] * colsum, v.u[1] * colsum
    return np.maximum(x.max(axis=-2) + shift, first), np.minimum(x.min(axis=-2) + shift, first)


def restrict(y: np.ndarray, v: VBasis) -> np.ndarray:
    """V.T @ y for a vector stack y of shape (..., n): y[1:] + (u . y)."""
    return y[..., 1:] + (y @ v.u)[..., None]


def project_adjacency(a: np.ndarray, v: VBasis) -> np.ndarray:
    """V.T @ a @ V for a symmetric matrix (stack) a.

    With s = (a u)[1:] and c = u.T a u this is a[1:, 1:] + s 1.T + 1 s.T + c J,
    exactly symmetric.
    """
    a = np.asarray(a, dtype=float)
    _check_shape(a, v)
    au = a @ v.u
    s = au[..., 1:]
    c = au @ v.u
    out = s[..., :, None] + s[..., None, :]  # the one n x n temporary, added into in place
    out += a[..., 1:, 1:]
    out += c[..., None, None]
    return out

