"""Orthonormal basis of the all-ones complement and matrix projection onto it.

Any orthonormal basis V of the hyperplane orthogonal to the all-ones vector
gives the same projected spectra; the one used here is a first row of
-1/sqrt(n) over an identity-plus-constant block, built in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class VBasis:
    """n x (n-1) matrix with orthonormal columns spanning the complement of e."""

    n: int
    columns: np.ndarray


@lru_cache(maxsize=128)
def build_v(n: int) -> VBasis:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones vector.

    Cached per n; the returned columns are marked read-only.
    """
    if n < 2:
        raise ValueError(f"basis requires n >= 2, got {n}")
    y = -1.0 / np.sqrt(n)
    x = -1.0 / (n + np.sqrt(n))
    columns = np.vstack([np.full((1, n - 1), y), np.eye(n - 1) + x * np.ones((n - 1, n - 1))])
    columns.flags.writeable = False
    return VBasis(n, columns)


def projected_gram(d: np.ndarray, v: VBasis) -> np.ndarray:
    """Projected Gram matrix -1/2 V.T @ d @ V of a zero-diagonal matrix d."""
    d = np.asarray(d, dtype=float)
    if d.shape != (v.n, v.n):
        raise ValueError(f"order mismatch: matrix {d.shape}, basis n={v.n}")
    if np.max(np.abs(np.diag(d))) > 0:
        raise ValueError("matrix has nonzero diagonal")
    x = -0.5 * (v.columns.T @ d @ v.columns)
    return 0.5 * (x + x.T)


def project_adjacency(a: np.ndarray, v: VBasis) -> np.ndarray:
    """V.T @ a @ V for an adjacency matrix a."""
    a = np.asarray(a, dtype=float)
    if a.shape != (v.n, v.n):
        raise ValueError(f"order mismatch: matrix {a.shape}, basis n={v.n}")
    m = v.columns.T @ a @ v.columns
    return 0.5 * (m + m.T)
