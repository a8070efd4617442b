"""Dense symmetric eigendecomposition with eigenvalue clustering, plus the
PSD/rank and pseudoinverse decisions built on top of it.

Multiplicity counting drives every dimension formula downstream, so eigenvalues
are clustered into groups under a relative tolerance; each group's basis is the
matching block of LAPACK's orthonormal eigenvector columns, and its spread
records how far the merged eigenvalues lie from the group value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Default relative tolerance for eigenvalue clustering and rank decisions.
EIG_TOL = 1e-9
#: Default relative residual tolerance for solves and eigenvector residuals.
RESIDUAL_TOL = 1e-8


class NotFiniteError(ValueError):
    """Matrix contains NaN or infinite entries."""


class NotInColumnSpaceError(ValueError):
    """Right-hand side is not in the column space of the matrix."""


@dataclass(frozen=True)
class SpectralGroup:
    value: float
    multiplicity: int
    basis: np.ndarray  # order x multiplicity, orthonormal columns
    #: Largest |eigenvalue - value| over the merged eigenvalues: the 2-norm
    #: residual of each basis column as an eigenvector for ``value``.
    spread: float


@dataclass(frozen=True)
class Spectrum:
    """Clustered spectral decomposition, groups in strictly decreasing order."""

    groups: tuple
    tol: float

    @property
    def order(self) -> int:
        return sum(grp.multiplicity for grp in self.groups)

    @property
    def min_value(self) -> float:
        return self.groups[-1].value

    @property
    def max_value(self) -> float:
        return self.groups[0].value

    def values(self) -> list:
        return [grp.value for grp in self.groups]

    def flat(self) -> np.ndarray:
        """All eigenvalues with multiplicity, descending."""
        return np.concatenate([[g.value] * g.multiplicity for g in self.groups])

    def reconstruct(self) -> np.ndarray:
        n = self.order
        out = np.zeros((n, n))
        for grp in self.groups:
            out += grp.value * (grp.basis @ grp.basis.T)
        return out


def eigh(m: np.ndarray, tol: float = EIG_TOL) -> Spectrum:
    """Clustered spectral decomposition of a symmetric matrix.

    Eigenvalues within ``tol * max(1, max|lambda|)`` of each other are merged
    into one group, whose value is their mean, whose basis is their
    eigenvector columns and whose spread is their largest distance from the
    mean.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NotFiniteError("matrix has non-finite entries")
    n = m.shape[0]
    if n == 0:
        return Spectrum((), tol)
    sym = 0.5 * (m + m.T)
    w, q = np.linalg.eigh(sym)
    w, q = w[::-1], q[:, ::-1]  # descending
    gap = tol * max(1.0, float(np.max(np.abs(w))))
    starts = np.r_[0, np.flatnonzero(w[:-1] - w[1:] > gap) + 1]
    ends = np.r_[starts[1:], n]
    means = np.add.reduceat(w, starts) / (ends - starts)
    spreads = np.maximum.reduceat(np.abs(w - np.repeat(means, ends - starts)), starts)
    return Spectrum(tuple(SpectralGroup(mean, hi - lo, q[:, lo:hi], spread)
                          for mean, lo, hi, spread in zip(means.tolist(), starts.tolist(),
                                                          ends.tolist(), spreads.tolist())), tol)


def psd_rank(m: np.ndarray, tol: float = EIG_TOL) -> Tuple[bool, int]:
    """PSD decision and numerical rank from the eigenvalues of m."""
    w = np.linalg.eigvalsh(0.5 * (np.asarray(m, dtype=float) + np.asarray(m, dtype=float).T))
    if w.size == 0:
        return True, 0
    scale = max(1.0, float(np.max(np.abs(w))))
    is_psd = bool(w.min() >= -tol * scale)
    rank = int(np.count_nonzero(w > tol * scale))
    return is_psd, rank


def pinv(m: np.ndarray, tol: float = EIG_TOL) -> np.ndarray:
    """Spectral Moore-Penrose pseudoinverse of a symmetric matrix."""
    m = 0.5 * (np.asarray(m, dtype=float) + np.asarray(m, dtype=float).T)
    w, q = np.linalg.eigh(m)
    scale = max(1.0, float(np.max(np.abs(w)))) if w.size else 1.0
    inv = np.where(np.abs(w) > tol * scale, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (q * inv) @ q.T


def solve_in_colspace(d: np.ndarray, b: np.ndarray, rtol: float = RESIDUAL_TOL) -> np.ndarray:
    """Solve d @ w = b for b in the column space of d, via the pseudoinverse."""
    d = np.asarray(d, dtype=float)
    b = np.asarray(b, dtype=float)
    w = pinv(d) @ b
    bnorm = np.linalg.norm(b)
    if np.linalg.norm(d @ w - b) > rtol * max(1.0, bnorm):
        raise NotInColumnSpaceError("right-hand side not in column space")
    return w
