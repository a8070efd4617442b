"""Dense symmetric eigendecomposition with eigenvalue clustering, the zero
threshold of every PSD, rank and pseudoinverse decision, and the top
eigenvalue of an arrowhead matrix.

Multiplicity counting drives every dimension formula downstream, so eigenvalues
are clustered into groups under a relative tolerance; each group's basis is the
matching block of LAPACK's orthonormal eigenvector columns, and its spread
records how far the merged eigenvalues lie from the group value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

#: Relative zero threshold of ``sign_masks``, clustering tolerance of ``eigh``
#: and default clustering tolerance of the analysis (``analyze --tol-eig``).
EIG_TOL = 1e-9
#: Relative residual bound of ``in_colspace``; times sqrt(n), the largest
#: spread of a trusted eigenvalue group and sphericity residual of an endpoint.
RESIDUAL_TOL = 1e-8
#: Relative rounding level: a quantity within ROUNDING times the largest
#: |entry| it was computed from is rounding residue of zero.
ROUNDING = 8.0 * np.finfo(float).eps
# 0-d arrays: numpy combines them with an array faster than Python floats
_ONE = np.array(1.0)
_ULP2 = np.array(2.0 * np.finfo(float).eps)  # two units in the last place, relative


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

    @property
    def max_value(self) -> float:
        return self.groups[0].value


def cluster_gap(w: np.ndarray, tol: float) -> np.ndarray:
    """Largest gap between neighbouring eigenvalues of one group, per sorted
    spectrum along the last axis: ``tol * max(1, max|lambda|)``."""
    ends = w[..., ::max(w.shape[-1] - 1, 1)]  # the first and last eigenvalue
    return tol * np.abs(ends).max(axis=-1, initial=1.0)


class ExtremeGroups(NamedTuple):
    """The bottom and top groups of a stack of ascending spectra (..., m)
    under the clustering rule of ``eigh``. Each field is a (2, ...) array,
    the bottom group first: masks over the eigenvalue axis, multiplicities,
    group means and spreads."""

    masks: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    spreads: np.ndarray


def extreme_groups(w: np.ndarray, tol: float) -> ExtremeGroups:
    """ExtremeGroups of ascending spectra w of shape (..., m), m >= 1."""
    m = w.shape[-1]
    idx = np.arange(m)
    # brk[..., j] = j + 1 where w[j + 1] - w[j] exceeds the gap, else 0
    brk = (w[..., 1:] - w[..., :-1] > cluster_gap(w, tol)[..., None]) * idx[1:]
    masks = np.empty((2,) + w.shape, dtype=bool)
    # (the ufuncs' own reductions: the ndarray methods wrap them in Python)
    np.less(idx, np.minimum.reduce(np.where(brk, brk, m), axis=-1, initial=m)[..., None],
            out=masks[0])
    np.greater_equal(idx, np.maximum.reduce(brk, axis=-1, initial=0)[..., None], out=masks[1])
    counts = np.add.reduce(masks, axis=-1)
    means = np.add.reduce(w * masks, axis=-1) / counts
    spreads = np.maximum.reduce(np.abs(w - means[..., None]) * masks, axis=-1)
    return ExtremeGroups(masks, counts, means, spreads)


#: Newton steps ``arrowhead_top`` takes on one row before it gives the row up.
NEWTON_CAP = 50


def arrowhead_top(corner: np.ndarray, z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each arrowhead matrix [[corner, z.T], [z, diag(d)]]
    for stacks corner (k,), z and d (k, m), or NaN where Newton gave up.

    A direction j whose |z_j| is at rounding level (ROUNDING times the largest
    |diagonal entry|) is decoupled: d_j is an eigenvalue exactly. On the
    coupled ones, lambda_max is the root of f(x) = corner - x + sum_j z_j^2/(x - d_j)
    above every pole, where f is convex and decreasing. Newton starts at the
    top eigenvalue of a 2x2 principal submatrix [[corner, z_j], [z_j, d_j]],
    a lower bound by interlacing that lies above every coupled pole, so its
    iterates rise monotonically to the root. A row stops at rounding level:
    when its step is within 2 ulp of |x| + |corner| (the size of f's terms at
    the root) or, after the first step, no longer rises. A row whose step is
    not finite, or that is still moving after NEWTON_CAP steps, is NaN.
    """
    scale = np.fmax(np.abs(corner), np.maximum.reduce(np.abs(d), axis=-1, initial=0.0))
    coupled = np.abs(z) > ROUNDING * scale[:, None]
    z2 = np.where(coupled, z * z, 0.0)
    poles = np.where(coupled, d, -np.inf)  # a decoupled term is 0/inf
    c = corner[:, None]  # x, c and size are (rows, 1) columns
    half = 0.5 * (c - d)
    x = c + np.maximum.reduce(np.where(coupled, np.sqrt(half * half + z2) - half, 0.0),
                              axis=-1, keepdims=True, initial=0.0)
    top = np.full_like(corner, np.nan)
    rows, size = None, np.abs(c)  # rows: the stack rows still iterated, None for all
    r = np.empty((2,) + z2.shape)  # z_j^2/(x - d_j) and z_j^2/(x - d_j)^2
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(NEWTON_CAP):
            gap = x - poles
            np.divide(z2, gap, out=r[0])
            np.divide(r[0], gap, out=r[1])
            f, slope = np.add.reduce(r, axis=-1, keepdims=True)
            step = (c - x + f) / (_ONE + slope)
            x = x + step
            rise = step if it else np.abs(step)
            ulp2 = _ULP2 * (np.abs(x) + size)
            going = rise > ulp2  # False for a NaN step
            if np.count_nonzero(going) == going.size:
                continue
            settled = (rise <= ulp2)[:, 0]
            top[settled if rows is None else rows[settled]] = x[settled, 0]
            if not np.count_nonzero(going):
                break
            going = going[:, 0]
            rows = np.flatnonzero(going) if rows is None else rows[going]
            x, c, size, z2, poles = (a[going] for a in (x, c, size, z2, poles))
            r = r[:, going]
    if np.count_nonzero(coupled) == coupled.size:
        return top
    # a decoupled d_j is an eigenvalue exactly; NaN stays NaN
    return np.maximum(top, np.where(coupled, -np.inf, d).max(axis=-1, initial=-np.inf))


def eigh(m: np.ndarray) -> Spectrum:
    """Clustered spectral decomposition of a symmetric matrix.

    Eigenvalues within ``EIG_TOL * max(1, max|lambda|)`` of each other are
    merged into one group, whose value is their mean, whose basis is their
    eigenvector columns and whose spread is their largest distance from the
    mean.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NotFiniteError("matrix has non-finite entries")
    n = m.shape[0]
    if n == 0:
        return Spectrum(())
    sym = 0.5 * (m + m.T)
    w, q = np.linalg.eigh(sym)
    w, q = w[::-1], q[:, ::-1]  # descending
    gap = cluster_gap(w, EIG_TOL)
    starts = np.r_[0, np.flatnonzero(w[:-1] - w[1:] > gap) + 1]
    ends = np.r_[starts[1:], n]
    means = np.add.reduceat(w, starts) / (ends - starts)
    spreads = np.maximum.reduceat(np.abs(w - np.repeat(means, ends - starts)), starts)
    return Spectrum(tuple(SpectralGroup(mean, hi - lo, q[:, lo:hi], spread)
                          for mean, lo, hi, spread in zip(means.tolist(), starts.tolist(),
                                                          ends.tolist(), spreads.tolist())))


def sign_masks(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(negative, positive) masks of eigenvalues w (..., m): those beyond
    ``EIG_TOL * max(1, max|lambda|)`` from 0, the zero threshold of every PSD,
    rank and pseudoinverse decision; the rest count as zero."""
    cut = EIG_TOL * np.maximum(1.0, np.abs(w).max(axis=-1, keepdims=True, initial=0.0))
    return w < -cut, w > cut


def pinv(m: np.ndarray) -> np.ndarray:
    """Spectral Moore-Penrose pseudoinverse of a symmetric matrix, or of each
    matrix in a stack (..., n, n)."""
    m = np.asarray(m, dtype=float)
    w, q = np.linalg.eigh(0.5 * (m + m.swapaxes(-1, -2)))
    neg, pos = sign_masks(w)
    nonzero = neg | pos
    inv = np.where(nonzero, 1.0 / np.where(nonzero, w, 1.0), 0.0)
    return (q * inv[..., None, :]) @ q.swapaxes(-1, -2)


def in_colspace(d: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Whether d @ w = b within ``RESIDUAL_TOL * max(1, |b|)``, per system of
    a stack (..., n, n), (..., n): for w = pinv(d) @ b, whether b lies in the
    column space of d."""
    miss = np.linalg.norm(np.einsum("...ij,...j->...i", d, w) - b, axis=-1)
    return miss <= RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(b, axis=-1))
