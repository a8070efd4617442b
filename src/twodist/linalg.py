"""Eigenvalue clustering, the zero threshold of every PSD, rank and
pseudoinverse decision, and the top eigenvalue of an arrowhead matrix.

Multiplicity counting drives every dimension formula downstream, so the
extreme eigenvalues of each spectrum are clustered into groups under a
relative tolerance (``extreme_groups``); each group's spread records how far
the merged eigenvalues lie from the group mean.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

#: Relative zero threshold of ``sign_masks`` and default clustering tolerance
#: of the analysis (``analyze --tol-eig``).
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


def reduce_last(ufunc, a: np.ndarray, initial=None, keepdims: bool = False,
                dtype=None) -> np.ndarray:
    """ufunc.reduce(a, axis=-1) for a reduction whose result does not depend
    on the order: maximum, minimum, logical and/or, and sums of integers.

    NumPy reduces the rows of a C-ordered stack one at a time, about ten times
    slower than a whole-stack operation when they are short, so a stack with
    more rows than entries per row is reduced from a Fortran-ordered copy.
    """
    if a.shape[-1] ** 2 < a.size:
        a = np.asfortranarray(a)
    if initial is None:
        return ufunc.reduce(a, -1, dtype, None, keepdims)
    return ufunc.reduce(a, -1, dtype, None, keepdims, initial)


def cluster_gap(w: np.ndarray, tol: float) -> np.ndarray:
    """Largest gap between neighbouring eigenvalues of one group, per sorted
    spectrum along the last axis: ``tol * max(1, max|lambda|)``."""
    ends = w[..., ::max(w.shape[-1] - 1, 1)]  # the first and last eigenvalue
    with np.errstate(over="ignore"):  # a huge tol gives an infinite gap: one group
        return tol * reduce_last(np.maximum, np.abs(ends), initial=1.0)


class ExtremeGroups(NamedTuple):
    """The bottom and top groups of a stack of ascending spectra (..., m):
    neighbouring eigenvalues at most ``cluster_gap`` apart share a group, whose
    value is their mean and whose spread is their largest distance from it.
    Each field is a (2, ...) array, the bottom group first: masks over the
    eigenvalue axis, multiplicities, group means and spreads."""

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
    # the bottom group ends at the first break, the top group starts at the last
    lo = reduce_last(np.minimum, np.where(brk, brk, m), initial=m)
    hi = reduce_last(np.maximum, brk, initial=0)
    masks = np.empty((2,) + w.shape, dtype=bool)
    np.less(idx, lo[..., None], out=masks[0])
    np.greater_equal(idx, hi[..., None], out=masks[1])
    counts = np.array([lo, m - hi])
    means = np.add.reduce(w * masks, axis=-1) / counts
    spreads = reduce_last(np.maximum, np.abs(w - means[..., None]) * masks)
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
    scale = np.fmax(np.abs(corner), reduce_last(np.maximum, np.abs(d), initial=0.0))
    coupled = np.abs(z) > ROUNDING * scale[:, None]
    every = np.count_nonzero(coupled) == coupled.size
    z2, poles = z * z, d
    if not every:  # a decoupled term is 0/inf
        z2, poles = np.where(coupled, z2, 0.0), np.where(coupled, d, -np.inf)
    c = corner[:, None]  # x, c and size are (rows, 1) columns
    half = 0.5 * (c - d)
    above = np.sqrt(half * half + z2) - half  # each 2x2 block's top eigenvalue, less c
    x = c + reduce_last(np.maximum, above if every else np.where(coupled, above, 0.0),
                        keepdims=True, initial=0.0)
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
            # the rows still going by index: take is much faster than a boolean mask
            keep = np.flatnonzero(going)
            rows = keep if rows is None else rows.take(keep)
            x, c, size, z2, poles = (a.take(keep, axis=0) for a in (x, c, size, z2, poles))
            r = np.empty((2,) + z2.shape)
    if every:
        return top
    # a decoupled d_j is an eigenvalue exactly; NaN stays NaN
    return np.maximum(top, reduce_last(np.maximum, np.where(coupled, -np.inf, d),
                                       initial=-np.inf))


def sign_masks(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(negative, positive) masks of sorted eigenvalues w (..., m), ascending or
    descending: those beyond ``cluster_gap(w, EIG_TOL)`` from 0, the zero threshold
    of every PSD, rank and pseudoinverse decision; the rest count as zero."""
    cut = cluster_gap(w, EIG_TOL)[..., None]
    return w < -cut, w > cut


def _pinv_spectrum(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(1/lambda, eigenvectors) of the symmetric part of m (..., n, n): 1/lambda
    on the eigenvalues ``sign_masks`` counts nonzero, 0 on the rest."""
    w, q = np.linalg.eigh(0.5 * (m + m.swapaxes(-1, -2)))
    neg, pos = sign_masks(w)
    nonzero = neg | pos
    return np.where(nonzero, 1.0 / np.where(nonzero, w, 1.0), 0.0), q


def pinv(m: np.ndarray) -> np.ndarray:
    """Spectral Moore-Penrose pseudoinverse of a symmetric matrix, or of each
    matrix in a stack (..., n, n)."""
    inv, q = _pinv_spectrum(np.asarray(m, dtype=float))
    return (q * inv[..., None, :]) @ q.swapaxes(-1, -2)


def pinv_solve(m: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(pinv(m) @ b, rank(m)) per system of a stack (..., n, n), (..., n) of
    symmetric matrices, from the eigenpairs of m without forming pinv(m).
    rank(m) counts the eigenvalues ``pinv`` inverts, which is what
    trace(m pinv(m)) rounds to."""
    inv, q = _pinv_spectrum(np.asarray(m, dtype=float))
    x = np.einsum("...ij,...j->...i", q, inv * np.einsum("...ij,...i->...j", q, b))
    return x, np.count_nonzero(inv, axis=-1)


def in_colspace(d: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Whether d @ w = b within ``RESIDUAL_TOL * max(1, |b|)``, per system of
    a stack (..., n, n), (..., n): for w = pinv(d) @ b, whether b lies in the
    column space of d."""
    miss = np.linalg.norm(np.einsum("...ij,...j->...i", d, w) - b, axis=-1)
    return miss <= RESIDUAL_TOL * np.maximum(1.0, np.linalg.norm(b, axis=-1))
