"""Euclidean distance matrix predicates, configuration recovery, Gale
matrices and sphericity.

A zero-diagonal symmetric matrix is an EDM of embedding dimension r exactly
when its projected Gram matrix is PSD of rank r. Every query reads one
eigendecomposition of it under one zero threshold (``_gram``): configurations
are recovered about the centroid from it, and the Gale space is its null
space. Sphericity is decided by the rank test rank(D) == r + 1, with the
Gale-matrix annihilation test and the sign of e.T @ w run as cross-checks.
The analysis builds its configurations and radii from the projected spectrum
instead; the functions here are the independent references that the sweep
and the tests check it against.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import linalg
from .centering import lift, project_adjacency

class NotEdmError(ValueError):
    """Input matrix is not a Euclidean distance matrix."""


class FullDimensionError(ValueError):
    """Gale matrix requested for an EDM of embedding dimension n-1."""


class InternalConsistencyError(RuntimeError):
    """The program's own answers contradict each other beyond tolerance."""


def first_faults(faults, rows: np.ndarray) -> np.ndarray:
    """The error of each row's first fault: for each (mask, error) pair of
    ``faults`` in order, error(i) on each row i that ``rows`` marks, where
    mask holds and no earlier pair did; None on the other rows."""
    errors = np.empty(rows.shape, dtype=object)  # all None
    open_rows = rows & np.logical_or.reduce([mask for mask, _ in faults])  # the rows at fault
    if np.count_nonzero(open_rows):
        for mask, error in faults:
            for i in np.flatnonzero(mask & open_rows):
                errors[i] = error(i)
                open_rows[i] = False
    return errors


class EdmCheck(NamedTuple):
    is_edm: bool
    embedding_dim: int


class Configuration(NamedTuple):
    """n x r coordinate matrix, one point per row."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def squared_distances(self) -> np.ndarray:
        p = self.points
        sq = np.sum(p * p, axis=1)
        d = sq[:, None] + sq[None, :] - 2.0 * (p @ p.T)
        np.fill_diagonal(d, 0.0)
        return np.maximum(d, 0.0)


class GaleMatrix(NamedTuple):
    z: np.ndarray  # n x (n - r - 1)


class SphereInfo(NamedTuple):
    radius: float
    center: np.ndarray  # in the centroid-origin frame
    w: np.ndarray
    ew: float


def _validate_hollow(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(d)):
        raise linalg.NotFiniteError("matrix has non-finite entries")
    if np.max(np.abs(d - d.T)) > 1e-12 * max(1.0, float(np.max(np.abs(d)))):
        raise ValueError("matrix must be symmetric")
    if d.shape[0] and np.max(np.abs(np.diag(d))) > 0:
        raise ValueError("matrix has nonzero diagonal")
    return 0.5 * (d + d.T)


def _gram(d: np.ndarray) -> tuple:
    """The projected Grams -1/2 V.T D V of a (k, n, n) stack of hollow
    matrices, n >= 2: their ascending eigenvalues w (k, n-1), eigenvectors u,
    and the (negative, positive) masks of w under ``linalg.sign_masks``; the
    rest are zero."""
    w, u = np.linalg.eigh(-0.5 * project_adjacency(d))
    return (w, u, *linalg.sign_masks(w))


def is_edm(d: np.ndarray) -> EdmCheck:
    """Decide the EDM property and embedding dimension via the projected Gram."""
    d = _validate_hollow(d)
    if d.shape[0] == 1:
        return EdmCheck(True, 0)
    _, _, neg, pos = _gram(d[None])
    psd = not neg.any()
    return EdmCheck(psd, int(np.count_nonzero(pos)) if psd else 0)


def _centroid_points(w: np.ndarray, u: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Points P = V U sqrt(L) from one projected Gram U L U.T's positive
    eigenpairs, columns by decreasing eigenvalue, without the n x n Gram."""
    keep = np.flatnonzero(pos)[::-1]
    return lift(u[:, keep] * np.sqrt(w[keep]))


def _circumcenter(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, residual, diag(B)) for centroid-centered configurations p of shape
    (..., n, r) whose nonzero columns are orthogonal (eigenvector directions
    scaled by sqrt(eigenvalue)): the center equation P c = (diag(B) - mean)/2
    then solves by a diagonal system, and ``residual`` is how far it misses."""
    sq = p * p
    diag_b = sq.sum(axis=-1)
    rhs = 0.5 * (diag_b - diag_b.sum(axis=-1, keepdims=True) / p.shape[-2])
    lam = sq.sum(axis=-2)
    c = (p * rhs[..., None]).sum(axis=-2) / np.where(lam > 0.0, lam, 1.0)
    resid = np.abs((p * c[..., None, :]).sum(axis=-1) - rhs).max(axis=-1)
    return c, resid, diag_b


def recover_configuration(d: np.ndarray) -> Configuration:
    """Recover a centroid-centered n x r configuration whose squared distances equal d."""
    d = _validate_hollow(d)
    w, u, neg, pos = _gram(d[None])
    if neg.any():
        raise NotEdmError(f"not an EDM: min projected eigenvalue {w[0, 0]:.3e}")
    return Configuration(_centroid_points(w[0], u[0], pos[0]))


def gale_matrix(d: np.ndarray) -> GaleMatrix:
    """Gale matrix Z = V @ U, with U spanning the null space of the projected
    Gram: the eigenvectors whose eigenvalues are neither negative nor positive."""
    d = _validate_hollow(d)
    if d.shape[0] > 1:  # one point has no projected Gram and no Gale space
        _, u, neg, pos = _gram(d[None])
        if neg.any():
            raise NotEdmError("Gale matrix requires an EDM")
        zero = ~neg[0] & ~pos[0]
        if zero.any():
            return GaleMatrix(lift(u[0][:, zero]))
    raise FullDimensionError("full embedding dimension: empty Gale space")


class SphereStack(NamedTuple):
    """``spherical_info``'s decisions for a stack of matrices, one entry each:
    the Dw = e radius (NaN where not spherical), w, e.T w, and the error the
    single-matrix query raises, or None."""

    radius: np.ndarray
    w: np.ndarray
    ew: np.ndarray
    errors: np.ndarray
    gram: tuple  # ``_gram`` of the stack


def sphere_stack(d: np.ndarray) -> SphereStack:
    """Sphericity of a (k, n, n) stack of hollow, exactly symmetric matrices.

    The EDM test and embedding dimension r come from ``_gram``; one eigh of
    D gives w = pinv(D) e, which solves Dw = e, and rank(D), the count of its
    nonzero eigenvalues, without forming pinv(D). The EDM is spherical when
    r = n - 1 or rank(D) = r + 1. The Gale matrix Z (V times the projected
    Gram's null space) and the sign of e.T w cross-check the rank test: only
    clear contradictions are errors.
    """
    k, n = d.shape[0], d.shape[-1]
    _, xu, neg, pos = gram = _gram(d)
    r = np.count_nonzero(pos, axis=-1)
    w, rank_d = linalg.pinv_solve(d, np.ones((k, n)))
    ew = w.sum(axis=-1)
    full = r == n - 1
    spherical = full | (rank_d == r + 1)
    z = lift((~neg & ~pos)[:, None, :] * xu)
    dz = np.abs(d @ z).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(d).max(axis=(-2, -1)))
    faults = (
        (neg.any(axis=-1), lambda i: NotEdmError("sphericity query requires an EDM")),
        (~linalg.in_colspace(d, np.ones((k, n)), w),
         lambda i: linalg.NotInColumnSpaceError("right-hand side not in column space")),
        (~full & spherical & ((dz > 1e-5 * scale) | (ew < 1e-9)),
         lambda i: InternalConsistencyError(
             f"rank test says spherical but ||DZ||={dz[i]:.3e}, e.T w={ew[i]:.3e}")),
        (~full & ~spherical & (dz < 1e-9 * scale) & (ew > 1e-9),
         lambda i: InternalConsistencyError(
             f"rank test says non-spherical but ||DZ||={dz[i]:.3e}, e.T w={ew[i]:.3e}")),
    )
    present = d.any(axis=(-2, -1))  # the zero matrix is no sphere, and no fault
    errors = first_faults(faults, present)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(spherical & present & (errors == None), np.sqrt(0.5 / ew), np.nan)  # noqa: E711
    return SphereStack(radius, w, ew, errors, gram)


def spherical_info(d: np.ndarray) -> Optional[SphereInfo]:
    """Radius, center and the Dw = e solution of a spherical EDM, else None."""
    d = _validate_hollow(d)
    st = sphere_stack(d[None])
    if st.errors[0] is not None:
        raise st.errors[0]
    if np.isnan(st.radius[0]):
        return None
    w, u, _, pos = (a[0] for a in st.gram)
    center, _, _ = _circumcenter(_centroid_points(w, u, pos))
    return SphereInfo(float(st.radius[0]), center, st.w[0], float(st.ew[0]))
