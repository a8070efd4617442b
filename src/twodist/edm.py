"""Euclidean distance matrix predicates, configuration recovery, Gale
matrices and sphericity.

A zero-diagonal symmetric matrix is an EDM of embedding dimension r exactly
when its projected Gram matrix is PSD of rank r; configurations are recovered
about the centroid from that spectrum. Sphericity is decided by the rank test
rank(D) == r + 1, with the Gale-matrix annihilation test and the sign of
e.T @ w run as cross-checks. The analysis builds its configurations and radii
from the projected spectrum instead; the functions here are the independent
references that the sweep and the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .centering import VBasis, build_v, lift, projected_gram
from .linalg import Spectrum

CENTERING_CENTROID = "centroid"
CENTERING_CIRCUMCENTER = "circumcenter"


class NotEdmError(ValueError):
    """Input matrix is not a Euclidean distance matrix."""


class FullDimensionError(ValueError):
    """Gale matrix requested for an EDM of embedding dimension n-1."""


class InternalConsistencyError(RuntimeError):
    """The program's own answers contradict each other beyond tolerance."""


@dataclass(frozen=True)
class EdmCheck:
    is_edm: bool
    embedding_dim: int
    x_spectrum: Spectrum


@dataclass(frozen=True)
class Configuration:
    """n x r coordinate matrix, one point per row."""

    points: np.ndarray
    centering: str

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


@dataclass(frozen=True)
class GaleMatrix:
    z: np.ndarray  # n x (n - r - 1)


@dataclass(frozen=True)
class SphereInfo:
    radius: float
    center: np.ndarray  # in the centroid-origin frame
    w: np.ndarray
    ew: float


def _validate_hollow(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(d - d.T)) > 1e-12 * max(1.0, float(np.max(np.abs(d)))):
        raise ValueError("matrix must be symmetric")
    if d.shape[0] and np.max(np.abs(np.diag(d))) > 0:
        raise ValueError("matrix has nonzero diagonal")
    return 0.5 * (d + d.T)


def is_edm(d: np.ndarray, tol: float = linalg.EIG_TOL) -> EdmCheck:
    """Decide the EDM property and embedding dimension via the projected Gram."""
    d = _validate_hollow(d)
    n = d.shape[0]
    if n == 1:
        return EdmCheck(True, 0, Spectrum((), tol))
    v = build_v(n)
    x = projected_gram(d, v)
    spec = linalg.eigh(x, tol)
    neg, pos = linalg.sign_masks(spec.flat(), tol)
    psd = not neg.any()
    return EdmCheck(psd, int(np.count_nonzero(pos)) if psd else 0, spec)


def _centroid_points(v: VBasis, x_spectrum: Spectrum, tol: float) -> np.ndarray:
    """Points from the projected-Gram spectrum: X = U L U.T gives P = V U sqrt(L).

    Avoids forming and refactoring the n x n Gram matrix; columns come out
    ordered by decreasing eigenvalue.
    """
    flat = x_spectrum.flat()
    scale = max(1.0, float(np.max(np.abs(flat)))) if flat.size else 1.0
    cols = [g.basis * np.sqrt(g.value) for g in x_spectrum.groups if g.value > tol * scale]
    if not cols:
        return np.zeros((v.n, 0))
    return lift(np.hstack(cols), v)


def recover_configuration(d: np.ndarray, tol: float = linalg.EIG_TOL) -> Configuration:
    """Recover a centroid-centered n x r configuration whose squared distances equal d."""
    d = _validate_hollow(d)
    chk = is_edm(d, tol)
    if not chk.is_edm:
        raise NotEdmError(f"not an EDM: min projected eigenvalue {chk.x_spectrum.min_value:.3e}")
    return Configuration(_centroid_points(build_v(d.shape[0]), chk.x_spectrum, tol),
                         CENTERING_CENTROID)


def gale_matrix(d: np.ndarray, tol: float = linalg.EIG_TOL) -> GaleMatrix:
    """Gale matrix Z = V @ U, with U spanning the null space of the projected Gram."""
    d = _validate_hollow(d)
    n = d.shape[0]
    chk = is_edm(d, tol)
    if not chk.is_edm:
        raise NotEdmError("Gale matrix requires an EDM")
    if chk.embedding_dim >= n - 1:
        raise FullDimensionError("full embedding dimension: empty Gale space")
    v = build_v(n)
    spec = chk.x_spectrum
    scale = max(1.0, float(np.max(np.abs(spec.flat()))))
    null_cols = [g.basis for g in spec.groups if abs(g.value) <= tol * scale]
    return GaleMatrix(lift(np.hstack(null_cols), v))


@dataclass(frozen=True)
class SphereStack:
    """``spherical_info``'s decisions for a stack of matrices, one entry each:
    the Dw = e radius (NaN where not spherical), w, e.T w, and the error the
    single-matrix query raises, or None."""

    radius: np.ndarray
    w: np.ndarray
    ew: np.ndarray
    errors: np.ndarray
    gram: tuple  # eigenvalues (k, n-1) and eigenvectors of the projected Gram


def sphere_stack(d: np.ndarray, tol: float = linalg.EIG_TOL) -> SphereStack:
    """Sphericity of a (k, n, n) stack of hollow symmetric matrices.

    The EDM test and embedding dimension r come from the projected Gram; w
    solves Dw = e by the pseudoinverse of D, whose trace against D gives
    rank(D); the EDM is spherical when r = n - 1 or rank(D) = r + 1. The
    Gale matrix Z (V times the projected Gram's null space) and the sign of
    e.T w cross-check the rank test: only clear contradictions are errors.
    """
    d = 0.5 * (d + d.swapaxes(-1, -2))
    k, n = d.shape[0], d.shape[-1]
    v = build_v(n)
    xw, xu = np.linalg.eigh(projected_gram(d, v))
    neg, pos = linalg.sign_masks(xw, tol)
    r = np.count_nonzero(pos, axis=-1)
    d_pinv = linalg.pinv(d, tol)
    w = d_pinv.sum(axis=-1)
    ew = w.sum(axis=-1)
    # D pinv(D) projects onto the range of D, so its trace is rank(D)
    rank_d = np.rint(np.einsum("kij,kji->k", d, d_pinv))
    full = r == n - 1
    spherical = full | (rank_d == r + 1)
    z = lift((~neg & ~pos)[:, None, :] * xu, v)
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
    errors = np.full(k, None, dtype=object)
    present = d.any(axis=(-2, -1))  # the zero matrix is no sphere, and no fault
    for mask, fault in faults:
        for i in np.flatnonzero(mask & present & (errors == None)):  # noqa: E711
            errors[i] = fault(i)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(spherical & present & (errors == None), np.sqrt(0.5 / ew), np.nan)  # noqa: E711
    return SphereStack(radius, w, ew, errors, (xw, xu))


def spherical_info(d: np.ndarray, tol: float = linalg.EIG_TOL) -> Optional[SphereInfo]:
    """Radius, center and the Dw = e solution of a spherical EDM, else None."""
    d = _validate_hollow(d)
    st = sphere_stack(d[None], tol)
    if st.errors[0] is not None:
        raise st.errors[0]
    if np.isnan(st.radius[0]):
        return None
    # Center in the frame of recover_configuration: solve
    # P a = 1/2 (I - E/n) diag(P P^T), P = V U sqrt(L) from the projected Gram
    # U L U.T, columns by decreasing eigenvalue.
    xw, xu = st.gram[0][0, ::-1], st.gram[1][0, :, ::-1]
    keep = xw > tol * max(1.0, float(np.abs(xw).max()))
    p = lift(xu[:, keep] * np.sqrt(xw[keep]), build_v(d.shape[0]))
    diag_b = np.sum(p * p, axis=1)
    rhs = 0.5 * (diag_b - diag_b.mean())
    center, *_ = np.linalg.lstsq(p, rhs, rcond=None)
    return SphereInfo(float(st.radius[0]), center, st.w[0], float(st.ew[0]))
