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
from .centering import VBasis, build_v, projected_gram
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
    scale = max(1.0, float(np.max(np.abs(spec.flat()))))
    psd = spec.min_value >= -tol * scale
    rank = int(sum(g.multiplicity for g in spec.groups if g.value > tol * scale))
    return EdmCheck(bool(psd), rank if psd else 0, spec)


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
    return v.columns @ np.hstack(cols)


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
    u = np.hstack(null_cols)
    return GaleMatrix(v.columns @ u)


def _rank_of(d: np.ndarray, tol: float) -> int:
    w = np.linalg.eigvalsh(d)
    scale = max(1.0, float(np.max(np.abs(w))))
    return int(np.count_nonzero(np.abs(w) > tol * scale))


def spherical_info(d: np.ndarray, tol: float = linalg.EIG_TOL) -> Optional[SphereInfo]:
    """Radius, center and the Dw = e solution of a spherical EDM, else None."""
    d = _validate_hollow(d)
    n = d.shape[0]
    if not np.any(d):
        return None
    chk = is_edm(d, tol)
    if not chk.is_edm:
        raise NotEdmError("sphericity query requires an EDM")
    r = chk.embedding_dim
    v = build_v(n)
    w = linalg.solve_in_colspace(d, np.ones(n))
    ew = float(np.ones(n) @ w)
    if r == n - 1:
        spherical = True
    else:
        spherical = _rank_of(d, tol) == r + 1
        # Cross-checks: Gale annihilation and the sign of e.T w. Only clear
        # contradictions raise; borderline values are left to the rank test.
        xscale = max(1.0, float(np.max(np.abs(chk.x_spectrum.flat()))))
        u = np.hstack([g.basis for g in chk.x_spectrum.groups
                       if abs(g.value) <= tol * xscale])
        z = v.columns @ u
        dz = float(np.max(np.abs(d @ z)))
        scale = max(1.0, float(np.max(np.abs(d))))
        if spherical and (dz > 1e-5 * scale or ew < 1e-9):
            raise InternalConsistencyError(
                f"rank test says spherical but ||DZ||={dz:.3e}, e.T w={ew:.3e}")
        if not spherical and dz < 1e-9 * scale and ew > 1e-9:
            raise InternalConsistencyError(
                f"rank test says non-spherical but ||DZ||={dz:.3e}, e.T w={ew:.3e}")
    if not spherical:
        return None
    radius = float(np.sqrt(1.0 / (2.0 * ew)))
    # Center in the centroid frame: solve P a = 1/2 (I - E/n) diag(P P^T).
    p = _centroid_points(v, chk.x_spectrum, tol)
    diag_b = np.sum(p * p, axis=1)
    rhs = 0.5 * (diag_b - diag_b.mean())
    center, *_ = np.linalg.lstsq(p, rhs, rcond=None)
    return SphereInfo(radius, center, w, ew)
