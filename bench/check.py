"""Correctness checks: golden digests and independent re-verification.

A digest holds the answers of one analysis that must not change when the code
gets faster: the class tag, the extreme multiplicities, the three dimensions,
the endpoint sphericity flags and the feasibility endpoints rounded to 1e-9.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Rounding of beta_l / beta_u in a digest. Comparison allows one unit of
#: this, since a relabelled input may round to the neighbouring value.
BETA_DECIMALS = 9
BETA_TOL = 1.5e-9
#: Relative tolerance when re-verifying emitted coordinates.
CSV_TOL = 1e-6

_FIELDS = ("tag", "m_min", "m_max", "dim_e", "dim_s", "dim_j", "sph_l", "sph_u")


def _round_beta(x: Optional[float]) -> Optional[float]:
    return None if x is None else round(float(x), BETA_DECIMALS)


def report_digest(report) -> dict:
    """Digest of a ``twodist.representations.ReprReport``."""
    return {"tag": report.graph_class.tag, "m_min": report.m_min, "m_max": report.m_max,
            "dim_e": report.dim_e, "dim_s": report.dim_s, "dim_j": report.dim_j,
            "sph_l": report.spherical_at_l, "sph_u": report.spherical_at_u,
            "beta_l": _round_beta(report.beta_l), "beta_u": _round_beta(report.beta_u)}


def document_digest(doc: dict) -> dict:
    """Digest of the JSON document printed by ``twodist analyze``."""
    return {"tag": doc["class"], "m_min": doc["m_min"], "m_max": doc["m_max"],
            "dim_e": doc["dim_e"], "dim_s": doc["dim_s"], "dim_j": doc["dim_j"],
            "sph_l": doc["spherical_at_l"], "sph_u": doc["spherical_at_u"],
            "beta_l": _round_beta(doc["beta_l"]), "beta_u": _round_beta(doc["beta_u"])}


def digest_mismatch(got: dict, want: dict) -> Optional[str]:
    """None when the digests agree, else a one-line description."""
    for key in _FIELDS:
        if got[key] != want[key]:
            return f"{key}: got {got[key]!r}, recorded {want[key]!r}"
    for key in ("beta_l", "beta_u"):
        a, b = got[key], want[key]
        if (a is None) != (b is None) or (a is not None and abs(a - b) > BETA_TOL):
            return f"{key}: got {a!r}, recorded {b!r}"
    return None


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verify_csv(path: Path, adjacency: np.ndarray, alpha: float, beta: float) -> Optional[str]:
    """Re-verify an ``embed`` CSV: adjacent pairs at squared distance alpha,
    the others at beta. None when it holds, else a one-line description."""
    points = np.loadtxt(path, delimiter=",", ndmin=2)
    n = adjacency.shape[0]
    if points.shape[0] != n:
        return f"CSV has {points.shape[0]} rows for {n} nodes"
    diff = points[:, None, :] - points[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    iu, ju = np.triu_indices(n, k=1)
    target = np.where(adjacency[iu, ju] > 0.5, alpha, beta)
    err = float(np.max(np.abs(sq[iu, ju] - target) / np.maximum(1.0, target)))
    if err > CSV_TOL:
        return f"CSV squared distances off by {err:.3e} (relative)"
    return None
