"""Independent brute-force verifiers and exhaustive small-graph sweeps.

The discriminating-polynomial root finder deliberately avoids the orthonormal
basis V: it borders the distance matrix with [-e I] directly, so it shares no
code path with the centering module. The sweep enumerates all labeled graphs
up to n_max and checks every module-level invariant, reporting the first
counterexample if any.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import edm, representations as reps
from .edm import Configuration
from .graphs import (Graph, adjacency_matrix, classify, complement,
                     encode_graph6, from_mask, triu_pairs)

T_BISECT_TOL = 1e-12
# Whenever an upper root exists, mu_min <= -4/3, so t2 <= 4; bracket with slack.
T_MAX = 40.0


@dataclass(frozen=True)
class VerificationReport:
    distinct_sq_distances: tuple  # ((value, pair_count), ...)
    max_deviation: float
    passed: bool


def verify_two_distance(config: Configuration, g: Graph, alpha: float, beta: float,
                        tol: float = 1e-7) -> VerificationReport:
    """Check that a configuration realizes g with squared distances alpha/beta."""
    if config.n != g.n:
        raise ValueError(f"configuration has {config.n} rows, graph has {g.n} nodes")
    sq = config.squared_distances()
    iu, ju = triu_pairs(g.n)
    targets = np.where(g.adj[iu, ju], alpha, beta)
    values = sq[iu, ju]
    max_dev = float(np.abs(values - targets).max())
    values = np.sort(values)
    breaks = np.flatnonzero(np.diff(values) > tol)
    distinct = []
    start = 0
    for stop in list(breaks + 1) + [len(values)]:
        distinct.append((float(values[start:stop].mean()), stop - start))
        start = stop
    passed = len(distinct) == 2 and max_dev <= tol
    return VerificationReport(tuple(distinct), max_dev, passed)


def _bordered_parts(a: np.ndarray, abar: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(M0, M1) with -F D(t) F.T = M0 + t M1 and F = [-e I]; no V involved."""
    n = a.shape[0]
    f = np.hstack([-np.ones((n - 1, 1)), np.eye(n - 1)])
    return -(f @ a @ f.T), -(f @ abar @ f.T)


def discriminating_roots(g: Graph) -> Tuple[Optional[float], Optional[float]]:
    """Roots of the discriminating polynomial adjacent to t = 1.

    Returns (t1, t2): the largest root in (0, 1) and the smallest root above 1,
    located by bisection on the sign of the smallest eigenvalue of the
    bordered Gram matrix.
    """
    if classify(g).is_degenerate:
        raise reps.DegenerateGraphError("discriminating polynomial needs a non-degenerate graph")
    return discriminating_roots_batch([g])[0]


def _batched_bisect(m0: np.ndarray, m1: np.ndarray, lo0: float, hi0: float,
                    neg_side: str) -> Tuple[np.ndarray, np.ndarray]:
    """Lockstep bisection of lambda_min's sign change over a stack of pencils.

    Returns (roots, exists): graphs whose lambda_min does not go negative at
    the probe end have no root in the bracket.
    """
    count = m0.shape[0]
    probe = lo0 if neg_side == "lo" else hi0
    lam = np.linalg.eigvalsh(m0 + probe * m1)[:, 0]
    exists = lam < 0.0
    lo = np.full(count, lo0)
    hi = np.full(count, hi0)
    idx = np.flatnonzero(exists)
    steps = int(math.ceil(math.log2((hi0 - lo0) / T_BISECT_TOL)))
    for _ in range(steps):
        mid = 0.5 * (lo[idx] + hi[idx])
        mins = np.linalg.eigvalsh(m0[idx] + mid[:, None, None] * m1[idx])[:, 0]
        neg = mins < 0.0
        if neg_side == "lo":
            lo[idx] = np.where(neg, mid, lo[idx])
            hi[idx] = np.where(neg, hi[idx], mid)
        else:
            hi[idx] = np.where(neg, mid, hi[idx])
            lo[idx] = np.where(neg, lo[idx], mid)
    return 0.5 * (lo + hi), exists


def discriminating_roots_batch(graphs: List[Graph]) -> List[Tuple[Optional[float], Optional[float]]]:
    """discriminating_roots for many graphs, grouped by order and run in
    lockstep so each bisection step is one stacked eigvalsh call."""
    out: List[Tuple[Optional[float], Optional[float]]] = [None] * len(graphs)  # type: ignore[list-item]
    by_n: Dict[int, List[int]] = {}
    for i, g in enumerate(graphs):
        by_n.setdefault(g.n, []).append(i)
    for n, idxs in by_n.items():
        parts = [_bordered_parts(adjacency_matrix(graphs[i]),
                                 adjacency_matrix(complement(graphs[i]))) for i in idxs]
        m0 = np.stack([p[0] for p in parts])
        m1 = np.stack([p[1] for p in parts])
        t1s, has1 = _batched_bisect(m0, m1, 1e-8, 1.0, "lo")
        t2s, has2 = _batched_bisect(m0, m1, 1.0, T_MAX, "hi")
        for j, i in enumerate(idxs):
            out[i] = (float(t1s[j]) if has1[j] else None,
                      float(t2s[j]) if has2[j] else None)
    return out


@dataclass
class SweepSummary:
    graphs_checked: int = 0
    degenerate: int = 0
    per_n: Dict[int, int] = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)
    check_counts: Dict[str, int] = field(default_factory=dict)
    max_errors: Dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, check: str, ok: bool, g6: str, detail: str = "",
               error: Optional[float] = None) -> None:
        self.check_counts[check] = self.check_counts.get(check, 0) + 1
        if error is not None:
            self.max_errors[check] = max(self.max_errors.get(check, 0.0), error)
        if not ok:
            self.violations.append({"check": check, "graph6": g6, "detail": detail})

    def to_dict(self) -> dict:
        return {
            "graphs_checked": self.graphs_checked,
            "degenerate": self.degenerate,
            "per_n": {str(k): v for k, v in sorted(self.per_n.items())},
            "violation_count": len(self.violations),
            "first_counterexample": self.violations[0] if self.violations else None,
            "violations": self.violations[:50],
            "check_counts": self.check_counts,
            "max_errors": self.max_errors,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _fill_root_fields(rec: dict, t1: Optional[float], t2: Optional[float]) -> None:
    beta_l, beta_u = rec["beta_l"], rec["beta_u"]
    rec["root_err"] = max(
        abs(t1 - beta_l) if (t1 is not None and beta_l is not None) else 0.0,
        abs(t2 - beta_u) if (t2 is not None and beta_u is not None) else 0.0)
    rec["root_presence_ok"] = ((t1 is None) == (beta_l is None)) and \
                              ((t2 is None) == (beta_u is None))


def _graph_record(g: Graph) -> dict:
    """Per-graph facts needed by the sweep's checks; plain picklable values.

    The answers are the report ``analyze_graph`` returns, taken from the same
    pass. The discriminating-polynomial fields are filled in afterwards by
    the batched root finder.
    """
    rec: dict = {"g6": encode_graph6(g), "n": g.n, "degenerate": False, "errors": []}
    try:
        run = reps._analyze(g)
        rep = run.report
        rec.update(rep.to_dict())
        if rep.degenerate:
            return rec

        # Constructive checks: Euclidean configurations at each endpoint and
        # at the interior beta (the spherical witness is one of these), the
        # J-spherical configuration's unit rows and distance multiset.
        config_dev = 0.0
        config_ok = True
        betas = [b for b in (rep.beta_l, rep.beta_u) if b is not None]
        betas.append(reps._interior_beta(rep.beta_l, rep.beta_u))
        for beta in betas:
            config = run.configs.get(beta) or \
                reps.euclidean_representation(g, beta, rep.graph_class, run.ps)
            vrep = verify_two_distance(config, g, 1.0, beta)
            config_dev = max(config_dev, vrep.max_deviation)
            config_ok = config_ok and vrep.passed
        js = run.js
        jrep = verify_two_distance(js.config, g, 2.0, 2.0 + 2.0 * js.delta)
        config_dev = max(config_dev, jrep.max_deviation)
        row_norm_err = float(np.max(np.abs(np.sum(js.config.points ** 2, axis=1) - 1.0)))
        rec["config_dev"] = config_dev
        rec["config_ok"] = bool(config_ok and jrep.passed)
        rec["j_row_norm_err"] = row_norm_err

        # Radius consistency at a spherical upper endpoint: the reported
        # radius vs the closed form vs the Dw = e radius.
        if rep.spherical_at_u:
            rho2_closed = reps.radius_at_beta_u_closed_form(g, run.ps)
            info = edm.spherical_info(reps._edm_at(g, rep.beta_u))
            rho2_w = info.radius ** 2 if info is not None else math.nan
            rec["radius_err"] = max(abs(rho2_closed - rho2_w), abs(rep.rho_u ** 2 - rho2_w))
        else:
            rec["radius_err"] = None
    except Exception as exc:  # findings, not crashes: surface in the summary
        rec["errors"].append(f"{type(exc).__name__}: {exc}")
    return rec


def _record_from_mask(args: Tuple[int, int]) -> Tuple[int, int, dict]:
    n, mask = args
    return n, mask, _graph_record(from_mask(n, mask))


def _check_records(summary: SweepSummary, rec: dict, comp: dict, tol: float = 1e-7) -> None:
    """Single-graph and graph-vs-complement invariant checks."""
    g6 = rec["g6"]
    n = rec["n"]
    if rec["errors"]:
        summary.record("no_internal_error", False, g6, "; ".join(rec["errors"]))
        return
    if rec["degenerate"]:
        # complete <-> null under complementation
        ok = comp["degenerate"] and comp["class"] != rec["class"] if rec["n"] > 1 else True
        summary.record("degenerate_complement", ok, g6)
        return
    if comp["errors"]:
        return  # reported under the complement's own record
    mu_min, mu_max = rec["mu_min"], rec["mu_max"]
    summary.record("cluster_iff_mu_min_-1", rec["is_cluster"] == _near(mu_min, -1.0, 1e-7), g6,
                   f"mu_min={mu_min}")
    summary.record("multipartite_iff_mu_max_0", rec["is_multipartite"] == (mu_max <= 1e-7), g6,
                   f"mu_max={mu_max}")
    summary.record("no_mu_max0_mu_min-1",
                   not (_near(mu_max, 0.0, 1e-7) and _near(mu_min, -1.0, 1e-7)), g6)
    summary.record("mu_min_below_-1", mu_min <= -1.0 + 1e-7, g6, f"mu_min={mu_min}")
    summary.record("dim_chain", rec["dim_e"] <= rec["dim_s"] <= rec["dim_j"], g6,
                   f"{rec['dim_e']},{rec['dim_s']},{rec['dim_j']}")
    summary.record("dim_e_at_most_n-2", rec["dim_e"] <= n - 2, g6)
    lb_e, lb_s = reps.lower_bounds(n)
    summary.record("lower_bounds", rec["dim_e"] >= lb_e - 1e-9 and rec["dim_s"] >= lb_s - 1e-9,
                   g6, f"dims=({rec['dim_e']},{rec['dim_s']}) lbs=({lb_e:.4f},{lb_s:.4f})")
    # complement dualities
    if not comp["degenerate"]:
        summary.record("dim_e_complement", rec["dim_e"] == comp["dim_e"], g6)
        summary.record("dim_s_complement", rec["dim_s"] == comp["dim_s"], g6)
        mu_err = max(abs(comp["mu_min"] - (-1.0 - mu_max)), abs(comp["mu_max"] - (-1.0 - mu_min)))
        summary.record("mu_complement_relation",
                       mu_err <= 1e-9 and comp["m_min"] == rec["m_max"]
                       and comp["m_max"] == rec["m_min"],
                       g6, f"err={mu_err:.2e}", error=mu_err)
        if rec["spherical_at_l"] is not None and comp["spherical_at_u"] is not None:
            summary.record("endpoint_sphericity_duality",
                           rec["spherical_at_l"] == comp["spherical_at_u"], g6)
    summary.record("dispoly_roots_exist", rec["root_presence_ok"], g6)
    summary.record("dispoly_roots_match", rec["root_err"] <= tol, g6,
                   f"err={rec['root_err']:.2e}", error=rec["root_err"])
    summary.record("configurations_verify", rec["config_ok"] and rec["config_dev"] <= tol, g6,
                   f"dev={rec['config_dev']:.2e}", error=rec["config_dev"])
    summary.record("j_rows_unit_norm", rec["j_row_norm_err"] <= 1e-8, g6,
                   error=rec["j_row_norm_err"])
    if rec["radius_err"] is not None:
        summary.record("radius_consistency", rec["radius_err"] <= tol, g6,
                       f"err={rec['radius_err']:.2e}", error=rec["radius_err"])


def invariant_sweep(n_max: int, sample_7_8: int = 0, seed: int = 0,
                    workers: Optional[int] = None) -> SweepSummary:
    """Exhaustive labeled-graph sweep for n <= n_max (n_max <= 6), plus random
    samples at n in {7, 8}, running every module-level invariant."""
    if n_max > 6:
        raise ValueError("exhaustive sweep limited to n_max <= 6")
    summary = SweepSummary()
    start = time.monotonic()
    tasks: List[Tuple[int, int]] = []
    for n in range(2, n_max + 1):
        tasks.extend((n, mask) for mask in range(1 << (n * (n - 1) // 2)))
    rng = np.random.default_rng(seed)
    sampled: List[Graph] = []
    for n in (7, 8):
        for _ in range(sample_7_8 // 2):
            mask = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
            sampled.append(from_mask(n, mask))

    records: Dict[Tuple[int, int], dict] = {}
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if workers > 1 and len(tasks) > 512:
        with Pool(workers) as pool:
            for n, mask, rec in pool.imap_unordered(_record_from_mask, tasks, chunksize=256):
                records[(n, mask)] = rec
    else:
        for n, mask in tasks:
            records[(n, mask)] = _graph_record(from_mask(n, mask))

    sample_recs = []
    for g in sampled:
        sample_recs.append((g, _graph_record(g), _graph_record(complement(g))))

    # Batched discriminating-root pass over everything at once.
    need: List[Tuple[dict, Graph]] = []
    for (n, mask), rec in records.items():
        if not rec["errors"] and not rec["degenerate"]:
            need.append((rec, from_mask(n, mask)))
    for g, rec, comp in sample_recs:
        if not rec["errors"] and not rec["degenerate"]:
            need.append((rec, g))
        if not comp["errors"] and not comp["degenerate"]:
            need.append((comp, complement(g)))
    roots = discriminating_roots_batch([g for _, g in need])
    for (rec, _), (t1, t2) in zip(need, roots):
        _fill_root_fields(rec, t1, t2)

    for (n, mask), rec in records.items():
        full = (1 << (n * (n - 1) // 2)) - 1
        comp = records[(n, full ^ mask)]
        summary.graphs_checked += 1
        summary.per_n[n] = summary.per_n.get(n, 0) + 1
        if rec["degenerate"]:
            summary.degenerate += 1
        _check_records(summary, rec, comp)

    for g, rec, comp in sample_recs:
        summary.graphs_checked += 1
        summary.per_n[g.n] = summary.per_n.get(g.n, 0) + 1
        if rec["degenerate"]:
            summary.degenerate += 1
        _check_records(summary, rec, comp)

    summary.elapsed_seconds = time.monotonic() - start
    return summary
