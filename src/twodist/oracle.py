"""Independent brute-force verifiers and exhaustive small-graph sweeps.

The discriminating-polynomial root finder deliberately avoids the orthonormal
basis V: it borders the distance matrix with [-e I] directly, so it shares no
code path with the centering module. The sweep enumerates all labeled graphs
up to n_max, analyses every graph of one order as one stack and checks every
module-level invariant as an array predicate over that stack, reporting the
first counterexample if any.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import edm, linalg, representations as reps
from .edm import Configuration
from .centering import build_v, lift
from .graphs import (Graph, class_stack, complement_adjacency, connected_stack, encode_graph6,
                     mask_stack, triu_pairs)

# Whenever an upper root exists, mu_min <= -4/3, so t2 <= 4; T_MAX brackets it widely.
T_MAX = 40.0
#: A root t is certified when lambda_min of the pencil changes sign across
#: t (1 -/+ ROOT_CERT).
ROOT_CERT = 1e-9
#: Two squared distances closer than this are one to verify_two_distance.
VERIFY_TOL = 1e-7
#: Largest error the sweep's root, configuration and radius checks accept.
SWEEP_TOL = 1e-7


class VerificationReport(NamedTuple):
    distinct_sq_distances: tuple  # ((value, pair_count), ...)
    max_deviation: float
    passed: bool


def _pair_sq_distances(points: np.ndarray) -> np.ndarray:
    """Squared distances of the pairs u < v (triu_pairs order) of
    configurations of shape (..., n, r): |p_u|^2 + |p_v|^2 - 2 p_u . p_v,
    formed on those pairs only."""
    sq = np.einsum("...ij,...ij->...i", points, points)
    gram = points @ points.swapaxes(-1, -2)
    iu, ju = triu_pairs(points.shape[-2])
    with np.errstate(over="ignore", invalid="ignore"):  # huge points give inf, which fails
        return np.maximum(sq[..., iu] + sq[..., ju] - 2.0 * gram[..., iu, ju], 0.0)


def verify_two_distance(config: Configuration, g: Graph, alpha: float,
                        beta: float) -> VerificationReport:
    """Check that a configuration realizes g with squared distances alpha/beta."""
    if config.n != g.n:
        raise ValueError(f"configuration has {config.n} rows, graph has {g.n} nodes")
    max_dev, passed, values = _verify_stack(config.points[None], g.adj[None], alpha,
                                            np.array([beta]))
    values = values[0]
    bounds = [0, *(np.flatnonzero(np.diff(values) > VERIFY_TOL) + 1).tolist(), values.size]
    distinct = tuple((float(values[a] + (values[a:b] - values[a]).mean()), b - a)  # no overflow
                     for a, b in zip(bounds, bounds[1:]))
    return VerificationReport(distinct, float(max_dev[0]), bool(passed[0]))


def _verify_stack(points: np.ndarray, adj: np.ndarray, alpha,
                  beta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(max_deviation, passed, sorted pair squared distances) of
    verify_two_distance for a (k, n, r) stack of configurations of the graphs
    in adj, with per-graph alpha and beta: a configuration passes when its
    distances form two groups, breaking where neighbours differ by more than
    VERIFY_TOL, and each pair lies within VERIFY_TOL of its target."""
    values = _pair_sq_distances(points)
    iu, ju = triu_pairs(adj.shape[-1])
    targets = np.where(adj[:, iu, ju], np.asarray(alpha)[..., None], beta[:, None])
    max_dev = linalg.reduce_last(np.maximum, np.abs(values - targets))
    values = np.sort(values, axis=-1)
    breaks = linalg.reduce_last(np.add, values[..., 1:] - values[..., :-1] > VERIFY_TOL,
                                dtype=np.intp)
    return max_dev, (breaks == 1) & (max_dev <= VERIFY_TOL), values


def _bordered(x: np.ndarray) -> np.ndarray:
    """-F X F.T with F = [-e I] for a (k, n, n) stack X, entrywise; for the
    small integers of an adjacency stack it is the dense product bit for bit,
    signed zeros included."""
    return -(x[:, 1:, 1:] - x[:, 1:, :1] - x[:, :1, 1:] + x[:, :1, :1])


def _pencil(adj: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(M0, M1) with -F D(t) F.T = M0 + t M1 and F = [-e I] for a (k, n, n)
    adjacency stack and D(t) = A + t Abar; no V involved."""
    return _bordered(adj.astype(float)), _bordered(complement_adjacency(adj).astype(float))


def _not_positive_definite(m: np.ndarray) -> np.ndarray:
    """Where the symmetric matrices of a (..., p, p) stack are not positive
    definite, i.e. where lambda_min <= 0.

    Unpivoted Cholesky in p steps over the whole stack: a matrix fails at its
    first pivot that is not > 0 (NaN included). Every step before that pivot
    is ordinary Cholesky of a positive definite leading block, and the pivot
    is a diagonal entry of that block's Schur complement S, so S is not
    positive definite; by Sylvester's law of inertia (M is congruent to the
    block and S side by side) neither is M. The matrix axes go first so
    that each step is one contiguous operation over the stack.
    """
    p = m.shape[-1]
    a = np.moveaxis(np.asarray(m, dtype=float), (-2, -1), (0, 1)).copy()
    bad = np.zeros(a.shape[2:], dtype=bool)
    # a failed matrix's later pivots and updates are never read
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(p):
            bad |= ~(a[j, j] > 0.0)
            col = a[j + 1:, j] / np.sqrt(np.where(bad, 1.0, a[j, j]))
            a[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    return bad


@lru_cache(maxsize=128)
def _ones_cholesky_inverse(p: int) -> np.ndarray:
    """L^-1 for the Cholesky factor L of I + J of order p; cached per order
    and read-only."""
    l_inv = np.linalg.inv(np.linalg.cholesky(np.eye(p) + 1.0))
    l_inv.flags.writeable = False
    return l_inv


def _roots_stack(adj: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(t1, t2) for a (k, n, n) stack of non-degenerate graphs, NaN where absent.

    M0 + M1 = F F.T = I + J for every graph of order n. With I + J = L L.T
    and W = L^-1 M1 L^-T, M0 + t M1 = L (I + (t - 1) W) L.T, so the roots are
    t = 1 - 1/nu over the eigenvalues nu of W: t1 from the largest, t2 from
    the smallest. A root counts where lambda_min(M0 + t M1) is not positive
    at the probe (t = 1e-8 for t1, T_MAX for t2) and changes sign across it;
    each sign is read off the Cholesky pivots of the pencil.
    """
    m0, m1 = _pencil(adj)
    l_inv = _ones_cholesky_inverse(adj.shape[-1] - 1)
    nu = np.linalg.eigvalsh(l_inv @ m1 @ l_inv.T)
    with np.errstate(divide="ignore"):
        t1, t2 = 1.0 - 1.0 / nu[:, -1], 1.0 - 1.0 / nu[:, 0]
    t1 = np.where((t1 > 1e-8) & (t1 < 1.0), t1, np.nan)
    t2 = np.where((t2 > 1.0) & (t2 < T_MAX), t2, np.nan)
    ts = np.stack([np.full_like(t1, 1e-8), np.full_like(t2, T_MAX),
                   t1 * (1.0 - ROOT_CERT), t1 * (1.0 + ROOT_CERT),
                   t2 * (1.0 - ROOT_CERT), t2 * (1.0 + ROOT_CERT)])
    neg = _not_positive_definite(m0 + np.where(np.isnan(ts), 1.0, ts)[..., None, None] * m1)
    t1 = np.where(neg[0] & neg[2] & ~neg[3], t1, np.nan)
    t2 = np.where(neg[1] & ~neg[4] & neg[5], t2, np.nan)
    return t1, t2


def discriminating_roots(g: Graph) -> Tuple[Optional[float], Optional[float]]:
    """Roots of the discriminating polynomial adjacent to t = 1.

    Returns (t1, t2): the largest root in (0, 1) and the smallest root above 1,
    where the smallest eigenvalue of the bordered Gram matrix changes sign.
    """
    reps._require_nondegenerate(class_stack(g.adj[None]))
    t1, t2 = (float(t[0]) for t in _roots_stack(g.adj[None]))
    return None if math.isnan(t1) else t1, None if math.isnan(t2) else t2


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

    def tally(self, check: str, count: int, error: Optional[float] = None) -> None:
        """Count ``count`` more graphs under ``check``; ``error`` is their largest error."""
        self.check_counts[check] = self.check_counts.get(check, 0) + count
        if error is not None:
            self.max_errors[check] = max(self.max_errors.get(check, 0.0), error)

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


class _Check(NamedTuple):
    """One invariant over a stack: where it applies, where it holds, its
    error per graph (or None) and the violation detail of graph i."""

    name: str
    applies: np.ndarray
    ok: np.ndarray
    error: Optional[np.ndarray] = None
    detail: Callable[[int], str] = lambda i: ""


def _sweep_stack(summary: SweepSummary, adj: np.ndarray, comp: np.ndarray,
                 checked: np.ndarray) -> None:
    """Analyse one stack of graphs of order n and record every invariant for
    the rows in ``checked``; ``comp[i]`` is the row of graph i's complement."""
    k, n = adj.shape[0], adj.shape[-1]
    st = reps._analyze_stack(adj, vectors=True)
    errors = st.errors.copy()
    deg = st.classes.degenerate
    has_l, has_u = ~np.isnan(st.beta_l), ~np.isnan(st.beta_u)
    live = ~deg & (errors == None)  # noqa: E711

    # Constructive checks, built only for the live rows in ``checked``, and
    # not at all for a stack with none, from one lift of the pass's
    # eigenvectors: the configurations at each endpoint and at the interior
    # beta (the spherical witness is one of these), the J-spherical
    # configuration's distances and unit rows; and, where the upper endpoint
    # is spherical, the circumradius of its configuration, for the radius
    # check. The J points are a closed form in the pass's eigenpairs, q and
    # delta: their unit rows check delta and their distances dim_J.
    # dim_j_connected_complement checks dim_J with no eigensolver.
    config_dev, config_ok = np.zeros(k), np.ones(k, dtype=bool)
    row_norm_err, radius_err = np.zeros(k), np.full(k, np.nan)
    sel = np.flatnonzero(live & checked)
    if sel.size:
        lifted = lift(st.basis[sel], build_v(n))
        sub, dev, ok = adj[sel], np.zeros(sel.size), np.ones(sel.size, dtype=bool)
        at_u = st.spherical_at_u[sel]
        # beta_l and beta_u count where that endpoint exists, beta_i and beta_j on every row
        for side, alpha, beta, has in (("l", 1.0, st.beta_l, has_l[sel]),
                                       ("u", 1.0, st.beta_u, has_u[sel]),
                                       ("i", 1.0, st.beta_i, np.True_), ("j", 2.0, st.beta_j, np.True_)):
            points = st.configuration(side, sel, lifted)
            d, passed, _ = _verify_stack(points, sub, alpha, beta[sel])
            dev = np.where(has, np.fmax(dev, d), dev)
            ok &= ~has | passed
            if side == "u":
                points_u = points
        config_dev[sel], config_ok[sel] = dev, ok
        row_norm_err[sel] = linalg.reduce_last(
            np.maximum, np.abs(np.einsum("kij,kij->ki", points, points) - 1.0))

        # Radius consistency at a spherical upper endpoint: the reported
        # radius (the closed form) and that circumradius vs the Dw = e radius.
        if np.count_nonzero(at_u):
            rad = sel[at_u]
            witness = reps._witness_radius(points_u[at_u]) ** 2
            abar = complement_adjacency(adj[rad]).astype(float)
            sphere = edm.sphere_stack(adj[rad] + st.beta_u[rad, None, None] * abar)
            errors[rad] = sphere.errors
            rho2_w = sphere.radius ** 2
            radius_err[rad] = np.maximum(np.abs(witness - rho2_w),
                                         np.abs(st.rho_u[rad] ** 2 - rho2_w))
    failed = errors != None  # noqa: E711
    live &= ~failed

    # the roots only feed checks recorded for the rows in ``checked``, not
    # for a sampled graph's complement. Where both graphs of a complementary
    # pair need them, the first row leads: M0 and M1 swap for the complement,
    # so its pencil is t D(1/t) and its roots are (1/t2, 1/t1) of the
    # leader's. The probes agree too: lambda_min of the pencil is concave in
    # t and positive at 1, every t2 <= 4 and every t1 >= 1/4.
    t1, t2 = np.full(k, np.nan), np.full(k, np.nan)
    roots = live & checked
    partner = roots & roots[comp] & (comp < np.arange(k))
    lead = roots & ~partner
    if lead.any():
        t1[lead], t2[lead] = _roots_stack(adj[lead])
        t1[partner], t2[partner] = 1.0 / t2[comp[partner]], 1.0 / t1[comp[partner]]
    root_presence_ok = (np.isnan(t1) == ~has_l) & (np.isnan(t2) == ~has_u)
    root_err = np.fmax(np.where(has_l & ~np.isnan(t1), np.abs(t1 - st.beta_l), 0.0),
                       np.where(has_u & ~np.isnan(t2), np.abs(t2 - st.beta_u), 0.0))

    # the value of each row's complement, gathered once per kind of column
    c_failed, c_deg, c_connected, c_has_u, c_sph_u = np.array(
        [failed, deg, connected_stack(adj), has_u, st.spherical_at_u])[:, comp]
    cols = np.array([st.mu_min, st.mu_max, st.m_min, st.m_max, st.dim_e, st.dim_s])
    c_mu_min, c_mu_max, c_m_min, c_m_max, c_dim_e, c_dim_s = cols[:, comp]

    mu_min, mu_max = st.mu_min, st.mu_max
    near_m1, near_0 = np.abs(mu_min + 1.0) <= 1e-7, np.abs(mu_max) <= 1e-7
    lb_e, lb_s = reps.lower_bounds(n)
    pair = ~(failed | deg | c_failed)   # single-graph and complement checks
    dual = pair & ~c_deg
    mu_err = np.fmax(np.abs(c_mu_min - (-1.0 - mu_max)), np.abs(c_mu_max - (-1.0 - mu_min)))
    checks = [
        _Check("no_internal_error", failed, ~failed,
               detail=lambda i: f"{type(errors[i]).__name__}: {errors[i]}"),
        _Check("degenerate_complement", ~failed & deg,
               c_deg & (st.classes.tag[comp] != st.classes.tag) if n > 1 else np.ones(k, bool)),
        _Check("cluster_iff_mu_min_-1", pair, st.classes.is_cluster == near_m1,
               detail=lambda i: f"mu_min={float(mu_min[i])}"),
        _Check("multipartite_iff_mu_max_0", pair, st.classes.is_multipartite == (mu_max <= 1e-7),
               detail=lambda i: f"mu_max={float(mu_max[i])}"),
        _Check("no_mu_max0_mu_min-1", pair, ~(near_0 & near_m1)),
        _Check("mu_min_below_-1", pair, mu_min <= -1.0 + 1e-7,
               detail=lambda i: f"mu_min={float(mu_min[i])}"),
        _Check("dim_chain", pair, (st.dim_e <= st.dim_s) & (st.dim_s <= st.dim_j),
               detail=lambda i: f"{st.dim_e[i]},{st.dim_s[i]},{st.dim_j[i]}"),
        _Check("dim_e_at_most_n-2", pair, st.dim_e <= n - 2),
        _Check("dim_j_connected_complement", pair & c_connected, st.dim_j == n - 1,
               detail=lambda i: f"dim_j={st.dim_j[i]}"),
        _Check("lower_bounds", pair, (st.dim_e >= lb_e - 1e-9) & (st.dim_s >= lb_s - 1e-9),
               detail=lambda i: f"dims=({st.dim_e[i]},{st.dim_s[i]}) lbs=({lb_e:.4f},{lb_s:.4f})"),
        _Check("dim_e_complement", dual, st.dim_e == c_dim_e),
        _Check("dim_s_complement", dual, st.dim_s == c_dim_s),
        _Check("mu_complement_relation", dual,
               (mu_err <= 1e-9) & (c_m_min == st.m_max) & (c_m_max == st.m_min),
               mu_err, lambda i: f"err={mu_err[i]:.2e}"),
        _Check("endpoint_sphericity_duality", dual & has_l & c_has_u,
               st.spherical_at_l == c_sph_u),
        _Check("dispoly_roots_exist", pair, root_presence_ok),
        _Check("dispoly_roots_match", pair, root_err <= SWEEP_TOL, root_err,
               lambda i: f"err={root_err[i]:.2e}"),
        _Check("configurations_verify", pair, config_ok & (config_dev <= SWEEP_TOL),
               config_dev, lambda i: f"dev={config_dev[i]:.2e}"),
        _Check("j_rows_unit_norm", pair, row_norm_err <= 1e-8, row_norm_err),
        _Check("radius_consistency", pair & st.spherical_at_u,
               radius_err <= SWEEP_TOL, radius_err, lambda i: f"err={radius_err[i]:.2e}"),
    ]
    # one (checks, rows) table: the rows each check records, those it fails
    # and, for the checks with an error, their largest one (a NaN error fails
    # its check but, as in max(), never becomes the largest)
    rows = np.array([chk.applies for chk in checks]) & checked
    bad = rows & ~np.array([chk.ok for chk in checks])
    measured = [j for j, chk in enumerate(checks) if chk.error is not None]
    largest = dict(zip(measured, np.fmax.reduce(
        np.where(rows[measured], [checks[j].error for j in measured], 0.0),
        axis=1, initial=0.0).tolist()))
    for j, count in enumerate(linalg.reduce_last(np.add, rows, dtype=np.intp).tolist()):
        if count:
            summary.tally(checks[j].name, count, largest.get(j))
    if np.count_nonzero(bad):
        for i, order in np.argwhere(bad.T).tolist():
            summary.violations.append({"check": checks[order].name,
                                       "graph6": encode_graph6(Graph(n, adj[i])),
                                       "detail": checks[order].detail(i)})
    n_checked = int(np.count_nonzero(checked))
    summary.graphs_checked += n_checked
    summary.per_n[n] = summary.per_n.get(n, 0) + n_checked
    summary.degenerate += int(np.count_nonzero(deg & checked))


def invariant_sweep(n_max: int, sample_7_8: int = 0, seed: int = 0,
                    workers: Optional[int] = None) -> SweepSummary:
    """Exhaustive labeled-graph sweep for n <= n_max (n_max <= 6), plus
    ``sample_7_8`` random graphs at n in {7, 8} (half at each order, the odd
    one at 7), running every module-level invariant.

    Each order is one stack; a sampled graph's complement is analysed with it.
    ``workers`` is accepted for compatibility and ignored: the sweep runs in
    one process.
    """
    if n_max > 6:
        raise ValueError("exhaustive sweep limited to n_max <= 6")
    summary = SweepSummary()
    start = time.monotonic()
    for n in range(2, n_max + 1):
        full = (1 << (n * (n - 1) // 2)) - 1
        masks = np.arange(full + 1)
        _sweep_stack(summary, mask_stack(n, masks), full ^ masks, np.ones(full + 1, dtype=bool))
    rng = np.random.default_rng(seed)
    for n, count in ((7, (sample_7_8 + 1) // 2), (8, sample_7_8 // 2)):
        full = (1 << (n * (n - 1) // 2)) - 1
        masks = rng.integers(0, full + 1, size=count)
        if masks.size:
            s = masks.size
            _sweep_stack(summary, mask_stack(n, np.r_[masks, full ^ masks]),
                         np.r_[np.arange(s, 2 * s), np.arange(s)], np.arange(2 * s) < s)
    summary.elapsed_seconds = time.monotonic() - start
    return summary
