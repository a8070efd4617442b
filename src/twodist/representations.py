"""Two-distance representation dimensions and witness constructions.

Everything here is driven by the spectrum of the projected adjacency matrix
V.T @ A @ V: its extreme eigenvalues bound the feasible second distance, their
multiplicities give the Euclidean and spherical dimensions, and the largest
eigenvalue of the complement adjacency determines the J-spherical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from . import edm, linalg
from .centering import VBasis, build_v, project_adjacency
from .edm import Configuration
from .graphs import Graph, GraphClass, adjacency_matrix, classify, complement

SIDE_LOWER = "lower"
SIDE_UPPER = "upper"


class DegenerateGraphError(ValueError):
    """Complete and null graphs admit no two-distance representation."""


class EndpointError(ValueError):
    """The requested feasibility endpoint does not exist for this graph."""


class InfeasibleBetaError(ValueError):
    """The requested second distance makes the projected Gram indefinite."""

    def __init__(self, beta: float, eigenvalue: float):
        super().__init__(
            f"beta={beta} infeasible: projected Gram eigenvalue {eigenvalue:.6g} < 0")
        self.beta = beta
        self.eigenvalue = eigenvalue


@dataclass(frozen=True)
class ProjectedSpectrum:
    """Clustered spectrum of V.T @ A @ V together with the basis V used."""

    n: int
    groups: tuple  # ((value, basis), ...) descending; basis is (n-1) x mult
    v: VBasis

    @property
    def mu_max(self) -> float:
        return self.groups[0][0]

    @property
    def mu_min(self) -> float:
        return self.groups[-1][0]

    @property
    def m_max(self) -> int:
        return self.groups[0][1].shape[1]

    @property
    def m_min(self) -> int:
        return self.groups[-1][1].shape[1]

    @property
    def u_l(self) -> np.ndarray:
        """Orthonormal eigenbasis for mu_max."""
        return self.groups[0][1]

    @property
    def u_u(self) -> np.ndarray:
        """Orthonormal eigenbasis for mu_min."""
        return self.groups[-1][1]

    def rest_above_min(self) -> Tuple[np.ndarray, np.ndarray]:
        """(W, Lambda) for all groups except the mu_min one."""
        bases = [b for _, b in self.groups[:-1]]
        vals = np.concatenate([[val] * b.shape[1] for (val, b) in self.groups[:-1]])
        return np.hstack(bases), vals

    def flat(self) -> np.ndarray:
        return np.concatenate([[val] * b.shape[1] for val, b in self.groups])


@dataclass(frozen=True)
class BetaIntervals:
    """Feasible second-distance values as closed/open intervals excluding 1."""

    intervals: tuple  # ((lo, lo_closed, hi, hi_closed), ...)

    def contains(self, beta: float, slack: float = 0.0) -> bool:
        for lo, lo_closed, hi, hi_closed in self.intervals:
            above = beta >= lo - slack if lo_closed else beta > lo + (-slack)
            below = beta <= hi + slack if hi_closed else beta < hi - (-slack)
            if above and below:
                return True
        return False


@dataclass(frozen=True)
class JSpherical:
    delta: float
    beta: float  # second squared distance 2 + 2*delta
    dim_j: int
    config: Configuration


def projected_spectrum(g: Graph, tol: float = linalg.EIG_TOL) -> ProjectedSpectrum:
    """Clustered spectrum of V.T @ A @ V, with the basis V used.

    Raises edm.InternalConsistencyError when the top or bottom group merges
    distinct eigenvalues, since its multiplicity is a dimension drop.
    """
    if g.n < 2:
        raise DegenerateGraphError("projected spectrum needs n >= 2")
    v = build_v(g.n)
    spec = linalg.eigh(project_adjacency(adjacency_matrix(g), v), tol)
    for grp in (spec.groups[0], spec.groups[-1]):
        if _merges_eigenvalues(grp, g.n):
            raise edm.InternalConsistencyError(
                f"extreme eigenvalue group of V.T A V ({grp.value:.6g}, multiplicity "
                f"{grp.multiplicity}) merges eigenvalues {grp.spread:.3e} apart")
    return ProjectedSpectrum(g.n, tuple((grp.value, grp.basis) for grp in spec.groups), v)


def _merges_eigenvalues(grp: linalg.SpectralGroup, n: int) -> bool:
    """Whether a clustered group holds eigenvalues farther from its value than
    the residual tolerance allows, so its multiplicity counts distinct ones."""
    return grp.spread > linalg.RESIDUAL_TOL * math.sqrt(n)


def _require_nondegenerate(g: Graph, cls: Optional[GraphClass]) -> GraphClass:
    cls = cls if cls is not None else classify(g)
    if cls.is_degenerate:
        raise DegenerateGraphError(
            f"{cls.tag} graph admits no two-distance representation")
    return cls


def beta_endpoints(ps: ProjectedSpectrum, cls: GraphClass) -> Tuple[Optional[float], Optional[float]]:
    """(beta_l, beta_u); None where the endpoint does not exist."""
    beta_l = ps.mu_max / (ps.mu_max + 1.0) if not cls.is_multipartite else None
    beta_u = abs(ps.mu_min) / (abs(ps.mu_min) - 1.0) if not cls.is_cluster else None
    return beta_l, beta_u


def beta_feasible_set(g: Graph, cls: Optional[GraphClass] = None,
                      ps: Optional[ProjectedSpectrum] = None) -> BetaIntervals:
    """Feasible second squared distances (first distance normalized to 1)."""
    cls = _require_nondegenerate(g, cls)
    ps = ps if ps is not None else projected_spectrum(g)
    beta_l, beta_u = beta_endpoints(ps, cls)
    if cls.is_cluster:
        return BetaIntervals(((beta_l, True, 1.0, False), (1.0, False, math.inf, False)))
    if cls.is_multipartite:
        return BetaIntervals(((0.0, False, 1.0, False), (1.0, False, beta_u, True)))
    return BetaIntervals(((beta_l, True, 1.0, False), (1.0, False, beta_u, True)))


def dim_euclidean(g: Graph, cls: Optional[GraphClass] = None,
                  ps: Optional[ProjectedSpectrum] = None) -> Tuple[int, float]:
    """Minimal Euclidean representation dimension and a witness beta."""
    cls = _require_nondegenerate(g, cls)
    ps = ps if ps is not None else projected_spectrum(g)
    beta_l, beta_u = beta_endpoints(ps, cls)
    if cls.is_cluster:
        return g.n - 1 - ps.m_max, beta_l
    if cls.is_multipartite:
        return g.n - 1 - ps.m_min, beta_u
    r_l = g.n - 1 - ps.m_max
    r_u = g.n - 1 - ps.m_min
    if r_l <= r_u:
        return r_l, beta_l
    return r_u, beta_u


def endpoint_sphericity(g: Graph, side: str, ps: Optional[ProjectedSpectrum] = None,
                        tol_scale: float = linalg.RESIDUAL_TOL) -> bool:
    """Whether the EDM at the requested feasibility endpoint is spherical."""
    ps = ps if ps is not None else projected_spectrum(g)
    a = adjacency_matrix(g)
    tol = tol_scale * math.sqrt(g.n)
    if side == SIDE_LOWER:
        if ps.mu_max <= 1e-9:
            raise EndpointError("lower endpoint requires mu_max > 0")
        z = ps.v.columns @ ps.u_l
        return float(np.max(np.abs(a @ z - ps.mu_max * z))) <= tol
    if side == SIDE_UPPER:
        if ps.mu_min > -1.0 - 1e-9:
            raise EndpointError("upper endpoint requires mu_min < -1")
        z = ps.v.columns @ ps.u_u
        return float(np.max(np.abs(a @ z - ps.mu_min * z))) <= tol
    raise ValueError(f"unknown side {side!r}")


def _adjacency_pair(g: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """(A, Abar) as float matrices."""
    return adjacency_matrix(g), adjacency_matrix(complement(g))


def _edm_at(g: Graph, beta: float) -> np.ndarray:
    a, abar = _adjacency_pair(g)
    return a + beta * abar


def _interior_beta(beta_l: Optional[float], beta_u: Optional[float]) -> float:
    if beta_l is not None:
        return 0.5 * (beta_l + 1.0)
    return 0.5 * (1.0 + beta_u)


@dataclass(frozen=True)
class _Endpoint:
    """One feasibility endpoint. Every field is None where the endpoint does
    not exist; config and rho are None where its EDM is not spherical."""

    beta: Optional[float] = None
    dim: Optional[int] = None
    spherical: Optional[bool] = None
    config: Optional[Configuration] = None
    rho: Optional[float] = None


def _endpoints(g: Graph, cls: GraphClass, ps: ProjectedSpectrum) -> Tuple[_Endpoint, _Endpoint]:
    """The lower and upper endpoints, each tested for sphericity once; the
    configuration and its circumradius are built only where it is spherical."""
    out = []
    for side, beta, mult in zip((SIDE_LOWER, SIDE_UPPER), beta_endpoints(ps, cls),
                                (ps.m_max, ps.m_min)):
        if beta is None:
            out.append(_Endpoint())
        elif not endpoint_sphericity(g, side, ps):
            out.append(_Endpoint(beta, g.n - 1 - mult, False))
        else:
            config = euclidean_representation(g, beta, cls, ps)
            out.append(_Endpoint(beta, g.n - 1 - mult, True, config,
                                 _witness_radius(config.points)))
    return out[0], out[1]


def _spherical_witness(g: Graph, cls: GraphClass, ps: ProjectedSpectrum,
                       ends: Tuple[_Endpoint, _Endpoint]) -> Tuple[int, float, Configuration, float]:
    """dim_S with its witness beta, configuration and circumradius: the
    spherical endpoint of least dimension, else an interior beta in n - 1."""
    spherical = [e for e in ends if e.spherical]
    if spherical:
        best = min(spherical, key=lambda e: e.dim)
        return best.dim, best.beta, best.config, best.rho
    beta = _interior_beta(ends[0].beta, ends[1].beta)
    config = euclidean_representation(g, beta, cls, ps)
    return g.n - 1, beta, config, _witness_radius(config.points)


def dim_spherical(g: Graph, cls: Optional[GraphClass] = None,
                  ps: Optional[ProjectedSpectrum] = None) -> Tuple[int, float, float]:
    """Minimal spherical dimension, witness beta and the witness radius."""
    cls = _require_nondegenerate(g, cls)
    ps = ps if ps is not None else projected_spectrum(g)
    r, beta, _, rho = _spherical_witness(g, cls, ps, _endpoints(g, cls, ps))
    return r, beta, rho


def _witness_radius(p: np.ndarray) -> float:
    """Circumradius of a centroid-centered spherical configuration.

    The columns of p are orthogonal (eigenvector directions scaled by
    sqrt(eigenvalue)), so the center equation P c = (diag(B) - mean)/2 solves
    by a diagonal system; the rows sum to zero, so rho^2 = |c|^2 + mean |p_i|^2.
    """
    diag_b = np.einsum("ij,ij->i", p, p)
    rhs = 0.5 * (diag_b - diag_b.mean())
    lam = np.einsum("ij,ij->j", p, p)
    c = (p.T @ rhs) / lam
    resid = float(np.max(np.abs(p @ c - rhs)))
    if resid > 1e-7 * max(1.0, float(diag_b.max())):
        raise edm.InternalConsistencyError(
            f"witness EDM unexpectedly non-spherical: center residual {resid:.3e}")
    return math.sqrt(float(c @ c) + float(diag_b.mean()))


def radius_at_beta_u_closed_form(g: Graph, ps: Optional[ProjectedSpectrum] = None) -> float:
    """Squared radius of the upper-endpoint EDM from the spectral closed form."""
    ps = ps if ps is not None else projected_spectrum(g)
    if ps.mu_min > -1.0 - 1e-9:
        raise EndpointError("closed form requires mu_min < -1")
    if not endpoint_sphericity(g, SIDE_UPPER, ps):
        raise EndpointError("upper endpoint is not spherical")
    a = adjacency_matrix(g)
    n = g.n
    e = np.ones(n)
    w_basis, lam = ps.rest_above_min()
    q = w_basis.T @ (ps.v.columns.T @ (a @ e))
    term = float(q @ (q / (ps.mu_min - lam)))
    eae = float(e @ a @ e)
    rho2 = (term + ps.mu_min * (n * n - n) + eae) / (2.0 * n * n * (ps.mu_min + 1.0))
    return rho2


def j_spherical(g: Graph, cls: Optional[GraphClass] = None,
                tol: float = linalg.EIG_TOL) -> JSpherical:
    """The unique J-spherical representation: unit sphere, first distance 2."""
    _require_nondegenerate(g, cls)
    abar = adjacency_matrix(complement(g))
    spec = linalg.eigh(abar, tol)
    top = spec.groups[0]
    if top.value <= 0.0 or _merges_eigenvalues(top, g.n):
        raise edm.InternalConsistencyError(
            f"top eigenvalue group of the complement ({top.value:.6g}, spread "
            f"{top.spread:.3e}) is not one positive eigenvalue")
    delta = 1.0 / top.value
    # The Gram matrix I - delta*Abar shares Abar's eigenvectors; its eigenvalue
    # 1 - delta*lambda vanishes on the top group only.
    points = np.hstack([grp.basis * math.sqrt(1.0 - delta * grp.value)
                        for grp in reversed(spec.groups[1:])])
    return JSpherical(delta, 2.0 + 2.0 * delta, g.n - top.multiplicity,
                      Configuration(points, edm.CENTERING_CIRCUMCENTER))


def same_second_distance(g1: Graph, g2: Graph, tol: float = 1e-9) -> bool:
    """Whether the two J-spherical representations share the second distance."""
    lam1 = linalg.eigh(adjacency_matrix(complement(g1))).max_value
    lam2 = linalg.eigh(adjacency_matrix(complement(g2))).max_value
    return abs(lam1 - lam2) <= tol


def euclidean_representation(g: Graph, beta: float, cls: Optional[GraphClass] = None,
                             ps: Optional[ProjectedSpectrum] = None,
                             tol: float = linalg.EIG_TOL) -> Configuration:
    """A centroid-centered configuration realizing the EDM A + beta*Abar."""
    _require_nondegenerate(g, cls)
    ps = ps if ps is not None else projected_spectrum(g)
    # X(beta) = (beta I + (beta - 1) V.T A V)/2 shares the eigenvectors of
    # V.T A V, so its spectrum comes straight from the projected spectrum.
    pairs = [(0.5 * (beta + (beta - 1.0) * mu), basis) for mu, basis in ps.groups]
    x_vals = [val for val, _ in pairs]
    scale = max(1.0, max(abs(val) for val in x_vals))
    x_min = min(x_vals)
    if x_min < -tol * scale:
        raise InfeasibleBetaError(beta, x_min)
    pairs.sort(key=lambda t: -t[0])
    cols = [basis * math.sqrt(val) for val, basis in pairs if val > tol * scale]
    points = ps.v.columns @ np.hstack(cols) if cols else np.zeros((g.n, 0))
    return Configuration(points, edm.CENTERING_CENTROID)


def lower_bounds(n: int) -> Tuple[float, float]:
    """Lower bounds on dim_E and dim_S from the two-distance cardinality bounds."""
    if n < 2:
        raise ValueError("n >= 2 required")
    lb_e = 0.5 * (math.sqrt(8.0 * n + 1.0) - 3.0)
    lb_s = 0.5 * (math.sqrt(8.0 * n + 9.0) - 3.0)
    return lb_e, lb_s


@dataclass(frozen=True)
class ReprReport:
    """Aggregated analysis of one graph; None marks inapplicable fields."""

    n: int
    graph_class: GraphClass
    degenerate: bool
    mu_min: Optional[float]
    mu_max: Optional[float]
    m_min: Optional[int]
    m_max: Optional[int]
    beta_l: Optional[float]
    beta_u: Optional[float]
    dim_e: Optional[int]
    dim_e_witness_beta: Optional[float]
    dim_s: Optional[int]
    dim_s_witness_beta: Optional[float]
    spherical_at_l: Optional[bool]
    spherical_at_u: Optional[bool]
    rho_l: Optional[float]
    rho_u: Optional[float]
    delta: Optional[float]
    beta_j: Optional[float]
    dim_j: Optional[int]
    lower_bound_e: float
    lower_bound_s: float

    def to_dict(self) -> dict:
        """The report as JSON-ready values, the class spelled out, in field order."""
        cls = self.graph_class
        doc = {"n": self.n, "class": cls.tag,
               "partition": list(cls.partition) if cls.partition else None,
               "is_cluster": cls.is_cluster, "is_multipartite": cls.is_multipartite}
        doc.update((f.name, getattr(self, f.name)) for f in fields(self)[2:])
        return doc


@dataclass(frozen=True)
class _Analysis:
    """One pass over a graph: the report plus the spectrum, the configurations
    built on the way (keyed by beta) and the J-spherical data behind it."""

    report: ReprReport
    ps: Optional[ProjectedSpectrum] = None
    configs: Optional[dict] = None
    js: Optional[JSpherical] = None


def _analyze(g: Graph, tol: float = linalg.EIG_TOL) -> _Analysis:
    """The pass behind ``analyze_graph``; the sweep checks the same pass."""
    cls = classify(g)
    lb_e, lb_s = lower_bounds(max(g.n, 2))
    if cls.is_degenerate:
        return _Analysis(ReprReport(g.n, cls, True, *([None] * 17), lb_e, lb_s))
    ps = projected_spectrum(g, tol)
    # mu_max = 0 exactly for complete multipartite graphs and mu_min = -1
    # exactly for cluster graphs; a clustering that breaks this is a fault
    if (ps.mu_max > 1e-9) == cls.is_multipartite or (ps.mu_min < -1.0 - 1e-9) == cls.is_cluster:
        raise edm.InternalConsistencyError(
            f"projected spectrum (mu_min={ps.mu_min:.6g}, mu_max={ps.mu_max:.6g}) "
            f"contradicts the class {cls.tag!r}")
    r_e, beta_e = dim_euclidean(g, cls, ps)
    lower, upper = ends = _endpoints(g, cls, ps)
    r_s, beta_s, witness, _ = _spherical_witness(g, cls, ps, ends)
    js = j_spherical(g, cls, tol)
    if not lb_e - 1e-9 <= r_e <= r_s <= js.dim_j:
        raise edm.InternalConsistencyError(
            f"dimensions break lower_bound_e <= dim_e <= dim_s <= dim_j: "
            f"{lb_e:.4f}, {r_e}, {r_s}, {js.dim_j}")
    report = ReprReport(
        n=g.n, graph_class=cls, degenerate=False,
        mu_min=ps.mu_min, mu_max=ps.mu_max, m_min=ps.m_min, m_max=ps.m_max,
        beta_l=lower.beta, beta_u=upper.beta,
        dim_e=r_e, dim_e_witness_beta=beta_e,
        dim_s=r_s, dim_s_witness_beta=beta_s,
        spherical_at_l=lower.spherical, spherical_at_u=upper.spherical,
        rho_l=lower.rho, rho_u=upper.rho,
        delta=js.delta, beta_j=js.beta, dim_j=js.dim_j,
        lower_bound_e=lb_e, lower_bound_s=lb_s,
    )
    configs = {e.beta: e.config for e in ends if e.spherical}
    configs[beta_s] = witness
    return _Analysis(report, ps, configs, js)


def analyze_graph(g: Graph, tol: float = linalg.EIG_TOL) -> ReprReport:
    """Full representation report for one graph.

    Raises edm.InternalConsistencyError when the answers contradict each
    other or the class tag, as when ``tol`` merges distinct eigenvalues.
    """
    return _analyze(g, tol).report
