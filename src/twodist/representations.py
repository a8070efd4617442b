"""Two-distance representation dimensions and witness constructions.

Everything here is driven by the spectrum of the projected adjacency matrix
V.T @ A @ V: its extreme eigenvalues bound the feasible second distance, their
multiplicities give the Euclidean and spherical dimensions, and the largest
eigenvalue of the complement adjacency determines the J-spherical data.

The analysis is one pass over a stack of graphs of one order
(``_analyze_stack``): every graph of order n shares the same V, so the pass
is one stacked eigendecomposition of V.T A V followed by array operations.
The radii are closed forms in its eigenpairs, and the complement adjacency
is an arrowhead matrix in its eigenbasis, whose top eigenvalue is a root of
its secular equation; a regular graph needs only the eigenvalues.
``analyze_graph`` is that pass on a stack of one; the sweep runs it on every
graph of an order at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from . import edm, linalg
from .centering import build_v, lift, lift_extremes, project_adjacency, restrict
from .edm import Configuration, _circumcenter
from .graphs import (ClassStack, Graph, GraphClass, adjacency_matrix, class_stack, complement,
                     complement_adjacency)

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
class BetaIntervals:
    """Feasible second-distance values as closed/open intervals excluding 1."""

    intervals: tuple  # ((lo, lo_closed, hi, hi_closed), ...)

    def contains(self, beta: float) -> bool:
        return any((beta >= lo if lo_closed else beta > lo)
                   and (beta <= hi if hi_closed else beta < hi)
                   for lo, lo_closed, hi, hi_closed in self.intervals)


@dataclass(frozen=True)
class JSpherical:
    delta: float
    beta: float  # second squared distance 2 + 2*delta
    dim_j: int
    config: Configuration


def _merge_tol(n: int) -> float:
    """Largest spread of a clustered group whose multiplicity is trusted: a
    group whose eigenvalues lie farther from its value merges distinct ones."""
    return linalg.RESIDUAL_TOL * math.sqrt(n)


def _shown(value: float, scale: float) -> float:
    """A group mean as a fault message prints it: 0 when it is rounding
    residue of the spectrum it came from, whose largest |eigenvalue| is
    ``scale``, so that equivalent eigenvalue routes print the same text."""
    return 0.0 if abs(value) <= linalg.ROUNDING * scale else value


def _require_nondegenerate(classes: ClassStack) -> None:
    """Refuse the first graph of ``classes`` if it is complete or null."""
    if classes.degenerate[0]:
        raise DegenerateGraphError(f"{classes.tag[0]} graph admits no two-distance representation")


def beta_feasible_set(g: Graph) -> BetaIntervals:
    """Feasible second squared distances (first distance normalized to 1):
    beta_l and beta_u of the analysis pass, which raises as ``dim_euclidean``."""
    st = _analyze_single(g)
    lower = (0.0, False) if st.classes.is_multipartite[0] else (float(st.beta_l[0]), True)
    upper = (math.inf, False) if st.classes.is_cluster[0] else (float(st.beta_u[0]), True)
    return BetaIntervals(((*lower, 1.0, False), (1.0, False, *upper)))


def dim_euclidean(g: Graph) -> Tuple[int, float]:
    """Minimal Euclidean representation dimension and a witness beta.

    Runs the whole analysis pass, so it raises DegenerateGraphError for a
    complete or null graph and edm.InternalConsistencyError for any fault
    ``analyze_graph`` reports, not only those of dim_E.
    """
    st = _analyze_single(g)
    return int(st.dim_e[0]), float(st.dim_e_witness_beta[0])


def endpoint_sphericity(g: Graph, side: str) -> bool:
    """Whether the EDM at the requested feasibility endpoint is spherical: the
    lifted extreme eigenvectors z satisfy A z = mu z. A direct reference for
    the pass's test, on the clustered ``linalg.eigh`` of V.T A V."""
    if side not in (SIDE_LOWER, SIDE_UPPER):
        raise ValueError(f"unknown side {side!r}")
    v = build_v(g.n)
    groups = linalg.eigh(project_adjacency(g.adj, v)).groups
    grp = groups[0] if side == SIDE_LOWER else groups[-1]
    if side == SIDE_LOWER and grp.value <= 1e-9:
        raise EndpointError("lower endpoint requires mu_max > 0")
    if side == SIDE_UPPER and grp.value > -1.0 - 1e-9:
        raise EndpointError("upper endpoint requires mu_min < -1")
    z = lift(grp.basis, v)
    return float(np.max(np.abs(adjacency_matrix(g) @ z - grp.value * z))) <= _merge_tol(g.n)


def _adjacency_pair(g: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """(A, Abar) as float matrices."""
    return adjacency_matrix(g), adjacency_matrix(complement(g))


def _edm_at(g: Graph, beta: float) -> np.ndarray:
    a, abar = _adjacency_pair(g)
    return a + beta * abar


def dim_spherical(g: Graph) -> Tuple[int, float, float]:
    """Minimal spherical dimension, witness beta and the witness radius: the
    pass's rho_l or rho_u at an endpoint witness, else the circumradius of
    the configuration at the interior witness beta_i. Only an irregular graph
    has that witness (q = 0 makes a regular graph's endpoints spherical), so
    the pass ran eigh there. Raises as ``dim_euclidean`` does.
    """
    st = _analyze_single(g)
    beta = st.dim_s_witness_beta[0]
    rho = (st.rho_l if beta == st.beta_l[0] else st.rho_u if beta == st.beta_u[0]
           else _witness_radius(st.configuration("i")))
    return int(st.dim_s[0]), float(beta), float(rho[0])


def _witness_radius(p: np.ndarray) -> np.ndarray:
    """Circumradius of centroid-centered spherical configurations (..., n, r);
    NaN where the center equation leaves a residual, so the EDM is not
    spherical. The rows sum to zero, so rho^2 = |c|^2 + mean |p_i|^2."""
    c, resid, diag_b = _circumcenter(p)
    rho = np.sqrt((c * c).sum(axis=-1) + diag_b.sum(axis=-1) / p.shape[-2])
    return np.where(resid <= 1e-7 * np.maximum(1.0, diag_b.max(axis=-1)), rho, np.nan)


def _radius2(beta: np.ndarray, w: np.ndarray, q: np.ndarray, mean_deg: np.ndarray,
             skip: np.ndarray) -> np.ndarray:
    """Squared circumradii of the EDMs A + beta*Abar of k graphs of order n,
    in closed form from the eigenpairs (w, U) of V.T A V (w of shape (k, n-1)),
    q = U.T V.T d for the degree vector d, and mean_deg = 2|E|/n:

        rho^2 = [beta (n-1) + (1 - beta)(2|E|/n + sum_j (q_j^2/n) / (x* - w_j))] / (2n),

    x* = beta/(1 - beta). The configuration's points are the rows of
    V U sqrt(x) with x_j = (1 - beta)(x* - w_j)/2; the first part is their
    mean squared norm, the sum the squared norm of the circumcenter c, which
    solves sqrt(x_j) c_j = (1 - beta) q_j/(2n). ``skip`` marks the extreme
    group that vanishes at an endpoint beta, where the EDM is spherical only
    if q vanishes on it.
    """
    n = w.shape[-1] + 1
    x_star = (beta / (1.0 - beta))[:, None]
    terms = np.where(skip, 0.0, q * q / (x_star - w))  # callers ignore division faults
    return (beta * (n - 1) + (1.0 - beta) * (mean_deg + terms.sum(axis=-1) / n)) / (2.0 * n)


@dataclass(frozen=True)
class _JStack:
    """J-spherical data of a stack of order-n graphs: the top eigenvalue group
    of each Abar."""

    n: int
    top: np.ndarray
    spread: np.ndarray
    dim_j: np.ndarray
    scale: np.ndarray  # largest |eigenvalue| of each Abar

    @property
    def delta(self) -> np.ndarray:
        """1/lambda_max(Abar), inf where the top eigenvalue is 0."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.top

    @property
    def bad(self) -> np.ndarray:
        """Where the top group is not one positive eigenvalue."""
        return (self.top <= 0.0) | (self.spread > _merge_tol(self.n))

    def error(self, i: int) -> edm.InternalConsistencyError:
        top = _shown(self.top[i], self.scale[i])
        return edm.InternalConsistencyError(
            f"top eigenvalue group of the complement ({top:.6g}, spread "
            f"{self.spread[i]:.3e}) is not one positive eigenvalue")

    def check(self) -> _JStack:
        """This stack of one, or the error of its top group."""
        if self.bad[0]:
            raise self.error(0)
        return self


def _j_points(w: np.ndarray, q: np.ndarray, delta: np.ndarray, dim_j: np.ndarray) -> np.ndarray:
    """The J-spherical points from an eigh (w, q) of a (k, n, n) Abar stack:
    sqrt(1 - delta*lambda) * eigenvector in ascending eigenvalue order, the
    last n - dim_J columns (the top group) zero."""
    # The Gram matrix I - delta*Abar shares Abar's eigenvectors; its
    # eigenvalue 1 - delta*lambda vanishes on the top group only.
    top = np.arange(w.shape[-1]) >= dim_j[..., None]
    with np.errstate(invalid="ignore"):
        gram = np.where(top, 0.0, 1.0 - delta[..., None] * w)
        return q * np.sqrt(np.maximum(gram, 0.0))[..., None, :]


def _j_stack(w: np.ndarray, tol: float) -> _JStack:
    """_JStack of a (k, n) stack of ascending complement spectra: delta and
    dim_J read only the eigenvalues."""
    n = w.shape[-1]
    grp = linalg.extreme_groups(w, tol)
    return _JStack(n, grp.means[1], grp.spreads[1], n - grp.counts[1],
                   np.fmax(np.abs(w[..., 0]), np.abs(w[..., -1])))


def _j_arrowhead(adj: np.ndarray, corner: np.ndarray, z: np.ndarray, d: np.ndarray,
                 tol: float) -> _JStack:
    """_JStack of the complements of a (k, n, n) adjacency stack, whose Abar
    has the arrowhead form [[corner, z.T], [z, diag(d)]].

    A row is certified when lambda_max from ``linalg.arrowhead_top`` clears
    max d by the clustering gap tol * max(1, lambda_max): by Cauchy
    interlacing lambda_2 <= max d, and Abar >= 0 makes lambda_max its largest
    |eigenvalue|, so the top group is lambda_max alone (spread 0, dim_J =
    n - 1). Only the other rows, among them any that Newton gave up on, run
    an eigvalsh of Abar and ``_j_stack``.
    """
    k, n = d.shape[0], d.shape[-1] + 1
    top = linalg.arrowhead_top(corner, z, d)
    spread, dim_j, scale = np.zeros(k), np.full(k, n - 1), top
    uncertified = ~(top - d.max(axis=-1) > tol * np.maximum(1.0, top))  # and NaN rows
    if np.count_nonzero(uncertified):
        rest = np.flatnonzero(uncertified)
        js = _j_stack(np.linalg.eigvalsh(complement_adjacency(adj[rest]).astype(float)), tol)
        top, scale = top.copy(), top.copy()
        top[rest], spread[rest], dim_j[rest], scale[rest] = js.top, js.spread, js.dim_j, js.scale
    return _JStack(n, top, spread, dim_j, scale)


def j_spherical(g: Graph) -> JSpherical:
    """The unique J-spherical representation: unit sphere, first distance 2."""
    _require_nondegenerate(class_stack(g.adj[None]))
    w, q = np.linalg.eigh(adjacency_matrix(complement(g))[None])
    js = _j_stack(w, linalg.EIG_TOL).check()
    dim_j, delta = int(js.dim_j[0]), js.delta
    return JSpherical(float(delta[0]), 2.0 + 2.0 * float(delta[0]), dim_j,
                      Configuration(_j_points(w, q, delta, js.dim_j)[0][:, :dim_j]))


def same_second_distance(g1: Graph, g2: Graph) -> bool:
    """Whether the two J-spherical representations share the second distance:
    whether lambda_max(Abar) = 1/delta, from an eigvalsh of each Abar, agrees
    to 1e-9. Raises for either graph as ``j_spherical`` does (degenerate graph,
    top group of Abar not one eigenvalue) but builds no J points."""
    top = []
    for g in (g1, g2):
        _require_nondegenerate(class_stack(g.adj[None]))
        w = np.linalg.eigvalsh(adjacency_matrix(complement(g))[None])
        top.append(_j_stack(w, linalg.EIG_TOL).check().top[0])
    return abs(top[0] - top[1]) <= 1e-9


def euclidean_representation(g: Graph, beta: float) -> Configuration:
    """A centroid-centered configuration realizing the EDM A + beta*Abar: the
    pass's configuration builder on one eigh of V.T A V, columns in
    decreasing order of the eigenvalues of X(beta) = (beta I + (beta - 1) V.T A V)/2."""
    _require_nondegenerate(class_stack(g.adj[None]))
    v = build_v(g.n)
    w, u = np.linalg.eigh(project_adjacency(g.adj, v))
    # x = (beta + (beta - 1) w)/2 is the spectrum of X(beta). Above beta = 1
    # it is beta/2 times y = 1 + (1 - 1/beta) w, which has x's signs and does
    # not overflow: where x does, y's signs decide, as an infinite cut would
    # count no x negative.
    if beta > 1.0:
        y = 1.0 + (1.0 - 1.0 / beta) * w
        with np.errstate(over="ignore"):
            x = 0.5 * beta * y
    else:
        x = y = 0.5 * (beta + (beta - 1.0) * w)
    if linalg.sign_masks(x if np.isfinite(x).all() else y)[0].any():
        raise InfeasibleBetaError(beta, float(x.min()))
    if beta > 1.0:  # x ascends with w
        x, u = x[::-1], u[:, ::-1]
    points = _configurations(lift(u, v)[None], x[None], None)[0]
    return Configuration(points[:, points.any(axis=0)])


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


#: A report's per-graph answers in field order, each read off the _Stack array of its name.
_COLUMNS = tuple(f.name for f in fields(ReprReport)[3:-2])


@dataclass
class _Stack:
    """One analysis pass over a (k, n, n) stack of graphs of order n.

    Every ReprReport field but the lower bounds, which depend on n only, is
    a length-k array: float fields are NaN where they do not apply, and
    integer and flag fields are meaningless there.
    ``errors[i]`` is the InternalConsistencyError that ``analyze_graph`` raises
    for graph i, or None. The spectrum, its eigenvectors (when the pass ran
    eigh) and an interior beta_i stay for the sweep, ``embed`` and
    ``dim_spherical``, which build the configurations from them.
    """

    n: int
    classes: ClassStack
    errors: np.ndarray
    mu_min: np.ndarray
    mu_max: np.ndarray
    m_min: np.ndarray
    m_max: np.ndarray
    beta_l: np.ndarray
    beta_u: np.ndarray
    dim_e: np.ndarray
    dim_e_witness_beta: np.ndarray
    dim_s: np.ndarray
    dim_s_witness_beta: np.ndarray
    spherical_at_l: np.ndarray
    spherical_at_u: np.ndarray
    rho_l: np.ndarray
    rho_u: np.ndarray
    delta: np.ndarray
    beta_j: np.ndarray
    dim_j: np.ndarray
    eigenvalues: np.ndarray = None   # (k, n-1) of V.T A V, ascending
    groups: Optional[linalg.ExtremeGroups] = None
    beta_i: np.ndarray = None
    basis: Optional[np.ndarray] = None  # eigenvectors of V.T A V, if the pass ran eigh

    def configuration(self, side: str, rows=slice(None)) -> np.ndarray:
        """(k, n, n-1) centroid-centered configurations at beta_l, beta_u or
        beta_i (side "l", "u" or "i") of the graphs ``rows`` (all by default),
        zero columns where X(beta) vanishes. Needs the eigenvectors: a pass
        run with ``vectors=True``, or on a stack with an irregular graph."""
        beta = {"l": self.beta_l, "u": self.beta_u, "i": self.beta_i}[side][rows, None]
        zero = {"l": self.groups.masks[1], "u": self.groups.masks[0]}.get(side)
        return _configurations(lift(self.basis[rows], build_v(self.n)),
                               0.5 * (beta + (beta - 1.0) * self.eigenvalues[rows]),
                               None if zero is None else zero[rows])

    def report(self, i: int) -> ReprReport:
        """The ReprReport of graph i; raises its error if it has one. NaN reads None, as do
        a degenerate graph's columns and the sphericity flag its class rules out."""
        if self.errors[i] is not None:
            raise self.errors[i]
        cls = self.classes.row(i)
        degenerate = cls.is_degenerate
        ruled_out = {"spherical_at_l": cls.is_multipartite, "spherical_at_u": cls.is_cluster}
        row = [None if degenerate or ruled_out.get(name) else getattr(self, name).item(i)
               for name in _COLUMNS]
        return ReprReport(self.n, cls, degenerate, *[None if v != v else v for v in row],
                          *lower_bounds(max(self.n, 2)))


def _configurations(z: np.ndarray, x: np.ndarray, zero: Optional[np.ndarray]) -> np.ndarray:
    """(k, n, n-1) centroid-centered configurations realizing A + beta*Abar,
    from the lifted eigenvectors z of V.T A V and the eigenvalues x (k, n-1)
    of X(beta) = (beta I + (beta - 1) V.T A V)/2 on them.

    X(beta) is the projected Gram of the configuration, so the points are the
    columns z sqrt(x); the extreme group ``zero`` is exactly 0 at its own
    endpoint, and every x that ``linalg.sign_masks`` does not count positive
    gives a zero column.
    """
    if zero is not None:
        x = np.where(zero, 0.0, x)
    _, pos = linalg.sign_masks(x)
    return z * np.sqrt(np.where(pos, x, 0.0))[:, None, :]


def _analyze_stack(adj: np.ndarray, tol: float = linalg.EIG_TOL,
                   vectors: bool = False) -> _Stack:
    """The analysis of every graph in a (k, n, n) boolean adjacency stack.

    Runs the class test, one stacked O(n^3) decomposition of V.T A V (eigh,
    or eigvalsh when every graph is regular and ``vectors`` does not ask for
    the eigenvectors that configurations need), and then array operations:
    Abar's top eigenvalue comes from its arrowhead form by Newton, and only
    the rows it does not certify run an eigvalsh of Abar. Each fault that
    ``analyze_graph`` reports becomes a per-row error, so one graph's fault
    leaves the other rows untouched.
    """
    adj = np.asarray(adj, dtype=bool)
    k, n = adj.shape[0], adj.shape[-1]
    classes = class_stack(adj)
    errors = np.empty(k, dtype=object)  # all None
    if n < 2:  # one node: the complete graph, and no spectrum
        nan = np.full(k, np.nan)
        return _Stack(n, classes, errors, **dict.fromkeys(_COLUMNS, nan))
    nondeg = ~classes.degenerate

    # s = V.T (d - mean d) for the degree vector d is exactly 0 for a regular
    # graph, whose degrees are integers. q = U.T s for the eigenvectors U of
    # V.T A V is all the pass reads of them, so a stack of regular graphs
    # needs only the eigenvalues, unless the caller builds configurations.
    v = build_v(n)
    vav = project_adjacency(adj, v)
    deg = adj.sum(axis=-1, dtype=float)
    mean_deg = deg.sum(axis=-1) / n
    s = restrict(deg - mean_deg[:, None], v)
    if vectors or np.count_nonzero(s):
        w, basis = np.linalg.eigh(vav)
        q = np.einsum("ki,kij->kj", s, basis)
    else:
        w, basis, q = np.linalg.eigvalsh(vav), None, np.zeros_like(s)
    # The upper endpoint comes from the bottom group and the lower one from
    # the top group: (2, k) arrays in that order. -mu/(-mu - 1) = mu/(mu + 1)
    # exactly, so one division gives beta_u and beta_l.
    grp = linalg.extreme_groups(w, tol)
    (mu_min, mu_max), (m_min, m_max) = grp.means, grp.counts
    has = nondeg & ~classes.members
    betas = np.divide(grp.means, grp.means + 1.0, out=np.full((2, k), np.nan), where=has)
    beta_u, beta_l = betas
    r_u, r_l = r = n - 1 - grp.counts
    use_l = classes.is_cluster | (~classes.is_multipartite & (r_l <= r_u))
    dim_e = np.where(use_l, r_l, r_u)
    # a feasible beta strictly inside the interval next to an existing
    # endpoint, the lower one if it exists: there the EDM is full-dimensional
    mid = 0.5 * (betas + 1.0)
    beta_i = np.where(np.isnan(beta_l), mid[0], mid[1])

    def radius(beta, zero, rows):
        """Radii at beta for the rows, NaN elsewhere: also where a faulty
        row's spectrum makes the EDM there no EDM."""
        if not np.count_nonzero(rows):
            return np.full(k, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(rows, np.sqrt(_radius2(beta, w, q, mean_deg, zero)), np.nan)

    # A z - mu z = (w_j - mu) z + e q_j/n for a lifted eigenvector z = V u_j,
    # so an endpoint is spherical when q vanishes on its eigenspace. Each
    # column's largest |entry| is at its largest or smallest z; on a group
    # of one eigenvalue w_j - mu is 0, and the residual is |q_j|/n. With
    # q = 0 it is at most the group's spread, which the merge check bounds.
    resid = np.zeros((2, k))
    if basis is not None:
        off = (w - grp.means[..., None]) * grp.masks
        resid = np.abs(q / n)
        if np.count_nonzero(off):
            resid = np.abs(off[:, None] * np.array(lift_extremes(basis, v)) + q / n).max(axis=1)
        resid = (resid * grp.masks).max(axis=-1)
    spherical_u, spherical_l = spherical = has & (resid <= _merge_tol(n))
    rho_u = radius(beta_u, grp.masks[0], spherical_u)
    rho_l = radius(beta_l, grp.masks[1], spherical_l)

    # dim_S: the spherical endpoint of least dimension (the lower one on a
    # tie), else an interior beta in n - 1 dimensions.
    d_u, d_l = np.where(spherical, r, n)
    at_l = spherical_l & (d_l <= d_u)
    at_u = spherical_u & ~at_l
    dim_s = np.where(at_l, d_l, np.where(at_u, d_u, n - 1))

    # In the orthonormal basis [e/sqrt(n), V U], Abar = J - I - A is the
    # arrowhead [[n - 1 - 2|E|/n, -q.T/sqrt(n)], [-q/sqrt(n), -I - diag(w)]].
    js = _j_arrowhead(adj, n - 1.0 - mean_deg, -q / math.sqrt(n), -1.0 - w, tol)
    delta = js.delta

    # The faults, in the order a row reports the first of them.
    merged = grp.spreads > _merge_tol(n)
    lb_e = lower_bounds(n)[0]

    def merged_group(side):
        return merged[side], lambda i: edm.InternalConsistencyError(
            f"extreme eigenvalue group of V.T A V ({_shown(grp.means[side, i], np.abs(w[i]).max()):.6g}, "
            f"multiplicity {grp.counts[side, i]}) merges eigenvalues {grp.spreads[side, i]:.3e} apart")
    faults = (
        merged_group(1), merged_group(0),
        # mu_max = 0 exactly for complete multipartite graphs and mu_min = -1
        # exactly for cluster graphs; a clustering that breaks this is a fault
        (((mu_max > 1e-9) == classes.is_multipartite) | ((mu_min < -1.0 - 1e-9) == classes.is_cluster),
         lambda i: edm.InternalConsistencyError(
             f"projected spectrum (mu_min={mu_min[i]:.6g}, mu_max={mu_max[i]:.6g}) "
             f"contradicts the class {str(classes.tag[i])!r}")),
        (js.bad, js.error),
        ((dim_e < lb_e - 1e-9) | (dim_e > dim_s) | (dim_s > js.dim_j),
         lambda i: edm.InternalConsistencyError(
             f"dimensions break lower_bound_e <= dim_e <= dim_s <= dim_j: "
             f"{lb_e:.4f}, {dim_e[i]}, {dim_s[i]}, {js.dim_j[i]}")))
    clean = nondeg.copy()
    if np.count_nonzero(nondeg & np.logical_or.reduce([mask for mask, _ in faults])):
        for mask, fault in faults:
            for i in np.flatnonzero(mask & clean):
                errors[i] = fault(i)
                clean[i] = False
    return _Stack(
        n, classes, errors, mu_min=mu_min, mu_max=mu_max, m_min=m_min, m_max=m_max,
        beta_l=beta_l, beta_u=beta_u, dim_e=dim_e,
        dim_e_witness_beta=np.where(use_l, beta_l, beta_u),
        dim_s=dim_s, dim_s_witness_beta=np.where(at_l, beta_l, np.where(at_u, beta_u, beta_i)),
        spherical_at_l=spherical_l, spherical_at_u=spherical_u, rho_l=rho_l, rho_u=rho_u,
        delta=delta, beta_j=2.0 + 2.0 * delta, dim_j=js.dim_j,
        eigenvalues=w, groups=grp, beta_i=beta_i, basis=basis)


def _analyze_single(g: Graph, vectors: bool = False) -> _Stack:
    """The pass on a stack of one non-degenerate graph, raising its fault."""
    st = _analyze_stack(g.adj[None], vectors=vectors)
    _require_nondegenerate(st.classes)
    if st.errors[0] is not None:
        raise st.errors[0]
    return st


def analyze_graph(g: Graph, tol: float = linalg.EIG_TOL) -> ReprReport:
    """Full representation report for one graph: the stacked pass on a stack of one.

    Raises edm.InternalConsistencyError when the answers contradict each
    other or the class tag, as when ``tol`` merges distinct eigenvalues.
    """
    return _analyze_stack(g.adj[None], tol).report(0)
