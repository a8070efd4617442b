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
its secular equation; a regular graph needs only the eigenvalues. That root
is always lambda_max: the complement adjacency is nonnegative, so it has a
nonnegative top eigenvector (Perron-Frobenius), which is not orthogonal to
the all-ones vector. So the J-spherical points are a closed form in the same
eigenpairs too (``_Stack.configuration``). ``analyze_graph`` is that pass on
a stack of one; the sweep runs it on every graph of an order at once.
``j_spherical`` decomposes the complement adjacency of one graph instead,
which is cheaper there than the pass, and is the tests' reference for the
closed form.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import edm, linalg
from .centering import lift, project_adjacency, restrict
from .edm import Configuration, _circumcenter
from .graphs import (TAG_COMPLETE, TAG_NULL, ClassStack, Graph, GraphClass, adjacency_matrix,
                     class_stack, complement_adjacency)

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


class BetaIntervals(NamedTuple):
    """Feasible second-distance values as closed/open intervals excluding 1."""

    intervals: tuple  # ((lo, lo_closed, hi, hi_closed), ...)

    def contains(self, beta: float) -> bool:
        return any((beta >= lo if lo_closed else beta > lo)
                   and (beta <= hi if hi_closed else beta < hi)
                   for lo, lo_closed, hi, hi_closed in self.intervals)


class JSpherical(NamedTuple):
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


def _require_nondegenerate(g: Graph) -> None:
    """Refuse a complete or null graph, told apart by its edge count alone;
    complete is tested first, so that one node is complete, as ``classify`` says."""
    full, edges = g.n * (g.n - 1), np.count_nonzero(g.adj)
    if edges in (0, full):
        tag = TAG_COMPLETE if edges == full else TAG_NULL
        raise DegenerateGraphError(f"{tag} graph admits no two-distance representation")


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
    the pass's test, on its own eigh of V.T A V, whose extreme group is that
    of ``linalg.extreme_groups``."""
    if side not in (SIDE_LOWER, SIDE_UPPER):
        raise ValueError(f"unknown side {side!r}")
    w, u = np.linalg.eigh(project_adjacency(g.adj))
    grp = linalg.extreme_groups(w, linalg.EIG_TOL)
    end = 1 if side == SIDE_LOWER else 0
    mu = grp.means[end]
    if side == SIDE_LOWER and mu <= 1e-9:
        raise EndpointError("lower endpoint requires mu_max > 0")
    if side == SIDE_UPPER and mu > -1.0 - 1e-9:
        raise EndpointError("upper endpoint requires mu_min < -1")
    z = lift(u[:, grp.masks[end]])
    return float(np.max(np.abs(adjacency_matrix(g) @ z - mu * z))) <= _merge_tol(g.n)


def dim_spherical(g: Graph) -> Tuple[int, float, float]:
    """Minimal spherical dimension, witness beta and the witness radius: the
    pass's rho_l or rho_u at an endpoint witness, else ``_radius2`` at the
    interior witness beta_i, where the EDM is full-dimensional and so
    spherical. Raises as ``dim_euclidean`` does.
    """
    st = _analyze_single(g)
    beta = st.dim_s_witness_beta[0]
    rho = (st.rho_l if beta == st.beta_l[0] else st.rho_u if beta == st.beta_u[0]
           else np.sqrt(_radius2(st.beta_i, st.eigenvalues, st.q, g.adj.sum() / g.n, False)))
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
    q = U.T V.T d for the degree vector d, and mean_deg = 2|E|/n, for betas
    of shape (..., k):

        rho^2 = [beta (n-1) + (1 - beta)(2|E|/n + sum_j (q_j^2/n) / (x* - w_j))] / (2n),

    x* = beta/(1 - beta). The configuration's points are the rows of
    V U sqrt(x) with x_j = (1 - beta)(x* - w_j)/2; the first part is their
    mean squared norm, the sum the squared norm of the circumcenter c, which
    solves sqrt(x_j) c_j = (1 - beta) q_j/(2n). ``skip`` marks the extreme
    group that vanishes at an endpoint beta, where the EDM is spherical only
    if q vanishes on it.
    """
    n = w.shape[-1] + 1
    x_star = (beta / (1.0 - beta))[..., None]
    terms = np.where(skip, 0.0, q * q / (x_star - w))  # callers ignore division faults
    return (beta * (n - 1) + (1.0 - beta) * (mean_deg + terms.sum(axis=-1) / n)) / (2.0 * n)


class _JStack(NamedTuple):
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


def _points(vectors: np.ndarray, gram: np.ndarray, zero) -> np.ndarray:
    """Points from eigenpairs (..., n, m), (..., m) of their Gram matrix: the
    columns vectors * sqrt(gram), zero where the caller's ``zero`` holds or gram
    is not positive (NaN included, as on a faulty row of a sweep stack)."""
    return vectors * np.sqrt(np.where(zero | ~(gram > 0.0), 0.0, gram))[..., None, :]


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
    has the arrowhead form [[corner, z.T], [z, diag(d)]], d descending (the
    pass's -1 - w), so that max d is d[:, 0].

    A row is certified when lambda_max from ``linalg.arrowhead_top`` clears
    max d by the clustering gap tol * max(1, lambda_max): by Cauchy
    interlacing lambda_2 <= max d, and Abar >= 0 makes lambda_max its largest
    |eigenvalue|, so the top group is lambda_max alone (spread 0, dim_J =
    n - 1). Only the other rows, among them any that Newton gave up on, run
    an eigvalsh of Abar and ``_j_stack``, but a complete graph's, whose
    Abar is 0.
    """
    k, n = d.shape[0], d.shape[-1] + 1
    top = linalg.arrowhead_top(corner, z, d)
    spread, dim_j, scale = np.zeros(k), np.full(k, n - 1), top
    with np.errstate(over="ignore"):  # a huge tol gives an infinite gap: uncertified
        uncertified = ~(top - d[:, 0] > tol * np.maximum(1.0, top))  # and NaN rows
    if np.count_nonzero(uncertified):
        top, scale = top.copy(), top.copy()
        # corner, the mean degree of the complement, is 0 only for a complete
        # graph: its Abar = 0 has the one eigenvalue 0, n times
        complete = uncertified & (corner == 0.0)
        top[complete] = scale[complete] = dim_j[complete] = 0
        rest = np.flatnonzero(uncertified & ~complete)
        if rest.size:
            js = _j_stack(np.linalg.eigvalsh(complement_adjacency(adj[rest]).astype(float)), tol)
            top[rest], spread[rest], dim_j[rest], scale[rest] = js.top, js.spread, js.dim_j, js.scale
    return _JStack(n, top, spread, dim_j, scale)


def j_spherical(g: Graph) -> JSpherical:
    """The unique J-spherical representation: unit sphere, first distance 2.

    One eigh of Abar, whose eigenvectors give the points. On one graph that
    is cheaper than the analysis pass, whose eigenpairs give the same points
    in closed form (``_Stack.configuration("j")``, which the sweep builds);
    the tests compare the two."""
    _require_nondegenerate(g)
    w, q = np.linalg.eigh(complement_adjacency(g.adj[None]).astype(float))
    js = _j_stack(w, linalg.EIG_TOL).check()
    dim_j, delta = int(js.dim_j[0]), float(js.delta[0])
    # the Gram matrix I - delta*Abar has Abar's eigenvectors; it vanishes on the top group
    points = _points(q[0], 1.0 - delta * w[0], np.arange(g.n) >= dim_j)
    return JSpherical(delta, 2.0 + 2.0 * delta, dim_j, Configuration(points[:, :dim_j]))


def same_second_distance(g1: Graph, g2: Graph) -> bool:
    """Whether the two J-spherical representations share the second distance:
    whether lambda_max(Abar) = 1/delta, from an eigvalsh of each Abar, agrees
    to 1e-9. Raises for either graph as ``j_spherical`` does (degenerate graph,
    top group of Abar not one eigenvalue) but builds no J points."""
    top = []
    for g in (g1, g2):
        _require_nondegenerate(g)
        w = np.linalg.eigvalsh(complement_adjacency(g.adj[None]).astype(float))
        top.append(_j_stack(w, linalg.EIG_TOL).check().top[0])
    return abs(top[0] - top[1]) <= 1e-9


def euclidean_representation(g: Graph, beta: float) -> Configuration:
    """A centroid-centered configuration realizing the EDM A + beta*Abar from one
    eigh of V.T A V: a column per eigenvalue of X(beta) = (beta I + (beta - 1)
    V.T A V)/2 that ``linalg.sign_masks`` counts positive, in decreasing order."""
    _require_nondegenerate(g)
    w, u = np.linalg.eigh(project_adjacency(g.adj))
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
    points = _points(lift(u), x, ~linalg.sign_masks(x)[1])
    return Configuration(points[:, points.any(axis=0)])


def lower_bounds(n: int) -> Tuple[float, float]:
    """Lower bounds on dim_E and dim_S from the two-distance cardinality bounds."""
    if n < 2:
        raise ValueError("n >= 2 required")
    lb_e = 0.5 * (math.sqrt(8.0 * n + 1.0) - 3.0)
    lb_s = 0.5 * (math.sqrt(8.0 * n + 9.0) - 3.0)
    return lb_e, lb_s


class ReprReport(NamedTuple):
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
        doc.update(zip(self._fields[2:], self[2:]))
        return doc


#: A report's per-graph answers in field order, each read off the _Stack array of its name.
_COLUMNS = ReprReport._fields[3:-2]


class _Stack(NamedTuple):
    """One analysis pass over a (k, n, n) stack of graphs of order n.

    Every ReprReport field but the lower bounds, which depend on n only, is
    a length-k array: float fields are NaN where they do not apply, and
    integer and flag fields are meaningless there.
    ``errors[i]`` is the InternalConsistencyError that ``analyze_graph`` raises
    for graph i, or None. The spectrum, q and an interior beta_i stay for
    ``dim_spherical``'s radius at beta_i and, with the eigenvectors
    (``lifted``), for the sweep and ``embed``, which build the
    configurations from them: those at beta_l, beta_u and beta_i and, for
    the sweep, the J-spherical one, which needs no decomposition of Abar
    since Perron-Frobenius makes lambda_max(Abar) the root of its secular
    equation (see ``configuration``).
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
    basis: Optional[np.ndarray] = None  # eigenvectors U of V.T A V, if the pass ran eigh
    q: np.ndarray = None  # U.T V.T (d - mean d) for the degree vector d; 0 without U
    adj: np.ndarray = None  # the (k, n, n) boolean adjacency stack

    def lifted(self, rows=slice(None)) -> np.ndarray:
        """V U of the graphs ``rows``: U from the pass's eigh or, for a stack of
        regular graphs, whose pass ran eigvalsh alone, from an eigh of their V.T A V."""
        if self.basis is None:
            return lift(np.linalg.eigh(project_adjacency(self.adj[rows]))[1])
        return lift(self.basis[rows])

    def configuration(self, side: str, rows=slice(None), lifted=None) -> np.ndarray:
        """(k, n, n-1) configurations of the graphs ``rows`` (all by default):
        the centroid-centered ones at beta_l, beta_u or beta_i (side "l", "u"
        or "i"), whose projected Gram X(beta) = (beta I + (beta - 1) V.T A V)/2
        vanishes on the extreme group at its endpoint, or the J-spherical one
        (side "j"). ``lifted`` is ``self.lifted(rows)``, for a caller that
        builds several.

        The J points come from the same eigensystem. In the basis
        [e/sqrt(n), V U], the Gram matrix I - delta Abar is I - delta H for
        the arrowhead H of ``_analyze_stack``. With g_j = 1 + delta (1 + w_j)
        it is F F.T for the n - 1 columns sqrt(g_j) (delta q_j/(sqrt(n) g_j), e_j):
        their corner sum_j delta^2 q_j^2/(n g_j) is 1 - delta H[0, 0] because
        lambda_max(Abar) = 1/delta solves H's secular equation. It always
        does: Abar >= 0 has a nonnegative top eigenvector (Perron-Frobenius),
        which is not orthogonal to e. So the points are the rows of
        (V U + e (delta q/(n g)).T) sqrt(g). g vanishes exactly on the columns
        of a tie for lambda_max, the n - 1 - dim_J smallest w; they are zero,
        and the head term delta q/(n g) is formed only on the other columns.
        """
        if lifted is None:
            lifted = self.lifted(rows)
        w = self.eigenvalues[rows]
        if side == "j":
            delta = self.delta[rows, None]
            with np.errstate(invalid="ignore"):  # delta = inf where lambda_max(Abar) = 0
                gram = 1.0 + delta * (1.0 + w)
                keep = (np.arange(self.n - 1) >= self.n - 1 - self.dim_j[rows, None]) & (gram > 0.0)
                head = np.divide(delta * self.q[rows], self.n * gram, out=np.zeros_like(gram),
                                 where=keep)
            return _points(lifted + head[..., None, :], gram, ~keep)
        end = "ul".find(side)  # the extreme group that vanishes there, -1 for "i"
        beta = (self.beta_u, self.beta_l, self.beta_i)[end][rows, None]
        zero = self.groups.masks[end][rows] if end >= 0 else False
        return _points(lifted, 0.5 * (beta + (beta - 1.0) * w), zero)

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


def _spectrum(adj: np.ndarray) -> tuple:
    """(w, basis, q, mean_deg) of a (k, n, n) boolean adjacency stack: the
    ascending eigenvalues w of V.T A V, its eigenvectors U or None, q =
    U.T V.T (d - mean d) for the degree vector d (0 without U), and 2|E|/n.

    V.T (d - mean d) is exactly 0 for a regular graph, whose degrees are
    integers, and q is all the pass reads of U. So the route is each row's
    own: the irregular rows run one stacked eigh, and the regular rows take
    their eigenvalues from an eigvalsh, as they do alone. A stack of only
    regular rows runs no eigh.
    """
    n = adj.shape[-1]
    vav = project_adjacency(adj)
    deg = adj.sum(axis=-1, dtype=float)
    mean_deg = deg.sum(axis=-1) / n
    s = restrict(deg - mean_deg[:, None])
    if np.count_nonzero(s):
        w, basis = np.linalg.eigh(vav)
        regular = ~s.any(axis=-1)  # they keep eigh's U
        if np.count_nonzero(regular):
            w[regular] = np.linalg.eigvalsh(vav[regular])
        return w, basis, np.einsum("ki,kij->kj", s, basis), mean_deg
    return np.linalg.eigvalsh(vav), None, np.zeros_like(s), mean_deg


def _endpoints(w: np.ndarray, classes: ClassStack, tol: float) -> tuple:
    """(groups, betas, dim_e, dim_e_witness_beta, beta_i) from the extreme
    groups of ascending spectra w (k, n-1) of V.T A V. ``betas`` (2, k) is
    beta_u, which comes from the bottom group, and beta_l, NaN where the
    endpoint does not exist. beta_i is a feasible beta strictly inside the
    interval next to an existing endpoint, the lower one if it exists: there
    the EDM is full-dimensional."""
    n = w.shape[-1] + 1
    grp = linalg.extreme_groups(w, tol)
    # -mu/(-mu - 1) = mu/(mu + 1) exactly, so one division gives both
    # endpoints; a cluster graph has no upper one, a multipartite no lower one
    betas = np.divide(grp.means, grp.means + 1.0, out=np.full(grp.means.shape, np.nan),
                      where=~classes.members)
    r_u, r_l = n - 1 - grp.counts
    use_l = classes.is_cluster | (~classes.is_multipartite & (r_l <= r_u))
    mid = 0.5 * (betas + 1.0)
    return (grp, betas, np.where(use_l, r_l, r_u), np.where(use_l, betas[1], betas[0]),
            np.where(np.isnan(betas[1]), mid[0], mid[1]))


def _sphericity(w: np.ndarray, q: np.ndarray, mean_deg: np.ndarray,
                grp: linalg.ExtremeGroups, betas: np.ndarray, beta_i: np.ndarray) -> tuple:
    """(spherical, rho, dim_s, dim_s_witness_beta) from ``_spectrum`` and
    ``_endpoints``: the sphericity flags and radii (2, k) at beta_u and beta_l,
    the radii NaN where not spherical, also where a faulty row's spectrum
    makes the EDM there no EDM, and dim_S with its witness.

    An endpoint is spherical when q vanishes on its extreme group: when the
    largest |q_j|/n over the group is at most ``_merge_tol``. For a lifted
    eigenvector z = V u_j, A z - mu z = (w_j - mu) z + e q_j/n, whose first
    term is the group's spread, which the merge check bounds. z is orthogonal
    to e, so it has entries of both signs, and the largest |entry| of that
    residual, which ``endpoint_sphericity`` tests, is at least |q_j|/n.
    """
    k, n = w.shape[0], w.shape[-1] + 1
    resid = linalg.reduce_last(np.maximum, np.abs(q / n) * grp.masks)
    spherical = ~np.isnan(betas) & (resid <= _merge_tol(n))
    rho = np.full((2, k), np.nan)
    if np.count_nonzero(spherical):
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(spherical, np.sqrt(_radius2(betas, w, q, mean_deg, grp.masks)),
                           np.nan)
    # dim_S: the spherical endpoint of least dimension (the lower one on a
    # tie), else an interior beta in n - 1 dimensions.
    d_u, d_l = np.where(spherical, n - 1 - grp.counts, n)
    at_l = spherical[1] & (d_l <= d_u)
    at_u = spherical[0] & ~at_l
    return (spherical, rho, np.where(at_l, d_l, np.where(at_u, d_u, n - 1)),
            np.where(at_l, betas[1], np.where(at_u, betas[0], beta_i)))


def _merged_error(st: _Stack, js: _JStack, i: int) -> edm.InternalConsistencyError:
    """The fault of row i's top group of V.T A V if it merges distinct
    eigenvalues, else of its bottom group."""
    grp, side = st.groups, int(st.groups.spreads[1, i] > _merge_tol(st.n))
    mean = _shown(grp.means[side, i], np.abs(st.eigenvalues[i]).max())
    return edm.InternalConsistencyError(
        f"extreme eigenvalue group of V.T A V ({mean:.6g}, multiplicity "
        f"{grp.counts[side, i]}) merges eigenvalues {grp.spreads[side, i]:.3e} apart")


#: The faults of the pass, in the order a row reports the first of them: a
#: (where, error) pair of functions of the _Stack and its _JStack, the first
#: giving the rows at fault and the second the error of row i.
_FAULTS = (
    (lambda st, js: np.logical_or(*(st.groups.spreads > _merge_tol(st.n))), _merged_error),
    # mu_max = 0 exactly for complete multipartite graphs and mu_min = -1
    # exactly for cluster graphs; a clustering that breaks this is a fault
    (lambda st, js: ((st.mu_max > 1e-9) == st.classes.is_multipartite)
     | ((st.mu_min < -1.0 - 1e-9) == st.classes.is_cluster),
     lambda st, js, i: edm.InternalConsistencyError(
         f"projected spectrum (mu_min={st.mu_min[i]:.6g}, mu_max={st.mu_max[i]:.6g}) "
         f"contradicts the class {str(st.classes.tag[i])!r}")),
    (lambda st, js: js.bad, lambda st, js, i: js.error(i)),
    (lambda st, js: (st.dim_e < lower_bounds(st.n)[0] - 1e-9) | (st.dim_e > st.dim_s)
     | (st.dim_s > st.dim_j),
     lambda st, js, i: edm.InternalConsistencyError(
         f"dimensions break lower_bound_e <= dim_e <= dim_s <= dim_j: "
         f"{lower_bounds(st.n)[0]:.4f}, {st.dim_e[i]}, {st.dim_s[i]}, {st.dim_j[i]}")),
)


def _analyze_stack(adj: np.ndarray, tol: float = linalg.EIG_TOL) -> _Stack:
    """The analysis of every graph in a (k, n, n) boolean adjacency stack, in
    stages: the class test, one stacked O(n^3) decomposition of V.T A V
    (``_spectrum``), then array operations (``_endpoints``, ``_sphericity``
    and ``_j_arrowhead``). Each fault of ``_FAULTS`` becomes a per-row error,
    so one graph's fault leaves the other rows untouched. A stack of only
    complete and null graphs has no answer to compute: it runs the class test
    alone, its float columns NaN and its sphericity flags False.
    """
    adj = np.asarray(adj, dtype=bool)
    k, n = adj.shape[0], adj.shape[-1]
    classes = class_stack(adj)
    nondeg = ~classes.degenerate
    if not np.count_nonzero(nondeg):  # one node is the complete graph
        no = np.zeros(k, dtype=bool)
        return _Stack(n, classes, np.full(k, None, dtype=object),
                      **{**dict.fromkeys(_COLUMNS, np.full(k, np.nan)),
                         "spherical_at_l": no, "spherical_at_u": no, "adj": adj})
    w, basis, q, mean_deg = _spectrum(adj)
    grp, betas, dim_e, dim_e_witness, beta_i = _endpoints(w, classes, tol)
    spherical, rho, dim_s, dim_s_witness = _sphericity(w, q, mean_deg, grp, betas, beta_i)
    # In the orthonormal basis [e/sqrt(n), V U], Abar = J - I - A is the
    # arrowhead [[n - 1 - 2|E|/n, -q.T/sqrt(n)], [-q/sqrt(n), -I - diag(w)]].
    js = _j_arrowhead(adj, n - 1.0 - mean_deg, -q / math.sqrt(n), -1.0 - w, tol)
    delta = js.delta
    st = _Stack(
        n, classes, None, mu_min=grp.means[0], mu_max=grp.means[1], m_min=grp.counts[0],
        m_max=grp.counts[1], beta_l=betas[1], beta_u=betas[0], dim_e=dim_e,
        dim_e_witness_beta=dim_e_witness, dim_s=dim_s, dim_s_witness_beta=dim_s_witness,
        spherical_at_l=spherical[1], spherical_at_u=spherical[0], rho_l=rho[1], rho_u=rho[0],
        delta=delta, beta_j=2.0 + 2.0 * delta, dim_j=js.dim_j,
        eigenvalues=w, groups=grp, beta_i=beta_i, basis=basis, q=q, adj=adj)
    faults = [(where(st, js), partial(error, st, js)) for where, error in _FAULTS]
    return st._replace(errors=edm.first_faults(faults, nondeg))


def _analyze_single(g: Graph) -> _Stack:
    """The pass on a stack of one non-degenerate graph, raising its fault."""
    _require_nondegenerate(g)
    st = _analyze_stack(g.adj[None])
    if st.errors[0] is not None:
        raise st.errors[0]
    return st


def analyze_graph(g: Graph, tol: float = linalg.EIG_TOL) -> ReprReport:
    """Full representation report for one graph: the stacked pass on a stack of one.

    Raises edm.InternalConsistencyError when the answers contradict each
    other or the class tag, as when ``tol`` merges distinct eigenvalues.
    """
    return _analyze_stack(g.adj[None], tol).report(0)
