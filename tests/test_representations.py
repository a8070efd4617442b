import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

import twodist
from twodist import edm, linalg, representations as reps
from twodist.centering import build_v, project_adjacency
from twodist.graphs import (Graph, adjacency_matrix, class_stack, classify, cluster_graph,
                            complement, complement_adjacency, complete_graph,
                            complete_multipartite_graph, cycle_graph, from_mask,
                            mask_stack, null_graph, parse_graph6)
from twodist.oracle import verify_two_distance

S5 = math.sqrt(5.0)


def test_public_names():
    assert sorted(twodist.__all__) == sorted([
        "Graph", "GraphClass", "GraphFormatError", "adjacency_matrix", "classify",
        "complement", "encode_graph6", "parse_edge_list", "parse_graph6",
        "BetaIntervals", "DegenerateGraphError", "JSpherical", "ReprReport",
        "analyze_graph", "beta_feasible_set", "dim_euclidean", "dim_spherical",
        "euclidean_representation", "j_spherical", "lower_bounds",
        "same_second_distance", "discriminating_roots", "invariant_sweep",
        "verify_two_distance", "__version__"])
    assert all(hasattr(twodist, name) for name in twodist.__all__)


def paley_graph(q):
    """Paley graph P(q), prime q = 1 (mod 4): i ~ j iff i - j is a nonzero square mod q."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(i, j) for i, j in combinations(range(q), 2)
                                if (j - i) % q in squares])


def petersen_graph():
    """Kneser graph K(5, 2): 2-subsets of a 5-set, adjacent when disjoint."""
    subsets = list(combinations(range(5), 2))
    return Graph.from_edges(10, [(i, j) for i, j in combinations(range(10), 2)
                                 if not set(subsets[i]) & set(subsets[j])])


def triangular_graph(m):
    """T(m) = J(m, 2): 2-subsets of an m-set, adjacent when they share one element."""
    sub = np.array(list(combinations(range(m), 2)))
    shared = (sub[:, None, :, None] == sub[None, :, None, :]).sum(axis=(-2, -1))
    return Graph(len(sub), shared == 1)


def kneser_graph(m):
    """K(m, 2): 2-subsets of an m-set, adjacent when disjoint; the complement of T(m)."""
    return complement(triangular_graph(m))


def rook_graph(m):
    """L2(m) = K_m x K_m: cells of an m x m grid, adjacent in one row or one column."""
    row, col = np.divmod(np.arange(m * m), m)
    same_row, same_col = row[:, None] == row[None, :], col[:, None] == col[None, :]
    return Graph(m * m, same_row ^ same_col)


def hypercube_graph(d):
    """Q_d: d-bit words, adjacent when they differ in one bit."""
    x = np.arange(1 << d)
    diff = x[:, None] ^ x[None, :]
    return Graph(1 << d, (diff > 0) & (diff & (diff - 1) == 0))


def brute_force_dim_e(g, samples=400):
    """Minimal embedding dimension over a dense beta grid."""
    feasible = reps.beta_feasible_set(g)
    a = adjacency_matrix(g)
    abar = adjacency_matrix(complement(g))
    best = g.n
    lo = min(iv[0] for iv in feasible.intervals if np.isfinite(iv[0]))
    hi = max(iv[2] for iv in feasible.intervals if np.isfinite(iv[2]))
    hi = hi if np.isfinite(hi) else lo + 10.0
    closed = [iv[0] for iv in feasible.intervals if iv[1]]
    closed += [iv[2] for iv in feasible.intervals if iv[3] and np.isfinite(iv[2])]
    grid = list(np.linspace(max(lo, 1e-3), hi, samples)) + closed
    for beta in grid:
        if not feasible.contains(beta) or abs(beta - 1.0) < 1e-9:
            continue
        chk = edm.is_edm(a + beta * abar)
        if chk.is_edm:
            best = min(best, chk.embedding_dim)
    return best


class TestProjectedSpectrum:
    # the spectrum of V.T A V as the analysis pass reads it
    def test_c5_values(self):
        rep = reps.analyze_graph(cycle_graph(5))
        assert rep.mu_max == pytest.approx((S5 - 1) / 2, abs=1e-12)
        assert rep.mu_min == pytest.approx(-(S5 + 1) / 2, abs=1e-12)
        assert rep.m_max == 2 and rep.m_min == 2

    def test_bow_tie_values(self, bow_tie):
        rep = reps.analyze_graph(bow_tie)
        assert rep.mu_max == pytest.approx(1.0, abs=1e-12)
        assert rep.mu_min == pytest.approx(-1.4, abs=1e-12)

    def test_regular_path_matches_dense_path(self):
        # regular graphs: the pass's eigenvalues match a dense eigvalsh of
        # V.T A V, and its eigenvectors are orthonormal
        regular = [cycle_graph(n) for n in range(4, 9)]
        regular.append(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))  # 3K2
        regular.append(complement(cycle_graph(7)))
        for g in regular:
            deg = g.adj.sum(axis=1)
            assert (deg == deg[0]).all()
            st = reps._analyze_stack(g.adj[None])
            direct = np.linalg.eigvalsh(project_adjacency(adjacency_matrix(g), build_v(g.n)))
            assert np.allclose(st.eigenvalues[0], direct, atol=1e-9)
            u = reps._analyze_stack(g.adj[None], vectors=True).basis[0]
            assert np.allclose(u.T @ u, np.eye(g.n - 1), atol=1e-9)

    def test_eigenvectors_actually_project(self):
        g = cycle_graph(6)
        st = reps._analyze_stack(g.adj[None], vectors=True)
        m = project_adjacency(adjacency_matrix(g), build_v(g.n))
        u, w = st.basis[0], st.eigenvalues[0]
        assert np.allclose(m @ u, u * w, atol=1e-9)

    def test_degenerate_rejected_downstream(self):
        # the pass-based answers and the single-graph constructions refuse a
        # complete or null graph with the same words
        answers = (reps.dim_euclidean, reps.dim_spherical, reps.beta_feasible_set,
                   reps.j_spherical, lambda g: reps.euclidean_representation(g, 2.0),
                   lambda g: reps.same_second_distance(g, cycle_graph(5)))
        for g, tag in ((complete_graph(4), "complete"), (null_graph(3), "null")):
            for answer in answers:
                with pytest.raises(reps.DegenerateGraphError) as exc:
                    answer(g)
                assert str(exc.value) == f"{tag} graph admits no two-distance representation"


class TestBetaEndpoints:
    def test_c5_product_is_one(self):
        rep = reps.analyze_graph(cycle_graph(5))
        assert rep.beta_l == pytest.approx((3 - S5) / 2, abs=1e-12)
        assert rep.beta_u == pytest.approx((3 + S5) / 2, abs=1e-12)
        assert rep.beta_l * rep.beta_u == pytest.approx(1.0, abs=1e-12)

    def test_cluster_has_no_upper(self):
        rep = reps.analyze_graph(cluster_graph([3, 2]))
        assert rep.beta_u is None and rep.beta_l is not None

    def test_multipartite_has_no_lower(self):
        rep = reps.analyze_graph(complete_multipartite_graph([2, 2]))
        assert rep.beta_l is None and rep.beta_u is not None

    def test_feasible_set_membership(self, bow_tie):
        fs = reps.beta_feasible_set(bow_tie)
        rep = reps.analyze_graph(bow_tie)
        assert fs.contains(rep.beta_l) and fs.contains(rep.beta_u)
        assert rep.beta_l == pytest.approx(0.5, abs=1e-9) and rep.beta_u == pytest.approx(3.5, abs=1e-9)
        assert fs.contains(2.0)
        assert not fs.contains(1.0) and not fs.contains(0.4) and not fs.contains(4.0)
        cl = reps.beta_feasible_set(cluster_graph([2, 2, 2]))
        assert cl.contains(100.0) and not cl.contains(1.0)
        mp = reps.beta_feasible_set(complete_multipartite_graph([3, 2]))
        assert mp.contains(0.01) and not mp.contains(0.0)


class TestDimEuclidean:
    def test_c5(self):
        r, beta = reps.dim_euclidean(cycle_graph(5))
        assert r == 2
        assert beta in (pytest.approx((3 - S5) / 2), pytest.approx((3 + S5) / 2))

    def test_bow_tie(self, bow_tie):
        r, beta = reps.dim_euclidean(bow_tie)
        assert r == 3

    def test_against_beta_grid_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 7))
            g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            if classify(g).is_degenerate:
                continue
            r, beta = reps.dim_euclidean(g)
            assert r == brute_force_dim_e(g)
            # the witness itself achieves the minimum
            chk = edm.is_edm(reps._edm_at(g, beta))
            assert chk.is_edm and chk.embedding_dim == r

    def test_complement_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 8))
            g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            if classify(g).is_degenerate:
                continue
            assert reps.dim_euclidean(g)[0] == reps.dim_euclidean(complement(g))[0]


class TestEuclideanRepresentation:
    def test_configs_verify(self, bow_tie):
        for beta in (0.5, 2.0, 3.5):
            config = reps.euclidean_representation(bow_tie, beta)
            assert verify_two_distance(config, bow_tie, 1.0, beta).passed
            assert np.allclose(config.squared_distances(), reps._edm_at(bow_tie, beta), atol=1e-9)

    def test_infeasible_beta_raises(self, bow_tie):
        with pytest.raises(reps.InfeasibleBetaError) as exc:
            reps.euclidean_representation(bow_tie, 4.0)
        assert exc.value.beta == 4.0
        assert exc.value.eigenvalue < 0

    def test_dimension_drops_at_endpoints(self):
        g = cycle_graph(5)
        at_end = reps.euclidean_representation(g, reps.analyze_graph(g).beta_l)
        inside = reps.euclidean_representation(g, 1.5)
        assert at_end.dim == 2 and inside.dim == 4

    def test_matches_pass_configurations(self):
        # every order-5 graph at beta_l, beta_u and beta_i: the same dimension
        # and squared distances as the configurations the sweep verifies
        graphs = [from_mask(5, mask) for mask in range(1 << 10)]
        st = reps._analyze_stack(np.stack([g.adj for g in graphs]))
        for side, beta in (("l", st.beta_l), ("u", st.beta_u), ("i", st.beta_i)):
            points = st.configuration(side)
            for i in np.flatnonzero(~np.isnan(beta)):
                config = reps.euclidean_representation(graphs[i], float(beta[i]))
                want = edm.Configuration(points[i])
                assert config.dim == np.count_nonzero(points[i].any(axis=0)), (side, i)
                assert np.allclose(config.squared_distances(), want.squared_distances(),
                                   rtol=0.0, atol=1e-12), (side, i)


class TestDimSpherical:
    def test_c5(self):
        r, beta, rho = reps.dim_spherical(cycle_graph(5))
        assert r == 2
        assert rho ** 2 == pytest.approx(2 / (5 + S5), abs=1e-12) or \
            rho ** 2 == pytest.approx(2 / (5 - S5), abs=1e-12)

    def test_bow_tie_takes_lower_endpoint(self, bow_tie):
        assert reps.endpoint_sphericity(bow_tie, reps.SIDE_LOWER)
        assert not reps.endpoint_sphericity(bow_tie, reps.SIDE_UPPER)
        r, beta, rho = reps.dim_spherical(bow_tie)
        assert r == 3 and beta == pytest.approx(0.5)
        assert rho == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_interior_fallback_when_no_endpoint_spherical(self):
        # P3 plus an isolated node: neither endpoint EDM is spherical,
        # so dim_S = n - 1 at an interior beta
        g = Graph.from_edges(4, [(0, 1), (0, 2)])
        assert not reps.endpoint_sphericity(g, reps.SIDE_LOWER)
        assert not reps.endpoint_sphericity(g, reps.SIDE_UPPER)
        r, beta, rho = reps.dim_spherical(g)
        assert r == 3
        info = edm.spherical_info(reps._edm_at(g, beta))
        assert info is not None and rho == pytest.approx(info.radius, abs=1e-9)

    def test_endpoint_sphericity_faults(self):
        with pytest.raises(ValueError, match="unknown side 'middle'"):
            reps.endpoint_sphericity(cycle_graph(5), "middle")
        # K_{2,3} has mu_max = 0 and no lower endpoint; a cluster graph has
        # mu_min = -1 and no upper one
        with pytest.raises(reps.EndpointError, match="lower endpoint requires mu_max > 0"):
            reps.endpoint_sphericity(complete_multipartite_graph([2, 3]), reps.SIDE_LOWER)
        with pytest.raises(reps.EndpointError, match="upper endpoint requires mu_min < -1"):
            reps.endpoint_sphericity(cluster_graph([3, 2]), reps.SIDE_UPPER)

    @pytest.mark.parametrize("name", ["c9", "paley13"])
    def test_regular_graph_needs_no_eigenvectors(self, name, decompositions):
        # a regular graph has q = 0, so every endpoint it has is spherical and
        # the witness is one of them: the pass runs eigvalsh only, and rho is
        # analyze_graph's rho_l or rho_u
        g = cycle_graph(9) if name == "c9" else paley_graph(13)
        r, beta, rho = reps.dim_spherical(g)
        assert decompositions == ["eigvalsh"]
        rep = reps.analyze_graph(g)
        assert (r, beta) == (rep.dim_s, rep.dim_s_witness_beta)
        assert beta in (rep.beta_l, rep.beta_u)
        assert rho == (rep.rho_l if beta == rep.beta_l else rep.rho_u)

    def test_chain_with_dim_e(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 7))
            g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            if classify(g).is_degenerate:
                continue
            r_e, _ = reps.dim_euclidean(g)
            r_s, _, _ = reps.dim_spherical(g)
            assert r_e <= r_s <= reps.j_spherical(g).dim_j


class TestClosedFormRadius:
    # rho_u is the pass's closed form in the eigenpairs of V.T A V
    def test_c5_upper(self):
        g = cycle_graph(5)
        rep = reps.analyze_graph(g)
        assert rep.rho_u ** 2 == pytest.approx(2 / (5 - S5), abs=1e-12)
        info = edm.spherical_info(reps._edm_at(g, rep.beta_u))
        assert rep.rho_u ** 2 == pytest.approx(info.radius ** 2, abs=1e-10)

    def test_rejects_nonspherical_endpoint(self, bow_tie):
        rep = reps.analyze_graph(bow_tie)
        assert rep.spherical_at_u is False and rep.rho_u is None

    def test_rejects_cluster(self):
        rep = reps.analyze_graph(cluster_graph([2, 2]))
        assert rep.beta_u is None and rep.spherical_at_u is None and rep.rho_u is None


class TestJSpherical:
    def test_bow_tie(self, bow_tie):
        js = reps.j_spherical(bow_tie)
        assert js.delta == pytest.approx(0.5, abs=1e-12)
        assert js.dim_j == 4
        assert js.beta == pytest.approx(3.0)

    def test_rows_on_unit_sphere_and_distances(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            if classify(g).is_degenerate:
                continue
            js = reps.j_spherical(g)
            norms = np.sum(js.config.points ** 2, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-9)
            rep = verify_two_distance(js.config, g, 2.0, js.beta)
            assert rep.passed
            assert js.beta > 2.0

    def test_same_second_distance(self):
        assert reps.same_second_distance(cluster_graph([2, 2, 2]), cluster_graph([4, 4]))
        assert not reps.same_second_distance(cluster_graph([2, 2, 2]), cycle_graph(5))

    @pytest.mark.parametrize("g1,g2", [(complete_graph(4), complete_graph(5)),
                                       (null_graph(3), cycle_graph(5))], ids=["k4-k5", "null3-c5"])
    def test_same_second_distance_rejects_degenerate(self, g1, g2):
        # a degenerate graph has no J-spherical representation to compare
        with pytest.raises(reps.DegenerateGraphError):
            reps.j_spherical(g1)
        with pytest.raises(reps.DegenerateGraphError):
            reps.same_second_distance(g1, g2)

    def test_same_second_distance_decompositions(self, decompositions):
        # lambda_max(Abar) of each graph from one eigvalsh, and no J points
        assert reps.same_second_distance(cluster_graph([2, 2, 2]), cluster_graph([4, 4]))
        assert decompositions == ["eigvalsh", "eigvalsh"]

    def test_same_second_distance_checks_top_group(self, monkeypatch):
        # at a clustering tolerance of 0.9 this graph's Abar has a top group
        # that merges eigenvalues; K_{3,3}'s (2 K_3) does not
        monkeypatch.setattr(linalg, "EIG_TOL", 0.9)
        g = from_mask(6, 4035)
        match = "top eigenvalue group of the complement"
        with pytest.raises(edm.InternalConsistencyError, match=match):
            reps.j_spherical(g)
        with pytest.raises(edm.InternalConsistencyError, match=match):
            reps.same_second_distance(complete_multipartite_graph([3, 3]), g)

    @pytest.mark.parametrize("name", ["bow_tie", "c9"])
    def test_one_decomposition(self, name, bow_tie, decompositions):
        reps.j_spherical(bow_tie if name == "bow_tie" else cycle_graph(9))
        assert decompositions == ["eigh"]

    def test_matches_analysis(self):
        # the analysis reads delta and dim_J from Abar's eigenvalues alone
        for graphs in _stack_graphs():
            for g in graphs:
                if classify(g).is_degenerate:
                    continue
                rep, js = reps.analyze_graph(g), reps.j_spherical(g)
                assert rep.dim_j == js.dim_j
                assert rep.delta == pytest.approx(js.delta, abs=1e-12)


class TestClosedFormFamilies:
    @pytest.mark.parametrize("q", [13, 29, 101])
    def test_paley(self, q):
        # strongly regular with A-eigenvalues (q-1)/2 (x1) and (-1 +- sqrt q)/2
        # (x (q-1)/2 each), so V.T A V keeps the two restricted eigenvalues
        # (Brouwer & Haemers, Spectra of Graphs, 2012)
        rep = reps.analyze_graph(paley_graph(q))
        half = (q - 1) // 2
        assert rep.mu_max == pytest.approx((-1 + math.sqrt(q)) / 2, abs=1e-9)
        assert rep.mu_min == pytest.approx((-1 - math.sqrt(q)) / 2, abs=1e-9)
        assert rep.m_min == rep.m_max == rep.dim_e == rep.dim_s == half
        assert rep.dim_j == q - 1

    @pytest.mark.parametrize("name,delta,dim_j", [
        ("c300", 1 / 297, 299),      # Abar's top eigenvalue n - 3, simple
        ("k60x5", 1 / 59, 295),      # Abar = 5 K_60: top eigenvalue 59, multiplicity 5
        ("k150x2", 1 / 149, 298),    # Abar = 2 K_150
        ("paley281", 2 / 280, 280),  # Abar is a Paley graph: top (q - 1)/2, simple
    ])
    def test_j_data_at_large_n(self, name, delta, dim_j):
        # delta = 1/lambda_max(Abar) and dim_J = n - its multiplicity
        g = {"c300": lambda: cycle_graph(300),
             "k60x5": lambda: complete_multipartite_graph([60] * 5),
             "k150x2": lambda: complete_multipartite_graph([150, 150]),
             "paley281": lambda: paley_graph(281)}[name]()
        rep = reps.analyze_graph(g)
        assert rep.delta == pytest.approx(delta, abs=1e-12)
        assert rep.beta_j == pytest.approx(2.0 + 2.0 * delta, abs=1e-12)
        assert rep.dim_j == dim_j

    @pytest.mark.parametrize("family,p", [
        ("triangular", 6), ("triangular", 35), ("rook", 4), ("rook", 24),
        ("hypercube", 4), ("hypercube", 9), ("kneser", 7), ("kneser", 35)])
    def test_regular_families(self, family, p):
        # k-regular graphs with known restricted eigenvalues (Brouwer & Haemers,
        # Spectra of Graphs, 2012), as (k, mu_max, m_max, mu_min, m_min). The
        # degree vector of a regular graph is orthogonal to every eigenspace,
        # so both endpoints are spherical with rho^2 = [beta (n-1) + (1 - beta) k]/(2n),
        # and Abar's top eigenvalue n - 1 - k is simple for these parameters.
        build, spectrum = {
            "triangular": (triangular_graph,
                           lambda m: (2 * (m - 2), m - 4, m - 1, -2, m * (m - 3) // 2)),
            "rook": (rook_graph, lambda m: (2 * (m - 1), m - 2, 2 * (m - 1), -2, (m - 1) ** 2)),
            "hypercube": (hypercube_graph, lambda d: (d, d - 2, d, -d, 1)),
            "kneser": (kneser_graph,
                       lambda m: ((m - 2) * (m - 3) // 2, 1, m * (m - 3) // 2, 3 - m, m - 1)),
        }[family]
        g = build(p)
        n, (k, mu_max, m_max, mu_min, m_min) = g.n, spectrum(p)
        assert (g.adj.sum(axis=1) == k).all()
        rep = reps.analyze_graph(g)
        assert rep.mu_max == pytest.approx(mu_max, abs=1e-9)
        assert rep.mu_min == pytest.approx(mu_min, abs=1e-9)
        assert (rep.m_max, rep.m_min) == (m_max, m_min)
        dim = min(n - 1 - m_max, n - 1 - m_min)
        assert (rep.dim_e, rep.dim_s, rep.dim_j) == (dim, dim, n - 1)
        assert rep.delta == pytest.approx(1.0 / (n - 1 - k), abs=1e-12)
        assert rep.spherical_at_l and rep.spherical_at_u
        for beta, rho in ((rep.beta_l, rep.rho_l), (rep.beta_u, rep.rho_u)):
            assert rho ** 2 == pytest.approx((beta * (n - 1) + (1 - beta) * k) / (2 * n), rel=1e-12)


class TestAnalyzeGraph:

    def test_degenerate_report(self):
        rep = reps.analyze_graph(complete_graph(4))
        assert rep.degenerate and rep.dim_e is None and rep.mu_min is None
        assert rep.to_dict()["class"] == "complete"

    def test_c5_report_round_trip(self):
        rep = reps.analyze_graph(cycle_graph(5))
        doc = rep.to_dict()
        assert doc["dim_e"] == 2 and doc["dim_s"] == 2 and doc["dim_j"] == 4
        assert doc["beta_l"] == pytest.approx((3 - S5) / 2)
        assert doc["spherical_at_l"] and doc["spherical_at_u"]
        assert doc["rho_l"] ** 2 == pytest.approx(2 / (5 + S5))
        assert doc["rho_u"] ** 2 == pytest.approx(2 / (5 - S5))

    @pytest.mark.parametrize("name,want", [
        ("gnp", ["eigh"]), ("c9", ["eigvalsh"]), ("paley13", ["eigvalsh"])],
        ids=["gnp", "c9", "paley13"])
    def test_one_decomposition_per_analysis(self, name, want, rng, decompositions):
        # eigh of V.T A V, or only its eigenvalues for a regular graph (q = 0);
        # Abar's top eigenvalue from its secular equation clears the rest, so
        # no decomposition of Abar, and the analysis reads no J-spherical point
        if name == "gnp":
            upper = np.triu(rng.random((12, 12)) < 0.5, k=1)
            g = Graph(12, upper | upper.T)
            assert classify(g).tag == "general"
        else:
            g = cycle_graph(9) if name == "c9" else paley_graph(13)
        reps.analyze_graph(g)
        assert decompositions == want

    @pytest.mark.parametrize("n", [100, 300, 600])
    def test_gnp_delta_from_secular_equation(self, n, decompositions):
        # G(n, 1/2): lambda_max(Abar) by Newton clears max d, so the analysis
        # decomposes only V.T A V, and delta = 1/lambda_max of a dense eigvalsh
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        g = Graph(n, upper | upper.T)
        rep = reps.analyze_graph(g)
        assert decompositions == ["eigh"]
        lam = np.linalg.eigvalsh(complement_adjacency(g.adj).astype(float))[-1]
        assert rep.delta == pytest.approx(1.0 / lam, rel=1e-12, abs=0.0)
        assert rep.dim_j == n - 1

    @pytest.mark.parametrize("g", [cycle_graph(9), petersen_graph(), paley_graph(13)],
                             ids=["c9", "petersen", "paley13"])
    def test_endpoint_radii_match_spherical_info(self, g):
        rep = reps.analyze_graph(g)
        assert rep.spherical_at_l and rep.spherical_at_u
        for beta, rho in ((rep.beta_l, rep.rho_l), (rep.beta_u, rep.rho_u)):
            info = edm.spherical_info(reps._edm_at(g, beta))
            assert rho == pytest.approx(info.radius, abs=1e-9)

    @pytest.mark.parametrize("name,radii", [
        ("c9", 2),       # both endpoints spherical
        ("bow_tie", 1),  # only the lower endpoint spherical
        ("p3_k1", 0),    # neither spherical: no radius, the report has none
    ])
    def test_one_stacked_pass(self, name, radii, bow_tie, monkeypatch):
        # analyze_graph is the stacked pass on a stack of one: one closed-form
        # radius per spherical endpoint, and no lifted
        # eigenvectors, configurations or circumcenters, and none of the
        # single-graph helpers
        g = {"c9": cycle_graph(9), "bow_tie": bow_tie,
             "p3_k1": Graph.from_edges(4, [(0, 1), (0, 2)])}[name]
        calls = []
        for fn in ("_analyze_stack", "_radius2", "lift", "_configurations", "_circumcenter",
                   "_witness_radius", "_require_nondegenerate", "endpoint_sphericity",
                   "euclidean_representation", "j_spherical", "_edm_at"):
            orig = getattr(reps, fn)

            def counted(*args, _fn=fn, _orig=orig, **kwargs):
                calls.append((_fn, np.shape(args[0])))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(reps, fn, counted)
        reps.analyze_graph(g)
        assert [c for c in calls if c[0] == "_analyze_stack"] == [("_analyze_stack", (1, g.n, g.n))]
        assert [c[0] for c in calls].count("_radius2") == radii
        assert {c[0] for c in calls} - {"_radius2"} == {"_analyze_stack"}

    def test_class_contradiction_raises(self, monkeypatch):
        # C5's mu_min < -1 contradicts a cluster tag
        monkeypatch.setattr(reps, "class_stack",
                            lambda adj: class_stack(cluster_graph([2, 3]).adj[None]))
        with pytest.raises(edm.InternalConsistencyError, match="contradicts the class"):
            reps.analyze_graph(cycle_graph(5))

    def test_dimension_chain_break_raises(self, monkeypatch):
        # _j_arrowhead returns the J data of certified and fallback rows alike
        real = reps._j_arrowhead

        def broken(*args):
            js = real(*args)
            return dataclasses.replace(js, dim_j=np.ones_like(js.dim_j))
        monkeypatch.setattr(reps, "_j_arrowhead", broken)
        with pytest.raises(edm.InternalConsistencyError, match="lower_bound_e <= dim_e"):
            reps.analyze_graph(cycle_graph(5))

    @pytest.mark.parametrize("name", ["dim_euclidean", "dim_spherical", "beta_feasible_set"])
    def test_single_graph_answers_raise_the_pass_fault(self, name, monkeypatch):
        # a top group of Abar that is not one positive eigenvalue faults the
        # pass; every answer built on it raises analyze_graph's fault
        real = reps._j_arrowhead

        def broken(*args):
            return dataclasses.replace(real(*args), top=np.full(1, -1.0))
        monkeypatch.setattr(reps, "_j_arrowhead", broken)
        g = cycle_graph(5)
        with pytest.raises(edm.InternalConsistencyError) as expected:
            reps.analyze_graph(g)
        assert "top eigenvalue group of the complement" in str(expected.value)
        with pytest.raises(edm.InternalConsistencyError) as got:
            getattr(reps, name)(g)
        assert str(got.value) == str(expected.value)

    def test_report_columns_are_stack_fields(self):
        # every per-graph report column is a _Stack array by the same name, so
        # a ReprReport field without its column fails here
        stack_fields = [f.name for f in dataclasses.fields(reps._Stack)]
        assert set(reps._COLUMNS) <= set(stack_fields)
        report_fields = [f.name for f in dataclasses.fields(reps.ReprReport)]
        assert report_fields == ["n", "graph_class", "degenerate", *reps._COLUMNS,
                                 "lower_bound_e", "lower_bound_s"]

    @pytest.mark.parametrize("mask", [4035, 15462, 26418])
    def test_rounding_residue_prints_zero(self, mask):
        # the top group of Abar merges eigenvalues around a mean that is 0 up
        # to rounding; the arrowhead route and an eigh of Abar print it alike
        g = from_mask(6, mask)
        with pytest.raises(edm.InternalConsistencyError, match=r"\(0, spread"):
            reps.analyze_graph(g, 0.9)
        js = reps._j_stack(np.linalg.eigvalsh(adjacency_matrix(complement(g))[None]), 0.9)
        assert js.bad[0] and "(0, spread" in str(js.error(0))

    def test_lower_bounds_hold(self):
        rep = reps.analyze_graph(cycle_graph(6))
        assert rep.dim_e >= rep.lower_bound_e
        assert rep.dim_s >= rep.lower_bound_s

    def test_lower_bound_values(self):
        lb_e, lb_s = reps.lower_bounds(5)
        assert lb_e == pytest.approx((math.sqrt(41) - 3) / 2)
        assert lb_s == pytest.approx((math.sqrt(49) - 3) / 2)
        with pytest.raises(ValueError, match="n >= 2 required"):
            reps.lower_bounds(1)


def _stack_graphs():
    """Every graph of order 5, then 50 seeded graphs each of orders 7 and 8."""
    rng = np.random.default_rng(8)
    yield [from_mask(5, mask) for mask in range(1 << 10)]
    for n in (7, 8):
        yield [from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2)))) for _ in range(50)]


def _assert_same_report(got, want):
    """Integer, flag and class fields equal; float fields within 1e-12."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert a == pytest.approx(b, abs=1e-12), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def _assert_same_row(st1, st2, i):
    """Row i of two passes: the same fault text, or the same report."""
    if st1.errors[i] is not None:
        assert str(st1.errors[i]) == str(st2.errors[i])
    else:
        _assert_same_report(st1.report(i), st2.report(i))


class TestAnalyzeStack:
    @pytest.mark.parametrize("tol", [1e-9, 0.1])
    def test_stacking_changes_no_answer(self, tol):
        # a tolerance or max taken over the whole stack instead of per row
        # would make a graph's answers depend on its neighbours; at tol 0.1
        # the clustering gap, scaled per graph, decides many answers and faults
        for graphs in _stack_graphs():
            st = reps._analyze_stack(np.stack([g.adj for g in graphs]), tol)
            for i, g in enumerate(graphs):
                try:
                    want = reps.analyze_graph(g, tol)
                except edm.InternalConsistencyError as exc:
                    assert str(st.errors[i]) == str(exc)
                else:
                    _assert_same_report(st.report(i), want)

    @pytest.mark.parametrize("tol", [1e-9, 0.1, 0.9])
    def test_j_points_change_no_answer(self, tol):
        # the sweep and j_spherical build the J points from an eigh of Abar,
        # the pass reads Abar's eigenvalues off its arrowhead form: the same
        # delta, dim_J and faults (at tol 0.9, 22 order-5 graphs have the
        # top-Abar-group fault)
        stacks = [np.stack([g.adj for g in graphs]) for graphs in _stack_graphs()]
        stacks += [cycle_graph(300).adj[None], paley_graph(101).adj[None]]
        for adj in stacks:
            st = reps._analyze_stack(adj, tol)
            js = reps._j_stack(np.linalg.eigvalsh(complement_adjacency(adj).astype(float)), tol)
            clean = (st.errors == None) & ~st.classes.degenerate  # noqa: E711
            assert not js.bad[clean].any()
            for i in np.flatnonzero(js.bad & ~st.classes.degenerate):
                if "complement" in str(st.errors[i]):
                    assert str(st.errors[i]) == str(js.error(i))
            assert np.array_equal(st.dim_j[clean], js.dim_j[clean])
            assert np.allclose(st.delta[clean], js.delta[clean], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("tol", [1e-9, 0.1, 0.9])
    def test_abar_top_matches_eigvalsh_on_order_6(self, tol, monkeypatch):
        # Newton's lambda_max(Abar) with its interlacing certificate, and an
        # eigvalsh of Abar on the rows it leaves, against _j_stack on an
        # eigvalsh of Abar on every graph of order 6: the same delta, dim_J
        # and fault text (at tol 0.9 Newton certifies about 1% of the rows)
        adj = mask_stack(6, np.arange(1 << 15))
        fallback, real = [], reps.complement_adjacency
        monkeypatch.setattr(reps, "complement_adjacency", lambda a: fallback.append(a) or real(a))
        st = reps._analyze_stack(adj, tol)
        # K3,3's Abar = 2 K3 has lambda_max = 2 twice, which no certificate
        # clears: the fallback runs at every tolerance
        k33 = complete_multipartite_graph([3, 3]).adj
        assert len(fallback) == 1 and (fallback[0] == k33).all(axis=(1, 2)).any()
        js = reps._j_stack(np.linalg.eigvalsh(complement_adjacency(adj).astype(float)), tol)
        nondeg = ~st.classes.degenerate
        j_fault = np.array([e is not None and "complement" in str(e) for e in st.errors])
        other = (st.errors != None) & ~j_fault  # noqa: E711
        assert np.array_equal(j_fault, js.bad & nondeg & ~other)
        for i in np.flatnonzero(j_fault):
            assert str(st.errors[i]) == str(js.error(i))
        ok = nondeg & ~js.bad
        assert np.array_equal(st.dim_j[ok], js.dim_j[ok])
        assert np.allclose(st.delta[ok], js.delta[ok], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_regular_eigvalsh_path_matches_eigh_path(self, n):
        # a stack of regular graphs decomposes V.T A V by eigvalsh (q = 0);
        # one irregular graph in the stack makes the pass run eigh: every
        # regular graph of order n gets the same answers and faults either way
        adj = mask_stack(n, np.arange(1 << (n * (n - 1) // 2)))
        deg = adj.sum(axis=-1)
        regular = adj[(deg == deg[:, :1]).all(axis=-1)]
        alone = reps._analyze_stack(regular)
        mixed = reps._analyze_stack(np.concatenate([regular, from_mask(n, 1).adj[None]]))
        assert alone.basis is None and mixed.basis is not None
        for i in range(len(regular)):
            _assert_same_row(alone, mixed, i)

    @pytest.mark.parametrize("name", ["c600", "paley601", "triangular35", "kneser35"])
    def test_regular_eigvalsh_path_at_large_n(self, name):
        g = {"c600": lambda: cycle_graph(600), "paley601": lambda: paley_graph(601),
             "triangular35": lambda: triangular_graph(35),
             "kneser35": lambda: kneser_graph(35)}[name]()
        chord = Graph.from_edges(g.n, [(i, (i + 1) % g.n) for i in range(g.n)] + [(0, 2)])
        alone = reps._analyze_stack(g.adj[None])
        mixed = reps._analyze_stack(np.stack([g.adj, chord.adj]))
        assert alone.basis is None and mixed.basis is not None
        _assert_same_row(alone, mixed, 0)

    def test_sphericity_matches_direct_residual(self):
        # the pass tests d . z = 0 for the lifted eigenvectors z; the direct
        # test computes A z - mu z
        graphs = next(_stack_graphs())
        st = reps._analyze_stack(np.stack([g.adj for g in graphs]))
        for i, g in enumerate(graphs):
            rep = st.report(i)
            for side, flag in ((reps.SIDE_LOWER, rep.spherical_at_l),
                               (reps.SIDE_UPPER, rep.spherical_at_u)):
                if flag is not None:
                    assert flag == reps.endpoint_sphericity(g, side), (i, side)

    @pytest.mark.parametrize("tol,clean", [(0.5, cycle_graph(5)), (5.0, complete_graph(5))],
                             ids=["0.5-c5", "5-k5"])
    def test_error_stays_in_its_row(self, tol, clean):
        # Dug at a coarse tolerance is the CLI's exit-3 case; at tol 5 every
        # order-5 graph merges eigenvalues except the degenerate ones
        dug = parse_graph6("Dug")
        st = reps._analyze_stack(np.stack([dug.adj, clean.adj]), tol)
        with pytest.raises(edm.InternalConsistencyError) as exc:
            reps.analyze_graph(dug, tol)
        assert str(st.errors[0]) == str(exc.value)
        assert st.errors[1] is None
        _assert_same_report(st.report(1), reps.analyze_graph(clean, tol))
