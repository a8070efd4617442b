import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import edm_at
from twodist import edm, linalg, representations as reps
from twodist.centering import project_adjacency
from twodist.graphs import (adjacency_matrix, complement_adjacency,
                            complete_multipartite_graph, cycle_graph, mask_stack)


def edm_from_points(points):
    sq = np.sum(points * points, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(d, 0.0)
    return d


def random_edm(rng, n, dim):
    return edm_from_points(rng.standard_normal((n, dim)))


def order5_edms():
    """The EDM of every non-degenerate order-5 graph at the beta_l, beta_u
    and interior beta_i of the analysis pass, where they exist."""
    adj = mask_stack(5, np.arange(1 << 10))
    st = reps._analyze_stack(adj)
    a, abar = adj.astype(float), complement_adjacency(adj).astype(float)
    edms = []
    for beta in (st.beta_l, st.beta_u, st.beta_i):
        ok = ~np.isnan(beta)
        edms.append(a[ok] + beta[ok, None, None] * abar[ok])
    return np.concatenate(edms)


class TestIsEdm:
    def test_random_point_sets(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            dim = int(rng.integers(1, n))
            chk = edm.is_edm(random_edm(rng, n, dim))
            assert chk.is_edm
            assert chk.embedding_dim == min(dim, n - 1)

    def test_multipartite_adjacency_is_edm(self):
        # K_{2,3}: two coincident pairs at distance 1 -> a 1-dimensional EDM
        a = adjacency_matrix(complete_multipartite_graph([3, 2]))
        chk = edm.is_edm(a)
        assert chk.is_edm and chk.embedding_dim == 1

    def test_non_multipartite_adjacency_is_not(self):
        chk = edm.is_edm(adjacency_matrix(cycle_graph(5)))
        assert not chk.is_edm and chk.embedding_dim == 0

    def test_one_point(self):
        # one point has no projected Gram: an EDM of dimension 0
        assert edm.is_edm(np.zeros((1, 1))) == edm.EdmCheck(True, 0)

    def test_against_pivoted_cholesky(self, rng):
        # reference rank from LAPACK's pivoted Cholesky of the projected Gram
        for _ in range(100):
            n = int(rng.integers(2, 16))
            d = random_edm(rng, n, int(rng.integers(1, n + 1)))
            x = -0.5 * project_adjacency(d)
            _, _, ref_rank, _ = lapack.dpstrf(x, tol=1e-9 * max(1.0, x.max()))
            chk = edm.is_edm(d)
            assert chk.is_edm and chk.embedding_dim == ref_rank

    def test_input_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            edm.is_edm(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            edm.is_edm(np.eye(2))
        with pytest.raises(ValueError, match="square"):
            edm.is_edm(np.zeros((2, 3)))
        nan = np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [np.nan, 1.0, 0.0]])
        for query in (edm.is_edm, edm.recover_configuration, edm.gale_matrix,
                      edm.spherical_info):
            with pytest.raises(linalg.NotFiniteError):
                query(nan)


class TestRecoverConfiguration:
    def test_centroid_round_trip(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            d = random_edm(rng, n, int(rng.integers(1, n)))
            config = edm.recover_configuration(d)
            assert np.allclose(config.squared_distances(), d, atol=1e-8 * max(1.0, d.max()))
            assert np.allclose(config.points.sum(axis=0), 0.0, atol=1e-8)

    def test_rejects_non_edm(self):
        with pytest.raises(edm.NotEdmError):
            edm.recover_configuration(adjacency_matrix(cycle_graph(5)))


class TestGaleMatrix:
    def test_annihilates_affine_span(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 10))
            dim = int(rng.integers(1, n - 1))
            d = random_edm(rng, n, dim)
            config = edm.recover_configuration(d)
            z = edm.gale_matrix(d).z
            assert z.shape == (n, n - 1 - dim)
            assert np.allclose(config.points.T @ z, 0.0, atol=1e-8)
            assert np.allclose(np.ones(n) @ z, 0.0, atol=1e-8)

    def test_full_dimension_raises(self):
        d = edm_from_points(np.eye(3))  # triangle spans the plane
        with pytest.raises(edm.FullDimensionError):
            edm.gale_matrix(d)

    def test_one_point_raises(self):
        with pytest.raises(edm.FullDimensionError):
            edm.gale_matrix(np.zeros((1, 1)))

    def test_rejects_non_edm(self):
        with pytest.raises(edm.NotEdmError, match="Gale matrix requires an EDM"):
            edm.gale_matrix(adjacency_matrix(cycle_graph(5)))

    def test_bow_tie_endpoint_gale_vectors(self, bow_tie):
        # the two endpoint EDMs have one-dimensional Gale spaces with known
        # direction (node 0 is the shared center)
        for beta, target in ((0.5, [0.0, 1.0, -1.0, 1.0, -1.0]),
                             (3.5, [-4.0, 1.0, 1.0, 1.0, 1.0])):
            d = edm_at(bow_tie, beta)
            z = edm.gale_matrix(d).z
            assert z.shape == (5, 1)
            t = np.asarray(target)
            cos = (z[:, 0] @ t) / (np.linalg.norm(z) * np.linalg.norm(t))
            assert abs(cos) == pytest.approx(1.0, abs=1e-9)


class TestSphericalInfo:
    def test_regular_simplex(self):
        # D = 2(E - I): regular simplex with edge sqrt(2), radius sqrt((n-1)/n)
        n = 5
        d = 2.0 * (np.ones((n, n)) - np.eye(n))
        info = edm.spherical_info(d)
        assert info is not None
        assert info.radius == pytest.approx(np.sqrt((n - 1) / n), abs=1e-12)

    def test_sphere_sample(self, rng):
        raw = rng.standard_normal((7, 3))
        pts = 1.7 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        info = edm.spherical_info(edm_from_points(pts))
        assert info is not None
        assert info.radius == pytest.approx(1.7, abs=1e-8)
        assert info.ew == pytest.approx(1.0 / (2.0 * 1.7 ** 2), abs=1e-8)

    def test_collinear_is_not_spherical(self):
        d = edm_from_points(np.array([[0.0], [1.0], [2.0]]))
        assert edm.spherical_info(d) is None

    def test_bow_tie_upper_endpoint_not_spherical(self, bow_tie):
        assert edm.spherical_info(edm_at(bow_tie, 3.5)) is None

    def test_zero_matrix(self):
        assert edm.spherical_info(np.zeros((3, 3))) is None

    def test_rejects_non_edm(self):
        with pytest.raises(edm.NotEdmError, match="sphericity query requires an EDM"):
            edm.spherical_info(adjacency_matrix(cycle_graph(5)))

    def test_stack_matches_single_queries(self, rng, bow_tie):
        raw = rng.standard_normal((5, 3))
        sphere = edm_from_points(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        collinear = edm_from_points(np.arange(5.0)[:, None])
        ds = np.concatenate([
            [sphere, collinear, edm_at(bow_tie, 3.5), edm_at(bow_tie, 0.5),
             np.zeros((5, 5))],
            order5_edms(), [random_edm(rng, 5, dim) for dim in range(1, 6) for _ in range(10)]])
        st = edm.sphere_stack(ds)
        assert (st.errors == None).all()  # noqa: E711
        for d, radius in zip(ds, st.radius):
            info = edm.spherical_info(d)
            assert (info is None) == np.isnan(radius)
            assert info is None or info.radius == radius

    def test_stack_matches_pinv_reference(self):
        # sphere_stack reads w = pinv(D) e and rank(D) off one eigh of D; the
        # dense pseudoinverse is the reference, on every spherical upper
        # endpoint EDM A + beta_u Abar of order n <= 5 (orders 2 and 3 have none)
        checked = 0
        for n in range(2, 6):
            adj = mask_stack(n, np.arange(1 << (n * (n - 1) // 2)))
            st = reps._analyze_stack(adj)
            rows = st.spherical_at_u
            if not rows.any():
                continue
            ds = adj[rows] + st.beta_u[rows, None, None] * complement_adjacency(adj[rows])
            sphere = edm.sphere_stack(ds)
            p = linalg.pinv(ds)
            w = p.sum(axis=-1)
            ew = w.sum(axis=-1)
            rank = np.rint(np.einsum("kij,kji->k", ds, p))
            r = np.count_nonzero(edm._gram(ds)[3], axis=-1)
            assert (sphere.errors == None).all()  # noqa: E711
            assert np.all(np.abs(sphere.w - w) <= 1e-12 * np.abs(w).max(axis=-1, keepdims=True))
            assert np.all(np.abs(sphere.ew - ew) <= 1e-12 * np.abs(ew))
            assert np.array_equal(linalg.pinv_solve(ds, np.ones(ds.shape[:2]))[1], rank)
            assert np.array_equal(~np.isnan(sphere.radius), (r == n - 1) | (rank == r + 1))
            assert np.allclose(sphere.radius, np.sqrt(0.5 / ew), rtol=1e-12, atol=0.0)
            checked += len(ds)
        assert checked > 0

    @staticmethod
    def misread_rank(monkeypatch, shift):
        """Make sphere_stack read rank(D) off by ``shift``, leaving w = pinv(D) e
        as it is."""
        real = linalg.pinv_solve

        def pinv_solve(d, b):
            w, rank = real(d, b)
            return w, rank + shift
        monkeypatch.setattr(edm.linalg, "pinv_solve", pinv_solve)

    def test_rank_says_spherical_cross_check_disagrees(self, monkeypatch):
        # collinear points: e.T w = 0 contradicts a rank(D) of r + 1
        self.misread_rank(monkeypatch, -1)
        with pytest.raises(edm.InternalConsistencyError, match="^rank test says spherical but "):
            edm.spherical_info(edm_from_points(np.arange(4.0)[:, None]))

    def test_rank_says_nonspherical_cross_check_disagrees(self, monkeypatch):
        # a square: DZ = 0 and e.T w = 1 contradict a rank(D) of r + 2
        self.misread_rank(monkeypatch, 1)
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(edm.InternalConsistencyError,
                           match="^rank test says non-spherical but "):
            edm.spherical_info(edm_from_points(square))

    def test_center_matches_points(self, rng):
        raw = rng.standard_normal((6, 3))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        d = edm_from_points(pts)
        info = edm.spherical_info(d)
        config = edm.recover_configuration(d)
        dist = np.linalg.norm(config.points - info.center, axis=1)
        assert np.allclose(dist, info.radius, atol=1e-8)


class TestOneGramReading:
    # every query reads one eigendecomposition of the projected Gram
    @pytest.mark.parametrize("query,want", [
        ("is_edm", ["eigh"]), ("recover_configuration", ["eigh"]), ("gale_matrix", ["eigh"]),
        ("spherical_info", ["eigh", "eigh"]),  # the projected Gram, then D
    ], ids=["is_edm", "recover_configuration", "gale_matrix", "spherical_info"])
    def test_decompositions(self, query, want, rng, decompositions):
        raw = rng.standard_normal((7, 3))
        d = edm_from_points(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        assert getattr(edm, query)(d) is not None
        assert decompositions == want

    def test_readings_agree(self, rng):
        randoms = [random_edm(rng, n, int(rng.integers(1, n + 1)))
                   for n in rng.integers(2, 12, 100).tolist()]
        for d in [*order5_edms(), *randoms]:
            n = d.shape[0]
            chk = edm.is_edm(d)
            assert chk.is_edm
            assert edm.recover_configuration(d).dim == chk.embedding_dim
            if chk.embedding_dim < n - 1:
                assert edm.gale_matrix(d).z.shape[1] == n - 1 - chk.embedding_dim
            else:
                with pytest.raises(edm.FullDimensionError):
                    edm.gale_matrix(d)


def test_first_faults_first_wins():
    # each marked row takes the error of its first fault; unmarked rows and
    # rows with no fault take None, and a later fault never overwrites
    made = []

    def error(name):
        return lambda i: made.append((name, i)) or f"{name}{i}"
    faults = [(np.array([False, True, True, False, False]), error("a")),
              (np.array([True, True, False, True, False]), error("b"))]
    got = edm.first_faults(faults, np.array([True, True, True, False, True]))
    assert got.tolist() == ["b0", "a1", "a2", None, None]
    assert made == [("a", 1), ("a", 2), ("b", 0)]
