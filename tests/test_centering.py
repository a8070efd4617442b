import numpy as np
import pytest

from twodist.centering import build_v, lift, project_adjacency, projected_gram
from twodist.graphs import adjacency_matrix, cycle_graph, from_mask


def random_adjacency(rng, n):
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
    return a + a.T


class TestBasis:
    def test_orthonormal_and_perp_to_ones(self):
        for n in range(2, 13):
            v = build_v(n)
            cols = lift(np.eye(n - 1), v)
            assert cols.shape == (n, n - 1)
            assert np.allclose(cols.T @ cols, np.eye(n - 1), atol=1e-12)
            assert np.allclose(np.ones(n) @ cols, 0.0, atol=1e-12)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            build_v(1)

    def test_cached_basis_read_only(self):
        v = build_v(5)
        with pytest.raises(ValueError):
            v.u[0] = 1.0
        assert build_v(5) is v

    def test_dense_entries(self):
        # first row -1/sqrt(n), identity-plus-constant below
        v = lift(np.eye(3), build_v(4))
        assert np.allclose(v[0], -0.5)
        x = -1.0 / (4 + 2.0)
        assert v[1, 0] == pytest.approx(1.0 + x)
        assert v[2, 0] == pytest.approx(x)


class TestProjection:
    def test_schemes_give_same_spectrum(self, rng):
        # any orthonormal basis of the complement of e gives the same spectrum;
        # the reference is a QR basis of [e, random columns]
        for n in range(4, 13):
            for _ in range(10):
                a = random_adjacency(rng, n)
                q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
                s1 = np.linalg.eigvalsh(project_adjacency(a, build_v(n)))
                s2 = np.linalg.eigvalsh(q[:, 1:].T @ a @ q[:, 1:])
                assert np.allclose(s1, s2, atol=1e-9)

    def test_trace_identity(self, rng):
        # trace(V.T A V) = -e.T A e / n for hollow A
        for _ in range(20):
            n = int(rng.integers(2, 11))
            a = random_adjacency(rng, n)
            m = project_adjacency(a, build_v(n))
            e = np.ones(n)
            assert np.trace(m) == pytest.approx(-(e @ a @ e) / n, abs=1e-10)

    def test_regular_graph_spectrum_drops_degree(self):
        # projecting C_n removes one copy of the degree eigenvalue 2
        a = adjacency_matrix(cycle_graph(6))
        mu = np.linalg.eigvalsh(project_adjacency(a, build_v(6)))
        lam = np.linalg.eigvalsh(a)
        assert np.allclose(np.sort(mu), np.sort(lam)[:-1], atol=1e-9)

    def test_projected_gram_sign(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = projected_gram(d, build_v(2))
        assert x.shape == (1, 1)
        assert x[0, 0] == pytest.approx(0.5)  # two points at distance 1

    def test_projected_gram_rejects_bad_input(self):
        v = build_v(3)
        with pytest.raises(ValueError, match="diagonal"):
            projected_gram(np.eye(3), v)
        with pytest.raises(ValueError, match="order mismatch"):
            projected_gram(np.zeros((4, 4)), v)
