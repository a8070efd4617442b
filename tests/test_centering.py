import numpy as np
import pytest

from twodist.centering import lift, project_adjacency, restrict
from twodist.graphs import adjacency_matrix, cycle_graph, mask_stack


def random_adjacency(rng, n):
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), k=1)
    return a + a.T


class TestBasis:
    def test_orthonormal_and_perp_to_ones(self):
        for n in range(2, 13):
            cols = lift(np.eye(n - 1))
            assert cols.shape == (n, n - 1)
            assert np.allclose(cols.T @ cols, np.eye(n - 1), atol=1e-12)
            assert np.allclose(np.ones(n) @ cols, 0.0, atol=1e-12)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            lift(np.zeros((0, 1)))

    def test_dense_entries(self):
        # first row -1/sqrt(n), identity-plus-constant below
        v = lift(np.eye(3))
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
                s1 = np.linalg.eigvalsh(project_adjacency(a))
                s2 = np.linalg.eigvalsh(q[:, 1:].T @ a @ q[:, 1:])
                assert np.allclose(s1, s2, atol=1e-9)

    def test_trace_identity(self, rng):
        # trace(V.T A V) = -e.T A e / n for hollow A
        for _ in range(20):
            n = int(rng.integers(2, 11))
            a = random_adjacency(rng, n)
            m = project_adjacency(a)
            e = np.ones(n)
            assert np.trace(m) == pytest.approx(-(e @ a @ e) / n, abs=1e-10)

    def test_regular_graph_spectrum_drops_degree(self):
        # projecting C_n removes one copy of the degree eigenvalue 2
        a = adjacency_matrix(cycle_graph(6))
        mu = np.linalg.eigvalsh(project_adjacency(a))
        lam = np.linalg.eigvalsh(a)
        assert np.allclose(np.sort(mu), np.sort(lam)[:-1], atol=1e-9)

    def test_rows_of_a_stack_round_as_alone(self):
        # every graph on 5 nodes and its centred degree vector, as the
        # analysis pass projects them: each row of the stacked products is
        # that row's product alone, bit for bit, and both match the dense
        # V = lift(I) products
        adj = mask_stack(5, np.arange(1 << 10)).astype(float)
        deg = adj.sum(axis=-1)
        deg -= deg.sum(axis=-1, keepdims=True) / 5
        vav, vtd = project_adjacency(adj), restrict(deg)
        v = lift(np.eye(4))
        for i, a in enumerate(adj):
            assert np.array_equal(vav[i], project_adjacency(a))
            assert np.array_equal(vtd[i], restrict(deg[i]))
            assert np.allclose(vav[i], v.T @ a @ v, rtol=0.0, atol=1e-13)
            assert np.allclose(vtd[i], v.T @ deg[i], rtol=0.0, atol=1e-13)
