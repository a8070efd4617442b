import numpy as np
import pytest

from twodist import linalg


def random_psd(rng, n, rank):
    f = rng.standard_normal((n, rank))
    return f @ f.T


class TestExtremeGroups:
    def test_projector_groups(self, rng):
        # projector onto a random 3-space has eigenvalues {0 x5, 1 x3}
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        grp = linalg.extreme_groups(np.linalg.eigvalsh(q @ q.T), linalg.EIG_TOL)
        assert grp.counts.tolist() == [5, 3]
        assert grp.masks.tolist() == [[True] * 5 + [False] * 3, [False] * 5 + [True] * 3]
        assert grp.means.tolist() == pytest.approx([0.0, 1.0], abs=1e-12)
        assert grp.spreads.max() < 1e-12

    def test_two_group_matrix(self):
        # -(J - I)/3 on 4 nodes: eigenvalues -1 (x1) and 1/3 (x3)
        w = np.linalg.eigvalsh(-(np.full((4, 4), 1.0) - np.eye(4)) / 3.0)
        grp = linalg.extreme_groups(w, linalg.EIG_TOL)
        assert grp.counts.tolist() == [1, 3]
        assert grp.means.tolist() == pytest.approx([-1.0, 1.0 / 3.0])

    @pytest.mark.parametrize("k,m", [(500, 5), (3, 12)])
    def test_stack_matches_rows(self, rng, k, m):
        # rounded spectra, their ties split by noise within or beyond the gap,
        # in stacks with more and with fewer rows than eigenvalues per row;
        # each row's groups are the ones it gets alone, bit for bit
        w = np.round(rng.standard_normal((k, m)) * 2.0) / 2.0
        w += rng.choice([0.0, 1e-11, 1e-3], (k, m)) * rng.standard_normal((k, m))
        w.sort(axis=-1)
        w[:, 1] = w[:, 0] + 1e-11  # every bottom group merges two or more
        w.sort(axis=-1)
        got = linalg.extreme_groups(w, linalg.EIG_TOL)
        assert (got.counts[0] >= 2).all() and (got.spreads > 0.0).any()
        for i in range(k):
            alone = linalg.extreme_groups(w[i], linalg.EIG_TOL)
            for field, want in zip(got, alone):
                assert np.array_equal(field[:, i], want)

    def test_one_eigenvalue(self):
        # n = 2: V.T A V is 1 x 1, and both extreme groups are its eigenvalue
        w = np.array([[-1.0], [0.0], [2.5]])
        grp = linalg.extreme_groups(w, linalg.EIG_TOL)
        assert grp.masks.all()
        assert grp.counts.tolist() == [[1, 1, 1], [1, 1, 1]]
        assert np.array_equal(grp.means, [w[:, 0], w[:, 0]])
        assert not grp.spreads.any()


class TestPinvAndSolve:
    def test_moore_penrose_identities(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            m = random_psd(rng, n, max(1, n - 2))
            p = linalg.pinv(m)
            assert np.allclose(m @ p @ m, m, atol=1e-8)
            assert np.allclose(p @ m @ p, p, atol=1e-8)
            assert np.allclose(p, p.T, atol=1e-12)

    def test_stacks_invert_each_matrix(self, rng):
        ms = np.stack([random_psd(rng, 6, rank) for rank in (1, 3, 6)])
        p = linalg.pinv(ms)
        for m, pm in zip(ms, p):
            assert np.allclose(pm, linalg.pinv(m), atol=1e-10)
        b = np.einsum("kij,kj->ki", ms, rng.standard_normal((3, 6)))
        assert linalg.in_colspace(ms, b, np.einsum("kij,kj->ki", p, b)).all()
        # a vector orthogonal to the rank-1 matrix's range misses only there
        b[0] = np.linalg.svd(ms[0])[0][:, 1]
        assert linalg.in_colspace(ms, b, np.einsum("kij,kj->ki", p, b)).tolist() == \
            [False, True, True]


@pytest.mark.parametrize("shape", [(1024, 4), (2, 300, 7), (1, 599), (2, 1, 12), (5,), (6, 0)])
def test_reduce_last_matches_numpy(rng, shape):
    # both memory orders give numpy's own reduction over the last axis exactly
    a = np.round(rng.standard_normal(shape) * 4.0)
    for ufunc, x, kwargs in (
            (np.maximum, a, {"initial": -np.inf}), (np.minimum, a, {"initial": np.inf}),
            (np.maximum, np.abs(a), {"keepdims": True, "initial": 0.0}),
            (np.add, a > 0.0, {"dtype": np.intp}), (np.add, a.astype(np.int64), {})):
        want = ufunc.reduce(x, axis=-1, **kwargs)
        got = linalg.reduce_last(ufunc, x, **kwargs)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _arrowhead(corner, z, d):
    """Dense (k, m+1, m+1) arrowhead matrices."""
    k, m = d.shape
    h = np.zeros((k, m + 1, m + 1))
    h[:, 0, 0] = corner
    h[:, 0, 1:] = h[:, 1:, 0] = z
    h[:, np.arange(1, m + 1), np.arange(1, m + 1)] = d
    return h


class TestArrowheadTop:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 100.0])
    def test_matches_dense_eigvalsh(self, rng, scale):
        # rows coupling different numbers of directions, with directions
        # decoupled at rounding level, rows with every z_j zero, repeated
        # poles, and corners below and above max d
        k, m = 300, 12
        corner = rng.standard_normal(k) * scale
        d = rng.standard_normal((k, m)) * 3.0 * scale
        z = rng.standard_normal((k, m)) * scale * (rng.random((k, m)) < 0.7)
        z[rng.random((k, m)) < 0.1] *= 1e-17
        z[:20] = 0.0
        d[20:60, 0] = d[20:60, 1]
        corner[60:100] = d[60:100].max(axis=-1) + scale
        want = np.linalg.eigvalsh(_arrowhead(corner, z, d))[:, -1]
        got = linalg.arrowhead_top(corner, z, d)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * scale)
        # with no direction coupled, the top is max(corner, max d) exactly
        assert np.array_equal(got[:20], np.fmax(corner[:20], d[:20].max(axis=-1)))

    @pytest.mark.parametrize("m", [4, 12])
    def test_stack_matches_single_rows(self, rng, m):
        # rows settle at different Newton steps, so the stack drops rows as it
        # goes; each row's lambda_max is the one it gets alone, bit for bit
        k = 400
        corner = rng.standard_normal(k)
        d = rng.standard_normal((k, m)) * 3.0
        z = rng.standard_normal((k, m)) * (10.0 ** rng.uniform(-6, 1, (k, m)))
        z[rng.random((k, m)) < 0.2] = 0.0
        got = linalg.arrowhead_top(corner, z, d)
        alone = [linalg.arrowhead_top(corner[i:i + 1], z[i:i + 1], d[i:i + 1])[0]
                 for i in range(k)]
        assert np.array_equal(got, alone, equal_nan=True)

    def test_gives_up_as_nan(self):
        # the 2x2 start of the second row rounds onto its pole d = 1, where
        # f is not finite; the first row is unaffected by its neighbour
        corner = np.array([0.0, 0.0])
        z = np.array([[0.7, 0.0], [1e-14, 0.7]])
        d = np.array([[0.5, 1.0], [1.0, 0.5]])
        got = linalg.arrowhead_top(corner, z, d)
        assert got[0] == pytest.approx(np.linalg.eigvalsh(_arrowhead(corner, z, d))[0, -1],
                                       rel=1e-15)
        assert np.isnan(got[1])

    def test_no_decomposition(self, decompositions):
        assert linalg.arrowhead_top(np.zeros(0), np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)
        linalg.arrowhead_top(np.ones(2), np.ones((2, 3)), np.zeros((2, 3)))
        assert decompositions == []
