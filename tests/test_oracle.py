import json
import math

import numpy as np
import pytest

from twodist import linalg, oracle, representations as reps
from twodist.edm import Configuration
from twodist.graphs import (Graph, class_stack, classify, cluster_graph, complement,
                            complete_graph, complete_multipartite_graph, cycle_graph,
                            encode_graph6, from_mask, mask_stack, null_graph, parse_graph6)


class TestVerifyTwoDistance:
    def test_unit_square_realizes_c4(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        config = Configuration(pts)
        g = cycle_graph(4)
        rep = oracle.verify_two_distance(config, g, 1.0, 2.0)
        assert rep.passed
        assert len(rep.distinct_sq_distances) == 2
        assert rep.distinct_sq_distances[0][0] == pytest.approx(1.0)
        assert rep.distinct_sq_distances[1] == (pytest.approx(2.0), 2)

    def test_wrong_beta_fails(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        rep = oracle.verify_two_distance(Configuration(pts),
                                         cycle_graph(4), 1.0, 3.0)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(1.0)

    def test_regular_pentagon(self):
        # analytic pentagon on a circle of radius r: chord^2 between steps k
        # is 4 r^2 sin^2(pi k / 5); scale so the short chord is 1
        angles = 2.0 * np.pi * np.arange(5) / 5.0
        r = 1.0 / (2.0 * math.sin(math.pi / 5.0))
        pts = r * np.column_stack([np.cos(angles), np.sin(angles)])
        beta = (2.0 * r * math.sin(2.0 * math.pi / 5.0)) ** 2
        rep = oracle.verify_two_distance(Configuration(pts),
                                         cycle_graph(5), 1.0, beta)
        assert rep.passed

    def test_corrupted_configuration_fails(self, bow_tie):
        config = reps.euclidean_representation(bow_tie, 2.0)
        pts = config.points.copy()
        pts[0, 0] += 1e-3
        rep = oracle.verify_two_distance(Configuration(pts), bow_tie, 1.0, 2.0)
        assert not rep.passed

    def test_group_means_finite_near_float_limit(self):
        # K3 + K2 at beta = 1e308: a group of two pair distances near the
        # float limit has a finite mean, though their sum overflows
        g = parse_graph6("DwC")
        rep = oracle.verify_two_distance(reps.euclidean_representation(g, 1e308), g, 1.0, 1e308)
        assert all(math.isfinite(mean) for mean, _ in rep.distinct_sq_distances)
        assert any(count > 1 and mean > 1e307 for mean, count in rep.distinct_sq_distances)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            oracle.verify_two_distance(Configuration(np.zeros((3, 1))),
                                       cycle_graph(4), 1.0, 2.0)


class TestDiscriminatingRoots:
    def test_matches_endpoints_small(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 7))
            g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            if classify(g).is_degenerate:
                continue
            t1, t2 = oracle.discriminating_roots(g)
            rep = reps.analyze_graph(g)
            beta_l, beta_u = rep.beta_l, rep.beta_u
            assert (t1 is None) == (beta_l is None)
            assert (t2 is None) == (beta_u is None)
            if t1 is not None:
                assert t1 == pytest.approx(beta_l, abs=1e-9)
            if t2 is not None:
                assert t2 == pytest.approx(beta_u, abs=1e-9)

    def test_cluster_has_no_upper_root(self):
        t1, t2 = oracle.discriminating_roots(cluster_graph([3, 2]))
        assert t1 is not None and t2 is None

    def test_multipartite_has_no_lower_root(self):
        t1, t2 = oracle.discriminating_roots(complete_multipartite_graph([2, 2, 1]))
        assert t1 is None and t2 is not None

    def test_degenerate_rejected(self):
        for g, tag in ((complete_graph(4), "complete"), (null_graph(4), "null")):
            with pytest.raises(reps.DegenerateGraphError,
                               match=f"^{tag} graph admits no two-distance representation$"):
                oracle.discriminating_roots(g)

    def test_batch_matches_single(self, rng):
        # _roots_stack on a stack of one order, as the sweep runs it
        for n in (4, 7):
            graphs = []
            while len(graphs) < 10:
                g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
                if not classify(g).is_degenerate:
                    graphs.append(g)
            t1s, t2s = oracle._roots_stack(np.stack([g.adj for g in graphs]))
            for g, bt1, bt2 in zip(graphs, t1s.tolist(), t2s.tolist()):
                t1, t2 = oracle.discriminating_roots(g)
                assert (t1 is None) == math.isnan(bt1) and (t2 is None) == math.isnan(bt2)
                if t1 is not None:
                    assert bt1 == pytest.approx(t1, abs=1e-9)
                if t2 is not None:
                    assert bt2 == pytest.approx(t2, abs=1e-9)


class TestComplementRoots:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reversed_pencil(self, n):
        # the complement's pencil is t D(1/t): its roots are the reciprocals
        # of the graph's, swapped, and exist exactly where those do, which is
        # what lets the sweep evaluate one pencil per complementary pair
        full = (1 << (n * (n - 1) // 2)) - 1
        masks = np.arange(full + 1)
        masks = masks[~class_stack(mask_stack(n, masks)).degenerate]
        t1, t2 = oracle._roots_stack(mask_stack(n, masks))
        c1, c2 = oracle._roots_stack(mask_stack(n, full ^ masks))
        assert np.array_equal(np.isnan(c1), np.isnan(t2))
        assert np.array_equal(np.isnan(c2), np.isnan(t1))
        assert (~np.isnan(t1)).any() and (~np.isnan(t2)).any()
        np.testing.assert_allclose(c1, 1.0 / t2, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(c2, 1.0 / t1, rtol=1e-12, atol=0.0)

    def test_sweep_checks_partner_rows(self, monkeypatch):
        # the row that takes its roots from its complement's pencil (the
        # later row of each pair) is still compared with its own beta_l:
        # perturbing only those rows' beta_l fails dispoly_roots_match there
        n, real = 5, reps._analyze_stack
        full = (1 << (n * (n - 1) // 2)) - 1
        tampered = set()

        def perturbed(adj, **kw):
            st = real(adj, **kw)
            if adj.shape[-1] != n:
                return st
            rows = np.arange(adj.shape[0])
            partner = (rows > (full ^ rows)) & ~np.isnan(st.beta_l)
            tampered.update(encode_graph6(Graph(n, adj[i])) for i in np.flatnonzero(partner))
            return st._replace(beta_l=np.where(partner, st.beta_l + 1e-6, st.beta_l))
        monkeypatch.setattr(reps, "_analyze_stack", perturbed)
        summary = oracle.invariant_sweep(n)
        flagged = [v["graph6"] for v in summary.violations if v["check"] == "dispoly_roots_match"]
        assert tampered and len(flagged) == len(set(flagged)) and set(flagged) == tampered


class TestPencil:
    def test_matches_triple_product(self):
        # the entrywise border against -F X F.T with F = [-e I], bit for bit
        # (signed zeros included), on every order-5 graph
        n = 5
        adj = mask_stack(n, np.arange(1 << (n * (n - 1) // 2)))
        f = np.hstack([-np.ones((n - 1, 1)), np.eye(n - 1)])
        abar = (~adj & ~np.eye(n, dtype=bool)).astype(float)
        m0, m1 = oracle._pencil(adj)
        assert m0.tobytes() == (-(f @ adj.astype(float) @ f.T)).tobytes()
        assert m1.tobytes() == (-(f @ abar @ f.T)).tobytes()


def _eigvalsh_verdicts(m: np.ndarray):
    """(lambda_min < 0, clear) for a stack: clear where |lambda_min| is above
    rounding level, so that its sign is decided."""
    lam = np.linalg.eigvalsh(m)[..., 0]
    return lam < 0.0, np.abs(lam) > linalg.ROUNDING * np.abs(m).max(axis=(-2, -1))


class TestNotPositiveDefinite:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_matches_eigvalsh(self, p, rng):
        k = 400
        g = rng.standard_normal((k, p, p))
        gram = g @ g.swapaxes(-1, -2)
        sym = 0.5 * (g + g.swapaxes(-1, -2))
        # rank-deficient Gram matrices, shifted by +/- 1e-6 of their scale
        # to either side of the PSD boundary
        r = rng.integers(0, p, size=k)
        low = np.where(np.arange(p) < r[:, None, None], g, 0.0) @ g.swapaxes(-1, -2)
        shift = 1e-6 * np.abs(low).max(axis=(-2, -1), initial=1.0)[:, None, None] * np.eye(p)
        for m, want in ((gram + 0.1 * np.eye(p), False), (sym, None),
                        (low + shift, False), (low - shift, True)):
            got = oracle._not_positive_definite(m)
            ref, clear = _eigvalsh_verdicts(m)
            assert np.array_equal(got[clear], ref[clear])
            if want is not None:
                assert clear.all() and (got == want).all()

    def test_singular_and_nan(self):
        # an exact zero pivot and a NaN pivot both count as not definite
        m = np.stack([np.diag([1.0, 0.0, 2.0]), np.diag([1.0, np.nan, 2.0]), np.eye(3)])
        assert oracle._not_positive_definite(m).tolist() == [True, True, False]

    def test_sweep_probes_match_eigvalsh(self, monkeypatch):
        # every pencil probe the sweep certifies its roots with: six per
        # pencil it evaluates, one per complementary pair on orders 3-6 and
        # one per sampled graph on orders 7 and 8
        real, seen = oracle._not_positive_definite, []
        real_roots, pencils = oracle._roots_stack, []

        def recorded(m):
            seen.append((m, real(m)))
            return seen[-1][1]

        def counted(adj):
            pencils.append(adj.shape[0])
            return real_roots(adj)
        monkeypatch.setattr(oracle, "_not_positive_definite", recorded)
        monkeypatch.setattr(oracle, "_roots_stack", counted)
        summary = oracle.invariant_sweep(6, 500, seed=0)
        probes = exceptions = 0
        for m, got in seen:
            ref, clear = _eigvalsh_verdicts(m)
            assert np.array_equal(got[clear], ref[clear])
            probes += clear.size
            exceptions += int(np.count_nonzero(~clear))
        sampled = summary.per_n[7] + summary.per_n[8]
        paired = summary.check_counts["dispoly_roots_exist"] - sampled
        assert paired % 2 == 0 and sum(pencils) == paired // 2 + sampled
        assert probes == 6 * sum(pencils)
        assert exceptions == 0, f"{exceptions} probes with |lambda_min| at rounding level"

    def test_roots_stack_decompositions(self, decompositions):
        # one eigvalsh for the roots; the probes run no decomposition
        oracle._roots_stack(mask_stack(5, np.arange(1, (1 << 10) - 1)))
        assert decompositions == ["eigvalsh"]


class TestMinimalRankSearch:
    def test_no_smaller_euclidean_dimension_exists(self, rng):
        # random beta probes should never beat the reported minimum
        for _ in range(40):
            n = int(rng.integers(3, 8))
            g = from_mask(n, int(rng.integers(0, 1 << (n * (n - 1) // 2))))
            if classify(g).is_degenerate:
                continue
            r, _ = reps.dim_euclidean(g)
            fs = reps.beta_feasible_set(g)
            for _ in range(20):
                beta = float(rng.uniform(0.05, 6.0))
                if not fs.contains(beta) or abs(beta - 1.0) < 1e-6:
                    continue
                config = reps.euclidean_representation(g, beta)
                assert config.dim >= r


class TestInvariantSweep:
    def test_small_sweep_clean(self):
        summary = oracle.invariant_sweep(4, sample_7_8=0, workers=1)
        assert summary.ok
        assert summary.graphs_checked == 2 + 8 + 64
        assert summary.per_n == {2: 2, 3: 8, 4: 64}
        assert summary.degenerate > 0
        assert summary.check_counts["configurations_verify"] > 0

    def test_sampled_graphs_included(self):
        summary = oracle.invariant_sweep(3, sample_7_8=6, seed=7, workers=1)
        assert summary.ok
        assert summary.per_n.get(7, 0) == 3 and summary.per_n.get(8, 0) == 3

    def test_summary_serializes(self):
        summary = oracle.invariant_sweep(3, workers=1)
        doc = json.loads(summary.to_json())
        assert doc["violation_count"] == 0
        assert doc["graphs_checked"] == summary.graphs_checked
        assert doc["first_counterexample"] is None

    def test_radius_consistency_checks_reported_radius(self, monkeypatch):
        # the reported rho_u comes from the closed form _radius2; the sweep
        # must see a relative error of 1e-6 in it
        real = reps._radius2
        monkeypatch.setattr(reps, "_radius2", lambda *args: real(*args) * (1 + 1e-6) ** 2)
        summary = oracle.invariant_sweep(4, workers=1)
        checks = {v["check"] for v in summary.violations}
        assert checks == {"radius_consistency"}
        assert len(summary.violations) == summary.check_counts["radius_consistency"]

    def test_j_check_sees_delta(self, monkeypatch):
        # the J points are a closed form in delta, so their distances agree
        # with beta_j = 2 + 2 delta whatever delta is; a relative error of
        # 1e-6 in lambda_max(Abar) shows in the unit rows of every graph
        real = linalg.arrowhead_top
        monkeypatch.setattr(linalg, "arrowhead_top", lambda *args: real(*args) * (1 + 1e-6))
        summary = oracle.invariant_sweep(4)
        flagged = {v["graph6"] for v in summary.violations if v["check"] == "j_rows_unit_norm"}
        assert len(flagged) == summary.check_counts["j_rows_unit_norm"] == 68

    def test_j_check_sees_dim_j(self, monkeypatch):
        # one J column fewer than the pass should keep: the graphs whose
        # dimension chain still holds fail configurations_verify
        real = reps._j_arrowhead

        def one_fewer(*args):
            js = real(*args)
            return js._replace(dim_j=js.dim_j - 1)
        monkeypatch.setattr(reps, "_j_arrowhead", one_fewer)
        summary = oracle.invariant_sweep(4)
        flagged = [v for v in summary.violations if v["check"] == "configurations_verify"]
        assert len(flagged) == summary.check_counts["configurations_verify"] > 0

    def test_no_eigh_of_complement(self, decomposition_inputs):
        # every eigh of the sweep decomposes V.T A V or an EDM, never a stack
        # of complement adjacencies: those are 0/1 with a zero diagonal
        assert oracle.invariant_sweep(5, sample_7_8=10, seed=1).ok
        eighs = [m for fn, m in decomposition_inputs if fn == "eigh"]
        assert eighs
        for m in eighs:
            zero_one = np.isin(m, (0.0, 1.0)).all()
            assert not (zero_one and (np.diagonal(m, axis1=-2, axis2=-1) == 0).all())

    def test_degenerate_stack_decomposes_nothing(self, decompositions):
        # order 2 is K2 and its complement, both degenerate: the stack runs the
        # class test and the degenerate-complement check, and no eigensolver
        summary = oracle.invariant_sweep(2)
        assert decompositions == []
        assert summary.check_counts == {"degenerate_complement": 2}
        assert summary.per_n == {2: 2} and summary.degenerate == 2 and summary.ok

    def test_benchmark_call_decompositions(self, decompositions):
        # 20 = an eigh of V.T A V and the roots' eigvalsh at each of orders 3,
        # 4, 5, 7 and 8 (10), the radius references' eighs of the projected
        # Gram and of D at orders 4, 5, 7 and 8 (8), and an eigvalsh of Abar
        # for the rows Newton leaves at orders 4 and 5 (2). Order 3 leaves
        # only K3, whose Abar is 0; order 2 is all degenerate
        assert oracle.invariant_sweep(5, sample_7_8=100, seed=1).ok
        assert len(decompositions) == 20

    @pytest.mark.parametrize("args,kwargs,counts,per_n", [
        ((4,), {}, {"degenerate_complement": 6, "endpoint_sphericity_duality": 52,
                    "radius_consistency": 15, "dim_j_connected_complement": 40},
         {2: 2, 3: 8, 4: 64}),
        ((3,), {"sample_7_8": 6, "seed": 7}, {"degenerate_complement": 4,
                                              "endpoint_sphericity_duality": 9,
                                              "radius_consistency": 1,
                                              "dim_j_connected_complement": 8},
         {2: 2, 3: 8, 7: 3, 8: 3}),
    ], ids=["n4", "n3-samples"])
    def test_no_check_dropped(self, args, kwargs, counts, per_n):
        # check counts of the per-graph sweep this one replaced; every check
        # not listed ran once per non-degenerate graph
        summary = oracle.invariant_sweep(*args, **kwargs)
        every = summary.graphs_checked - counts["degenerate_complement"]
        want = dict.fromkeys(
            ("cluster_iff_mu_min_-1", "multipartite_iff_mu_max_0", "no_mu_max0_mu_min-1",
             "mu_min_below_-1", "dim_chain", "dim_e_at_most_n-2", "lower_bounds",
             "dim_e_complement", "dim_s_complement", "mu_complement_relation",
             "dispoly_roots_exist", "dispoly_roots_match", "configurations_verify",
             "j_rows_unit_norm"), every)
        want.update(counts)
        assert summary.check_counts == want
        assert summary.per_n == per_n and summary.ok

    @pytest.mark.parametrize("samples,per_n", [(3, {7: 2, 8: 1}), (1, {7: 1}), (0, {})])
    def test_odd_samples_split(self, samples, per_n):
        # the odd sample goes to order 7; an even count draws the same graphs
        # at each order as half of it would at both
        summary = oracle.invariant_sweep(2, sample_7_8=samples, seed=3)
        assert summary.per_n == {2: 2, **per_n} and summary.ok

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            oracle.invariant_sweep(7)
