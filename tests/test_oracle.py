import json
import math

import numpy as np
import pytest

from twodist import oracle, representations as reps
from twodist.edm import Configuration
from twodist.graphs import (Graph, classify, cluster_graph, complement,
                            complete_graph, complete_multipartite_graph,
                            cycle_graph, from_mask)


class TestVerifyTwoDistance:
    def test_unit_square_realizes_c4(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        config = Configuration(pts, "centroid")
        g = cycle_graph(4)
        rep = oracle.verify_two_distance(config, g, 1.0, 2.0)
        assert rep.passed
        assert len(rep.distinct_sq_distances) == 2
        assert rep.distinct_sq_distances[0][0] == pytest.approx(1.0)
        assert rep.distinct_sq_distances[1] == (pytest.approx(2.0), 2)

    def test_wrong_beta_fails(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        rep = oracle.verify_two_distance(Configuration(pts, "centroid"),
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
        rep = oracle.verify_two_distance(Configuration(pts, "centroid"),
                                         cycle_graph(5), 1.0, beta)
        assert rep.passed

    def test_corrupted_configuration_fails(self, bow_tie):
        config = reps.euclidean_representation(bow_tie, 2.0)
        pts = config.points.copy()
        pts[0, 0] += 1e-3
        rep = oracle.verify_two_distance(Configuration(pts, "centroid"), bow_tie, 1.0, 2.0)
        assert not rep.passed

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            oracle.verify_two_distance(Configuration(np.zeros((3, 1)), "centroid"),
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
        with pytest.raises(reps.DegenerateGraphError):
            oracle.discriminating_roots(complete_graph(4))

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

    @pytest.mark.parametrize("args,kwargs,counts,per_n", [
        ((4,), {}, {"degenerate_complement": 6, "endpoint_sphericity_duality": 52,
                    "radius_consistency": 15}, {2: 2, 3: 8, 4: 64}),
        ((3,), {"sample_7_8": 6, "seed": 7}, {"degenerate_complement": 4,
                                              "endpoint_sphericity_duality": 9,
                                              "radius_consistency": 1},
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
