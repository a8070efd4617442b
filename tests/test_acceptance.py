"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line once its assertions
hold. The exhaustive sweep (all labeled graphs on <= 6 nodes plus 500 random
samples at n in {7, 8}) is shared across the last four criteria through a
session-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from conftest import edm_at
from twodist import edm, oracle, representations as reps
from twodist.graphs import (adjacency_matrix, classify, cluster_graph, complement,
                            complete_multipartite_graph, cycle_graph)

S5 = math.sqrt(5.0)
TOL = 1e-9


@pytest.fixture(scope="session")
def sweep():
    return oracle.invariant_sweep(6, sample_7_8=500, seed=0, workers=1)


def test_criterion_1_pentagon_reproduction():
    g = cycle_graph(5)
    start = time.perf_counter()
    rep = reps.analyze_graph(g)
    elapsed = time.perf_counter() - start
    assert rep.mu_max == pytest.approx((S5 - 1) / 2, abs=TOL)
    assert rep.mu_min == pytest.approx(-(S5 + 1) / 2, abs=TOL)
    assert rep.m_max == 2 and rep.m_min == 2
    assert rep.dim_e == 2
    assert rep.beta_l == pytest.approx((3 - S5) / 2, abs=TOL)
    assert rep.beta_u == pytest.approx((3 + S5) / 2, abs=TOL)
    assert rep.beta_l * rep.beta_u == pytest.approx(1.0, abs=TOL)
    assert rep.dim_s == 2
    assert rep.rho_l ** 2 == pytest.approx(2 / (5 + S5), abs=TOL)
    assert rep.rho_u ** 2 == pytest.approx(2 / (5 - S5), abs=TOL)
    assert rep.dim_j == 4 and rep.beta_j == pytest.approx(3.0, abs=TOL)
    assert elapsed < 0.1
    print(f"\nPASS criterion 1: C5 spectrum/dims/radii to 1e-9, analyzed in {elapsed * 1e3:.1f} ms")


def test_criterion_2_bow_tie_reproduction(bow_tie):
    rep = reps.analyze_graph(bow_tie)
    assert rep.mu_min == pytest.approx(-1.4, abs=TOL)
    assert rep.mu_max == pytest.approx(1.0, abs=TOL)
    assert rep.beta_l == pytest.approx(0.5, abs=TOL)
    assert rep.beta_u == pytest.approx(3.5, abs=TOL)
    for beta, target in ((0.5, [0.0, 1.0, -1.0, 1.0, -1.0]),
                         (3.5, [-4.0, 1.0, 1.0, 1.0, 1.0])):
        z = edm.gale_matrix(edm_at(bow_tie, beta)).z
        t = np.asarray(target)
        cos = abs(z[:, 0] @ t) / (np.linalg.norm(z) * np.linalg.norm(t))
        assert cos == pytest.approx(1.0, abs=TOL)
    assert rep.spherical_at_l and not rep.spherical_at_u
    assert rep.rho_l == pytest.approx(1 / math.sqrt(3), abs=TOL)
    assert rep.dim_s == 3
    assert rep.delta == pytest.approx(0.5, abs=TOL)
    assert rep.dim_j == 4
    print("\nPASS criterion 2: bow tie endpoints, Gale vectors, sphericity and J-data to 1e-9")


def test_criterion_3_cluster_family_second_distance():
    for sizes in ([2, 2, 2], [4, 4], [8, 2], [16, 1]):
        js = reps.j_spherical(cluster_graph(sizes))
        lam1 = 1.0 / js.delta
        assert lam1 == pytest.approx(4.0, abs=TOL)
        assert js.beta == pytest.approx(2.5, abs=TOL)
    for n in range(4, 11):
        js = reps.j_spherical(complement(cycle_graph(n)))
        assert js.beta == pytest.approx(3.0, abs=TOL)
    print("\nPASS criterion 3: cluster families share beta=5/2; cycle complements share beta=3")


def test_criterion_4_multipartite_j_dimension(rng):
    checked = 0
    while checked < 20:
        k_parts = int(rng.integers(2, 6))
        sizes = sorted((int(rng.integers(1, 5)) for _ in range(k_parts)), reverse=True)
        n1 = sizes[0]
        if n1 == 1:
            continue  # all-singleton partition is the complete graph
        checked += 1
        g = complete_multipartite_graph(sizes)
        n = sum(sizes)
        k = sizes.count(n1)
        js = reps.j_spherical(g)
        assert js.dim_j == n - k
        # lambda_max(Abar) = n1 - 1 with multiplicity k, counted with no twodist clustering
        w = np.linalg.eigvalsh(adjacency_matrix(complement(g)))
        assert w[-1] == pytest.approx(n1 - 1, abs=TOL)
        assert np.count_nonzero(np.abs(w - (n1 - 1)) <= TOL) == k
    print("\nPASS criterion 4: 20 random complete multipartite graphs match dim_J = n - k")


def test_criterion_5_discriminating_roots_match_endpoints(sweep):
    bad = [v for v in sweep.violations
           if v["check"] in ("dispoly_roots_exist", "dispoly_roots_match")]
    assert not bad
    assert sweep.max_errors.get("dispoly_roots_match", 0.0) <= 1e-7
    assert sweep.elapsed_seconds < 120.0
    print(f"\nPASS criterion 5: roots match endpoints on all <=6-node graphs "
          f"(max err {sweep.max_errors.get('dispoly_roots_match', 0.0):.2e}), "
          f"sweep {sweep.elapsed_seconds:.1f}s < 120s")


def test_criterion_6_property_suite(sweep):
    assert sweep.ok, sweep.violations[:3]
    assert sweep.per_n[6] == 1 << 15
    assert sweep.per_n[7] + sweep.per_n[8] == 500
    for check in ("dim_e_complement", "dim_s_complement", "mu_complement_relation",
                  "dim_chain", "dim_e_at_most_n-2", "lower_bounds",
                  "cluster_iff_mu_min_-1", "multipartite_iff_mu_max_0",
                  "no_mu_max0_mu_min-1"):
        assert sweep.check_counts.get(check, 0) > 0, check
    print(f"\nPASS criterion 6: {sweep.graphs_checked} graphs, zero invariant violations")


def test_criterion_7_constructive_verification(sweep):
    bad = [v for v in sweep.violations
           if v["check"] in ("configurations_verify", "j_rows_unit_norm")]
    assert not bad
    assert sweep.max_errors["configurations_verify"] <= 1e-7
    assert sweep.max_errors["j_rows_unit_norm"] <= 1e-8
    print(f"\nPASS criterion 7: all emitted configurations verify "
          f"(max deviation {sweep.max_errors['configurations_verify']:.2e}, "
          f"J row-norm err {sweep.max_errors['j_rows_unit_norm']:.2e})")


def test_criterion_8_radius_consistency(sweep):
    bad = [v for v in sweep.violations if v["check"] == "radius_consistency"]
    assert not bad
    assert sweep.check_counts["radius_consistency"] > 0
    assert sweep.max_errors["radius_consistency"] <= 1e-7
    print(f"\nPASS criterion 8: closed-form, Dw=e and center-based radii agree "
          f"(max err {sweep.max_errors['radius_consistency']:.2e})")
