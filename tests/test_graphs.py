from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from twodist.graphs import (Graph, GraphFormatError, adjacency_matrix, classify,
                            cluster_graph, complement, complete_graph,
                            complete_multipartite_graph,
                            encode_graph6, from_mask, mask_stack, null_graph,
                            parse_edge_list, parse_graph6, triu_pairs)


def random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, pairs)


class TestGraphBasics:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == {(0, 2), (1, 2)}
        assert g.adj[0, 2] and g.adj[2, 1] and not g.adj[0, 1]

    def test_rejects_loops_and_bad_ids(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(GraphFormatError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(GraphFormatError):
            Graph(0, frozenset())

    def test_complement_involution(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(2, 9)))
            assert complement(complement(g)) == g

    def test_value_equality_and_hash(self, bow_tie):
        same = Graph.from_edges(5, [(4, 0), (2, 0), (0, 3), (3, 1), (1, 0), (2, 4), (1, 3)])
        assert same == bow_tie and hash(same) == hash(bow_tie)
        assert parse_graph6(encode_graph6(bow_tie)) == bow_tie
        assert len({bow_tie, same, complement(bow_tie)}) == 2
        assert bow_tie != complement(bow_tie)
        assert bow_tie != 5 and bow_tie.__eq__(5) is NotImplemented
        assert Graph.from_edges(4, []) != Graph.from_edges(5, [])
        assert bow_tie.edges == {(0, 1), (1, 3), (0, 3), (0, 2), (2, 4), (0, 4)}

    def test_adjacency_read_only(self, bow_tie):
        assert bow_tie.adj.dtype == bool and bow_tie.adj.shape == (5, 5)
        with pytest.raises(ValueError):
            bow_tie.adj[1, 2] = True
        a = np.zeros((3, 3), dtype=bool)
        g = Graph(3, a)
        a[0, 1] = a[1, 0] = True  # the graph keeps its own copy
        assert not g.adj.any()

    @pytest.mark.parametrize("adj", [np.eye(3, dtype=bool), np.triu(np.ones((3, 3), bool), 1),
                                     np.zeros((3, 4), dtype=bool)])
    def test_rejects_invalid_adjacency(self, adj):
        with pytest.raises(GraphFormatError):
            Graph(3, adj)

    def test_adjacency_matrix(self, bow_tie):
        a = adjacency_matrix(bow_tie)
        assert a.shape == (5, 5)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert a.sum() == 2 * len(bow_tie.edges) == 12

    def test_mask_round_trip(self, rng):
        # bit j of a mask is the j-th pair of triu_pairs, in from_mask and in
        # the sweep's int64 stacks alike; from_mask decodes masks beyond 64
        # bits (n = 12 and 20) with the same decoder on Python ints
        cases = []
        for _ in range(50):
            n = int(rng.integers(2, 9))
            cases.append((n, int(rng.integers(0, 1 << (n * (n - 1) // 2)))))
        cases += [(n, int.from_bytes(rng.bytes(24), "little") % (1 << (n * (n - 1) // 2)))
                  for n in (12, 12, 20, 20)]
        for n, mask in cases:
            g = from_mask(n, mask)
            iu, ju = triu_pairs(n)
            assert sum(1 << j for j, edge in enumerate(g.adj[iu, ju]) if edge) == mask
            if n <= 11:
                assert np.array_equal(mask_stack(n, np.array([mask]))[0], g.adj)


class TestEdgeListParsing:
    def test_basic(self):
        g = parse_edge_list("3\n0 1\n1 2\n")
        assert g.n == 3 and g.edges == {(0, 1), (1, 2)}

    def test_blank_lines_ignored(self):
        g = parse_edge_list("\n4\n\n0 1\n\n")
        assert g.n == 4 and g.edges == {(0, 1)}

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("x\n", "line 1"),
        ("3\n0 1 2\n", "line 2"),
        ("3\n0 a\n", "line 2"),
        ("3\n1 1\n", "loop"),
        ("3\n0 5\n", "out of range"),
    ])
    def test_errors_carry_line_info(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_edge_list(text)


class TestGraph6:
    def test_known_strings(self):
        assert parse_graph6("D~{") == complete_graph(5)
        assert parse_graph6("D??") == null_graph(5)
        assert parse_graph6(">>graph6<<D~{") == complete_graph(5)

    def test_round_trip_against_networkx(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 21))
            g = random_graph(rng, n)
            s = encode_graph6(g)
            assert parse_graph6(s) == g
            h = nx.from_graph6_bytes(s.encode())
            assert set(h.edges()) == {tuple(e) for e in g.edges}
            ref = nx.to_graph6_bytes(h, header=False).strip().decode()
            assert ref == s

    @pytest.mark.parametrize("bad", ["", "~??", "D~{{", "D~", "D\x1f{", "~?A_", "~?A_~~"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(GraphFormatError):
            parse_graph6(bad)

    @pytest.mark.parametrize("n", [62, 63, 64, 600])
    def test_long_form_round_trip(self, n, rng):
        # n >= 63 takes the header ~ plus n in three 6-bit bytes
        g = random_graph(rng, n, p=0.3)
        s = encode_graph6(g)
        assert s.startswith("~") == (n >= 63)
        assert parse_graph6(s) == g
        ref = nx.to_graph6_bytes(nx.from_graph6_bytes(s.encode()), header=False)
        assert ref.strip().decode() == s

    def test_rejects_large_n(self):
        # the 8-byte form (n > 258047) is not supported, in either direction
        with pytest.raises(GraphFormatError, match="8-byte"):
            encode_graph6(SimpleNamespace(n=258048))
        with pytest.raises(GraphFormatError, match="8-byte"):
            parse_graph6("~~??????")


class TestClassify:
    def test_tags(self, bow_tie):
        assert classify(complete_graph(4)).tag == "complete"
        assert classify(null_graph(3)).tag == "null"
        assert classify(cluster_graph([3, 2])).tag == "cluster"
        assert classify(complete_multipartite_graph([2, 2, 1])).tag == "complete_multipartite"
        assert classify(bow_tie).tag == "general"

    def test_partitions_sorted(self):
        assert classify(cluster_graph([2, 4, 1])).partition == (4, 2, 1)
        assert classify(complete_multipartite_graph([1, 3, 2])).partition == (3, 2, 1)

    def test_degenerate_flags(self):
        for g in (complete_graph(3), null_graph(4)):
            cls = classify(g)
            assert cls.is_degenerate and cls.is_cluster and cls.is_multipartite

    def test_star_is_multipartite(self):
        # K_{1,3} is complete bipartite
        cls = classify(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert cls.tag == "complete_multipartite"
        assert cls.partition == (3, 1)

    def test_matches_induced_p3_reference(self):
        # reference: a graph is a cluster graph exactly when no node has two
        # non-adjacent neighbours (no induced P3); parts are its components
        def p3_free(g):
            return not any(not g.adj[u, v]
                           for c in range(g.n)
                           for u, v in combinations(np.flatnonzero(g.adj[c]), 2))

        def parts(g):
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.n))
            return tuple(sorted((len(c) for c in nx.connected_components(h)), reverse=True))

        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_mask(n, mask)
                gbar = complement(g)
                cls = classify(g)
                assert cls.is_cluster == p3_free(g)
                assert cls.is_multipartite == p3_free(gbar)
                if cls.tag == "cluster":
                    assert cls.partition == parts(g)
                if cls.tag == "complete_multipartite":
                    assert cls.partition == parts(gbar)

    def test_duality_exhaustive_small(self):
        # cluster and complete multipartite swap under complementation
        for n in range(2, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = from_mask(n, mask)
                cls, cbar = classify(g), classify(complement(g))
                assert cls.is_cluster == cbar.is_multipartite
                assert cls.is_multipartite == cbar.is_cluster
