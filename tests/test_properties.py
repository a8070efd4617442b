"""Property tests: every report is invariant under relabelling the nodes, and
graph6 round-trips, the 4-byte header form included."""


import numpy as np
from hypothesis import given, settings, strategies as st

from twodist import representations as reps
from twodist.graphs import Graph, encode_graph6, parse_graph6

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def graphs(draw, max_n):
    """A graph on up to max_n nodes, each pair an edge with a drawn density."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), k=1)
    return Graph(n, upper | upper.T)


@SETTINGS
@given(data=st.data())
def test_report_invariant_under_relabelling(data):
    g = data.draw(graphs(12))
    perm = np.array(data.draw(st.permutations(range(g.n))))
    want, got = reps.analyze_graph(g), reps.analyze_graph(Graph(g.n, g.adj[np.ix_(perm, perm)]))
    for name in want._fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, float):
            assert abs(a - b) <= 1e-9, name
        else:
            assert type(a) is type(b) and a == b, name


@SETTINGS
@given(g=graphs(130))
def test_graph6_round_trip(g):
    s = encode_graph6(g)
    assert s.startswith("~") == (g.n >= 63)
    assert parse_graph6(s) == g
