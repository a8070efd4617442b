import numpy as np
import pytest

from twodist.graphs import Graph, complement_adjacency


def edm_at(g: Graph, beta: float) -> np.ndarray:
    """The squared-distance matrix A + beta*Abar of g's representations at beta."""
    return g.adj + beta * complement_adjacency(g.adj)


@pytest.fixture
def bow_tie() -> Graph:
    """Two triangles {0,1,3} and {0,2,4} sharing node 0."""
    return Graph.from_edges(5, [(0, 1), (1, 3), (0, 3), (0, 2), (2, 4), (0, 4)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260825)


def _record_decompositions(monkeypatch, entry) -> list:
    """entry(name, args) of each numpy.linalg decomposition called during the test, in order."""
    calls = []
    for fn in ("eigh", "eigvalsh", "svd", "lstsq"):
        orig = getattr(np.linalg, fn)

        def counted(*args, _fn=fn, _orig=orig, **kwargs):
            calls.append(entry(_fn, args))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, counted)
    return calls


@pytest.fixture
def decompositions(monkeypatch) -> list:
    """The numpy.linalg decompositions called during the test, by name, in order."""
    return _record_decompositions(monkeypatch, lambda fn, args: fn)


@pytest.fixture
def decomposition_inputs(monkeypatch) -> list:
    """(name, matrix stack) of each numpy.linalg decomposition called during the test."""
    return _record_decompositions(monkeypatch, lambda fn, args: (fn, np.asarray(args[0])))
