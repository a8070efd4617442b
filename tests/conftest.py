import numpy as np
import pytest

from twodist.graphs import Graph


@pytest.fixture
def bow_tie() -> Graph:
    """Two triangles {0,1,3} and {0,2,4} sharing node 0."""
    return Graph.from_edges(5, [(0, 1), (1, 3), (0, 3), (0, 2), (2, 4), (0, 4)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260825)


@pytest.fixture
def decompositions(monkeypatch) -> list:
    """The numpy.linalg decompositions called during the test, by name, in order."""
    calls = []
    for fn in ("eigh", "eigvalsh", "svd", "lstsq"):
        orig = getattr(np.linalg, fn)

        def counted(*args, _fn=fn, _orig=orig, **kwargs):
            calls.append(_fn)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, counted)
    return calls
