"""Seeded input generators for the benchmark.

Every generator takes an integer seed and returns the same graph for the same
seed. Graphs are plain ``(n, edges)`` pairs with ``edges`` a sorted list of
``(u, v)`` tuples, ``u < v``; the benchmark hands them to twodist only as
``twodist.graphs.Graph`` objects or graph6 strings.

Correctness is checked against digests recorded at the seed commit
(``golden.json``). So that every input a workload seed can produce has a
recorded answer, each random family is drawn from a fixed pool of generator
seeds; the workload seed picks pool members and a fresh random labelling for
every call. Relabelling leaves every recorded quantity unchanged, while the
program sees a graph it has not seen before (no cache hits across calls).
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Pool sizes: how many generator seeds have a recorded digest.
GNP_POOL = 8
CLI_POOL = 256

#: Densities mixed into the small CLI graphs.
CLI_DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)
CLI_N_RANGE = (5, 40)


def gnp(n: int, p: float, seed: int) -> tuple:
    """Erdos-Renyi G(n, p)."""
    rng = np.random.default_rng([0x6E70, n, seed])
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return n, list(zip(iu[keep].tolist(), ju[keep].tolist()))


def cycle(n: int) -> tuple:
    """The cycle C_n."""
    return n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def paley(q: int) -> tuple:
    """Paley graph P(q) for a prime q = 1 (mod 4): i ~ j iff i - j is a
    nonzero quadratic residue mod q."""
    if q % 4 != 1 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
        raise ValueError(f"Paley graph needs a prime q = 1 (mod 4), got {q}")
    squares = {(x * x) % q for x in range(1, q)}
    return q, [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) in squares]


def random_small(seed: int) -> tuple:
    """Random graph for the CLI workload: n in CLI_N_RANGE, mixed density."""
    rng = np.random.default_rng([0x636C69, seed])
    n = int(rng.integers(CLI_N_RANGE[0], CLI_N_RANGE[1] + 1))
    p = float(CLI_DENSITIES[int(rng.integers(len(CLI_DENSITIES)))])
    return gnp(n, p, seed)


def relabel(graph: tuple, rng: np.random.Generator) -> tuple:
    """The same graph under a uniformly random permutation of its nodes."""
    n, edges = graph
    perm = rng.permutation(n).tolist()
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def graph6(graph: tuple) -> str:
    """Short-form graph6 encoding (n <= 62), independent of twodist."""
    n, edges = graph
    if not 1 <= n <= 62:
        raise ValueError(f"short-form graph6 needs 1 <= n <= 62, got {n}")
    bits = np.zeros(n * (n - 1) // 2 + 5, dtype=np.uint8)
    for u, v in edges:  # column-major upper triangle: bit index of (u, v), u < v
        bits[v * (v - 1) // 2 + u] = 1
    nbytes = (n * (n - 1) // 2 + 5) // 6
    chunks = bits[:nbytes * 6].reshape(nbytes, 6)
    values = chunks @ (1 << np.arange(5, -1, -1))
    return chr(n + 63) + "".join(chr(int(val) + 63) for val in values)


def adjacency(graph: tuple) -> np.ndarray:
    """Dense 0/1 adjacency matrix, built without twodist."""
    n, edges = graph
    a = np.zeros((n, n))
    if edges:
        idx = np.asarray(edges)
        a[idx[:, 0], idx[:, 1]] = 1.0
        a[idx[:, 1], idx[:, 0]] = 1.0
    return a


def fingerprint(graph: tuple) -> str:
    """Short hash of the labelled edge set; detects generator drift."""
    n, edges = graph
    text = f"{n}:" + ";".join(f"{u},{v}" for u, v in edges)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
