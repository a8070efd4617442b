"""Simple undirected graphs: parsing, complementation and classification.

A graph on nodes 0..n-1 is a read-only n x n boolean adjacency matrix, so the
complement, the float adjacency and the classification are array operations.
The classification recognizes the four structured families that admit
special treatment downstream: complete, null, cluster (disjoint union of
cliques) and complete multipartite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

TAG_COMPLETE = "complete"
TAG_NULL = "null"
TAG_CLUSTER = "cluster"
TAG_MULTIPARTITE = "complete_multipartite"
TAG_GENERAL = "general"


class GraphFormatError(ValueError):
    """Malformed edge-list or graph6 input."""


#: Largest order graph6 writes in its 4-byte header; larger ones take the
#: 8-byte form, which is not supported. It bounds every order, so that no
#: n x n adjacency is allocated for a graph the report cannot name.
GRAPH6_MAX_N = 258047


def _check_order(n: int, prefix: str = "") -> None:
    if n < 1:
        raise GraphFormatError(f"{prefix}node count must be positive, got {n}")
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"{prefix}node count {n} exceeds {GRAPH6_MAX_N}, "
                               "the largest graph6 order")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple graph on nodes 0..n-1.

    ``adj`` is a read-only n x n boolean adjacency matrix: symmetric with a
    zero diagonal. The constructor validates it and stores a read-only copy;
    ``_trusted`` stores, unchecked, one that is valid by construction.
    Graphs compare and hash by value.
    """

    n: int
    adj: np.ndarray

    def __post_init__(self):
        _check_order(self.n)
        adj = np.array(self.adj, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise GraphFormatError(f"adjacency of shape {adj.shape} for n={self.n}")
        if np.count_nonzero(adj.diagonal()) or np.count_nonzero(adj != adj.T):
            raise GraphFormatError("adjacency must be symmetric with a zero diagonal")
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _trusted(cls, adj: np.ndarray) -> "Graph":
        """The graph of a boolean adjacency that is symmetric with a zero
        diagonal by construction, and that no one else holds: made read-only
        in place, without the constructor's copy and checks. The order is
        still checked."""
        _check_order(adj.shape[0])
        g = object.__new__(cls)
        object.__setattr__(g, "n", adj.shape[0])
        object.__setattr__(g, "adj", _read_only(adj)[0])
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.adj).tobytes()))

    @staticmethod
    def from_edges(n: int, pairs: Iterable) -> "Graph":
        """Build a graph from node pairs; duplicates and orientation are ignored."""
        _check_order(n)
        p = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        bad = (p[:, 0] == p[:, 1]) | np.any((p < 0) | (p >= n), axis=1)
        if bad.any():
            u, v = p[np.argmax(bad)]
            if u == v:
                raise GraphFormatError(f"loop edge ({u}, {u}) not allowed")
            raise GraphFormatError(f"node id out of range in edge ({u}, {v}), n={n}")
        adj = np.zeros((n, n), dtype=bool)
        adj[p[:, 0], p[:, 1]] = True
        adj[p[:, 1], p[:, 0]] = True
        return Graph(n, adj)

    @property
    def edges(self) -> frozenset:
        """The edges as (u, v) pairs with u < v."""
        iu, ju = np.nonzero(np.triu(self.adj))
        return frozenset(zip(iu.tolist(), ju.tolist()))


class GraphClass(NamedTuple):
    """Most specific structural label plus the two family membership flags.

    Tag precedence: complete > null > cluster > complete_multipartite > general.
    ``partition`` holds clique sizes for cluster-like graphs and independent
    set sizes for complete multipartite ones, largest first.
    """

    tag: str
    partition: Optional[tuple]
    is_cluster: bool
    is_multipartite: bool

    @property
    def is_degenerate(self) -> bool:
        """Complete and null graphs admit no two-distance representation."""
        return self.tag in (TAG_COMPLETE, TAG_NULL)


def _integer(token: str) -> int:
    """int(token) for ASCII digits with an optional leading minus, else
    ValueError: int() itself also reads 1_0, +2 and non-ASCII digits."""
    if not (token.isascii() and token[token.startswith("-"):].isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line n, then one "u v" pair per line.
    Lines end at "\n", a trailing "\r" dropped, and fields are separated by
    ASCII spaces and tabs: str.splitlines and str.split would also break at
    other Unicode separators."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" \t")
        if not line:
            continue
        if n is None:
            try:
                n = _integer(line)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected node count, got {line!r}")
            _check_order(n, f"line {lineno}: ")
            continue
        parts = [field for field in line.replace("\t", " ").split(" ") if field]
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer node id in {line!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: node id out of range in ({u}, {v})")
        pairs.append((u, v))
    if n is None:
        raise GraphFormatError("empty input")
    return Graph.from_edges(n, pairs)


def _graph6_header(s: str) -> tuple:
    """(n, header length) of a graph6 string: one byte n + 63 for n <= 62,
    else ``~`` and n in three 6-bit bytes (McKay's formats.txt)."""
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if s[1:2] == "~":
        raise GraphFormatError(f"graph6 8-byte form (n > {GRAPH6_MAX_N}) not supported")
    if len(s) < 4:
        raise GraphFormatError("truncated graph6 header")
    a, b, c = (ord(ch) - 63 for ch in s[1:4])
    return (a << 12) | (b << 6) | c, 4


def parse_graph6(text: str) -> Graph:
    """Parse a graph6 string, in the short form (n <= 62) or the 4-byte
    header form (n <= 258047)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("truncated graph6 string")
    codes = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4") - 63
    if codes.max() > 63:  # a code point below 63 wraps around
        raise GraphFormatError(f"invalid graph6 character {s[(codes > 63).argmax()]!r}")
    n, head = _graph6_header(s)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if codes.size - head < nbytes:
        raise GraphFormatError("truncated graph6 bit stream")
    if codes.size - head > nbytes:
        raise GraphFormatError("trailing characters after graph6 bit stream")
    bits = np.unpackbits(codes[head:, None].astype(np.uint8), axis=1)[:, 2:].ravel()[:nbits]
    low = np.zeros((n, n), dtype=bool)
    low[_lower_mask(n)] = bits
    return Graph._trusted(low | low.T)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _lower_mask(n: int) -> np.ndarray:
    """The strict lower triangle as an n x n boolean mask: its row-major
    order, row j through the pairs i < j, is graph6 bit order. Cached and
    read-only."""
    return _read_only(np.tri(n, k=-1, dtype=bool))[0]


@lru_cache(maxsize=64)
def triu_pairs(n: int) -> tuple:
    """(u, v) index arrays of the pairs u < v in combinations(range(n), 2)
    order, which is also the edge-bitmask order. Cached and read-only."""
    return _read_only(*np.triu_indices(n, k=1))


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string, with the 4-byte header for n >= 63."""
    if g.n > GRAPH6_MAX_N:
        raise GraphFormatError(f"graph6 8-byte form (n > {GRAPH6_MAX_N}) not supported")
    head = chr(g.n + 63) if g.n <= 62 else "~" + "".join(
        chr(((g.n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits = g.adj[_lower_mask(g.n)]
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)]).reshape(-1, 6)
    vals = bits @ np.array([32, 16, 8, 4, 2, 1]) + 63
    return head + vals.astype(np.uint8).tobytes().decode("ascii")


def complement_adjacency(adj: np.ndarray) -> np.ndarray:
    """The complement of a boolean adjacency matrix, or of a stack of them:
    ~A with the diagonal cleared."""
    return ~adj & ~np.eye(adj.shape[-1], dtype=bool)


def connected_stack(adj: np.ndarray) -> np.ndarray:
    """Whether each graph of a (k, n, n) boolean adjacency stack is connected:
    whether the nodes reached from node 0, grown n - 2 times by their
    neighbours, are all n. The matrix axes go first so that each step is one
    contiguous operation over the stack."""
    n = adj.shape[-1]
    a = adj.transpose(1, 2, 0).copy()  # a[i, j] is the (k,) row of edges ij
    reached = a[0].copy()
    reached[0] = True
    for _ in range(n - 2):
        reached |= np.logical_or.reduce(a & reached, axis=1)
    return np.logical_and.reduce(reached, axis=0)


def complement(g: Graph) -> Graph:
    """Graph with an edge exactly where g has none."""
    return Graph._trusted(complement_adjacency(g.adj))


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 adjacency matrix with zero diagonal, as floats."""
    return g.adj.astype(float)


class ClassStack(NamedTuple):
    """The classification of a (k, n, n) stack of graphs, one entry per graph.

    ``tag`` is the most specific tag; ``members`` (2, k) stacks the flags
    ``is_cluster`` and ``is_multipartite``, and ``labels`` (2, k, n) the
    clique and part labels that give the partitions.
    """

    tag: np.ndarray
    members: np.ndarray
    labels: np.ndarray
    is_cluster: np.ndarray
    is_multipartite: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Complete or null: the graphs in both families."""
        return np.logical_and.reduce(self.members)

    def row(self, i: int) -> GraphClass:
        """The GraphClass of graph i, with its partition."""
        family = 0 if self.members[0, i] else 1
        if not self.members[family, i]:
            return GraphClass(str(self.tag[i]), None, False, False)
        sizes = np.bincount(self.labels[family, i])
        return GraphClass(str(self.tag[i]), tuple(sorted(sizes[sizes > 0].tolist(), reverse=True)),
                          bool(self.is_cluster[i]), bool(self.is_multipartite[i]))


#: The tags by code 2 * is_cluster + is_multipartite + null: a graph in both
#: families is complete, or null if n >= 2 and it has no edge (the complement
#: of a cluster graph of two or more cliques is one clique only if they are nodes).
_TAGS = np.array([TAG_GENERAL, TAG_MULTIPARTITE, TAG_CLUSTER, TAG_COMPLETE, TAG_NULL])
_FAMILY_CODE = np.array([2, 1])


def class_stack(adj: np.ndarray) -> ClassStack:
    """Classify every graph of a (k, n, n) boolean adjacency stack by one
    clique-label test on the stacked A + I (cluster) and ~A (complete
    multipartite): a node's label is the first node of its closed
    neighbourhood, and equal labels mean adjacency exactly when adjacency is
    an equivalence relation, whose classes are the cliques."""
    n = adj.shape[-1]
    closed = np.empty((2,) + adj.shape, dtype=bool)
    np.logical_or(adj, np.eye(n, dtype=bool), out=closed[0])
    np.logical_not(adj, out=closed[1])  # the complement's adjacency with a true diagonal
    labels = closed.argmax(axis=-1)
    same = labels[..., :, None] == labels[..., None, :]
    members = np.logical_and.reduce(np.equal(closed, same, out=same), axis=(-2, -1))
    null = ~np.logical_or.reduce(adj, axis=(-2, -1)) & (n > 1)
    return ClassStack(_TAGS[_FAMILY_CODE @ members + null], members, labels, *members)


def classify(g: Graph) -> GraphClass:
    """Classify g into the most specific of the five structural tags."""
    return class_stack(g.adj[None]).row(0)


# Common constructions for the test-suite and callers of the package; the sweep
# builds its graphs as adjacency stacks with ``mask_stack`` instead.

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def null_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def cluster_graph(sizes: Sequence[int]) -> Graph:
    """Disjoint union of cliques with the given sizes."""
    pairs = []
    start = 0
    for size in sizes:
        nodes = range(start, start + size)
        pairs.extend(combinations(nodes, 2))
        start += size
    return Graph.from_edges(start, pairs)


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with independent sets of the given sizes."""
    return complement(cluster_graph(sizes))


def mask_stack(n: int, masks: np.ndarray) -> np.ndarray:
    """(k, n, n) adjacency stack of edge bitmasks: bit j is the j-th pair of ``triu_pairs``.
    int64 masks hold orders n <= 11, object-dtype masks (Python ints) any order."""
    iu, ju = triu_pairs(n)
    bits = (masks[:, None] >> np.arange(iu.size)) & 1 == 1
    adj = np.zeros((len(masks), n, n), dtype=bool)
    adj[:, iu, ju] = bits
    return adj | adj.swapaxes(-1, -2)


def from_mask(n: int, mask: int) -> Graph:
    """Graph from an edge bitmask over combinations(range(n), 2) order."""
    return Graph._trusted(mask_stack(n, np.array([mask], dtype=object))[0])
