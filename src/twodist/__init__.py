"""Two-distance representations of graphs.

Computes the minimal Euclidean, spherical and J-spherical representation
dimensions of a simple graph from the spectrum of the projected adjacency
matrix, and emits explicit point configurations realizing them.
"""

__version__ = "0.1.0"

from .graphs import (Graph, GraphClass, GraphFormatError, adjacency_matrix,
                     classify, complement, encode_graph6, parse_edge_list,
                     parse_graph6)
from .representations import (BetaIntervals, DegenerateGraphError, JSpherical,
                              ReprReport, analyze_graph, beta_feasible_set,
                              dim_euclidean, dim_spherical,
                              euclidean_representation, j_spherical,
                              lower_bounds, same_second_distance)

#: Names that ``twodist.oracle`` provides; it loads on the first use of one,
#: so that an analysis does not pay for the cross-checks' imports.
_ORACLE_NAMES = ("discriminating_roots", "invariant_sweep", "verify_two_distance")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Graph", "GraphClass", "GraphFormatError", "adjacency_matrix", "classify",
    "complement", "encode_graph6", "parse_edge_list", "parse_graph6",
    "BetaIntervals", "DegenerateGraphError", "JSpherical", "ReprReport",
    "analyze_graph", "beta_feasible_set", "dim_euclidean", "dim_spherical",
    "euclidean_representation", "j_spherical", "lower_bounds",
    "same_second_distance", "discriminating_roots",
    "invariant_sweep", "verify_two_distance", "__version__",
]
