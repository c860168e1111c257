"""Spanning converging forest matrices for weighted directed multigraphs.

The library computes the matrix of forest weights and the derived
proximity matrix from the graph Laplacian, enumerates all spanning
converging forests by brute force as an independent oracle, sums route
weights of the loop-augmented walk graph, and verifies the bottleneck
product inequality (with its separator equality condition) over vertex
triples. Exact rational arithmetic is the default so every identity can
be checked without tolerances.
"""

from .bottleneck import (
    RELATION_EQUAL,
    RELATION_STRICT,
    BottleneckReport,
    TripleSummary,
    check_triple,
    is_bottleneck,
    summarize,
    verify_all_triples,
    verify_undirected,
)
from .errors import (
    BadParametersError,
    EpsilonOutOfRangeError,
    GraphFormatError,
    InconsistentWithTheoremError,
    InforestError,
    InstanceTooLargeError,
    LoopArcError,
    NonPositiveWeightError,
    NotConvergedError,
    SingularMatrixError,
    TooFewVerticesError,
    VertexOutOfRangeError,
)
from .forest import ForestMatrices, forest_matrices
from .generators import complete_graph, cycle_graph, path_graph, random_graph
from .graph import Arc, MultiDigraph
from .io import ParsedGraph, format_graph, format_weight, parse_graph, parse_weight
from .matrix import (
    EXACT,
    FLOAT,
    Matrix,
    SeriesSum,
    determinant,
    geometric_series,
    invert,
)
from .oracle import (
    DEFAULT_CHOICE_CAP,
    InForest,
    OracleResult,
    choice_count,
    enumerate_in_forests,
    oracle_matrices,
)
from .routes import (
    DEFAULT_MAX_TERMS,
    DEFAULT_ROUTE_CAP,
    DEFAULT_TOLERANCE,
    RouteDecomposition,
    RouteMatrices,
    choose_epsilon,
    closed_route_matrix,
    route_decomposition,
    route_matrix,
    route_weights_by_length,
    step_matrix,
    validate_epsilon,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BadParametersError",
    "BottleneckReport",
    "DEFAULT_CHOICE_CAP",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_ROUTE_CAP",
    "DEFAULT_TOLERANCE",
    "EXACT",
    "EpsilonOutOfRangeError",
    "FLOAT",
    "ForestMatrices",
    "GraphFormatError",
    "InForest",
    "InconsistentWithTheoremError",
    "InforestError",
    "InstanceTooLargeError",
    "LoopArcError",
    "Matrix",
    "MultiDigraph",
    "NonPositiveWeightError",
    "NotConvergedError",
    "OracleResult",
    "ParsedGraph",
    "RELATION_EQUAL",
    "RELATION_STRICT",
    "RouteDecomposition",
    "RouteMatrices",
    "SeriesSum",
    "SingularMatrixError",
    "TooFewVerticesError",
    "TripleSummary",
    "VertexOutOfRangeError",
    "check_triple",
    "choice_count",
    "choose_epsilon",
    "closed_route_matrix",
    "complete_graph",
    "cycle_graph",
    "determinant",
    "enumerate_in_forests",
    "forest_matrices",
    "format_graph",
    "format_weight",
    "geometric_series",
    "invert",
    "is_bottleneck",
    "oracle_matrices",
    "parse_graph",
    "parse_weight",
    "path_graph",
    "random_graph",
    "route_decomposition",
    "route_matrix",
    "route_weights_by_length",
    "step_matrix",
    "summarize",
    "validate_epsilon",
    "verify_all_triples",
    "verify_undirected",
]
