"""Spanning converging forest matrices for weighted directed multigraphs.

The library computes the matrix of forest weights and the derived
proximity matrix from the graph Laplacian, enumerates all spanning
converging forests by brute force as an independent oracle, sums route
weights of the loop-augmented walk graph, and verifies the bottleneck
product inequality (with its separator equality condition) over vertex
triples. Exact rational arithmetic is the default so every identity can
be checked without tolerances.

The public names are loaded on first access (PEP 562): ``import inforest``
imports none of the submodules, and each name imports only the module that
defines it, so a command-line run compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "bottleneck": (
        "RELATION_EQUAL",
        "RELATION_STRICT",
        "BottleneckReport",
        "TripleSummary",
        "check_triple",
        "is_bottleneck",
        "summarize",
        "verify_all_triples",
    ),
    "errors": (
        "BadParametersError",
        "EpsilonOutOfRangeError",
        "GraphFormatError",
        "InconsistentWithTheoremError",
        "InforestError",
        "InstanceTooLargeError",
        "LoopArcError",
        "NonPositiveWeightError",
        "NotConvergedError",
        "SingularMatrixError",
        "TooFewVerticesError",
        "VertexOutOfRangeError",
    ),
    "forest": ("ForestMatrices", "forest_matrices"),
    "generators": ("complete_graph", "cycle_graph", "path_graph", "random_graph"),
    "graph": ("Arc", "MultiDigraph"),
    "io": ("ParsedGraph", "format_graph", "parse_graph", "parse_weight"),
    "matrix": (
        "DEFAULT_MAX_TERMS",
        "DEFAULT_TOLERANCE",
        "EXACT",
        "FLOAT",
        "Matrix",
        "SeriesSum",
        "determinant",
        "format_weight",
        "geometric_series",
        "invert",
    ),
    "oracle": (
        "DEFAULT_CHOICE_CAP",
        "InForest",
        "OracleResult",
        "choice_count",
        "enumerate_in_forests",
        "oracle_matrices",
    ),
    "routes": (
        "RouteDecomposition",
        "RouteMatrices",
        "choose_epsilon",
        "closed_route_matrix",
        "route_decomposition",
        "route_matrix",
        "step_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
