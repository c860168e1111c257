"""Vertex-bottleneck verification over forest-weight products.

For any triple (i, j, k) the product of forest weights (i rooted-at j)
times (j rooted-at k) never exceeds (i rooted-at k) times (j rooted-at j),
and the two sides are equal exactly when every directed path from i to k
passes through j (j is a separator, possibly vacuously when k is
unreachable). This module classifies all triples and cross-checks the
algebraic relation against an independent reachability test.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Container, Iterable, NamedTuple, Optional, Sequence

from .errors import InconsistentWithTheoremError, VertexOutOfRangeError
from .forest import ForestMatrices, forest_matrices
from .graph import MultiDigraph
from .matrix import EXACT, Scalar

RELATION_EQUAL = "equal"
RELATION_STRICT = "strict"

# Relative tolerance for classifying equality in float mode; exact mode
# compares exactly and is authoritative.
FLOAT_EQUALITY_RTOL = 1e-9


@dataclass(frozen=True)
class BottleneckReport:
    """Verdict for one ordered triple (i, j, k).

    ``lhs`` and ``rhs`` are the two forest-weight products, ``relation``
    their exact (or tolerance-based) comparison, ``separator`` the
    independent path-condition verdict, and ``consistent`` whether the two
    verdicts agree as the theory requires. Triples with j among the
    endpoints or with i = k exercise conventions rather than content and
    are flagged ``degenerate``.
    """

    triple: tuple[int, int, int]
    lhs: Scalar
    rhs: Scalar
    relation: str
    separator: bool
    consistent: bool
    degenerate: bool


class TripleSummary(NamedTuple):
    total: int
    equal: int
    strict: int
    degenerate: int
    inconsistent: int


def relation(lhs: Scalar, rhs: Scalar, mode: str) -> str:
    """Equal or strict: exact comparison in exact mode, a relative
    tolerance of ``FLOAT_EQUALITY_RTOL`` in float mode."""
    if mode == EXACT:
        equal = lhs == rhs
    else:
        equal = abs(lhs - rhs) <= FLOAT_EQUALITY_RTOL * max(1.0, abs(rhs))
    return RELATION_EQUAL if equal else RELATION_STRICT


def _separates(
    i: int, j: int, n: int, reachable: Callable[[int, int], Container[int]]
) -> list[bool]:
    """Entry k is True when every path from i to k contains j.

    ``reachable(i, j)`` gives the vertices reachable from i without
    visiting j; it is called once, when j != i.
    """
    # Endpoints lie on every path; the zero-length path from i to i
    # contains only i, so no other vertex can separate i from itself.
    if j == i:
        return [True] * n
    avoiding_j = reachable(i, j)
    row = [k not in avoiding_j for k in range(n)]
    row[i], row[j] = False, True
    return row


def is_bottleneck(graph: MultiDigraph, i: int, j: int, k: int) -> bool:
    """True when every directed path from i to k contains j."""
    for v in (i, j, k):
        if not (0 <= v < graph.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{graph.n - 1}")
    return _separates(i, j, graph.n, graph.reachable)[k]


def _common_scale(values: Sequence[Scalar], mode: str) -> tuple[list[Scalar], int]:
    """In exact mode, integers ``N`` and ``c**2`` for the least positive
    ``c`` with every ``c * values[t]`` an integer ``N[t]``; in float mode
    the values themselves and 1."""
    if mode != EXACT:
        return list(values), 1
    common = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common * common


def _report(
    mode: str, triple: tuple[int, int, int], lhs: Scalar, rhs: Scalar, separator: bool, square: int
) -> BottleneckReport:
    """Verdict for one triple from its two products.

    In exact mode ``lhs`` and ``rhs`` are the integer products of the
    matrix ``N = c F`` from :func:`_common_scale` and ``square`` is
    ``c**2``: the law is homogeneous of degree 2, so comparing
    ``N_ij N_jk`` with ``N_ik N_jj`` gives the verdict of the ``F``
    products. Any violation raises :class:`InconsistentWithTheoremError`.
    Float mode records a disagreement as ``consistent=False`` instead.
    """
    verdict = relation(lhs, rhs, mode)
    equal = verdict == RELATION_EQUAL
    if mode == EXACT:
        if lhs > rhs:
            raise InconsistentWithTheoremError(
                f"triple {triple}: product {Fraction(lhs, square)} exceeds {Fraction(rhs, square)}"
            )
        if equal != separator:
            raise InconsistentWithTheoremError(
                f"triple {triple}: relation {verdict} but separator is {separator}"
            )
        lhs = Fraction(lhs, square)
        rhs = lhs if equal else Fraction(rhs, square)
    i, j, k = triple
    return BottleneckReport(
        triple=triple,
        lhs=lhs,
        rhs=rhs,
        relation=verdict,
        separator=separator,
        consistent=equal == separator,
        degenerate=j in (i, k) or i == k,
    )


def check_triple(
    forests: ForestMatrices, graph: MultiDigraph, i: int, j: int, k: int
) -> BottleneckReport:
    """Classify one triple and verify it against the separator test.

    In exact mode any violation (product inequality failing, or relation
    and separator disagreeing) raises
    :class:`InconsistentWithTheoremError`, since it can only mean an
    implementation bug. Float mode records the verdict tolerantly and
    leaves judgment to the caller.
    """
    separator = is_bottleneck(graph, i, j, k)
    weights = forests.matrix
    (ij, jk, ik, jj), square = _common_scale(
        [weights[i, j], weights[j, k], weights[i, k], weights[j, j]], forests.mode
    )
    return _report(forests.mode, (i, j, k), ij * jk, ik * jj, separator, square)


def verify_all_triples(
    graph: MultiDigraph,
    forests: Optional[ForestMatrices] = None,
    mode: str = EXACT,
) -> list[BottleneckReport]:
    """Reports for all ordered triples, in lexicographic order."""
    if forests is None:
        forests = forest_matrices(graph, mode)
    n = graph.n
    mode = forests.mode
    flat, square = _common_scale([v for row in forests.matrix.to_lists() for v in row], mode)
    values = [flat[r * n : (r + 1) * n] for r in range(n)]
    reports = []
    for i in range(n):
        row_i = values[i]
        for j in range(n):
            separators = _separates(i, j, n, graph.reachable)
            row_j = values[j]
            ij, jj = row_i[j], row_j[j]
            for k in range(n):
                reports.append(
                    _report(mode, (i, j, k), ij * row_j[k], row_i[k] * jj, separators[k], square)
                )
    return reports


def _edge_reach(neighbors: Sequence[set[int]], source: int, excluded: int) -> set[int]:
    """Vertices joined to ``source`` by edge paths that avoid ``excluded``."""
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if w != excluded and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def verify_undirected(
    n: int,
    edges: Iterable,
    mode: str = EXACT,
    forests: Optional[ForestMatrices] = None,
) -> list[BottleneckReport]:
    """Verify all triples of an undirected multigraph.

    The graph is converted by replacing each edge with two opposite arcs;
    on top of the triple sweep this checks that the forest matrix is
    symmetric and that the undirected separator condition, found by a
    breadth-first search over the edge list, coincides with the directed
    one on the doubled digraph. ``forests``, when given, must be the
    forest matrices of that doubled digraph; their mode then wins.
    """
    edges = tuple(edges)
    graph = MultiDigraph.from_undirected(n, edges)
    if forests is None:
        forests = forest_matrices(graph, mode)
    mode = forests.mode
    symmetric = forests.matrix.is_symmetric(
        0 if mode == EXACT else FLOAT_EQUALITY_RTOL * max(1.0, forests.matrix.max_abs())
    )
    if not symmetric:
        raise InconsistentWithTheoremError(
            "forest matrix of a doubled undirected graph must be symmetric"
        )
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    reachable = partial(_edge_reach, neighbors)
    reports = verify_all_triples(graph, forests, mode)
    for i in range(n):
        for j in range(n):
            start = (i * n + j) * n
            directed = [report.separator for report in reports[start : start + n]]
            if _separates(i, j, n, reachable) != directed:
                raise InconsistentWithTheoremError(
                    f"triples ({i}, {j}, k): undirected and directed separator tests disagree"
                )
    return reports


def summarize(reports: Iterable[BottleneckReport]) -> TripleSummary:
    total = equal = strict = degenerate = inconsistent = 0
    for report in reports:
        total += 1
        if report.relation == RELATION_EQUAL:
            equal += 1
        else:
            strict += 1
        if report.degenerate:
            degenerate += 1
        if not report.consistent:
            inconsistent += 1
    return TripleSummary(total, equal, strict, degenerate, inconsistent)
