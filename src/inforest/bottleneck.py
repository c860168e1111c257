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
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _separates(i: int, j: int, k: int, reachable_without_j: frozenset[int]) -> bool:
    # Endpoints lie on every path; the zero-length path from i to i
    # contains only i, so no other vertex can separate i from itself.
    if j == i or j == k:
        return True
    if i == k:
        return False
    return k not in reachable_without_j


def is_bottleneck(graph: MultiDigraph, i: int, j: int, k: int) -> bool:
    """True when every directed path from i to k contains j."""
    for v in (i, j, k):
        if not (0 <= v < graph.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{graph.n - 1}")
    if j == i or j == k:
        return True
    if i == k:
        return False
    return k not in graph.reachable(i, excluded=j)


def _common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``N`` and one positive ``c`` with ``values[t] == N[t] / c``."""
    common = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


def _exact_report(
    triple: tuple[int, int, int], lhs: int, rhs: int, square: int, separator: bool
) -> BottleneckReport:
    """Exact verdict from the integer products of a common-denominator
    matrix ``N = c F``; ``square`` is ``c**2``.

    The law is homogeneous of degree 2, so comparing ``N_ij N_jk`` with
    ``N_ik N_jj`` gives the verdict of the ``F`` products. Any violation
    raises :class:`InconsistentWithTheoremError`.
    """
    if lhs > rhs:
        raise InconsistentWithTheoremError(
            f"triple {triple}: product {Fraction(lhs, square)} exceeds {Fraction(rhs, square)}"
        )
    equal = lhs == rhs
    relation = RELATION_EQUAL if equal else RELATION_STRICT
    if equal != separator:
        raise InconsistentWithTheoremError(
            f"triple {triple}: relation {relation} but separator is {separator}"
        )
    left = Fraction(lhs, square)
    i, j, k = triple
    return BottleneckReport(
        triple=triple,
        lhs=left,
        rhs=left if equal else Fraction(rhs, square),
        relation=relation,
        separator=separator,
        consistent=True,
        degenerate=j in (i, k) or i == k,
    )


def _float_report(
    triple: tuple[int, int, int], lhs: float, rhs: float, separator: bool
) -> BottleneckReport:
    """Tolerance-based verdict; disagreement is recorded, not raised."""
    close = abs(lhs - rhs) <= FLOAT_EQUALITY_RTOL * max(1.0, abs(rhs))
    relation = RELATION_EQUAL if close else RELATION_STRICT
    i, j, k = triple
    return BottleneckReport(
        triple=triple,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        separator=separator,
        consistent=close == separator,
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
    entries = [weights[i, j], weights[j, k], weights[i, k], weights[j, j]]
    if forests.mode == EXACT:
        (ij, jk, ik, jj), common = _common_denominator(entries)
        return _exact_report((i, j, k), ij * jk, ik * jj, common * common, separator)
    ij, jk, ik, jj = entries
    return _float_report((i, j, k), ij * jk, ik * jj, separator)


def verify_all_triples(
    graph: MultiDigraph,
    forests: Optional[ForestMatrices] = None,
    mode: str = EXACT,
) -> list[BottleneckReport]:
    """Reports for all ordered triples, in lexicographic order."""
    if forests is None:
        forests = forest_matrices(graph, mode)
    n = graph.n
    # One reachability sweep per (source, excluded) pair; is_bottleneck
    # applies the same rule one triple at a time.
    reach = {
        (i, j): graph.reachable(i, excluded=j)
        for j in range(n)
        for i in range(n)
        if i != j
    }
    exact = forests.mode == EXACT
    if exact:
        flat, common = _common_denominator(
            [v for row in forests.matrix.to_lists() for v in row]
        )
        values = [flat[r * n : (r + 1) * n] for r in range(n)]
        square = common * common
    else:
        values = forests.matrix.to_lists()
    reports = []
    for i in range(n):
        row_i = values[i]
        for j in range(n):
            reachable = reach.get((i, j), frozenset())
            row_j = values[j]
            ij, jj = row_i[j], row_j[j]
            for k in range(n):
                triple = (i, j, k)
                separator = _separates(i, j, k, reachable)
                lhs, rhs = ij * row_j[k], row_i[k] * jj
                if exact:
                    reports.append(_exact_report(triple, lhs, rhs, square, separator))
                else:
                    reports.append(_float_report(triple, lhs, rhs, separator))
    return reports


def _undirected_separates(n: int, edges, i: int, j: int, k: int) -> bool:
    # Edge-based breadth-first search, independent of the arc doubling.
    if j == i or j == k:
        return True
    if i == k:
        return False
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen = {i}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        for w in neighbors[v]:
            if w == j or w in seen:
                continue
            seen.add(w)
            queue.append(w)
    return k not in seen


def verify_undirected(
    n: int,
    edges: Iterable,
    mode: str = EXACT,
    forests: Optional[ForestMatrices] = None,
) -> list[BottleneckReport]:
    """Verify all triples of an undirected multigraph.

    The graph is converted by replacing each edge with two opposite arcs;
    on top of the triple sweep this checks that the forest matrix is
    symmetric and that the undirected separator condition coincides with
    the directed one on the doubled digraph. ``forests``, when given, must
    be the forest matrices of that doubled digraph; their mode then wins.
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
    reports = verify_all_triples(graph, forests, mode)
    for report in reports:
        i, j, k = report.triple
        if _undirected_separates(n, edges, i, j, k) != report.separator:
            raise InconsistentWithTheoremError(
                f"triple {(i, j, k)}: undirected and directed separator tests disagree"
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
