"""Vertex-bottleneck verification over forest-weight products.

For any triple (i, j, k) the product of forest weights (i rooted-at j)
times (j rooted-at k) never exceeds (i rooted-at k) times (j rooted-at j),
and the two sides are equal exactly when every directed path from i to k
passes through j (j is a separator, possibly vacuously when k is
unreachable). This module classifies all triples and cross-checks the
algebraic relation against an independent graph-theoretic test.

The all-triples sweep takes its separators from the dominator sets of each
start vertex i: every path from i to k contains j exactly when j dominates
k in the flow graph rooted at i, vacuously so when k is unreachable from i
(Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm", 2001).
It compares the products a whole (i, j) row at a time and counts the
verdicts as it goes. It keeps the dominator masks, n integers per start
vertex, as the one stored form of the separators; the report objects of
:func:`verify_all_triples` are built from them and the rows of ``F`` only
when they are read, and :func:`summarize` returns the sweep's counts
without building any. The single-triple :func:`is_bottleneck`, behind
:func:`check_triple`, reads the same bit of the same masks, so the
dominator sets are the one separator solver; the tests check them
against a breadth-first search of their own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InconsistentWithTheoremError
from .forest import ForestMatrices, forest_matrices
from .graph import MultiDigraph
from .matrix import EXACT, Scalar, common_denominator, format_for_message

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


def _equal(lhs: Sequence[Scalar], rhs: Sequence[Scalar], mode: str) -> list[bool]:
    """The one equal-vs-strict rule, entry by entry: exact equality in
    exact mode; in float mode a difference of at most
    ``FLOAT_EQUALITY_RTOL`` times the larger magnitude, so the verdict
    does not depend on the scale of the weights.

    When every product is finite, the float rule runs as
    :func:`math.isclose` with its defaults (``rel_tol`` 1e-9, ``abs_tol``
    0), which tests the difference against each magnitude in turn and
    rounds to the same verdicts. The two forms part only on inf and nan,
    and any of those makes the sums below non-finite.
    """
    if mode == EXACT:
        return list(map(operator.eq, lhs, rhs))
    if math.isfinite(sum(lhs) + sum(rhs)):
        return list(map(math.isclose, lhs, rhs))
    return [abs(a - b) <= FLOAT_EQUALITY_RTOL * max(abs(a), abs(b)) for a, b in zip(lhs, rhs)]


def relation(lhs: Scalar, rhs: Scalar, mode: str) -> str:
    """Equal or strict for one pair of products, by :func:`_equal`."""
    return RELATION_EQUAL if _equal((lhs,), (rhs,), mode)[0] else RELATION_STRICT


def is_bottleneck(graph: MultiDigraph, i: int, j: int, k: int) -> bool:
    """True when every directed path from i to k contains j: bit j of
    ``graph.dominators(i)[k]``, the bit the sweep reads.

    Endpoints lie on every path, the zero-length path from i to i
    contains only i, and an unreachable k is separated vacuously; the
    dominator masks encode all three.
    """
    for v in (i, j, k):
        graph.check_vertex(v)
    return bool(graph.dominators(i)[k] >> j & 1)


def _dominator_separators(masks: list[int]) -> list[list[bool]]:
    """``is_bottleneck(graph, i, j, k)`` for every j (row) and k (entry),
    from the dominator masks ``graph.dominators(i)``.

    Row j, entry k, is True exactly when bit j of ``masks[k]`` is set.
    """
    n = len(masks)
    rows = [[False] * n for _ in range(n)]
    for k, mask in enumerate(masks):
        while mask:
            j = mask.bit_length() - 1
            rows[j][k] = True
            mask ^= 1 << j
    return rows


def _report(
    mode: str,
    triple: tuple[int, int, int],
    row_i: Sequence[Scalar],
    row_j: Sequence[Scalar],
    separator: bool,
) -> BottleneckReport:
    """Verdict for one triple (i, j, k) from rows i and j of ``F``, whose
    two products ``F_ij F_jk`` and ``F_ik F_jj`` are formed here alone.

    In exact mode any violation raises
    :class:`InconsistentWithTheoremError`, and an equal triple shares one
    value object for both sides. Float mode records a disagreement as
    ``consistent=False`` instead.
    """
    i, j, k = triple
    lhs, rhs = row_i[j] * row_j[k], row_i[k] * row_j[j]
    verdict = relation(lhs, rhs, mode)
    equal = verdict == RELATION_EQUAL
    if mode == EXACT:
        if lhs > rhs:
            raise InconsistentWithTheoremError(
                f"triple {triple}: product {format_for_message(lhs)} "
                f"exceeds {format_for_message(rhs)}"
            )
        if equal != separator:
            raise InconsistentWithTheoremError(
                f"triple {triple}: relation {verdict} but separator is {separator}"
            )
        if equal:
            rhs = lhs
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
    return _report(forests.mode, (i, j, k), weights.row(i), weights.row(j), separator)


class TripleReports(Sequence[BottleneckReport]):
    """The reports of all ordered triples in lexicographic order, built on
    access from the rows of ``F`` and the sweep's dominator masks.

    A read-only sequence: reports built here equal those of
    :func:`_report` called triple by triple, and ``summary`` holds the
    counts the sweep made. Indexing takes ints, negative ones too, and
    slices, which return lists.
    """

    def __init__(
        self,
        mode: str,
        values: list[list[Scalar]],
        masks: list[list[int]],
        summary: TripleSummary,
    ):
        self.mode = mode
        self.summary = summary
        self._values = values
        # masks[i] is graph.dominators(i): j separates i from k exactly
        # when bit j of masks[i][k] is set.
        self._masks = masks
        self._n = len(values)

    def _report(self, i: int, j: int, k: int) -> BottleneckReport:
        separator = bool(self._masks[i][k] >> j & 1)
        return _report(self.mode, (i, j, k), self._values[i], self._values[j], separator)

    def __len__(self) -> int:
        return self._n**3

    def __getitem__(self, index):
        index = range(len(self))[index]
        if isinstance(index, range):
            return [self[t] for t in index]
        i, rest = divmod(index, self._n * self._n)
        return self._report(i, *divmod(rest, self._n))

    def __iter__(self) -> Iterator[BottleneckReport]:
        span = range(self._n)
        return (self._report(i, j, k) for i in span for j in span for k in span)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, TripleReports)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"TripleReports(n={self._n}, mode={self.mode!r}, summary={self.summary})"


def verify_all_triples(
    graph: MultiDigraph,
    forests: Optional[ForestMatrices] = None,
    mode: str = EXACT,
) -> TripleReports:
    """Reports for all ordered triples, in lexicographic order.

    The checks run here, in one sweep: exact mode raises
    :class:`InconsistentWithTheoremError` at the first triple that breaks
    the law, and float mode counts disagreements as ``inconsistent``.
    """
    if forests is None:
        forests = forest_matrices(graph, mode)
    n = graph.n
    mode = forests.mode
    values = rows = forests.matrix.to_lists()
    if mode == EXACT:
        # The law is homogeneous of degree 2, so the integers c F give
        # the verdicts of F and compare faster than fractions.
        rows, _ = common_denominator(values)
    masks = [graph.dominators(i) for i in range(n)]
    equal = inconsistent = 0
    for i in range(n):
        row_i = rows[i]
        for j, row_sep in enumerate(_dominator_separators(masks[i])):
            row_j = rows[j]
            ij, jj = row_i[j], row_j[j]
            lhs = [ij * v for v in row_j]
            rhs = [v * jj for v in row_i]
            verdicts = _equal(lhs, rhs, mode)
            if mode == EXACT and (verdicts != row_sep or any(map(operator.gt, lhs, rhs))):
                k = next(
                    k for k in range(n) if lhs[k] > rhs[k] or verdicts[k] != row_sep[k]
                )
                _report(mode, (i, j, k), values[i], values[j], row_sep[k])  # raises
            if verdicts != row_sep:
                inconsistent += sum(map(operator.ne, verdicts, row_sep))
            equal += sum(verdicts)
    total = n**3
    # Triples with j at an endpoint or with i = k.
    degenerate = total - n * (n - 1) * (n - 2)
    summary = TripleSummary(total, equal, total - equal, degenerate, inconsistent)
    return TripleReports(mode, values, masks, summary)


def verify_undirected(
    graph: MultiDigraph,
    forests: Optional[ForestMatrices] = None,
    mode: str = EXACT,
) -> TripleReports:
    """Verify all triples of an undirected multigraph, given as the doubled
    digraph of :meth:`MultiDigraph.from_undirected`.

    The directed paths of that digraph are exactly the undirected paths,
    so the triple sweep's separators are the undirected ones. On top of
    the sweep this checks that the forest matrix is symmetric, each row
    equal to its column by the rule of :func:`_equal`. It checks the
    proximity matrix ``Q = F / f``, whose entries are at most 1, so a
    float ``F`` that overflows cannot fail the check; ``f > 0``, so ``F``
    is symmetric exactly when ``Q`` is. ``forests``, when given, must be
    the forest matrices of ``graph``; their mode then wins.
    """
    if forests is None:
        forests = forest_matrices(graph, mode)
    mode = forests.mode
    rows = forests.proximity.to_lists()
    if not all(all(_equal(row, column, mode)) for row, column in zip(rows, zip(*rows))):
        raise InconsistentWithTheoremError(
            "forest matrix of a doubled undirected graph must be symmetric"
        )
    return verify_all_triples(graph, forests, mode)


def summarize(reports: Iterable[BottleneckReport]) -> TripleSummary:
    """Counts of the reports; for the sweep's own reports, the counts it made."""
    if isinstance(reports, TripleReports):
        return reports.summary
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
