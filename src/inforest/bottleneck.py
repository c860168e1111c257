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
:meth:`~MultiDigraph.dominator_masks` reads them for every i from four
dominator passes, two forward and two on the reverse graph, when these
show the graph strongly connected with no strong articulation point, as
on most dense digraphs; then only the endpoints separate. Any other graph
takes one pass per start vertex. The sweep settles the triples a whole
(i, j) row at a time and counts the verdicts as it goes. It keeps the
dominator masks, n integers per start vertex, as the one stored form of
the separators. The result of :func:`verify_all_triples` holds the
sweep's counts, which :func:`summarize` returns; its report objects are
built from the masks and the rows of ``F`` only when it is iterated, one
pass in lexicographic order. The single-triple :func:`is_bottleneck`, behind
:func:`check_triple`, reads the same bit of the same masks, so the
dominator sets are the one separator solver; the tests check them
against a breadth-first search of their own.

One sweep, :func:`_sweep`, serves both modes with the same steps: a row
bound, then the rule. It reads the matrix's stored rows alone: the
integers ``N = c F`` in exact mode, which give the verdicts of ``F``
because the law is homogeneous of degree 2, and the doubles of ``F`` in
float mode. The bound derives the doubles ``V`` it reads from those rows:
the ratios ``q = N / T`` of :func:`_bound_ratios` in exact mode, ``T`` the
largest ``|N|``, and ``F`` itself in float mode.

Each (i, j) row is a triangle check, the multiplicative counterpart of
the triangle inequality, and one bound settles most rows whole before any
triple's products are formed (:func:`_settled_rows`). It runs when every
entry of ``V`` lies in [2^-500, 2^500]. Column k is divided by the mean
``C_k`` of its off-diagonal entries, and row (i, j), j ≠ i, is strict for
every k ≠ j when ``fl(fl(V_ij / V_jj) fl(M_j S))``, at least 2^-1000,
is below the least scaled entry of row i, ``M_j`` being the largest
scaled entry of row j off its diagonal. The slack ``S`` of exact mode,
``1 + 16u`` (u = 2^-53), covers the rounding; float mode's ``1 + 8e-9``
covers it and then a gap past the equality tolerance. Row (i, i) and the
triples (i, j, j) multiply the same two numbers on both sides, so under
the guard they are equal, and their separators are counted from the
dominator bits.

On a row the bound declines, the rule of :func:`_equal`, the one that
decides equal or strict, compares both products of all n triples. So the
sweep costs O(n^2) plus n for each row the bound declines; every other
matrix, with zeros, overflow or a wide spread, takes the rule on every
row. Every verdict the bound settles is the one the rule gives, and it
proves a triple strict only where ``F_ij F_jk < F_ik F_jj``, so every
count is the rule's and exact mode stays authoritative. In exact mode a
bad triple, one whose verdict disagrees with its separator or whose
product ``F_ij F_jk`` exceeds ``F_ik F_jj``, makes
:func:`verify_all_triples` raise through the triple-by-triple check, at
the first such triple in lexicographic order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import InconsistentWithTheoremError
from .forest import ForestMatrices, forest_matrices
from .graph import MultiDigraph
from .matrix import EXACT, FLOAT, Matrix, Scalar, format_for_message, record_repr

RELATION_EQUAL = "equal"
RELATION_STRICT = "strict"

# Relative tolerance for classifying equality in float mode; exact mode
# compares exactly and is authoritative.
FLOAT_EQUALITY_RTOL = 1e-9

# The row bound (see _settled_rows): it runs when every entry lies in
# [2^-500, 2^500], and settles a row when its bound, at least _ROW_FLOOR,
# is below the least scaled entry of row i. Exact mode's slack 1 + 16u
# (u = 2^-53) covers the rounding of the bound and of the ratios; float
# mode's 1 + 8e-9 covers the rounding and then a gap of more than 7.8
# times the equality tolerance.
_ROW_RANGE = (2.0**-500, 2.0**500)
_ROW_SLACK = {EXACT: 1 + 16 * 2.0**-53, FLOAT: 1 + 8e-9}
_ROW_FLOOR = 2.0**-1000


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

    __repr__ = record_repr


class TripleSummary(NamedTuple):
    total: int
    equal: int
    strict: int
    degenerate: int
    inconsistent: int

    __repr__ = record_repr


def _equal(lhs: Sequence[Scalar], rhs: Sequence[Scalar], mode: str) -> list[bool]:
    """The one equal-vs-strict rule, entry by entry: exact equality in
    exact mode; in float mode a difference of at most
    ``FLOAT_EQUALITY_RTOL`` times the larger magnitude, so the verdict
    does not depend on the scale of the weights.

    The rule tests the difference against each magnitude in turn, which
    rounds to the same verdicts: rounding is monotonic, so ``fl(r max(|a|,
    |b|))`` is the larger of ``fl(r |a|)`` and ``fl(r |b|)``. When every
    product is finite, it runs as :func:`math.isclose` with its defaults
    (``rel_tol`` 1e-9, ``abs_tol`` 0). The two forms part only on inf and
    nan, and any of those makes the sums below non-finite.
    """
    if mode == EXACT:
        return list(map(operator.eq, lhs, rhs))
    if math.isfinite(sum(lhs) + sum(rhs)):
        return list(map(math.isclose, lhs, rhs))
    rtol = FLOAT_EQUALITY_RTOL
    return [abs(a - b) <= rtol * abs(a) or abs(a - b) <= rtol * abs(b) for a, b in zip(lhs, rhs)]


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


def _check_order(graph: MultiDigraph, forests: Optional[ForestMatrices]) -> None:
    """Raise :class:`ValueError` when ``forests`` are given and are not of
    ``graph``'s order."""
    if forests is not None and forests.matrix.order != graph.n:
        order = forests.matrix.order
        raise ValueError(f"forest matrices of order {order} given for a graph of order {graph.n}")


def check_triple(
    forests: ForestMatrices, graph: MultiDigraph, i: int, j: int, k: int
) -> BottleneckReport:
    """Classify one triple and verify it against the separator test.

    In exact mode any violation (product inequality failing, or relation
    and separator disagreeing) raises
    :class:`InconsistentWithTheoremError`, since it can only mean an
    implementation bug. Float mode records the verdict tolerantly and
    leaves judgment to the caller. Forest matrices of another order than
    ``graph`` raise :class:`ValueError`.
    """
    _check_order(graph, forests)
    separator = is_bottleneck(graph, i, j, k)
    weights = forests.matrix
    return _report(forests.mode, (i, j, k), weights.row(i), weights.row(j), separator)


class TripleReports:
    """The reports of all ordered triples, built as they are read from the
    rows of ``F`` and the sweep's dominator masks; ``summary`` holds the
    counts the sweep made.

    Each pass reads the rows of ``F`` out of the matrix once and yields
    the reports in lexicographic order, equal to those of :func:`_report`
    called triple by triple.
    """

    def __init__(self, weights: Matrix, masks: list[list[int]], summary: TripleSummary):
        self.summary = summary
        self._weights = weights
        # masks[i] is graph.dominators(i): j separates i from k exactly
        # when bit j of masks[i][k] is set.
        self._masks = masks

    def __len__(self) -> int:
        return self.summary.total

    def __iter__(self) -> Iterator[BottleneckReport]:
        mode, rows, masks = self._weights.mode, self._weights.to_lists(), self._masks
        span = range(len(rows))
        for i in span:
            for j in span:
                for k in span:
                    yield _report(mode, (i, j, k), rows[i], rows[j], bool(masks[i][k] >> j & 1))


def _bound_ratios(rows: list[list[int]]) -> list[list[float]]:
    """The doubles ``q_xy = N_xy / T`` of the integer rows ``N``, with
    ``T`` the largest ``|N_xy|`` (1 when every entry is 0).

    Each is one correctly rounded ``int / int`` division, so ``|q_xy| <=
    1``, no division overflows whatever the rows hold, and
    ``q_xy = (N_xy / T)(1 + d)`` with ``|d| <= u = 2^-53`` whenever
    ``q_xy`` is normal.
    """
    scale = max((abs(v) for row in rows for v in row), default=0) or 1
    return [[v / scale for v in row] for row in rows]


def _settled_rows(rows: list[list[Scalar]], mode: str) -> list[list[bool]]:
    """Per i and j, whether one bound settles every triple (i, j, k) of the
    stored rows ``rows`` of ``F``: equal for k = j, and for every k when
    j = i, strict for the other k. The bound reads doubles ``V``, the
    float ``F`` itself in float mode and, in exact mode, the ratios ``q``
    that :func:`_bound_ratios` derives from the integers ``N = c F``. No
    row is settled unless every entry of ``V`` lies in [2^-500, 2^500];
    then row (i, i) always is.

    Under that guard the products of two entries lie in [2^-1000,
    2^1000], normal and finite. Row (i, i) and the triple (i, j, j)
    multiply the same two numbers on both sides, so they are equal, as
    integers and as doubles alike. For the rest, column k is divided by
    ``C_k``, the mean of its off-diagonal entries, and ``w = fl(V / C)``.
    With ``M_j = max_{k≠j} w_jk`` and ``m_i = min_k w_ik``, row (i, j),
    j ≠ i, is settled when ``2^-1000 <= x < m_i`` for ``x = fl(fl(V_ij /
    V_jj) fl(M_j S))``, with the slack ``S`` of ``mode``: ``1 + 16u`` (u = 2^-53) in exact mode and ``1 +
    8e-9`` in float mode. That is O(n^2) work for all n^2 rows. (Leaving
    column j out of ``m_i`` helps only where ``M_j S`` reaches about ``w_jj``; on
    ``random_graph(n, s)`` with n up to 40 both forms settle the same
    rows.)

    ``C_k`` lies within [2^-501, 2^501], so ``w``, ``V_ij / V_jj`` and
    ``M_j S`` are normal, and so is ``x`` by its lower limit; each rounding
    adds one factor ``(1 + d)``, ``|d| <= u``. For k ≠ j,
    ``M_j >= w_jk`` and ``m_i <= w_ik``, so ``(V_ij / V_jj)(V_jk / C_k) S
    (1 - u)^4 <= x < m_i <= (V_ik / C_k)(1 + u)``: ``V_ij V_jk S (1 -
    u)^4 / (1 + u) < V_ik V_jj``, the scale ``C_k`` cancelling.

    In float mode the rule compares the doubles ``a = fl(F_ij F_jk)`` and
    ``b = fl(F_ik F_jj)``, normal and finite under the guard, so ``b > a S
    (1 - u)^5 / (1 + u)^2 > a (1 + 7.9e-9)``, and ``b - a > 7.8e-9 b``.
    ``fl(b - a) >= (b - a)(1 - u)``, or is exact where it is subnormal,
    while ``fl(1e-9 b)`` is at most ``1e-9 b (1 + 2^-44)``, absolute error
    of at most 2^-1075 included, as ``1e-9 b >= 2^-1030``. So ``fl(b - a)
    > fl(1e-9 b) >= fl(1e-9 a)``: neither the written-out rule of
    :func:`_equal` nor :func:`math.isclose` calls the triple equal.

    In exact mode the guard makes each ratio normal, so ``q = (N / T)(1 +
    d)`` and ``N_ij N_jk S (1 - u)^6 / (1 + u)^3 < N_ik N_jj``. ``1 +
    16u`` is a double, and ``(1 + 16u)(1 - u)^6 >= (1 + 16u)(1 - 6u) > (1
    + u)^3``, so ``N_ij N_jk < N_ik N_jj``: any slack above about ``9u``
    would do. Triples 1e-12 apart, those of ``random_graph(40,
    3).scaled(10**12)``, are then settled whole, where float mode's slack
    would decline every row with j ≠ i. Dividing column k by ``F_kk``
    rather than by the column mean would settle far fewer rows.
    """
    values = _bound_ratios(rows) if mode == EXACT else rows
    n = len(values)
    low, high = _ROW_RANGE
    if not all(low <= v <= high for row in values for v in row):
        return [[False] * n] * n
    scales = [(sum(c[:k]) + sum(c[k + 1 :])) / (n - 1) for k, c in enumerate(zip(*values))]
    scaled = [[v / c for v, c in zip(row, scales)] for row in values]
    slack = _ROW_SLACK[mode]
    tops = [max(w[:j] + w[j + 1 :]) * slack for j, w in enumerate(scaled)]
    diagonal = [row[j] for j, row in enumerate(values)]
    floor = _ROW_FLOOR
    settled = []
    for i, (row, w) in enumerate(zip(values, scaled)):
        least = min(w)
        flags = [floor <= v / d * t < least for v, d, t in zip(row, diagonal, tops)]
        flags[i] = True
        settled.append(flags)
    return settled


def _sweep(rows: list[list[Scalar]], masks: list[list[int]], mode: str) -> tuple[int, int]:
    """The numbers of equal and of inconsistent triples of ``F``, with
    separators from the dominator masks ``masks``: bit j of ``masks[i][k]``
    is set when j separates i from k.

    ``rows`` are the matrix's stored rows, the integers ``N = c F`` in
    exact mode, whose products give the verdicts of ``F`` because the law
    is homogeneous of degree 2, and the doubles of ``F`` in float mode.
    The row bound, then the rule: the rows that :func:`_settled_rows`
    settles are equal at k = j, and throughout row (i, i), and strict
    elsewhere; on every other row the rule of :func:`_equal` compares both
    products of all n triples. A strict triple is inconsistent exactly
    where j separates, and an equal one where j does not. In exact mode a
    triple whose product ``F_ij F_jk`` exceeds ``F_ik F_jj`` is
    inconsistent too; the bound only ever proves ``F_ij F_jk < F_ik
    F_jj``, so such a triple reaches the rule.
    """
    span = range(len(rows))
    settled = _settled_rows(rows, mode)
    equal = inconsistent = 0
    for i, row_i in enumerate(rows):
        # Every triple is strict until it is found equal, and a strict
        # triple is inconsistent exactly where j separates: bit j of
        # masks[i][k].
        masks_i, settled_i = masks[i], settled[i]
        inconsistent += sum(map(int.bit_count, masks_i))
        if settled_i[i]:
            # The separator bits of the equal triples of the settled rows:
            # all of row (i, i), and (i, j, j) of the others.
            bits = [m >> i & 1 for m in masks_i]
            bits += [masks_i[j] >> j & 1 for j in compress(span, settled_i) if j != i]
            equal += len(bits)
            inconsistent += len(bits) - 2 * sum(bits)
        for j in compress(span, map(operator.not_, settled_i)):
            row_j = rows[j]
            ij, jj = row_i[j], row_j[j]
            lhs = [ij * v for v in row_j]
            rhs = [v * jj for v in row_i]
            for k in compress(span, _equal(lhs, rhs, mode)):
                equal += 1
                inconsistent += -1 if masks_i[k] >> j & 1 else 1
            if mode == EXACT:
                inconsistent += sum(map(operator.gt, lhs, rhs))
    return equal, inconsistent


def verify_all_triples(
    graph: MultiDigraph,
    forests: Optional[ForestMatrices] = None,
    mode: str = EXACT,
) -> TripleReports:
    """The counts of all ordered triples, in ``summary``, and their
    reports, built in lexicographic order when the result is iterated.

    The checks run here, in one sweep that counts the triples that break
    the law: float mode reports them as ``inconsistent``, and exact mode,
    when there is one, raises :class:`InconsistentWithTheoremError` at the
    first in lexicographic order, by building its own reports until
    :func:`_report` raises.
    ``forests``, when given, must be the forest matrices of ``graph``; the
    sweep then runs in their mode and ignores ``mode``. Forest matrices of
    another order raise :class:`ValueError`.

    Before the sweep, the proximity matrix ``Q = F / f`` is compared with
    its transpose by the rule of :func:`_equal`. ``Q`` is symmetric exactly
    when the Laplacian is, so a mismatch on a graph whose
    :meth:`~MultiDigraph.is_symmetric` holds raises
    :class:`InconsistentWithTheoremError`, in both modes. ``Q``'s entries
    are at most 1, so a float ``F`` that overflows cannot fail the check;
    ``f > 0``, so ``F`` is symmetric exactly when ``Q`` is. On most
    digraphs the first row already differs from the first column, and the
    graph's own test ends at its first vertex.
    """
    _check_order(graph, forests)
    if forests is None:
        forests = forest_matrices(graph, mode)
    n = graph.n
    mode = forests.mode
    # Exact rows are Q's integers over one scale: equal exactly when Q's
    # entries are.
    rows = forests.proximity._rows
    symmetric = all(all(_equal(row, column, mode)) for row, column in zip(rows, zip(*rows)))
    if not symmetric and graph.is_symmetric():
        raise InconsistentWithTheoremError(
            "forest matrix of a graph with a symmetric Laplacian must be symmetric"
        )
    weights = forests.matrix
    masks = graph.dominator_masks()
    equal, inconsistent = _sweep(weights._rows, masks, mode)
    total = n**3
    # Triples with j at an endpoint or with i = k.
    degenerate = total - n * (n - 1) * (n - 2)
    summary = TripleSummary(total, equal, total - equal, degenerate, inconsistent)
    reports = TripleReports(weights, masks, summary)
    if mode == EXACT and inconsistent:
        for _ in reports:  # _report raises at the first bad triple
            pass
    return reports


def summarize(reports: TripleReports) -> TripleSummary:
    """The counts the sweep of :func:`verify_all_triples` made."""
    return reports.summary
