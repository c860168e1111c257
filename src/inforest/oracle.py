"""Brute-force enumeration of spanning converging forests.

A spanning converging forest assigns each vertex either the role of a root
or exactly one of its outgoing arcs, such that following chosen arcs never
cycles. One depth-first pass chooses for the vertices in order and drops an
arc as soon as it closes a cycle with the choices made so far, so only
acyclic prefixes are visited. The weights, exact rationals, are carried
as integers over their common denominator, so the pass never normalises a
fraction and the totals are exact for every input.
It touches no Laplacian and no elimination: this module is the ground
truth the algebraic computation is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import InstanceTooLargeError
from .graph import MultiDigraph
from .matrix import EXACT, Matrix, common_denominator, record_repr

DEFAULT_CHOICE_CAP = 10_000_000


@dataclass(frozen=True)
class InForest:
    """One spanning converging forest.

    ``arc_choice[v]`` is the index (into the graph's arc list) of the arc
    leaving v, or None when v is a root. ``root_of[v]`` is the terminal
    vertex of v's successor chain.
    """

    arc_choice: tuple[Optional[int], ...]
    root_of: tuple[int, ...]
    weight: Fraction

    __repr__ = record_repr

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, choice in enumerate(self.arc_choice) if choice is None)


@dataclass(frozen=True)
class OracleResult:
    """Totals assembled from an exhaustive forest enumeration."""

    total_weight: Fraction
    matrix: Matrix
    forest_count: int

    __repr__ = record_repr


def choice_count(graph: MultiDigraph) -> int:
    """Number of per-vertex choice vectors, the product of out-degree + 1.

    The enumeration cap bounds this count. The pass itself visits only
    the acyclic prefixes among these vectors, so it may do far less work.
    """
    return math.prod(graph.out_degree(v) + 1 for v in range(graph.n))


def enumerate_in_forests(graph: MultiDigraph) -> Iterator[InForest]:
    """Yield every spanning converging forest exactly once.

    Choices run in lexicographic order over the vertices 0..n-1, root
    first and then each out-arc. Parallel arcs yield distinct forests. The
    arcless forest (all vertices roots, weight 1) comes first. Raises
    :class:`InstanceTooLargeError` before yielding anything when the choice
    space exceeds :data:`DEFAULT_CHOICE_CAP`.
    """
    factors, unit, divisor = _factors(graph)
    for choice, roots, weight in _forests(graph, factors, unit):
        yield InForest(arc_choice=tuple(choice), root_of=roots, weight=Fraction(weight, divisor))


def oracle_matrices(graph: MultiDigraph) -> OracleResult:
    """Total forest weight and forest-weight matrix by direct enumeration.

    Forests with the same root map (``root_of``) add to the same entries,
    so the weights are summed per root map and spread over the rows of the
    matrix only at the end. They are summed as integers over the common
    denominator ``D**n``, which becomes the matrix's scale. Raises
    :class:`InstanceTooLargeError`, as :func:`enumerate_in_forests` does.
    """
    factors, unit, divisor = _factors(graph)
    by_roots: dict[tuple[int, ...], int] = {}
    count = 0
    for count, (_, roots, weight) in enumerate(_forests(graph, factors, unit), 1):
        by_roots[roots] = by_roots.get(roots, 0) + weight
    n = graph.n
    rows = [[0] * n for _ in range(n)]
    for roots, weight in by_roots.items():
        for v, root in enumerate(roots):
            rows[v][root] += weight
    total = Fraction(sum(by_roots.values()), divisor)
    return OracleResult(total, Matrix._wrap(rows, EXACT, divisor), count)


def _factors(graph: MultiDigraph) -> tuple[list[int], int, int]:
    """The factor of each arc and of a root, and the divisor that turns a
    product of ``n`` factors into a forest weight: the arc weights as
    integers ``N_a`` over their common denominator ``D``, ``D`` for a root,
    and ``D**n``, since every forest's product is its weight times that."""
    (numerators,), common = common_denominator([[arc.weight for arc in graph.arcs]])
    return numerators, common, common**graph.n


def _forests(
    graph: MultiDigraph, factors: list[int], unit: int
) -> Iterator[tuple[list[Optional[int]], tuple[int, ...], int]]:
    """The one depth-first pass: yield ``(choice, root_of, product)`` for
    every spanning converging forest, in :func:`enumerate_in_forests`'s
    order. ``choice`` is the pass's own list, valid until the next item;
    ``product`` multiplies, in vertex order, ``unit`` for each root and
    ``factors[a]`` for each chosen arc a.

    The options of a vertex are its root, then the indices of its out-arcs
    in ``graph.arcs`` order, grouped by tail in one pass over the arcs.
    This is the one place that compares :func:`choice_count` with
    :data:`DEFAULT_CHOICE_CAP`."""
    total_choices = choice_count(graph)
    if total_choices > DEFAULT_CHOICE_CAP:
        raise InstanceTooLargeError(
            f"{total_choices} choice vectors exceed the enumeration cap {DEFAULT_CHOICE_CAP}"
        )
    n = graph.n
    heads = [arc.head for arc in graph.arcs]
    options = [[(None, unit)] for _ in range(n)]
    for index, arc in enumerate(graph.arcs):
        options[arc.tail].append((index, factors[index]))
    choice: list[Optional[int]] = [None] * n
    # prefix[v] is the product of the factors chosen at the vertices below v.
    prefix = [1] * (n + 1)
    tried = [0] * n
    # Backtrack by index rather than by recursion, so a graph with more
    # vertices than the recursion limit still enumerates.
    v = 0
    while v >= 0:
        if v == n:
            # A list gives tuple() the final size. From a generator it
            # over-allocates and shrinks, and the freed tuples of this size
            # then pile up unreused (about 200 KB at n=8).
            yield choice, tuple([_follow(choice, heads, u, n) for u in range(n)]), prefix[n]
            v -= 1
        elif tried[v] == len(options[v]):
            tried[v] = 0
            v -= 1
        else:
            arc, factor = options[v][tried[v]]
            tried[v] += 1
            if arc is None or _follow(choice, heads, heads[arc], v) != v:
                choice[v] = arc
                prefix[v + 1] = prefix[v] * factor
                v += 1


def _follow(choice: list[Optional[int]], heads: list[int], u: int, limit: int) -> int:
    """Follow the chosen arcs from u while below ``limit``; return where
    the walk stops. The choices below ``limit`` must form a forest, so an
    arc v -> h closes a cycle with them exactly when the walk from h with
    limit v stops at v."""
    while u < limit and choice[u] is not None:
        u = heads[choice[u]]
    return u
