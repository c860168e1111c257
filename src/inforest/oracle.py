"""Brute-force enumeration of spanning converging forests.

A spanning converging forest assigns each vertex either the role of a root
or exactly one of its outgoing arcs, such that following chosen arcs never
cycles. One depth-first pass chooses for the vertices in order and drops an
arc as soon as it closes a cycle with the choices made so far, so only
acyclic prefixes are visited. It touches no Laplacian and no elimination:
this module is the ground truth the algebraic computation is tested
against, so transparency beats speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InstanceTooLargeError
from .graph import MultiDigraph
from .matrix import EXACT, FLOAT, Matrix, Scalar, one_scalar, scalar, zero_scalar

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
    weight: Scalar

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, choice in enumerate(self.arc_choice) if choice is None)


@dataclass(frozen=True)
class OracleResult:
    """Totals assembled from an exhaustive forest enumeration."""

    total_weight: Scalar
    matrix: Matrix
    forest_count: int


def choice_count(graph: MultiDigraph) -> int:
    """Number of per-vertex choice vectors, the product of out-degree + 1.

    The enumeration cap bounds this count. The pass itself visits only
    the acyclic prefixes among these vectors, so it may do far less work.
    """
    return math.prod(graph.out_degree(v) + 1 for v in range(graph.n))


def enumerate_in_forests(
    graph: MultiDigraph, cap: int = DEFAULT_CHOICE_CAP
) -> Iterator[InForest]:
    """Yield every spanning converging forest exactly once.

    Choices run in lexicographic order over the vertices 0..n-1, root
    first and then each out-arc. Parallel arcs yield distinct forests. The
    arcless forest (all vertices roots, weight 1) comes first. Raises
    :class:`InstanceTooLargeError` before yielding anything when the choice
    space exceeds ``cap``.
    """
    total_choices = choice_count(graph)
    if total_choices > cap:
        raise InstanceTooLargeError(
            f"{total_choices} choice vectors exceed the enumeration cap {cap}"
        )
    n = graph.n
    mode = EXACT if graph.has_rational_weights() else FLOAT
    heads = [arc.head for arc in graph.arcs]
    weights = [scalar(arc.weight, mode) for arc in graph.arcs]
    options = [(None,) + graph.out_arcs(v) for v in range(n)]
    choice: list[Optional[int]] = [None] * n
    # prefix[v] is the weight of the arcs chosen at the vertices below v.
    prefix: list[Scalar] = [one_scalar(mode)] * (n + 1)
    tried = [0] * n
    # Backtrack by index rather than by recursion, so a graph with more
    # vertices than the recursion limit still enumerates.
    v = 0
    while v >= 0:
        if v == n:
            # A list gives tuple() the final size. From a generator it
            # over-allocates and shrinks, and the freed tuples of this size
            # then pile up unreused (about 200 KB at n=8).
            roots = tuple([_follow(choice, heads, u, n) for u in range(n)])
            yield InForest(arc_choice=tuple(choice), root_of=roots, weight=prefix[n])
            v -= 1
        elif tried[v] == len(options[v]):
            tried[v] = 0
            v -= 1
        else:
            arc = options[v][tried[v]]
            tried[v] += 1
            if arc is None or _follow(choice, heads, heads[arc], v) != v:
                choice[v] = arc
                prefix[v + 1] = prefix[v] if arc is None else prefix[v] * weights[arc]
                v += 1


def _follow(choice: list[Optional[int]], heads: list[int], u: int, limit: int) -> int:
    """Follow the chosen arcs from u while below ``limit``; return where
    the walk stops. The choices below ``limit`` must form a forest, so an
    arc v -> h closes a cycle with them exactly when the walk from h with
    limit v stops at v."""
    while u < limit and choice[u] is not None:
        u = heads[choice[u]]
    return u


def oracle_matrices(graph: MultiDigraph, cap: int = DEFAULT_CHOICE_CAP) -> OracleResult:
    """Total forest weight and forest-weight matrix by direct enumeration."""
    mode = EXACT if graph.has_rational_weights() else FLOAT
    zero = zero_scalar(mode)
    total = zero
    count = 0
    rows = [[zero] * graph.n for _ in range(graph.n)]
    for forest in enumerate_in_forests(graph, cap=cap):
        total += forest.weight
        count += 1
        for v in range(graph.n):
            rows[v][forest.root_of[v]] += forest.weight
    return OracleResult(total_weight=total, matrix=Matrix(rows, mode), forest_count=count)
