"""Weighted directed multigraphs and their matrix views.

Vertices are dense 0-based indices (file formats and the CLI are 1-based).
Parallel arcs are stored individually; total weights are summed only where
a matrix view needs them, so enumeration over individual arcs and algebra
over summed weights can be cross-checked against each other. Every arc
weight is stored as the exact rational it denotes, a float weight as its
double's own value; only the float Laplacian rounds it back to a double.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from numbers import Rational
from typing import Iterable, NamedTuple, Union

from .errors import (
    InstanceTooLargeError,
    LoopArcError,
    NonPositiveWeightError,
    TooFewVerticesError,
    VertexOutOfRangeError,
)
from .matrix import EXACT, Matrix, format_for_message, scalar

Weight = Union[Fraction, int, float]

# The most vertices a graph may have. At 4096 one n x n list of references
# takes 128 MiB and a float solve takes hours, so the limit refuses nothing
# the library could finish; it is checked before any per-vertex list is
# allocated.
MAX_VERTICES = 4096


class Arc(NamedTuple):
    """One weighted arc. Parallel arcs between the same endpoints are distinct."""

    tail: int
    head: int
    weight: Fraction


def _check_weight(weight: Weight) -> Fraction:
    if isinstance(weight, float) and not math.isfinite(weight):
        raise NonPositiveWeightError(f"arc weight must be finite, got {weight!r}")
    if not isinstance(weight, (int, float, Rational)):
        raise NonPositiveWeightError(f"arc weight must be a number, got {type(weight).__name__}")
    if weight <= 0:
        raise NonPositiveWeightError(
            f"arc weight must be positive, got {format_for_message(weight)}"
        )
    return scalar(weight, EXACT)


class MultiDigraph:
    """Loop-free weighted directed multigraph on vertices ``0..n-1``.

    Immutable after construction; all derived views are pure functions of
    the vertex count and the arc list, so instances are safe to share.
    """

    __slots__ = ("n", "arcs", "_out", "_successors", "_predecessors")

    def __init__(self, n: int, arcs: Iterable = ()):
        if n < 2:
            raise TooFewVerticesError(f"graphs need at least 2 vertices, got {n}")
        if n > MAX_VERTICES:
            raise InstanceTooLargeError(
                f"graphs have at most {MAX_VERTICES} vertices, got {format_for_message(n)}"
            )
        self.n = n
        checked = []
        out: list[list[int]] = [[] for _ in range(n)]
        # Per vertex, the heads of its out-arcs and the tails of its in-arcs,
        # one entry per arc: the searches of reachable and dominators read them.
        successors: list[list[int]] = [[] for _ in range(n)]
        predecessors: list[list[int]] = [[] for _ in range(n)]
        for index, raw in enumerate(arcs):
            tail, head, weight = raw
            self.check_vertex(tail)
            self.check_vertex(head)
            if tail == head:
                raise LoopArcError(f"arc {tail}->{head} is a loop")
            checked.append(Arc(tail, head, _check_weight(weight)))
            out[tail].append(index)
            successors[tail].append(head)
            predecessors[head].append(tail)
        self.arcs = tuple(checked)
        self._out = tuple(tuple(indices) for indices in out)
        self._successors = tuple(map(tuple, successors))
        self._predecessors = tuple(map(tuple, predecessors))

    @classmethod
    def from_undirected(cls, n: int, edges: Iterable) -> "MultiDigraph":
        """Build the digraph that replaces every edge by two opposite arcs."""
        arcs = []
        for tail, head, weight in edges:
            arcs.append((tail, head, weight))
            arcs.append((head, tail, weight))
        return cls(n, arcs)

    def check_vertex(self, v: int) -> int:
        """``v``; raises :class:`VertexOutOfRangeError` unless ``0 <= v < n``."""
        if not (0 <= v < self.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def out_arcs(self, v: int) -> tuple[int, ...]:
        """Indices into ``arcs`` of the arcs leaving ``v``."""
        return self._out[self.check_vertex(v)]

    def out_degree(self, v: int) -> int:
        return len(self._out[self.check_vertex(v)])

    def laplacian(self, mode: str = EXACT) -> Matrix:
        """Row-sum-zero matrix: off-diagonal entry (i, j) is minus the total
        weight of the arcs from i to j, and diagonal entry i is the total
        out-weight of i.

        This is the one place where an arc weight becomes a double: float
        mode rounds each stored weight to the nearest one, which for a
        float-typed weight is the given double itself. A double cannot hold
        every positive rational, so a weight that rounds to zero, or an
        out-weight total that overflows, raises
        :class:`NonPositiveWeightError`, as a non-finite float weight does
        when the graph is built.
        """
        zero = scalar(0, mode)
        rows = [[zero] * self.n for _ in range(self.n)]
        for tail, head, weight in self.arcs:
            value = scalar(weight, mode)
            if not value > 0:
                raise NonPositiveWeightError(f"weight {format_for_message(weight)} rounds to 0.0")
            rows[tail][head] -= value
        for i, row in enumerate(rows):
            # Minus the row sum in column order: the same double as the sum
            # of the positive weights in that order. Zero entries are left
            # out: the others are negative, so adding +0.0 never changes
            # a partial sum.
            row[i] = zero - sum(filter(None, row), zero)
            if not row[i] < math.inf:
                raise NonPositiveWeightError(f"out-weight of vertex {i} overflows a double")
        return Matrix._wrap(rows, mode)

    def max_out_weight(self) -> Fraction:
        """Largest total out-weight over all vertices (the largest Laplacian
        diagonal entry), exact."""
        totals = [Fraction(0)] * self.n
        for arc in self.arcs:
            totals[arc.tail] = totals[arc.tail] + arc.weight
        return max(totals)

    # No library path calls this search; it stays because the benchmark's
    # tracer patches it (PATCH_POINTS in perfbench/spans.py, which
    # tests/test_trace_points.py checks).
    def reachable(self, source: int) -> frozenset[int]:
        """Vertices reachable from ``source`` along directed paths; the
        source itself is always included."""
        self.check_vertex(source)
        seen = {source}
        queue = deque([source])
        while queue:
            for head in self._successors[queue.popleft()]:
                if head not in seen:
                    seen.add(head)
                    queue.append(head)
        return frozenset(seen)

    def dominators(self, root: int) -> list[int]:
        """Dominator sets of the flow graph rooted at ``root``, as bit masks.

        Bit u of entry v is set when every path from ``root`` to v visits u,
        v itself included. No path reaches a vertex unreachable from
        ``root``, so its entry has every bit set. This is the iterative data
        flow ``D[v] = {v} | meet of D[p] over the predecessors p``, started
        from every bit and run in reverse postorder of a depth-first search:
        the set formulation in section 2 of Cooper, Harvey and Kennedy, "A
        Simple, Fast Dominance Algorithm" (2001). Every set holds the
        root's bit, so a meet that has shrunk to the root alone can shrink
        no further, and the remaining predecessors are skipped.
        """
        self.check_vertex(root)
        heads, predecessors = self._successors, self._predecessors
        postorder = []
        seen = [False] * self.n
        seen[root] = True
        stack = [(root, iter(heads[root]))]
        while stack:
            v, successors = stack[-1]
            for w in successors:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(heads[w])))
                    break
            else:
                stack.pop()
                postorder.append(v)
        every = (1 << self.n) - 1
        floor = 1 << root
        dominators = [every] * self.n
        dominators[root] = floor
        changed = True
        while changed:
            changed = False
            for v in reversed(postorder[:-1]):
                meet = every
                for p in predecessors[v]:
                    meet &= dominators[p]
                    if meet == floor:
                        break
                meet |= 1 << v
                if dominators[v] != meet:
                    dominators[v] = meet
                    changed = True
        return dominators

    def scaled(self, factor: Weight) -> "MultiDigraph":
        """Copy of the graph with every arc weight multiplied by ``factor``."""
        factor = _check_weight(factor)
        return MultiDigraph(
            self.n, [(a.tail, a.head, a.weight * factor) for a in self.arcs]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiDigraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"MultiDigraph(n={self.n}, arcs={list(self.arcs)!r})"
