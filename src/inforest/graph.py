"""Weighted directed multigraphs and their matrix views.

Vertices are dense 0-based indices (file formats and the CLI are 1-based).
Parallel arcs are stored individually; total weights are summed only where
a matrix view needs them, so enumeration over individual arcs and algebra
over summed weights can be cross-checked against each other. Every arc
weight is stored as the exact rational it denotes, a float weight as its
double's own value; only the float Laplacian rounds it back to a double.

The graph runs one search, the depth-first :meth:`MultiDigraph._postorder`:
it gives :meth:`MultiDigraph.reachable` its vertex set and the dominators'
data flow its order.
"""

from __future__ import annotations

import math
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
from .matrix import EXACT, Matrix, common_denominator, format_for_message, record_repr, scalar

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

    __repr__ = record_repr


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

    __slots__ = ("n", "arcs", "_successors", "_predecessors")

    def __init__(self, n: int, arcs: Iterable = ()):
        if n < 2:
            raise TooFewVerticesError(f"graphs need at least 2 vertices, got {n}")
        if n > MAX_VERTICES:
            raise InstanceTooLargeError(
                f"graphs have at most {MAX_VERTICES} vertices, got {format_for_message(n)}"
            )
        self.n = n
        checked = []
        # Per vertex, the heads of its out-arcs and the tails of its in-arcs,
        # one entry per arc: the one search, _postorder, and the dominators'
        # data flow read them, and out_degree counts the heads.
        successors: list[list[int]] = [[] for _ in range(n)]
        predecessors: list[list[int]] = [[] for _ in range(n)]
        for tail, head, weight in arcs:
            # An arc as the parser and the generators give it passes one
            # test; any other takes the checks one by one, in the order
            # that picks its error.
            if not (
                type(tail) is int
                and type(head) is int
                and 0 <= tail < n
                and 0 <= head < n
                and tail != head
                and type(weight) is Fraction
                and weight.numerator > 0
            ):
                self.check_vertex(tail)
                self.check_vertex(head)
                if tail == head:
                    raise LoopArcError(f"arc {tail}->{head} is a loop")
                weight = _check_weight(weight)
            # What Arc(tail, head, weight) builds, without its Python-level __new__.
            checked.append(tuple.__new__(Arc, (tail, head, weight)))
            successors[tail].append(head)
            predecessors[head].append(tail)
        self.arcs = tuple(checked)
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
        """``v``; raises :class:`VertexOutOfRangeError` unless ``v`` is an
        ``int`` with ``0 <= v < n``."""
        if not isinstance(v, int):
            raise VertexOutOfRangeError(f"vertex {v!r} is not an integer")
        if not (0 <= v < self.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def out_degree(self, v: int) -> int:
        return len(self._successors[self.check_vertex(v)])

    def is_symmetric(self) -> bool:
        """True when the exact Laplacian equals its transpose: for every
        pair (t, h), the arcs from t to h have the same total weight as the
        arcs from h to t.

        Every weight is positive, so each vertex must first have the same
        distinct successors as predecessors. That test needs no arithmetic
        and ends at the first vertex that fails it, which on a random
        digraph is nearly always the first. Parallel arcs may split a total
        differently in the two directions, so the exact Laplacian's
        integer rows decide last, with no ``Fraction`` built.
        """
        if any(set(s) != set(p) for s, p in zip(self._successors, self._predecessors)):
            return False
        rows = self.laplacian()._rows
        return rows == [list(column) for column in zip(*rows)]

    def laplacian(self, mode: str = EXACT) -> Matrix:
        """Row-sum-zero matrix: off-diagonal entry (i, j) is minus the total
        weight of the arcs from i to j, and diagonal entry i is the total
        out-weight of i.

        Exact mode builds the integer rows over ``D``, the least common
        multiple of the weights' denominators, straight from the arcs. This
        is the one place where an arc weight becomes a double: float
        mode rounds each stored weight through :func:`scalar` to the
        nearest one, which for a float-typed weight is the given double
        itself. A double cannot hold every positive rational, so a weight
        that rounds to zero, or an out-weight total that overflows (a
        weight beyond the doubles is infinite), raises
        :class:`NonPositiveWeightError`, as a non-finite float weight does
        when the graph is built.
        """
        if mode == EXACT:
            (values,), scale = common_denominator([[arc.weight for arc in self.arcs]])
            zero = 0
        else:
            zero, scale = scalar(0, mode), 1
            values = [scalar(arc.weight, mode) for arc in self.arcs]
        rows = [[zero] * self.n for _ in range(self.n)]
        for (tail, head, weight), value in zip(self.arcs, values):
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
        return Matrix._wrap(rows, mode, scale)

    def max_out_weight(self) -> Fraction:
        """Largest total out-weight over all vertices, exact: the max-norm of
        the exact Laplacian, whose largest entry is on its diagonal, since no
        off-diagonal ``|L_ij|`` exceeds ``L_ii``."""
        return self.laplacian().max_abs()

    # No library path calls this method; it stays because the benchmark's
    # tracer patches it (PATCH_POINTS in perfbench/spans.py, which
    # tests/test_trace_points.py checks).
    def reachable(self, source: int) -> frozenset[int]:
        """Vertices reachable from ``source`` along directed paths; the
        source itself is always included. The search is
        :meth:`_postorder`, the one the dominators run."""
        return frozenset(self._postorder(self.check_vertex(source), self._successors))

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
        return self._dominators(root, self._successors, self._predecessors)

    def dominator_masks(self) -> list[list[int]]:
        """``[self.dominators(i) for i in range(n)]``: bit j of entry [i][k]
        is set when every path from i to k visits j.

        Four passes of :meth:`dominators` come first: the flow graphs G(0)
        and G(1), and the reverse ones Gᴿ(0) and Gᴿ(1), the same data flow
        with the arcs read backwards. If every mask v of pass r is ``{r,
        v}``, just ``{r}`` at v = r, then every mask [i][k] is ``{i, k}``,
        just ``{i}`` at k = i, and no other pass runs. Otherwise the
        forward passes already run are kept, and those of the other start
        vertices follow.

        Proof. For n = 2 every mask [i][k] of every graph has that form,
        since a mask holds its endpoints and there is no third vertex. For
        n >= 3 an unreachable vertex's mask has all n bits, so the four
        passes show that G(0) and Gᴿ(0) reach every vertex: G is strongly
        connected. Suppose j ∉ {i, k} lies on every path from i to k, and
        take r in {0, 1} with r ≠ j. If some path from i to r and some
        path from r to k both avoided j, the walk they make would hold a
        path from i to k that avoids j. So j lies on every path from r to
        k, and mask k of G(r) holds j ∉ {r, k}, or on every path from i to
        r, and mask i of Gᴿ(r) holds j ∉ {r, i}. The four passes rule out
        both, so only the endpoints lie on every path. This is the test
        for strong articulation points of Italiano, Laura and Santaroni,
        "Finding strong bridges and strong articulation points in linear
        time" (2012): G is strongly connected, and no vertex whose removal
        splits it exists.
        """
        n, forward, reverse = self.n, self._successors, self._predecessors
        kept = []
        for root in (0, 1):
            trivial = [1 << root | 1 << v for v in range(n)]
            for heads, predecessors in ((forward, reverse), (reverse, forward)):
                masks = self._dominators(root, heads, predecessors)
                if heads is forward:
                    kept.append(masks)
                if masks != trivial:
                    rest = range(len(kept), n)
                    return kept + [self._dominators(i, forward, reverse) for i in rest]
        bits = [1 << v for v in range(n)]
        return [[bit | other for other in bits] for bit in bits]

    def _dominators(self, root: int, heads, predecessors) -> list[int]:
        """The data flow of :meth:`dominators` rooted at ``root``, along
        the arcs ``v -> w`` for ``w`` in ``heads[v]``, with ``predecessors``
        their reverse; the two swapped give the reverse graph's."""
        postorder = self._postorder(root, heads)
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

    def _postorder(self, root: int, heads) -> list[int]:
        """The vertices reachable from ``root`` along the arcs ``v -> w``
        for ``w`` in ``heads[v]``, in the postorder of an iterative
        depth-first search, so ``root`` comes last."""
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
        return postorder

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
