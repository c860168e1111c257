"""Shared graph builders, seeded corpora, and hypothesis strategies."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from inforest import (
    EXACT,
    Matrix,
    MultiDigraph,
    NotConvergedError,
    SeriesSum,
    choose_epsilon,
    complete_graph,
    cycle_graph,
    path_graph,
    step_matrix,
)
from inforest.matrix import scalar

CORPUS_SEED = 20260809


def make_path(a=1, b=1) -> MultiDigraph:
    """Three-vertex directed path 0 -> 1 -> 2 with arc weights a and b."""
    return MultiDigraph(3, [(0, 1, a), (1, 2, b)])


def make_triangle(w01=1, w12=1, w02=1) -> MultiDigraph:
    """Acyclic triangle: arcs 0->1, 1->2 and the chord 0->2."""
    return MultiDigraph(3, [(0, 1, w01), (1, 2, w12), (0, 2, w02)])


def make_two_cycle(a=1, b=1) -> MultiDigraph:
    return MultiDigraph(2, [(0, 1, a), (1, 0, b)])


def random_multidigraph(seed, min_n=2, max_n=5, max_arcs=8, weight_limit=5) -> MultiDigraph:
    """Seeded random multidigraph with parallel arcs allowed and rational
    weights p/q, p and q uniform in 1..weight_limit."""
    rng = random.Random(seed)
    n = rng.randint(min_n, max_n)
    arcs = []
    for _ in range(rng.randint(0, max_arcs)):
        tail = rng.randrange(n)
        head = rng.randrange(n - 1)
        if head >= tail:
            head += 1
        weight = Fraction(rng.randint(1, weight_limit), rng.randint(1, weight_limit))
        arcs.append((tail, head, weight))
    return MultiDigraph(n, arcs)


def random_undirected(seed, min_n=2, max_n=5, max_edges=6, weight_limit=5):
    """Seeded random undirected multigraph as (n, edge list)."""
    rng = random.Random(seed ^ 0x5EED)
    n = rng.randint(min_n, max_n)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        weight = Fraction(rng.randint(1, weight_limit), rng.randint(1, weight_limit))
        edges.append((u, v, weight))
    return n, edges


def reference_separators(n, arcs, i, undirected=False) -> list[list[bool]]:
    """Reference separator table of start vertex i: row j, entry k, is True
    when every directed path from i to k contains j.

    ``arcs`` are ``(tail, head, weight)`` triples, read both ways when
    ``undirected``; the adjacency is built from them once, not from the
    graph's own successor lists. Row i and entry j of row j are True (the
    endpoints lie on every path), entry i of any other row is False (the
    zero-length path from i to i contains only i), and the rest come from
    one breadth-first search from i that never enters j.
    """
    neighbors = [set() for _ in range(n)]
    for tail, head, _ in arcs:
        neighbors[tail].add(head)
        if undirected:
            neighbors[head].add(tail)
    table = []
    for j in range(n):
        if j == i:
            table.append([True] * n)
            continue
        seen = {i}
        queue = deque([i])
        while queue:
            for w in neighbors[queue.popleft()]:
                if w != j and w not in seen:
                    seen.add(w)
                    queue.append(w)
        table.append([k == j or (k != i and k not in seen) for k in range(n)])
    return table


def reference_forests(graph: MultiDigraph):
    """Every spanning converging forest as (arc_choice, root_of, weight),
    by brute force in ``itertools.product`` order over the per-vertex
    choices (root first, then each out-arc).

    A choice vector is kept when the successor walk from every vertex
    reaches a root within n steps; a walk still moving after n steps is on
    a cycle. The weight is the product of the stored exact arc weights,
    multiplied in vertex order from one.
    """
    n = graph.n
    forests = []
    for choice in product(*[(None,) + graph.out_arcs(v) for v in range(n)]):
        roots = []
        for v in range(n):
            u = v
            for _ in range(n):
                if choice[u] is None:
                    break
                u = graph.arcs[choice[u]].head
            if choice[u] is not None:
                break
            roots.append(u)
        else:
            weight = Fraction(1)
            for arc in choice:
                if arc is not None:
                    weight *= graph.arcs[arc].weight
            forests.append((choice, tuple(roots), weight))
    return forests


def reference_series(matrix: Matrix, tolerance, max_terms=100_000) -> SeriesSum:
    """The route series term by term: add ``A^0, A^1, ...`` until the next
    term's max-abs norm is below ``tolerance``, with one product per term.

    Returns the sum, the number of terms added and the norm of the last
    one; raises :class:`NotConvergedError` when ``max_terms`` terms were
    added and the next is still at or above tolerance.
    """
    total = Matrix.zeros(matrix.order, matrix.mode)
    term = Matrix.identity(matrix.order, matrix.mode)
    last_norm = total.max_abs()  # zero in the matrix's mode
    used = 0
    while term.max_abs() >= tolerance:
        if used == max_terms:
            raise NotConvergedError(f"{max_terms} terms were not enough")
        total = total + term
        last_norm = term.max_abs()
        used += 1
        term = term @ matrix
    return SeriesSum(total, used, last_norm)


def route_weights_by_length(graph: MultiDigraph, source, length, eps=None, mode=EXACT) -> list:
    """Reference route weights: walk every route of exactly ``length`` arcs
    from ``source`` in the loop-augmented graph and sum the weights of the
    routes per endpoint; eps is :func:`choose_epsilon` when None.

    The loop at v weighs the diagonal entry ``(v, v)`` of the public step
    matrix, and an arc of weight w weighs ``eps / (1 + eps) * w``, parallel
    arcs apart. In exact mode the sums equal row ``source`` of the step
    matrix to the power ``length``; that equality is what the tests check.
    """
    step = step_matrix(graph, eps, mode)  # checks eps
    value = scalar(choose_epsilon(graph) if eps is None else eps, mode)
    factor = value / (1 + value)
    arcs = graph.arcs
    adjacency = [
        [(v, step[v, v])]
        + [(arcs[a].head, factor * scalar(arcs[a].weight, mode)) for a in graph.out_arcs(v)]
        for v in range(graph.n)
    ]
    totals = [scalar(0, mode)] * graph.n
    # Depth first with an explicit stack, so long routes cannot exhaust the
    # recursion limit.
    stack = [(source, length, scalar(1, mode))]
    while stack:
        vertex, remaining, weight = stack.pop()
        if remaining == 0:
            totals[vertex] += weight
        else:
            stack += [(head, remaining - 1, weight * w) for head, w in adjacency[vertex]]
    return totals


def matrix_power(matrix: Matrix, exponent: int) -> Matrix:
    """``matrix`` to a nonnegative power by repeated products, one per factor."""
    result = Matrix.identity(matrix.order, matrix.mode)
    for _ in range(exponent):
        result = result @ matrix
    return result


def transpose(matrix: Matrix) -> Matrix:
    return Matrix(zip(*matrix.to_lists()), matrix.mode)


def corpus(count=200, base_seed=CORPUS_SEED, **kwargs):
    return [random_multidigraph(base_seed + i, **kwargs) for i in range(count)]


def fixture_graphs():
    return [
        path_graph(3),
        cycle_graph(3),
        cycle_graph(4),
        complete_graph(3),
        complete_graph(4),
        make_triangle(),
    ]


@st.composite
def multidigraphs(draw, max_n=4, max_arcs=6, weight_limit=4):
    n = draw(st.integers(2, max_n))
    arcs = []
    for _ in range(draw(st.integers(0, max_arcs))):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 2))
        if head >= tail:
            head += 1
        weight = Fraction(draw(st.integers(1, weight_limit)), draw(st.integers(1, weight_limit)))
        arcs.append((tail, head, weight))
    return MultiDigraph(n, arcs)
