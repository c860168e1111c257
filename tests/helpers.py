"""Shared graph builders, seeded corpora, and hypothesis strategies."""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from inforest import (
    EXACT,
    FLOAT,
    GraphFormatError,
    LoopArcError,
    Matrix,
    MultiDigraph,
    NotConvergedError,
    ParsedGraph,
    SeriesSum,
    choose_epsilon,
    complete_graph,
    cycle_graph,
    parse_weight,
    path_graph,
    random_graph,
    step_matrix,
)
from inforest.bottleneck import _equal
from inforest.graph import Arc, _check_weight
from inforest.io import _parsed_graph
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


def detour_graph() -> MultiDigraph:
    """``random_graph(30, 11)`` with a detour 4 -> 30 -> 7 through a new
    vertex 30."""
    return MultiDigraph(31, [*random_graph(30, 11).arcs, (4, 30, 2), (30, 7, 3)])


def sink_graph() -> MultiDigraph:
    """``random_graph(30, 1)`` without vertex 0's out-arcs: dense, with a
    sink, whose zero entries keep the sweep's row bound off every row."""
    return MultiDigraph(30, [arc for arc in random_graph(30, 1).arcs if arc.tail != 0])


def dag_graph(n=40, p=0.1, seed=5) -> MultiDigraph:
    """Seeded DAG on ``n`` vertices: each arc (u, v), u < v, is drawn with
    probability ``p`` and weighted p/q, p and q uniform in 1..5."""
    rng = random.Random(seed)
    arcs = [
        (u, v, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return MultiDigraph(n, arcs)


def tiny_paths(count=6, seed=3) -> list[MultiDigraph]:
    """Seeded 9-vertex paths with two arcs of weight 1e-152 to 1e-162 times
    1 to 9, and the others between 1/9 and 9. The products of two entries
    of ``F / f`` across both arcs lie near and below 2^-1000, down into the
    subnormal range, where a double keeps few digits."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(8)]
        for v in (0, rng.randint(3, 6)):
            weights[v] = Fraction(rng.randint(1, 9), 10 ** rng.randint(152, 162))
        graphs.append(MultiDigraph(9, [(v, v + 1, w) for v, w in enumerate(weights)]))
    return graphs


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


def _arc_neighbors(n, arcs, undirected=False) -> list[set]:
    """Per vertex, the heads of its arcs among ``arcs``, ``(tail, head,
    weight)`` triples, and the tails of its in-arcs too when ``undirected``:
    an adjacency built from the arc list, not from a graph's own successor
    lists."""
    neighbors = [set() for _ in range(n)]
    for tail, head, _ in arcs:
        neighbors[tail].add(head)
        if undirected:
            neighbors[head].add(tail)
    return neighbors


def _breadth_first(neighbors, source, avoid=None) -> set:
    """The vertices a breadth-first search from ``source`` reaches without
    entering ``avoid``."""
    seen = {source}
    queue = deque([source])
    while queue:
        for w in neighbors[queue.popleft()]:
            if w != avoid and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def reference_reachable(n, arcs, source) -> set:
    """Vertices reachable from ``source``: a breadth-first search over an
    adjacency built from ``arcs``, where ``MultiDigraph.reachable`` runs a
    depth-first search over the graph's successor lists."""
    return _breadth_first(_arc_neighbors(n, arcs), source)


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
    neighbors = _arc_neighbors(n, arcs, undirected)
    table = []
    for j in range(n):
        if j == i:
            table.append([True] * n)
            continue
        seen = _breadth_first(neighbors, i, avoid=j)
        table.append([k == j or (k != i and k not in seen) for k in range(n)])
    return table


def reference_arcs(n, arcs) -> tuple:
    """The arcs ``MultiDigraph(n, arcs)`` stores, checked one by one as
    the constructor first did: both endpoints by ``check_vertex``, then
    the loop test, then the weight. Raises the first error on the first
    bad arc."""
    graph = MultiDigraph(n)
    checked = []
    for tail, head, weight in arcs:
        graph.check_vertex(tail)
        graph.check_vertex(head)
        if tail == head:
            raise LoopArcError(f"arc {tail}->{head} is a loop")
        checked.append(Arc(tail, head, _check_weight(weight)))
    return tuple(checked)


def reference_parse_text(text: str) -> ParsedGraph:
    """:func:`inforest.parse_graph_text` as a plain per-line loop that
    checks each field of an arc line in turn: the tail, the head, then the
    weight."""
    header = None
    n = 0
    entries = []
    line_numbers = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2 or tokens[0] not in ("digraph", "graph"):
                raise GraphFormatError(f"line {line_no}: expected 'digraph <n>' or 'graph <n>'")
            header = tokens[0]
            try:
                n = int(tokens[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: bad vertex count {tokens[1]!r}") from exc
            continue
        if len(tokens) != 3:
            raise GraphFormatError(f"line {line_no}: expected '<tail> <head> <weight>'")
        vertices = []
        for token in tokens[:2]:
            try:
                vertices.append(int(token) - 1)
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: bad vertex {token!r}") from exc
        try:
            weight = parse_weight(tokens[2])
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {line_no}: {exc}") from exc
        entries.append((*vertices, weight))
        line_numbers.append(line_no)
    if header is None:
        raise GraphFormatError("empty input: missing 'digraph <n>' or 'graph <n>' header")
    return _parsed_graph(n, entries, "line", line_numbers, header == "graph")


def reference_sweep(rows, masks, mode) -> tuple[int, int]:
    """The numbers of equal and of inconsistent triples of the stored rows
    ``rows`` of ``F`` (the integers ``N = cF`` in exact mode, the doubles
    in float mode), with no row bound: both products of every
    triple of an (i, j) row, the verdicts of ``_equal`` on the whole row,
    and the separator of (i, j, k) read as bit j of ``masks[i][k]``. In
    exact mode a triple whose first product exceeds the second counts once
    more as inconsistent."""
    n = len(rows)
    equal = inconsistent = 0
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            row_j = rows[j]
            ij, jj = row_i[j], row_j[j]
            lhs = [ij * v for v in row_j]
            rhs = [v * jj for v in row_i]
            verdicts = _equal(lhs, rhs, mode)
            separators = [bool(mask >> j & 1) for mask in masks[i]]
            equal += sum(verdicts)
            inconsistent += sum(map(operator.ne, verdicts, separators))
            if mode == EXACT:
                inconsistent += sum(map(operator.gt, lhs, rhs))
    return equal, inconsistent


def reference_max_out_weight(graph: MultiDigraph) -> Fraction:
    """Largest total out-weight over all vertices, as ``Fraction`` sums of
    the stored arc weights, arc by arc; 0 for a graph with no arcs."""
    totals = [Fraction(0)] * graph.n
    for arc in graph.arcs:
        totals[arc.tail] = totals[arc.tail] + arc.weight
    return max(totals)


def reference_step(graph: MultiDigraph, eps, mode) -> Matrix:
    """The step matrix ``(I - eps L) / (1 + eps)`` entry by entry from the
    scalars of ``L``: ``r (0 - eps L_ij)`` off the diagonal and ``r max(1
    - eps L_ii, 0)`` on it, ``r = 1 / (1 + eps)``, built with the validating
    constructor."""
    zero, one, eps = scalar(0, mode), scalar(1, mode), scalar(eps, mode)
    ratio = one / (1 + eps)
    rows = []
    for i, values in enumerate(graph.laplacian(mode).to_lists()):
        row = [ratio * (zero - eps * value) for value in values]
        row[i] = ratio * max(one - eps * values[i], zero)
        rows.append(row)
    return Matrix(rows, mode)


def out_arc_indices(graph: MultiDigraph) -> list[list[int]]:
    """Per vertex, the indices into ``graph.arcs`` of its out-arcs in arc
    order, grouped from the arc list, not from an adjacency the library
    built."""
    grouped = [[] for _ in range(graph.n)]
    for index, arc in enumerate(graph.arcs):
        grouped[arc.tail].append(index)
    return grouped


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
    for choice in product(*[(None, *indices) for indices in out_arc_indices(graph)]):
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
        + [(arcs[a].head, factor * scalar(arcs[a].weight, mode)) for a in indices]
        for v, indices in enumerate(out_arc_indices(graph))
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


class FractionRows:
    """Reference for exact matrices: plain rows of ``Fraction``s, with each
    operation done entry by entry and no shared scale."""

    def __init__(self, rows):
        self.rows = [[Fraction(v) for v in row] for row in rows]

    def __add__(self, other: "FractionRows") -> "FractionRows":
        pairs = zip(self.rows, other.rows)
        return FractionRows([[a + b for a, b in zip(ra, rb)] for ra, rb in pairs])

    def __sub__(self, other: "FractionRows") -> "FractionRows":
        pairs = zip(self.rows, other.rows)
        return FractionRows([[a - b for a, b in zip(ra, rb)] for ra, rb in pairs])

    def __matmul__(self, other: "FractionRows") -> "FractionRows":
        columns = list(zip(*other.rows))
        return FractionRows(
            [[sum((a * b for a, b in zip(row, column)), Fraction(0)) for column in columns]
             for row in self.rows]
        )

    def scaled(self, factor) -> "FractionRows":
        return FractionRows([[Fraction(factor) * v for v in row] for row in self.rows])

    def max_abs(self) -> Fraction:
        return max((abs(v) for row in self.rows for v in row), default=Fraction(0))

    def row_sums(self) -> list:
        return [sum(row, Fraction(0)) for row in self.rows]

    def floats(self) -> list:
        """The nearest doubles, infinite with the entry's sign beyond the
        range of doubles."""
        return [[_nearest_double(v) for v in row] for row in self.rows]


def _nearest_double(value: Fraction) -> float:
    try:
        return value.numerator / value.denominator
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
