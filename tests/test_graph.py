"""Graph construction, matrix views, degrees, and reachability."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from inforest import (
    BadParametersError,
    EXACT,
    FLOAT,
    InstanceTooLargeError,
    LoopArcError,
    Matrix,
    MultiDigraph,
    NonPositiveWeightError,
    TooFewVerticesError,
    VertexOutOfRangeError,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)
from inforest.graph import MAX_VERTICES
from tests.helpers import (
    corpus,
    make_path,
    make_triangle,
    multidigraphs,
    reference_separators,
    transpose,
)


def test_isolated_vertices_are_legal():
    g = MultiDigraph(2, [])
    assert g.n == 2 and g.arcs == ()


def test_arc_order_preserved():
    g = make_path(2, 3)
    assert [(a.tail, a.head, a.weight) for a in g.arcs] == [(0, 1, 2), (1, 2, 3)]


def test_loop_arc_rejected():
    with pytest.raises(LoopArcError):
        MultiDigraph(2, [(0, 0, 1.0)])


def test_too_few_vertices_rejected():
    with pytest.raises(TooFewVerticesError):
        MultiDigraph(1, [])


def test_too_many_vertices_rejected_before_any_arc_is_read():
    assert MAX_VERTICES == 4096
    assert MultiDigraph(MAX_VERTICES).n == MAX_VERTICES

    def arcs():
        raise AssertionError("an arc was read")
        yield

    for n in (MAX_VERTICES + 1, 10**9, 10**5000):
        with pytest.raises(InstanceTooLargeError, match="at most 4096 vertices"):
            MultiDigraph(n, arcs())
    # The generators pass their arcs lazily, so none is built either.
    for make in (path_graph, cycle_graph, complete_graph, lambda n: random_graph(n, 1)):
        with pytest.raises(InstanceTooLargeError):
            make(10**9)


@pytest.mark.parametrize("weight", [0, -1, Fraction(0), float("inf"), float("nan"), "1"])
def test_bad_weights_rejected(weight):
    with pytest.raises(NonPositiveWeightError):
        MultiDigraph(2, [(0, 1, weight)])


def test_random_graph_refuses_a_weight_range_below_one():
    with pytest.raises(BadParametersError, match="1 <= lo <= hi"):
        random_graph(5, 1, (0, 2))


@pytest.mark.parametrize("arc", [(0, 2, 1), (2, 0, 1), (-1, 0, 1)])
def test_endpoints_out_of_range_rejected(arc):
    with pytest.raises(VertexOutOfRangeError):
        MultiDigraph(2, [arc])


def test_laplacian_sums_parallel_arcs():
    g = MultiDigraph(2, [(0, 1, 2), (0, 1, 3)])
    assert g.laplacian().to_lists() == [[5, -5], [0, 0]]


def test_laplacian_empty_graph_in_both_modes():
    assert MultiDigraph(3, []).laplacian() == Matrix.zeros(3)
    zeros = MultiDigraph(3, []).laplacian(FLOAT).to_lists()
    assert all(str(v) == "0.0" for row in zeros for v in row)


def test_laplacian_path():
    a, b = Fraction(2, 3), Fraction(5)
    g = make_path(a, b)
    assert g.laplacian().to_lists() == [[a, -a, 0], [0, b, -b], [0, 0, 0]]


def test_laplacian_single_arc():
    a = Fraction(3, 2)
    g = MultiDigraph(2, [(0, 1, a)])
    assert g.laplacian().to_lists() == [[a, -a], [0, 0]]


def test_laplacian_empty_graph():
    assert MultiDigraph(2, []).laplacian() == Matrix.zeros(2)


def test_laplacian_triangle():
    assert make_triangle().laplacian().to_lists() == [
        [2, -1, -1],
        [0, 1, -1],
        [0, 0, 0],
    ]


def test_degrees_count_parallel_arcs():
    g = MultiDigraph(2, [(0, 1, 2), (0, 1, 3)])
    assert g.out_degree(0) == 2
    assert g.out_degree(1) == 0


def test_degrees_path_and_empty():
    g = make_path()
    assert g.out_degree(2) == 0
    empty = MultiDigraph(3, [])
    assert all(empty.out_degree(v) == 0 for v in range(3))


def test_degree_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        make_path().out_degree(3)


def test_from_undirected_doubles_each_edge():
    g = MultiDigraph.from_undirected(2, [(0, 1, Fraction(1, 2))])
    assert {(a.tail, a.head, a.weight) for a in g.arcs} == {
        (0, 1, Fraction(1, 2)),
        (1, 0, Fraction(1, 2)),
    }


def test_from_undirected_empty():
    assert MultiDigraph.from_undirected(3, []).arcs == ()


def test_from_undirected_laplacian_symmetric():
    g = MultiDigraph.from_undirected(3, [(0, 1, 1), (1, 2, 1)])
    assert len(g.arcs) == 4
    assert g.laplacian() == transpose(g.laplacian())


def test_reachable_respects_exclusion():
    g = make_path()
    assert g.reachable(0) == {0, 1, 2}


def test_reachable_rejects_bad_arguments():
    g = make_path()
    with pytest.raises(VertexOutOfRangeError):
        g.reachable(5)


def test_dominators_cases():
    # 0 -> 1 -> 2 -> 3 with a bypass 1 -> 3, plus 4 -> 0 out of reach.
    g = MultiDigraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 0, 1)])

    def sets(root):
        return [{u for u in range(g.n) if mask >> u & 1} for mask in g.dominators(root)]

    every = set(range(5))
    # The root dominates only itself; an unreachable vertex has every bit.
    assert sets(0) == [{0}, {0, 1}, {0, 1, 2}, {0, 1, 3}, every]
    assert sets(3) == [every, every, every, {3}, every]
    assert sets(4) == [{4, 0}, {4, 0, 1}, {4, 0, 1, 2}, {4, 0, 1, 3}, {4}]
    with pytest.raises(VertexOutOfRangeError):
        g.dominators(5)


@pytest.mark.parametrize("n", [15, 20, 25])
def test_dominators_match_is_bottleneck_on_dense_graphs(n):
    # In dense graphs most meets fall to the root's bit after a few
    # predecessors, and the rest are skipped. Vertex n is added with
    # in-arcs and no out-arcs: as a root it reaches nothing else.
    dense = random_graph(n, n)
    g = MultiDigraph(n + 1, list(dense.arcs) + [(v, n, 1) for v in range(0, n, 4)])
    span = range(g.n)
    for i in span:
        masks = g.dominators(i)
        rows = [[bool(masks[k] >> j & 1) for k in span] for j in span]
        assert rows == reference_separators(g.n, g.arcs, i)
    assert g.dominators(n) == [(1 << g.n) - 1] * n + [1 << n]


def test_scaled_multiplies_weights():
    g = make_path(1, 2).scaled(Fraction(1, 3))
    assert [a.weight for a in g.arcs] == [Fraction(1, 3), Fraction(2, 3)]
    with pytest.raises(NonPositiveWeightError):
        g.scaled(0)


def test_float_weights_are_stored_as_the_exact_values_of_their_doubles():
    weights = [0.1, 1 / 3, 0.7, 1e-300]
    g = MultiDigraph(3, [(0, 1, 0.1), (0, 2, 1 / 3), (1, 2, 0.7), (2, 0, 1e-300)])
    assert [a.weight for a in g.arcs] == [Fraction(w) for w in weights]
    assert all(type(a.weight) is Fraction for a in g.arcs)
    assert g.scaled(0.1).arcs[0].weight == Fraction(0.1) ** 2
    # The float Laplacian rounds them back to the given doubles, bit for bit.
    lap = g.laplacian(FLOAT)
    assert [-lap[0, 1], -lap[0, 2], -lap[1, 2], -lap[2, 0]] == weights
    assert [lap[v, v] for v in range(3)] == [0.1 + 1 / 3, 0.7, 1e-300]


@given(multidigraphs())
def test_laplacian_rows_sum_to_zero(g):
    assert all(total == 0 for total in g.laplacian().row_sums())


@given(multidigraphs())
def test_weight_matrix_is_negated_off_diagonal_laplacian(g):
    for mode, convert in ((EXACT, Fraction), (FLOAT, float)):
        weights = [[convert(0)] * g.n for _ in range(g.n)]
        for arc in g.arcs:
            weights[arc.tail][arc.head] += convert(arc.weight)
        lap = g.laplacian(mode)
        for i in range(g.n):
            # The out-weight is summed in column order, bit for bit in floats.
            assert lap[i, i] == sum(weights[i], convert(0))
            for j in range(g.n):
                if i != j:
                    assert weights[i][j] == -lap[i, j]


def _laplacian_summing_whole_rows(graph, mode):
    """The Laplacian with each out-weight summed over all n entries of its
    row, zeros included: the reference for the one that skips them."""
    zero = 0.0 if mode == FLOAT else Fraction(0)
    convert = float if mode == FLOAT else Fraction
    rows = [[zero] * graph.n for _ in range(graph.n)]
    for tail, head, weight in graph.arcs:
        rows[tail][head] -= convert(weight)
    for i, row in enumerate(rows):
        row[i] = zero - sum(row, zero)
    return rows


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_laplacian_skipping_zero_entries_changes_no_value(mode):
    graphs = [MultiDigraph(2, []), random_graph(2, 1), random_graph(30, 3)] + corpus(60)
    graphs += [
        MultiDigraph(3, [(0, 1, 1e308), (0, 2, 7e307), (1, 2, 1)]),
        MultiDigraph(3, [(0, 1, 5e-324), (0, 2, 5e-324), (2, 0, 1e-300)]),
    ]
    for graph in graphs:
        # repr tells 0.0 from -0.0.
        expected = repr(_laplacian_summing_whole_rows(graph, mode))
        assert repr(graph.laplacian(mode).to_lists()) == expected


@given(multidigraphs())
def test_degree_totals_match_arc_count(g):
    assert sum(g.out_degree(v) for v in range(g.n)) == len(g.arcs)


@given(multidigraphs(max_n=4, max_arcs=4))
@settings(max_examples=50)
def test_reachability_monotone_under_arc_addition(g):
    extra = (0, g.n - 1, 1) if g.n > 1 else None
    bigger = MultiDigraph(g.n, list(g.arcs) + [extra])
    for source in range(g.n):
        assert g.reachable(source) <= bigger.reachable(source)


@pytest.mark.parametrize(
    "weights",
    [[Fraction(1, 10**400)], [Fraction(10**400)], [Fraction(10**308), Fraction(10**308)]],
)
def test_float_laplacian_refuses_weights_a_double_cannot_hold(weights):
    g = MultiDigraph(2, [(0, 1, w) for w in weights])
    assert g.laplacian().row(0) == (sum(weights), -sum(weights))
    with pytest.raises(NonPositiveWeightError):
        g.laplacian(FLOAT)


def test_float_laplacian_rows_near_zero():
    g = MultiDigraph(3, [(0, 1, 0.1), (0, 2, 0.7), (1, 2, 0.3)])
    lap = g.laplacian(FLOAT)
    assert all(abs(total) <= 1e-12 * max(1.0, lap.max_abs()) for total in lap.row_sums())
