"""Graph construction, matrix views, degrees, and reachability."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inforest import (
    BadParametersError,
    EXACT,
    FLOAT,
    InforestError,
    InstanceTooLargeError,
    LoopArcError,
    Matrix,
    MultiDigraph,
    NonPositiveWeightError,
    TooFewVerticesError,
    VertexOutOfRangeError,
    complete_graph,
    cycle_graph,
    is_bottleneck,
    parse_graph,
    path_graph,
    random_graph,
    route_decomposition,
)
from inforest.graph import MAX_VERTICES
from tests.helpers import (
    CORPUS_SEED,
    corpus,
    dag_graph,
    detour_graph,
    make_path,
    make_triangle,
    multidigraphs,
    reference_arcs,
    reference_max_out_weight,
    reference_reachable,
    reference_separators,
    sink_graph,
    transpose,
)


def test_isolated_vertices_are_legal():
    g = MultiDigraph(2, [])
    assert g.n == 2 and g.arcs == ()


def test_arc_order_preserved():
    g = make_path(2, 3)
    assert [(a.tail, a.head, a.weight) for a in g.arcs] == [(0, 1, 2), (1, 2, 3)]
    # Equality, and so the hash, follows n and the arcs in order.
    same = MultiDigraph(3, [(0, 1, 2), (1, 2, Fraction(3))])
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != MultiDigraph(3, [(1, 2, 3), (0, 1, 2)]) and g != MultiDigraph(4, g.arcs)
    assert g != 3


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


def test_non_integer_vertices_rejected():
    g = make_path()
    calls = [
        ("0.5", lambda: MultiDigraph(3, [(0.5, 1, 1)])),
        ("1.0", lambda: g.dominators(1.0)),
        ("1.0", lambda: g.out_degree(1.0)),
        ("1.0", lambda: is_bottleneck(g, 0, 1.0, 2)),
        ("1.5", lambda: route_decomposition(g, 0, 1.5, 2)),
    ]
    for vertex, call in calls:
        with pytest.raises(VertexOutOfRangeError, match=f"^vertex {vertex} is not an integer$"):
            call()


_ENDPOINTS = st.one_of(st.integers(-1, 4), st.sampled_from([0.5, 1.0, True, "1", None]))
_WEIGHTS = st.one_of(
    st.fractions(min_value=-1, max_value=5, max_denominator=7),
    st.integers(-1, 5),
    st.floats(),
    st.booleans(),
    st.sampled_from(
        ["1", math.nan, math.inf, -math.inf, 0, -1, 1e-400, Fraction(1, 10**400), Fraction(0)]
    ),
)


@st.composite
def _arc_lists(draw):
    """``(n, arcs)``: valid arcs around one arc that has one field drawn
    from any endpoint or weight above, then up to two arcs drawn wholly
    from them."""
    n = draw(st.integers(2, 4))
    weights = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)
    vertices = st.integers(0, n - 1)
    valid = st.tuples(vertices, vertices, weights).filter(lambda arc: arc[0] != arc[1])
    arcs = draw(st.lists(valid, max_size=3))
    odd = list(draw(valid))
    field = draw(st.integers(0, 2))
    odd[field] = draw(_WEIGHTS if field == 2 else _ENDPOINTS)
    arcs.insert(draw(st.integers(0, len(arcs))), tuple(odd))
    arcs += draw(st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS, _WEIGHTS), max_size=2))
    return n, arcs


@given(_arc_lists())
@settings(max_examples=400, deadline=None)
def test_constructor_stores_or_refuses_the_arcs_as_the_checks_one_by_one(case):
    n, arcs = case

    def outcome(build):
        try:
            return repr(build())
        except InforestError as exc:
            return type(exc), str(exc)

    assert outcome(lambda: MultiDigraph(n, arcs).arcs) == outcome(lambda: reference_arcs(n, arcs))


def test_repr_of_a_weight_too_long_to_print_gives_its_magnitude():
    # The parser reads 1e4300 exactly, a numerator of 4,301 digits, past
    # the digits that Fraction's repr converts to text.
    graph = parse_graph("digraph 2\n1 2 1e4300\n2 1 3/7\n").graph
    arcs = "Arc(tail=0, head=1, weight=~10^4300.00), Arc(tail=1, head=0, weight=Fraction(3, 7))"
    assert repr(graph) == f"MultiDigraph(n=2, arcs=[{arcs}])"


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


def test_is_symmetric_compares_total_weights_in_both_directions():
    # Two parallel arcs of weight 1 one way, one arc of weight 2 back.
    third = Fraction(1, 3)
    mirrored = MultiDigraph(3, [(0, 1, 1), (1, 0, 2), (0, 1, 1), (1, 2, third), (2, 1, third)])
    assert mirrored.is_symmetric()
    edges = [(0, 1, 1), (1, 2, 2), (1, 2, 3), (3, 0, 1)]
    assert MultiDigraph.from_undirected(4, edges).is_symmetric()
    assert MultiDigraph(3, []).is_symmetric()
    assert not MultiDigraph(3, [(0, 1, 1), (1, 0, 2), (0, 1, 2)]).is_symmetric()
    assert not MultiDigraph(2, [(0, 1, 1)]).is_symmetric()
    assert not any(random_graph(n, seed).is_symmetric() for n in (3, 6, 12) for seed in range(5))


def test_is_symmetric_reads_integer_rows_and_builds_no_fraction(monkeypatch):
    # The exact Laplacian keeps integer rows over one scale; the symmetry
    # test compares those with their transpose and reads no entry out.
    def refuse(matrix, row):
        raise AssertionError("an entry was read out as a Fraction")

    monkeypatch.setattr(Matrix, "_read", refuse)
    third = Fraction(1, 3)
    assert MultiDigraph(3, [(0, 1, third), (1, 0, third), (1, 2, 5), (2, 1, 5)]).is_symmetric()
    lopsided = MultiDigraph(3, [(0, 1, third), (1, 0, 2 * third), (1, 2, 5), (2, 1, 5)])
    assert not lopsided.is_symmetric()


def test_exact_laplacian_is_integer_rows_over_the_least_scale():
    # Parallel halves add up to whole weights, so the least common
    # denominator of the arc weights, 6, is not the least scale of L.
    half, third = Fraction(1, 2), Fraction(1, 3)
    g = MultiDigraph(3, [(0, 1, half), (0, 1, half), (1, 2, third), (2, 0, 3)])
    laplacian = g.laplacian()
    assert laplacian._scale == 3
    assert laplacian._rows == [[3, -3, 0], [0, 1, -1], [-9, 0, 9]]
    assert laplacian.to_lists() == [[1, -1, 0], [0, third, -third], [-3, 0, 3]]


def test_max_out_weight_is_the_arc_by_arc_sum():
    # The largest diagonal entry of the exact Laplacian against Fraction
    # sums arc by arc: the corpus, parallel arcs, float-typed weights at
    # both ends of the doubles, whose sums leave the doubles' range, and
    # a graph with no arcs.
    half, third = Fraction(1, 2), Fraction(1, 3)
    parallel = MultiDigraph(3, [(0, 1, half), (0, 1, third), (0, 2, half), (1, 2, 1), (2, 1, 1)])
    tiny = MultiDigraph(
        3, [(0, 1, 5e-324), (0, 1, 5e-324), (0, 2, 1e-323), (1, 2, 2.5e-323), (2, 0, 5e-324)]
    )
    huge = MultiDigraph(
        3, [(0, 1, 1e308), (0, 2, 1e308), (0, 2, 1.7e308), (1, 2, 1.5e308), (2, 1, 1e-300)]
    )
    arcless = MultiDigraph(4, [])
    for graph in corpus(200) + [parallel, tiny, huge, arcless]:
        heaviest = graph.max_out_weight()
        assert heaviest == reference_max_out_weight(graph) and type(heaviest) is Fraction, graph
    assert parallel.max_out_weight() == 4 * third
    assert tiny.max_out_weight() == 5 * Fraction(5e-324)
    assert huge.max_out_weight() == Fraction(1e308) * 2 + Fraction(1.7e308)
    assert arcless.max_out_weight() == 0


def test_reachable_respects_exclusion():
    g = make_path()
    assert g.reachable(0) == {0, 1, 2}


def test_reachable_matches_a_breadth_first_search_over_the_arc_list():
    # Two directed cycles, the first leading into the second by one arc.
    linked = MultiDigraph(6, [*cycle_graph(3).arcs, (3, 4, 1), (4, 5, 1), (5, 3, 1), (2, 3, 1)])
    cycles = [cycle_graph(2), cycle_graph(3), cycle_graph(9), linked]
    for graph in corpus(200) + [sink_graph(), dag_graph(), *cycles]:
        for source in range(graph.n):
            expected = reference_reachable(graph.n, graph.arcs, source)
            assert graph.reachable(source) == expected, (graph, source)


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


def _passes(g):
    """The masks of ``dominators(i)`` for every start vertex i."""
    return [g.dominators(i) for i in range(g.n)]


def _separating_passes(g):
    """Whether each of G(0), Gᴿ(0), G(1) and Gᴿ(1), the reverse graph
    built here from reversed arcs, holds a mask other than {r, v}."""
    reverse = MultiDigraph(g.n, [(head, tail, w) for tail, head, w in g.arcs])
    return [
        graph.dominators(r) != [1 << r | 1 << v for v in range(g.n)]
        for r in (0, 1)
        for graph in (g, reverse)
    ]


def _only_endpoints(n):
    return [[1 << i | 1 << k for k in range(n)] for i in range(n)]


def test_dominator_masks_equal_the_passes_on_the_corpora():
    # The default and the sparse corpus, whose graphs with n > 2 all take
    # every pass, and a dense one, where 12 of 40 have only the endpoints
    # as separators, which the four passes settle.
    sparse = corpus(count=40, min_n=4, max_n=12, max_arcs=14)
    dense = corpus(count=40, min_n=3, max_n=8, max_arcs=40)
    shortcut = fallback = 0
    for g in corpus(200) + sparse + dense:
        masks = g.dominator_masks()
        assert masks == _passes(g), g
        if g.n > 2:
            trivial = masks == _only_endpoints(g.n)
            assert trivial == (not any(_separating_passes(g))), g
            shortcut += trivial
            fallback += not trivial
    assert shortcut and fallback


def test_dominator_masks_equal_the_passes_on_paths_dags_and_a_detour():
    rng = random.Random(CORPUS_SEED)
    pairs = [(a, b) for a in range(12) for b in range(a + 1, 12)]
    dag = MultiDigraph(12, [(a, b, 1) for a, b in pairs if rng.random() < 0.3])
    graphs = [path_graph(12), dag, detour_graph(), random_graph(20, 3), random_graph(12, 1)]
    for g in graphs:
        assert g.dominator_masks() == _passes(g)
    # The detour's vertices 4 and 7 separate; random_graph(20, 3) is
    # strongly connected and only the endpoints of a path separate.
    assert any(_separating_passes(detour_graph()))
    assert random_graph(20, 3).dominator_masks() == _only_endpoints(20)


@settings(max_examples=200, deadline=None)
@given(multidigraphs(max_n=6, max_arcs=16))
def test_dominator_masks_equal_the_passes_on_drawn_graphs(g):
    assert g.dominator_masks() == _passes(g)


def test_dominator_masks_of_a_bowtie_seen_only_from_root_1():
    # Undirected triangles 0-1-2 and 0-3-4 that share vertex 0, the only
    # strong articulation point: the passes rooted at 0 cannot see it.
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    g = MultiDigraph.from_undirected(5, [(u, v, 1) for u, v in edges])
    assert _separating_passes(g) == [False, False, True, True]
    masks = g.dominator_masks()
    assert masks == _passes(g)
    assert masks[1][3] == 0b1011 and masks[3][1] == 0b1011


def test_dominator_masks_of_a_funnel_seen_first_by_the_reverse_pass_at_0():
    # 0 -> 2, 0 -> 3, 2 <-> 3, 2 -> 1, 3 -> 1, 1 -> 0: every path from 2
    # or 3 to 0 runs through 1, which G(0) does not see, and every path
    # from 1 to 2 or 3 through 0.
    arcs = [(0, 2), (0, 3), (2, 3), (3, 2), (2, 1), (3, 1), (1, 0)]
    g = MultiDigraph(4, [(tail, head, 1) for tail, head in arcs])
    assert _separating_passes(g) == [False, True, True, False]
    masks = g.dominator_masks()
    assert masks == _passes(g)
    assert masks[2][0] == 0b0111 and masks[1][2] == 0b0111


@pytest.mark.parametrize(
    "missing, seen_by",
    [((0, 2), 0), ((2, 0), 1), ((1, 2), 2), ((2, 1), 3)],
    ids=["forward-0", "reverse-0", "forward-1", "reverse-1"],
)
def test_dominator_masks_when_one_pass_alone_sees_a_separator(missing, seen_by):
    # The complete digraph on 3 vertices without one arc between 2 and a
    # root: the other root is its one strong articulation point, and
    # exactly one of G(0), Gᴿ(0), G(1) and Gᴿ(1) sees it.
    arcs = [(a, b, 1) for a in range(3) for b in range(3) if a != b and (a, b) != missing]
    g = MultiDigraph(3, arcs)
    assert _separating_passes(g) == [index == seen_by for index in range(4)]
    assert g.dominator_masks() == _passes(g) != _only_endpoints(3)


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
