"""Brute-force forest enumeration and its agreement with the algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from inforest import (
    DEFAULT_CHOICE_CAP,
    EXACT,
    InstanceTooLargeError,
    MultiDigraph,
    choice_count,
    complete_graph,
    enumerate_in_forests,
    forest_matrices,
    oracle_matrices,
)
from tests.helpers import (
    corpus,
    make_path,
    make_triangle,
    make_two_cycle,
    multidigraphs,
    reference_forests,
)


def _as_floats(g):
    return MultiDigraph(g.n, [(a.tail, a.head, float(a.weight)) for a in g.arcs])


REFERENCE_GRAPHS = (
    corpus(200)
    + [_as_floats(g) for g in corpus(40)]
    + [
        MultiDigraph(3, []),
        MultiDigraph(3, [(0, 1, 2), (0, 1, 3), (1, 0, Fraction(1, 2)), (2, 1, 5), (2, 1, 5)]),
        MultiDigraph(3, [(0, 1, 0.1), (1, 2, 1 / 3), (2, 0, 0.7), (0, 2, 2.5), (1, 0, 1e-300)]),
    ]
)


def test_empty_graph_has_single_arcless_forest():
    forests = list(enumerate_in_forests(MultiDigraph(2, [])))
    assert len(forests) == 1
    assert forests[0].weight == 1
    assert forests[0].roots == (0, 1)


def test_arcless_forest_comes_first():
    first = next(enumerate_in_forests(make_path()))
    assert first.arc_choice == (None, None, None)


def test_parallel_arcs_give_distinct_forests():
    g = MultiDigraph(2, [(0, 1, 2), (0, 1, 3)])
    weights = sorted(f.weight for f in enumerate_in_forests(g))
    assert weights == [1, 2, 3]
    result = oracle_matrices(g)
    assert result.forest_count == 3
    assert result.total_weight == 6
    assert result.matrix.to_lists() == [[1, 5], [0, 6]]


def test_two_cycle_choice_rejected():
    a, b = Fraction(2), Fraction(1, 3)
    forests = list(enumerate_in_forests(make_two_cycle(a, b)))
    assert sorted(f.weight for f in forests) == sorted([1, a, b])


def test_path_graph_oracle_values():
    a, b = Fraction(1, 2), Fraction(3)
    result = oracle_matrices(make_path(a, b))
    assert result.forest_count == 4
    assert result.total_weight == (1 + a) * (1 + b)
    assert result.matrix.to_lists() == [
        [1 + b, a, a * b],
        [0, 1 + a, b * (1 + a)],
        [0, 0, (1 + a) * (1 + b)],
    ]


def test_triangle_oracle_values():
    result = oracle_matrices(make_triangle())
    assert result.forest_count == 6
    assert result.total_weight == 6
    assert result.matrix.to_lists() == [[2, 1, 3], [0, 3, 3], [0, 0, 6]]


def test_forest_chains_terminate_at_roots():
    for forest in enumerate_in_forests(make_triangle()):
        for v, choice in enumerate(forest.arc_choice):
            if choice is None:
                assert forest.root_of[v] == v
        assert forest.weight > 0


def test_unit_weights_count_forests():
    g = make_triangle()
    result = oracle_matrices(g)
    assert result.total_weight.denominator == 1
    assert result.total_weight == result.forest_count
    for i in range(g.n):
        for j in range(g.n):
            count = sum(1 for f in enumerate_in_forests(g) if f.root_of[i] == j)
            assert result.matrix[i, j] == count


def test_enumeration_matches_the_brute_force_reference():
    # In order, in values and in types: every weight is an exact Fraction.
    for g in REFERENCE_GRAPHS:
        got = [(f.arc_choice, f.root_of, f.weight, type(f.weight)) for f in enumerate_in_forests(g)]
        want = [(*forest, type(forest[2])) for forest in reference_forests(g)]
        assert got == want


def test_oracle_matrices_equal_the_sums_over_the_reference_forests():
    # Exactly and as fractions, float-typed weights too: they are stored
    # as the exact values of their doubles.
    for g in REFERENCE_GRAPHS:
        forests = reference_forests(g)
        total = sum(weight for _, _, weight in forests)
        rows = [[0] * g.n for _ in range(g.n)]
        for _, roots, weight in forests:
            for v, root in enumerate(roots):
                rows[v][root] += weight
        result = oracle_matrices(g)
        assert result.forest_count == len(forests)
        got = [result.total_weight] + [v for row in result.matrix.to_lists() for v in row]
        want = [total] + [v for row in rows for v in row]
        assert {type(v) for v in got} == {Fraction}
        assert got == want


def test_oracle_on_float_weights_equals_the_exact_forest_matrices():
    for g in [_as_floats(g) for g in corpus(40)] + [REFERENCE_GRAPHS[-1]]:
        result = oracle_matrices(g)
        forests = forest_matrices(g, EXACT)
        assert result.total_weight == forests.total_weight
        assert result.matrix == forests.matrix


def test_long_graph_enumerates_without_recursion():
    g = MultiDigraph(2000, [(0, 1, 1), (1500, 1999, 2)])
    forests = list(enumerate_in_forests(g))
    assert [f.weight for f in forests] == [1, 2, 1, 2]
    assert forests[-1].root_of[0] == 1 and forests[-1].root_of[1500] == 1999


def test_instance_cap_enforced():
    graph = complete_graph(9)
    assert choice_count(graph) == 9**9 > DEFAULT_CHOICE_CAP
    with pytest.raises(InstanceTooLargeError):
        next(enumerate_in_forests(graph))
    with pytest.raises(InstanceTooLargeError):
        oracle_matrices(graph)


@given(multidigraphs())
@settings(max_examples=60, deadline=None)
def test_rows_sum_to_total_weight(g):
    result = oracle_matrices(g)
    assert all(total == result.total_weight for total in result.matrix.row_sums())


@given(multidigraphs(max_n=4, max_arcs=5))
@settings(max_examples=60, deadline=None)
def test_merging_parallel_arcs_preserves_totals(g):
    merged_weights = {}
    for arc in g.arcs:
        key = (arc.tail, arc.head)
        merged_weights[key] = merged_weights.get(key, 0) + arc.weight
    merged = MultiDigraph(g.n, [(t, h, w) for (t, h), w in merged_weights.items()])
    original = oracle_matrices(g)
    collapsed = oracle_matrices(merged)
    assert original.total_weight == collapsed.total_weight
    assert original.matrix == collapsed.matrix


@given(multidigraphs())
@settings(max_examples=60, deadline=None)
def test_oracle_agrees_with_forest_matrices(g):
    result = oracle_matrices(g)
    forests = forest_matrices(g)
    assert result.total_weight == forests.total_weight
    assert result.matrix == forests.matrix
