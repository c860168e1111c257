"""Forest matrices from the Laplacian: closed forms and invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from inforest import (
    EXACT,
    FLOAT,
    InstanceTooLargeError,
    Matrix,
    MultiDigraph,
    forest_matrices,
    oracle_matrices,
    random_graph,
)
from tests.helpers import make_path, multidigraphs


def test_empty_graph_identity():
    forests = forest_matrices(MultiDigraph(3, []))
    assert forests.total_weight == 1
    assert forests.matrix == Matrix.identity(3)
    assert forests.proximity == Matrix.identity(3)


def test_single_arc_closed_form():
    a = Fraction(3)
    forests = forest_matrices(MultiDigraph(2, [(0, 1, a)]))
    assert forests.total_weight == 1 + a
    assert forests.matrix.to_lists() == [[1, a], [0, 1 + a]]


def test_path_closed_form_matches_enumeration():
    a, b = Fraction(1), Fraction(2)
    g = make_path(a, b)
    forests = forest_matrices(g)
    assert forests.total_weight == (1 + a) * (1 + b)
    assert forests.matrix[0, 1] == a
    assert forests.matrix[0, 2] == a * b
    assert forests.matrix[1, 2] == b * (1 + a)
    assert forests.matrix[1, 1] == 1 + a
    assert forests.matrix == oracle_matrices(g).matrix


def test_unit_path_first_row():
    forests = forest_matrices(make_path())
    assert forests.total_weight == 4
    assert list(forests.matrix.row(0)) == [2, 1, 1]


def test_proximity_single_unit_arc():
    assert forest_matrices(MultiDigraph(2, [(0, 1, 1)])).proximity.to_lists() == [
        [Fraction(1, 2), Fraction(1, 2)],
        [0, 1],
    ]


def test_forest_weight_is_scaled_proximity():
    g = make_path(Fraction(2, 3), Fraction(5, 4))
    forests = forest_matrices(g)
    assert forests.matrix == forests.proximity.scaled(forests.total_weight)


def test_scaling_weights_scales_forest_weights_homogeneously():
    a, b = Fraction(1, 2), Fraction(4, 3)
    base = forest_matrices(make_path(a, b)).matrix[0, 2]
    assert base == a * b
    for t in (2, 3):
        scaled = forest_matrices(make_path(t * a, t * b))
        assert scaled.matrix[0, 2] == t * t * a * b
        assert scaled.matrix == oracle_matrices(make_path(t * a, t * b)).matrix


def test_undirected_forest_matrix_symmetric():
    g = MultiDigraph.from_undirected(4, [(0, 1, 1), (1, 2, Fraction(1, 2)), (2, 3, 3)])
    forests = forest_matrices(g)
    assert forests.matrix == forests.matrix.transpose()
    assert forests.proximity == forests.proximity.transpose()


@given(multidigraphs())
@settings(max_examples=60, deadline=None)
def test_proximity_rows_sum_to_one(g):
    assert all(total == 1 for total in forest_matrices(g).proximity.row_sums())


@given(multidigraphs())
@settings(max_examples=60, deadline=None)
def test_proximity_inverts_shifted_laplacian(g):
    forests = forest_matrices(g)
    shifted = Matrix.identity(g.n) + g.laplacian()
    assert forests.proximity @ shifted == Matrix.identity(g.n)
    assert shifted @ forests.proximity == Matrix.identity(g.n)


@given(multidigraphs())
@settings(max_examples=40, deadline=None)
def test_forest_entries_nonnegative_with_unit_diagonal_floor(g):
    forests = forest_matrices(g)
    for i in range(g.n):
        assert forests.matrix[i, i] >= 1
        for j in range(g.n):
            assert forests.matrix[i, j] >= 0


def test_float_mode_rows_sum_near_one():
    g = MultiDigraph(3, [(0, 1, 0.25), (1, 2, 1.5), (2, 0, 0.75)])
    forests = forest_matrices(g, FLOAT)
    assert forests.mode == FLOAT
    for total in forests.proximity.row_sums():
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_float_solve_past_its_precision_is_instance_too_large(seed):
    # I + L is never singular; at weights near 1e13 the float pivot test
    # fails on rounding error, so this is a limit, not a theorem violation.
    graph = random_graph(10, seed).scaled(10**13)
    with pytest.raises(InstanceTooLargeError, match="exact mode solves"):
        forest_matrices(graph, FLOAT)
    assert forest_matrices(graph, EXACT).total_weight > 0


def test_float_forest_matrices_run_one_elimination(monkeypatch):
    import inforest.forest

    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    for name in ("gauss_jordan", "invert", "determinant"):
        monkeypatch.setattr(
            inforest.forest, name, counted(name, getattr(inforest.forest, name))
        )
    forests = forest_matrices(make_path(), FLOAT)
    assert calls == ["gauss_jordan"]
    assert forests.total_weight == pytest.approx(4.0)
