"""Forest matrices from the Laplacian: closed forms and invariants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from inforest import (
    EXACT,
    FLOAT,
    Matrix,
    MultiDigraph,
    cycle_graph,
    forest_matrices,
    oracle_matrices,
    random_graph,
)
from tests.helpers import corpus, make_path, multidigraphs, transpose


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
    assert forests.matrix == transpose(forests.matrix)
    assert forests.proximity == transpose(forests.proximity)


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


def _log(value):
    value = Fraction(value)
    return math.log(value.numerator) - math.log(value.denominator)


def _assert_float_agrees_with_exact(graph):
    """Every nonzero entry of float ``Q`` within 1e-13 relative of exact,
    every zero entry exactly 0.0, and ``log f`` within 1e-12 wherever the
    float ``f`` is finite."""
    exact = forest_matrices(graph, EXACT)
    approx = forest_matrices(graph, FLOAT)
    for i in range(graph.n):
        for j in range(graph.n):
            want, got = exact.proximity[i, j], approx.proximity[i, j]
            if want:
                assert abs(got - want) <= 1e-13 * want, (i, j)
            else:
                assert got == 0.0, (i, j)
    if math.isfinite(approx.total_weight):
        assert abs(math.log(approx.total_weight) - _log(exact.total_weight)) <= 1e-12


def test_float_forest_matrix_keeps_its_zeros_when_the_total_weight_overflows():
    # f = det(I + L) is about 2e308, past the largest double; inf * 0.0
    # would be nan, but an entry of F that no forest carries stays 0.0.
    forests = forest_matrices(MultiDigraph(3, [(0, 1, 1e308), (1, 2, 1.0)]), FLOAT)
    assert forests.total_weight == math.inf
    inf = math.inf
    assert forests.matrix.to_lists() == [[inf, inf, inf], [0.0, inf, inf], [0.0, 0.0, inf]]


def _heavy_graphs():
    path = [(v, v + 1, Fraction(1, 1000)) for v in range(59)]
    yield random_graph(40, 3).scaled(10**12)
    yield random_graph(30, 3).scaled(10**8)
    yield cycle_graph(40, 10**6)
    yield MultiDigraph(60, path + [(0, 59, Fraction(1, 10**6))])
    yield MultiDigraph(2, [(0, 1, 10**13), (1, 0, 10**13)])


@pytest.mark.parametrize("index", range(5))
def test_float_forest_matrices_match_exact_on_heavy_graphs(index):
    # Weights up to 1e13, spans of 9 orders of magnitude and Q entries
    # near 1e-180: an elimination with subtractions loses digits on these,
    # the subtraction-free one keeps full precision.
    _assert_float_agrees_with_exact(list(_heavy_graphs())[index])


def _spread_multigraph(seed):
    """Seeded multidigraph with parallel arcs and float weights spread
    log-uniformly from 1e-3 to 7e5."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        tail, head = rng.sample(range(n), 2)
        arcs.append((tail, head, 10 ** rng.uniform(-3, math.log10(7e5))))
    return MultiDigraph(n, arcs)


def test_float_proximity_is_zero_exactly_off_the_reachable_set():
    graphs = corpus(200, max_n=12, max_arcs=14) + [_spread_multigraph(s) for s in range(300)]
    for graph in graphs:
        proximity = forest_matrices(graph, FLOAT).proximity
        for i in range(graph.n):
            reachable = graph.reachable(i)
            for j in range(graph.n):
                value = proximity[i, j]
                assert value > 0.0 if j in reachable else value == 0.0, (graph, i, j)


@pytest.mark.parametrize("seed", range(5))
def test_float_solve_past_its_precision_is_instance_too_large(seed):
    # Weights near 1e13 once exceeded float mode's precision, and float
    # mode gave up with instance-too-large; they now solve as in exact mode.
    _assert_float_agrees_with_exact(random_graph(10, seed).scaled(10**13))


def test_float_forest_matrices_run_one_elimination(monkeypatch):
    # One elimination of its own: no call into the general reference solvers.
    import inforest.forest
    import inforest.matrix

    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return wrapper

    for module in (inforest.matrix, inforest.forest):
        for name in ("gauss_jordan", "invert", "determinant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    forests = forest_matrices(make_path(), FLOAT)
    assert calls == []
    assert forests.total_weight == pytest.approx(4.0)
    assert forests.matrix.row(0) == pytest.approx([2.0, 1.0, 1.0])
