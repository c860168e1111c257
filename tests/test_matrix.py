"""Matrix kernel: determinant, inversion, and geometric series."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inforest import (
    BadParametersError,
    EXACT,
    FLOAT,
    Matrix,
    MultiDigraph,
    NotConvergedError,
    SingularMatrixError,
    determinant,
    choose_epsilon,
    closed_route_matrix,
    forest_matrices,
    geometric_series,
    invert,
    route_decomposition,
    route_matrix,
    step_matrix,
    verify_all_triples,
    verify_undirected,
)
from inforest.matrix import scalar
from tests.helpers import corpus, make_path, reference_series

# det of [[1+a, -a, 0], [0, 1+b, -b], [0, 0, 1]] is (1+a)(1+b); with
# a = b = 1 the expansion gives 4 (cross-checked against the oracle's
# total forest weight for the two-arc path elsewhere in the suite).
PATH_SHIFTED = Matrix([[2, -1, 0], [0, 2, -1], [0, 0, 1]])


def small_fractions(limit=4):
    return st.fractions(
        min_value=-limit, max_value=limit, max_denominator=limit
    )


def square_matrices(order, limit=4):
    return st.lists(
        st.lists(small_fractions(limit), min_size=order, max_size=order),
        min_size=order,
        max_size=order,
    ).map(Matrix)


def test_determinant_identity():
    assert determinant(Matrix.identity(3)) == 1


def test_determinant_hand_expansion():
    assert determinant(PATH_SHIFTED) == 4


def test_determinant_singular_is_zero():
    assert determinant(Matrix([[1, 1], [1, 1]])) == 0


def test_determinant_float_mode():
    assert determinant(Matrix([[2, -1], [0, 1]], FLOAT)) == pytest.approx(2.0)
    assert determinant(Matrix([[1, 1], [1, 1]], FLOAT)) == 0.0


def test_determinant_needs_pivot_swap():
    m = Matrix([[0, 1], [1, 0]])
    assert determinant(m) == -1


def test_invert_identity():
    assert invert(Matrix.identity(4)) == Matrix.identity(4)


def test_invert_two_by_two_closed_form():
    inverse = invert(Matrix([[2, -1], [0, 1]]))
    assert inverse.to_lists() == [[Fraction(1, 2), Fraction(1, 2)], [0, 1]]


def test_invert_triangle_shifted_laplacian():
    # I + L of the unit-weight triangle; row sums of the inverse are forced
    # to 1 because the Laplacian kills the all-ones vector.
    shifted = Matrix([[3, -1, -1], [0, 2, -1], [0, 0, 1]])
    inverse = invert(shifted)
    assert inverse.to_lists() == [
        [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)],
        [0, Fraction(1, 2), Fraction(1, 2)],
        [0, 0, 1],
    ]
    assert all(total == 1 for total in inverse.row_sums())


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(Matrix([[1, 1], [1, 1]]))
    with pytest.raises(SingularMatrixError):
        invert(Matrix([[1, 1], [1, 1]], FLOAT))


def test_mode_mixing_rejected():
    with pytest.raises(ValueError):
        Matrix.identity(2, EXACT) + Matrix.identity(2, FLOAT)


def test_malformed_matrices_are_refused():
    with pytest.raises(ValueError, match="must be square"):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="orders differ"):
        Matrix.identity(2) + Matrix.identity(3)


@given(square_matrices(3))
@settings(max_examples=60)
def test_invert_roundtrip(m):
    assume(determinant(m) != 0)
    inverse = invert(m)
    assert m @ inverse == Matrix.identity(3)
    assert inverse @ m == Matrix.identity(3)


def test_invert_float_roundtrip():
    m = Matrix([[1.5, 0.25, 0.0], [0.5, 2.0, -1.0], [0.0, 0.125, 1.0]], FLOAT)
    product = m @ invert(m)
    gap = (product - Matrix.identity(3, FLOAT)).max_abs()
    assert gap <= 1e-10


@given(square_matrices(4, limit=3), square_matrices(4, limit=3))
@settings(max_examples=40)
def test_determinant_multiplicative(m, n):
    assert determinant(m @ n) == determinant(m) * determinant(n)


def test_geometric_series_zero_matrix():
    result = geometric_series(Matrix.zeros(2), 1e-12)
    assert result.total == Matrix.identity(2)
    assert result.terms_used == 1


def test_geometric_series_scalar_half():
    result = geometric_series(Matrix([[0.5]], FLOAT), 1e-12)
    assert abs(result.total[0, 0] - 2.0) <= 1e-11


def test_geometric_series_matches_closed_form():
    m = Matrix([[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 2)]])
    closed = invert(Matrix.identity(2) - m)
    result = geometric_series(m, 1e-12)
    assert (closed - result.total).max_abs() < 1e-10
    # Entrywise below the closed form: the omitted tail is nonnegative.
    for i in range(2):
        for j in range(2):
            assert result.total[i, j] <= closed[i, j]


def test_geometric_series_partial_sums_monotone():
    m = Matrix([[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 2)]])
    loose = geometric_series(m, 1e-3).total
    tight = geometric_series(m, 1e-9).total
    for i in range(2):
        for j in range(2):
            assert loose[i, j] <= tight[i, j]


def test_geometric_series_not_converged():
    with pytest.raises(NotConvergedError):
        geometric_series(Matrix.identity(1), 1e-12, max_terms=5)


def _step_matrices(count):
    # The corpus, then a graph with a weight of 1e-40, whose powers carry
    # denominators of thousands of bits.
    tiny = MultiDigraph(
        4, [(0, 1, Fraction(1, 10**40)), (1, 2, 1), (2, 3, Fraction(2, 3)), (1, 0, Fraction(5, 4))]
    )
    for g in corpus(count) + [tiny]:
        yield step_matrix(g, choose_epsilon(g))


def _series_outcome(series, *args):
    try:
        return series(*args)
    except NotConvergedError:
        return NotConvergedError


@pytest.mark.parametrize("tolerance", [2, 0.5, 1e-2, 1e-4])
def test_geometric_series_equals_the_term_by_term_reference(tolerance):
    # Exact sums do not depend on their order, so the doubling sum, its
    # term count and its last term's norm are those of the reference.
    for step in _step_matrices(40):
        series = geometric_series(step, tolerance)
        assert series == reference_series(step, tolerance)
        assert all(type(v) is Fraction for row in series.total.to_lists() for v in row)
        assert type(series.last_term_norm) is Fraction


def test_geometric_series_raises_exactly_where_the_reference_raises():
    # max_terms on both sides of the term count, and at powers of two.
    for step in _step_matrices(12):
        needed = reference_series(step, 1e-2).terms_used
        for max_terms in sorted({1, 2, 3, 4, 8, needed - 1, needed, needed + 1, 2 * needed}):
            if max_terms < 1:
                continue
            expected = _series_outcome(reference_series, step, 1e-2, max_terms)
            assert _series_outcome(geometric_series, step, 1e-2, max_terms) == expected
    stuck = Matrix.identity(2)
    for max_terms in (1, 2, 5, 64):
        assert _series_outcome(geometric_series, stuck, 1e-12, max_terms) is NotConvergedError


@pytest.mark.parametrize(
    "matrix",
    [
        Matrix([[Fraction(1, 2), Fraction(-1, 4)], [0, 0]]),
        Matrix([[float("nan"), 0.0], [0.0, 0.0]], FLOAT),
        Matrix([[0.25, 0.0], [-1e-300, 0.5]], FLOAT),
    ],
)
def test_geometric_series_rejects_a_matrix_outside_its_precondition(matrix):
    # Only a nonnegative matrix with row sums at most 1 has powers whose
    # norms never increase, which the doubling search relies on.
    with pytest.raises(ValueError, match="nonnegative"):
        geometric_series(matrix, 1e-3)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_geometric_series_of_a_row_sum_above_one_is_not_converged(mode):
    # The row sums 5/4: a nonnegative matrix whose series need not converge.
    with pytest.raises(NotConvergedError, match="need not converge"):
        geometric_series(Matrix([[Fraction(1, 2), Fraction(3, 4)], [0, 0]], mode), 1e-3)


def test_geometric_series_rejects_bad_tolerance():
    # BadParametersError is a ValueError too.
    for tolerance, max_terms in [(0.0, 10), (1e-3, 0)]:
        with pytest.raises(BadParametersError) as caught:
            geometric_series(Matrix.zeros(2), tolerance, max_terms)
        assert isinstance(caught.value, ValueError)


def test_float_near_singular_determinant_is_zero_where_invert_raises():
    m = Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-14]], FLOAT)
    with pytest.raises(SingularMatrixError):
        invert(m)
    assert determinant(m) == 0.0


def test_float_determinant_flips_sign_on_swap():
    assert determinant(Matrix([[0, 1], [1, 0]], FLOAT)) == -1.0


@given(square_matrices(3, limit=2))
@settings(max_examples=80, deadline=None)
def test_float_determinant_is_zero_exactly_where_invert_raises(m):
    m = m.with_mode(FLOAT)
    try:
        invert(m)
    except SingularMatrixError:
        assert determinant(m) == 0.0
    else:
        assert determinant(m) != 0.0


def test_geometric_series_rejects_nan_tolerance():
    with pytest.raises(ValueError):
        geometric_series(Matrix([[Fraction(1, 2)]]), float("nan"))


def test_float_scalar_rounds_to_nearest_and_overflows_to_infinity():
    assert scalar(Fraction(1, 3), FLOAT) == 1 / 3
    assert scalar(10**400 + 1, FLOAT) == float("inf")
    assert scalar(-Fraction(10**400, 3), FLOAT) == float("-inf")
    assert scalar(Fraction(1, 10**400), FLOAT) == 0.0


@pytest.mark.parametrize(
    "mode",
    ["EXACT", "fraction", "exact ", "Float"],
    ids=["upper-case", "other-word", "trailing-space", "capitalised"],
)
def test_an_unknown_mode_is_refused_by_every_solve(mode):
    # Each solve turns values into scalars of its mode through scalar,
    # which names the mode it does not know instead of computing in floats.
    calls = [lambda: scalar(1, mode), lambda: Matrix([], mode), lambda: Matrix([[1]], mode)]
    for g in (make_path(), MultiDigraph(3, [])):
        undirected = MultiDigraph.from_undirected(g.n, g.arcs)
        calls += [
            lambda g=g: forest_matrices(g, mode),
            lambda g=g: verify_all_triples(g, mode=mode),
            lambda g=undirected: verify_undirected(g, mode=mode),
            lambda g=g: route_matrix(g, mode=mode),
            lambda g=g: step_matrix(g, mode=mode),
            lambda g=g: closed_route_matrix(g, mode=mode),
            lambda g=g: route_decomposition(g, 0, 1, 2, mode=mode),
        ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^unknown scalar mode {re.escape(repr(mode))}$"):
            call()
