"""Matrix kernel: stored form, determinant, and inversion."""

import math
import random
import re
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inforest import (
    EXACT,
    FLOAT,
    Matrix,
    MultiDigraph,
    SingularMatrixError,
    determinant,
    closed_route_matrix,
    forest_matrices,
    invert,
    random_graph,
    route_decomposition,
    route_matrix,
    step_matrix,
    verify_all_triples,
)
from inforest.matrix import W, scalar
from tests.helpers import FractionRows, make_path

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


@pytest.mark.parametrize("mode, zero", [(EXACT, Fraction(0)), (FLOAT, 0.0)])
def test_max_abs_of_a_matrix_without_rows_is_the_zero_of_its_mode(mode, zero):
    norm = Matrix([], mode).max_abs()
    assert norm == zero and type(norm) is type(zero)


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


def test_float_scalar_rounds_to_nearest_and_overflows_to_infinity():
    assert scalar(Fraction(1, 3), FLOAT) == 1 / 3
    assert scalar(10**400 + 1, FLOAT) == float("inf")
    assert scalar(-Fraction(10**400, 3), FLOAT) == float("-inf")
    assert scalar(Fraction(1, 10**400), FLOAT) == 0.0


def test_float_scalar_rounds_a_fraction_without_its_python_level_float(monkeypatch):
    # One correctly rounded int / int gives the double float() gives, and
    # the float Laplacian turns each arc weight into a double that way.
    rng = random.Random(5)
    values = [Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30)) for _ in range(500)]
    values += [Fraction(2**53 + 1, 2**60), Fraction(1, 3), Fraction(10**308, 7)]
    expected = [float(v) for v in values]
    laplacian = random_graph(12, 2).laplacian(FLOAT)

    def refused(value):
        raise AssertionError("Fraction.__float__ called")

    monkeypatch.setattr(Fraction, "__float__", refused)
    assert [scalar(v, FLOAT) for v in values] == expected
    assert random_graph(12, 2).laplacian(FLOAT) == laplacian


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
            lambda g=undirected: verify_all_triples(g, mode=mode),
            lambda g=g: route_matrix(g, mode=mode),
            lambda g=g: step_matrix(g, mode=mode),
            lambda g=g: closed_route_matrix(g, mode=mode),
            lambda g=g: route_decomposition(g, 0, 1, 2, mode=mode),
        ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^unknown scalar mode {re.escape(repr(mode))}$"):
            call()


# Entries of the stored-form tests: zero, small and 300-bit rationals of
# either sign, and values beyond the range of doubles.
_BIG = 2**300
stored_entries = st.one_of(
    st.just(Fraction(0)),
    small_fractions(),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.builds(lambda sign, bits: sign * Fraction(2**bits + 1, 3), st.sampled_from([-1, 1]),
              st.integers(1020, 1100)),
)


@st.composite
def stored_rows(draw, order=None):
    """Square rows of ``Fraction``s of order 0 to 3 unless ``order`` is given."""
    order = draw(st.integers(0, 3)) if order is None else order
    entries = st.lists(stored_entries, min_size=order, max_size=order)
    return draw(st.lists(entries, min_size=order, max_size=order))


@st.composite
def stored_pairs(draw):
    first = draw(stored_rows())
    return first, draw(stored_rows(len(first)))


def _assert_stored_form(matrix: Matrix) -> None:
    """Integer rows over the least positive scale, read back as Fractions."""
    stored, scale = matrix._rows, matrix._scale
    assert type(scale) is int and scale > 0
    assert all(type(v) is int for row in stored for v in row)
    assert math.gcd(scale, *(v for row in stored for v in row)) == 1
    if not any(v for row in stored for v in row):
        assert scale == 1
    values = matrix.to_lists()
    assert all(type(v) is Fraction for row in values for v in row)
    assert [list(matrix.row(i)) for i in range(matrix.order)] == values
    assert all(
        type(matrix[i, j]) is Fraction and matrix[i, j] == values[i][j]
        for i in range(matrix.order)
        for j in range(matrix.order)
    )


@given(stored_rows())
@settings(max_examples=150, deadline=None)
def test_an_exact_matrix_keeps_integer_rows_over_its_least_scale(rows):
    matrix = Matrix(rows)
    _assert_stored_form(matrix)
    assert matrix.to_lists() == rows
    assert Matrix(matrix.to_lists()) == matrix
    assert repr(matrix) == f"Matrix({rows!r}, mode='exact')"


def test_repr_of_an_entry_too_long_to_print_gives_its_magnitude():
    # Fraction's repr converts at most 4,300 digits to text; such an entry
    # prints as the sign and order of magnitude of an error message.
    matrix = Matrix([[10**4400, 0], [Fraction(1, 3), -Fraction(1, 10**4400)]])
    rows = "[[~10^4400.00, Fraction(0, 1)], [Fraction(1, 3), -~10^-4400.00]]"
    assert repr(matrix) == f"Matrix({rows}, mode='exact')"
    assert repr(Matrix([[0.5, -math.inf], [0.0, 1e300]], FLOAT)) == (
        "Matrix([[0.5, -inf], [0.0, 1e+300]], mode='float')"
    )


@pytest.mark.parametrize("order", [0, 1, 3])
def test_zero_and_identity_have_scale_one(order):
    for matrix in (Matrix.zeros(order), Matrix([[0] * order] * order), Matrix.identity(order)):
        _assert_stored_form(matrix)
        assert matrix._scale == 1
    assert Matrix.zeros(order) == Matrix([[Fraction(0)] * order] * order)
    assert Matrix.zeros(order) != 0
    with pytest.raises(TypeError):
        hash(Matrix.identity(order))


@given(stored_pairs(), stored_entries)
@settings(max_examples=150, deadline=None)
def test_exact_operations_equal_the_fraction_reference(pair, factor):
    a, b = pair
    left, right = Matrix(a), Matrix(b)
    ref_left, ref_right = FractionRows(a), FractionRows(b)
    assert (left == right) == (a == b)
    assert left == Matrix(FractionRows(a).rows)
    for result, expected in [
        (left + right, ref_left + ref_right),
        (left - right, ref_left - ref_right),
        (left @ right, ref_left @ ref_right),
        (left.scaled(factor), ref_left.scaled(factor)),
        (left.scaled(1), ref_left),
    ]:
        _assert_stored_form(result)
        assert result.to_lists() == expected.rows
        assert result == Matrix(expected.rows)
    norm = left.max_abs()
    assert type(norm) is Fraction and norm == ref_left.max_abs()
    sums = left.row_sums()
    assert all(type(v) is Fraction for v in sums) and sums == ref_left.row_sums()
    floats = left.with_mode(FLOAT)
    assert floats.mode == FLOAT and floats.to_lists() == ref_left.floats()
    assert all(type(v) is float for row in floats.to_lists() for v in row)


def test_with_mode_gives_signed_infinities_beyond_the_double_range():
    huge = Fraction(2**1100, 3)
    matrix = Matrix([[huge, -huge], [Fraction(1, 2**1100), 0]])
    assert matrix.with_mode(FLOAT).to_lists() == [[math.inf, -math.inf], [0.0, 0.0]]
    assert matrix.with_mode(FLOAT).to_lists() == FractionRows(matrix.to_lists()).floats()


def _reference_product(left, right):
    """Stored rows of ``left @ right`` with each entry the products of a row
    and a column added left to right onto the int 0. An explicit fold, as
    ``sum`` adds floats with compensation from Python 3.12 on."""
    cols = list(zip(*right._rows))
    return [[reduce(add, map(mul, row, col), 0) for col in cols] for row in left._rows]


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e308]


@pytest.mark.parametrize("order", [0, 1, 2, W - 1, W, W + 1, 2 * W + 1])
def test_the_written_out_product_rounds_as_a_left_to_right_sum(order):
    # The same roundings in the same order, signed zeros, infinities, NaN
    # and subnormals included, for every chunking of the terms by W.
    rng = random.Random(order)

    def floats(special_rate, scale=1.0):
        return [
            [
                rng.choice(_SPECIAL_FLOATS) if rng.random() < special_rate else rng.uniform(-4, 4) * scale
                for _ in range(order)
            ]
            for _ in range(order)
        ]

    def ints():
        return [[rng.getrandbits(300) - 2**299 for _ in range(order)] for _ in range(order)]

    negative_zeros = Matrix([[-0.0] * order] * order, FLOAT)
    ones = Matrix([[1.0] * order] * order, FLOAT)
    # Products of subnormal size at the scale 2^-530.
    kinds = [(0.0, 1.0), (0.0, 2.0**-530), (0.3, 1.0)]
    pairs = [(Matrix(floats(*kind), FLOAT), Matrix(floats(*kind), FLOAT)) for kind in kinds]
    pairs += [(negative_zeros, ones), (ones, negative_zeros), (Matrix(ints()), Matrix(ints()))]
    for left, right in pairs:
        product = left @ right
        assert product._scale == 1
        expected = _reference_product(left, right)
        assert [list(map(repr, row)) for row in product._rows] == [
            list(map(repr, row)) for row in expected
        ]
