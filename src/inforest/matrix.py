"""Dense square matrices over exact rationals or IEEE doubles.

The exact mode computes without rounding: it stores integer rows over one
least positive scale and reads an entry out as a ``fractions.Fraction``;
the float mode stores plain doubles. A scalar mode is fixed when a matrix
is built and binary operations never mix modes.

One Gauss-Jordan elimination, :func:`gauss_jordan`, serves both
:func:`invert` and :func:`determinant` in both modes: the determinant is the
product of its pivots, negated once per row swap (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 9), so a matrix is singular for
both functions under the same pivot rule.

The series of a matrix's powers is summed in :mod:`inforest.routes`, beside
the error bound that counts its roundings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence, Union

from .errors import InstanceTooLargeError, SingularMatrixError

EXACT = "exact"
FLOAT = "float"

Scalar = Union[Fraction, float]

# Relative pivot threshold below which float elimination treats the matrix
# as singular. Exact mode tests pivots against zero exactly.
FLOAT_PIVOT_RTOL = 1e-12

# Defaults of the route series' parameters, which ``routes.geometric_series``
# checks: the norm below which a power of the step matrix ends the sum, and
# the term cap. They stay here, not beside the series, because the CLI
# builds every command's parser from them, and only the commands that sum
# the series may load ``routes``.
DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_TERMS = 100_000


# Python's default limit on the digits of an int converted to or from text
# (``sys.int_info.default_max_str_digits``).
MAX_DIGITS = 4300


def format_weight(value: Union[Scalar, int]) -> str:
    """The one text form of a value: ``repr`` for floats, ``p/q`` or an
    integer for exact values. Raises :class:`InstanceTooLargeError` when an
    exact value has more digits than Python converts to text."""
    if isinstance(value, float):
        return repr(value)
    try:
        return str(Fraction(value))
    except ValueError as exc:
        raise InstanceTooLargeError(
            f"a value has more than {MAX_DIGITS} digits and cannot be printed"
        ) from exc


def format_for_message(value: Union[Scalar, int]) -> str:
    """``value`` as error-message text: :func:`format_weight`'s text, or
    its sign and decimal order of magnitude beyond ``MAX_DIGITS``, so that
    building a message never raises."""
    try:
        return format_weight(value)
    except InstanceTooLargeError:
        value = Fraction(value)
        magnitude = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        return f"{'-' if value < 0 else ''}~10^{magnitude:.2f}"


def value_repr(value: Union[Scalar, int]) -> str:
    """``repr(value)``, or :func:`format_for_message`'s text for an exact
    value with more digits than Python converts to text, so that a
    ``repr`` built from it never raises."""
    try:
        return repr(value)
    except ValueError:
        return format_for_message(value)


def record_repr(record) -> str:
    """The ``repr`` of a named tuple or dataclass, ``Name(field=value,
    ...)`` as Python builds it by default, with each field's text from
    :func:`value_repr`, so that it never raises. Every record of the
    library uses it as its ``__repr__``. The fields are those of
    ``__match_args__``, which every named tuple and dataclass defines."""
    names = type(record).__match_args__
    fields = ", ".join(f"{name}={value_repr(getattr(record, name))}" for name in names)
    return f"{type(record).__qualname__}({fields})"


def scalar(value, mode: str) -> Scalar:
    """``value`` as a scalar of ``mode``: a ``Fraction``, or the nearest
    float, which is infinite with the sign of ``value`` beyond the range
    of doubles. Raises :class:`ValueError` for any mode but ``EXACT`` and
    ``FLOAT``."""
    if mode == EXACT:
        return value if type(value) is Fraction else Fraction(value)
    if mode != FLOAT:
        raise ValueError(f"unknown scalar mode {mode!r}")
    try:
        if type(value) is Fraction:
            # The correctly rounded int / int that float() runs, without
            # its Python-level __float__.
            return value.numerator / value.denominator
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def common_denominator(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer rows ``N`` and the least positive integer ``c`` such that
    ``c * rows[r][t] == N[r][t]`` for every r and t."""
    common = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (common // v.denominator) for v in row] for row in rows], common


class Matrix:
    """Immutable square matrix whose entries all live in one scalar mode.

    Every matrix has one stored form: rows ``_rows`` and a positive integer
    ``_scale``, entry (i, j) being ``_rows[i][j] / _scale``. A float matrix
    keeps its doubles at scale 1. An exact matrix keeps integers over the
    least such scale, so that ``gcd(_scale, every entry) == 1``; the zero
    matrix has scale 1, and two exact matrices are equal exactly when their
    scales and integer rows are. An exact entry becomes a ``Fraction`` only
    where it is read: ``[i, j]``, :meth:`row`, :meth:`to_lists` and ``repr``.
    """

    __slots__ = ("order", "mode", "_rows", "_scale")

    def __init__(self, rows: Iterable[Sequence], mode: str = EXACT):
        scalar(0, mode)  # checks the mode, also of a matrix with no rows
        data = [[scalar(value, mode) for value in row] for row in rows]
        if any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square")
        self.order = len(data)
        self.mode = mode
        self._rows, self._scale = common_denominator(data) if mode == EXACT else (data, 1)

    @classmethod
    def _wrap(cls, rows: list[list], mode: str, scale: int = 1) -> "Matrix":
        """Internal fast path from the stored form: doubles at scale 1 in
        float mode, integers over the positive ``scale`` in exact mode. One
        pass of gcds over the whole matrix brings an exact scale above 1 to
        its least value."""
        if scale != 1:
            common = scale
            for row in rows:
                if common == 1:
                    break
                common = math.gcd(common, *row)
            if common != 1:
                rows = [[v // common for v in row] for row in rows]
                scale //= common
        matrix = cls.__new__(cls)
        matrix.order = len(rows)
        matrix.mode = mode
        matrix._rows = rows
        matrix._scale = scale
        return matrix

    @classmethod
    def zeros(cls, order: int, mode: str = EXACT) -> "Matrix":
        return cls.identity(order, mode).scaled(0)

    @classmethod
    def identity(cls, order: int, mode: str = EXACT) -> "Matrix":
        zero, one = (0, 1) if mode == EXACT else (scalar(0, mode), scalar(1, mode))
        rows = [[one if i == j else zero for j in range(order)] for i in range(order)]
        return cls._wrap(rows, mode)

    def _read(self, row: list) -> Iterable[Scalar]:
        """The entries of a stored row as scalars of the mode, for one pass."""
        if self.mode == EXACT:
            return map(Fraction, row, repeat(self._scale))
        return row

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        value = self._rows[i][j]
        return Fraction(value, self._scale) if self.mode == EXACT else value

    def row(self, i: int) -> tuple[Scalar, ...]:
        return tuple(self._read(self._rows[i]))

    def to_lists(self) -> list[list[Scalar]]:
        return [list(self._read(row)) for row in self._rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.mode, self._scale, self._rows) == (other.mode, other._scale, other._rows)

    def __repr__(self) -> str:
        rows = ", ".join(f"[{', '.join(map(value_repr, row))}]" for row in self.to_lists())
        return f"Matrix([{rows}], mode={self.mode!r})"

    def _check_compatible(self, other: "Matrix") -> None:
        if self.mode != other.mode:
            raise ValueError(f"scalar modes differ: {self.mode} vs {other.mode}")
        if self.order != other.order:
            raise ValueError(f"orders differ: {self.order} vs {other.order}")

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """``op`` entry by entry, the two stored forms first brought to
        the least common multiple of their scales."""
        self._check_compatible(other)
        left, right, scale = self._rows, other._rows, self._scale
        if other._scale != scale:
            scale = math.lcm(scale, other._scale)
            left = _times(left, scale // self._scale)
            right = _times(right, scale // other._scale)
        rows = [list(map(op, a, b)) for a, b in zip(left, right)]
        return Matrix._wrap(rows, self.mode, scale)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        cols = list(zip(*other._rows))
        rows = [[sum(map(mul, row, col)) for col in cols] for row in self._rows]
        return Matrix._wrap(rows, self.mode, self._scale * other._scale)

    def scaled(self, factor) -> "Matrix":
        factor = scalar(factor, self.mode)
        if factor == 1:
            return self
        if self.mode == EXACT:
            factor, divisor = factor.numerator, factor.denominator
        else:
            divisor = 1
        rows = [[factor * v for v in row] for row in self._rows]
        return Matrix._wrap(rows, self.mode, self._scale * divisor)

    def with_mode(self, mode: str) -> "Matrix":
        if mode == self.mode:
            return self
        return Matrix(self.to_lists(), mode)

    def max_abs(self) -> Scalar:
        if self.order == 0:
            return scalar(0, self.mode)
        largest = max([max(map(abs, row)) for row in self._rows])
        return Fraction(largest, self._scale) if self.mode == EXACT else largest

    def row_sums(self) -> list[Scalar]:
        if self.mode == EXACT:
            return [Fraction(sum(row), self._scale) for row in self._rows]
        return [sum(row, 0.0) for row in self._rows]


def _times(rows: list[list], factor: int) -> list[list]:
    """``rows`` with every entry multiplied by the integer ``factor``."""
    if factor == 1:
        return rows
    return [[factor * v for v in row] for row in rows]


def gauss_jordan(matrix: Matrix) -> tuple[Matrix, Scalar]:
    """Inverse and determinant from one Gauss-Jordan elimination.

    Both modes pick pivots by scaled partial pivoting: the pivot of a
    column is the first candidate row with the largest magnitude relative
    to the row's scale, its largest original magnitude (1 for a zero row).
    The determinant is the product of the pivots, negated once per row
    swap. Raises :class:`SingularMatrixError` when no acceptable pivot
    exists: no candidate is nonzero, or in float mode the best relative
    magnitude is below ``FLOAT_PIVOT_RTOL``. Exact inverses and
    determinants do not depend on the pivot order, nor does the column
    where a singular matrix is found: the first that depends on the
    columns before it.
    """
    n = matrix.order
    mode = matrix.mode
    a = matrix.to_lists()
    inv = Matrix.identity(n, mode).to_lists()
    det = scalar(1, mode)
    floor = FLOAT_PIVOT_RTOL if mode == FLOAT else 0
    scales = [max((abs(v) for v in row), default=0) or 1 for row in a]
    for col in range(n):
        # An explicit loop, not max(key=): a NaN entry is never chosen.
        pivot_row, best = None, 0
        for r in range(col, n):
            size = abs(a[r][col]) / scales[r]
            if size > best:
                pivot_row, best = r, size
        if pivot_row is None or best < floor:
            raise SingularMatrixError(f"matrix of order {n} is singular at column {col}")
        if pivot_row != col:
            for rows in (a, inv, scales):
                rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        a[col] = [v / pivot for v in a[col]]
        inv[col] = [v / pivot for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return Matrix(inv, mode), det


def invert(matrix: Matrix) -> Matrix:
    """Inverse via :func:`gauss_jordan`; raises :class:`SingularMatrixError`
    where that elimination finds no acceptable pivot."""
    return gauss_jordan(matrix)[0]


def determinant(matrix: Matrix) -> Scalar:
    """Determinant via :func:`gauss_jordan`.

    Returns zero, instead of raising, exactly where :func:`invert` raises
    :class:`SingularMatrixError`.
    """
    try:
        return gauss_jordan(matrix)[1]
    except SingularMatrixError:
        return scalar(0, matrix.mode)
