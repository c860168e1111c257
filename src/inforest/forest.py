"""Spanning-converging-forest matrices of a multidigraph.

For a graph with Laplacian ``L`` the matrix ``I + L`` is always invertible;
its inverse, row-normalized to sum 1, is a proximity matrix whose entry
(i, j) is the fraction of total forest weight carried by forests that put
vertex i in a tree rooted at j. Scaling by the total forest weight (the
determinant of ``I + L``) yields the matrix of raw forest weights. The
brute-force enumeration in :mod:`inforest.oracle` realizes the same values
combinatorially and serves as the independent cross-check.

Exact mode finds ``f = det(I + L)`` and ``F = adj(I + L)`` together in one
fraction-free Gauss-Jordan elimination on Python ints (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968). With ``D`` the least common multiple of the denominators
of ``L``, ``D(I + L)`` is the integer matrix ``DL`` with ``D`` added on the
diagonal, and eliminating ``[D(I + L) | D I]`` leaves ``D^n f I`` on the
left and ``D^n F`` on the right; every division in the loop is exact, so
no ``Fraction`` is normalized until the final entries are built. Float
mode takes ``Q = (I + L)^-1`` and ``f`` from one Gauss-Jordan elimination
with scaled partial pivoting (:func:`inforest.matrix.gauss_jordan`), whose
pivot product is the determinant, and scales ``Q`` by ``f`` to get ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentWithTheoremError, InstanceTooLargeError, SingularMatrixError
from .graph import MultiDigraph
from .matrix import EXACT, Matrix, Scalar, common_denominator, format_for_message, gauss_jordan

# The general reference solvers stay importable from here.
from .matrix import determinant, invert  # noqa: F401


@dataclass(frozen=True)
class ForestMatrices:
    """Total forest weight, forest-weight matrix, and proximity matrix.

    ``matrix[i, j]`` is the total weight of spanning converging forests
    having vertex i in a tree rooted at j; rows sum to ``total_weight``.
    ``proximity`` is ``matrix`` divided by ``total_weight``; rows sum to 1.
    """

    total_weight: Scalar
    matrix: Matrix
    proximity: Matrix
    mode: str


def _integer_forest_solve(laplacian: Matrix) -> tuple[int, int, list[list[int]]]:
    """``(det, scale, R)`` with ``f = det / scale`` and ``F = R / scale``.

    ``scale`` is ``D^n``, where ``D`` is the least common denominator of
    ``L``, which is also that of ``I + L``; the identity is added on that
    integer scale. No pivot search: ``I + L`` is strictly row diagonally
    dominant, so every leading principal minor of ``D(I + L)``, which is
    the pivot of its step, is positive.
    """
    n = laplacian.order
    flat, common = common_denominator([v for i in range(n) for v in laplacian.row(i)])
    rows = [flat[r * n : (r + 1) * n] + [0] * n for r in range(n)]
    for r, row in enumerate(rows):
        row[r] += common
        row[n + r] = common
    previous = 1
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise InconsistentWithTheoremError(
                f"leading principal minor {k + 1} of the scaled identity-plus-Laplacian "
                f"is {format_for_message(pivot)}; it must be positive"
            )
        # Columns up to k are settled: the left block there is diagonal.
        tail = pivot_row[k + 1 :]
        for r in range(n):
            if r == k:
                continue
            row = rows[r]
            factor = row[k]
            row[k + 1 :] = [
                (pivot * x - factor * y) // previous for x, y in zip(row[k + 1 :], tail)
            ]
        previous = pivot
    return previous, common**n, [row[n:] for row in rows]


def forest_matrices(graph: MultiDigraph, mode: str = EXACT) -> ForestMatrices:
    """Compute the forest matrices from the graph's Laplacian.

    Raises :class:`InstanceTooLargeError` where float elimination loses
    too much precision to find a pivot, which happens when the weights
    span too many orders of magnitude; exact mode solves those graphs.
    """
    laplacian = graph.laplacian(mode)
    if mode == EXACT:
        det, scale, weights = _integer_forest_solve(laplacian)
        return ForestMatrices(
            total_weight=Fraction(det, scale),
            matrix=Matrix._wrap([[Fraction(v, scale) for v in row] for row in weights], EXACT),
            proximity=Matrix._wrap([[Fraction(v, det) for v in row] for row in weights], EXACT),
            mode=mode,
        )
    try:
        proximity, total = gauss_jordan(Matrix.identity(graph.n, mode) + laplacian)
    except SingularMatrixError as exc:
        # I + L is never singular: the pivot test failed on rounding error.
        raise InstanceTooLargeError(
            "identity-plus-Laplacian lost its pivots to rounding: the weights span too "
            "many orders of magnitude for float mode; exact mode solves this graph"
        ) from exc
    return ForestMatrices(
        total_weight=total,
        matrix=proximity.scaled(total),
        proximity=proximity,
        mode=mode,
    )
