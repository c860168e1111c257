"""Spanning-converging-forest matrices of a multidigraph.

For a graph with Laplacian ``L`` the matrix ``I + L`` is always invertible;
its inverse, row-normalized to sum 1, is a proximity matrix whose entry
(i, j) is the fraction of total forest weight carried by forests that put
vertex i in a tree rooted at j. Scaling by the total forest weight (the
determinant of ``I + L``) yields the matrix of raw forest weights. The
brute-force enumeration in :mod:`inforest.oracle` realizes the same values
combinatorially and serves as the independent cross-check.

Both modes find ``f = det(I + L)`` and ``F = adj(I + L)`` in one
Gauss-Jordan elimination of ``I + L`` with no pivot search. The
off-diagonal entries of ``I + L`` are at most 0 and its rows sum to 1, so
off the diagonal every update adds terms of one sign, and the pivot is
taken, as in the GTH rule (Grassmann, Taksar & Heyman, Oper. Res. 33,
1985), as the row's running sum plus the magnitudes of the entries right
of the diagonal: a sum of positive terms, never a difference. Exact mode
runs it fraction-free on Python ints (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968):
with ``D`` the least common multiple of the denominators of ``L``,
eliminating ``[D(I + L) | D I]`` leaves ``D^n f I`` on the left and
``D^n F`` on the right; every division is exact, so no ``Fraction`` is
normalized until the final entries are built. Float mode divides each
row of the right block by its pivot to get ``Q = (I + L)^-1``; ``f`` is
the product of the pivots and ``F`` is ``f Q``, with every zero of ``Q``
kept as a zero of ``F``. In both modes column k of the identity block
joins the elimination at step k, the first step that changes it; before
that it is a multiple of the k-th unit vector, which no step needs to
update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentWithTheoremError
from .graph import MultiDigraph
from .matrix import EXACT, Matrix, Scalar, common_denominator, format_for_message

# Re-exported for the benchmark's tracer, which patches invert and
# determinant here (PATCH_POINTS in perfbench/spans.py, checked by
# tests/test_trace_points.py); no code of this module calls them.
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


def _forest_solve(laplacian: Matrix) -> tuple[list[float], float, list[list[float]]]:
    """``(pivots, c, R)`` from eliminating ``[c(I + L) | s | c I]``.

    ``c`` is ``D`` in exact mode and 1.0 in float mode, and ``s`` holds the
    row sums of the left block, ``c`` at the start. No pivot search: the
    pivot of step k is ``s_k`` plus the magnitudes right of the diagonal
    (GTH), positive by construction. In exact mode, where every update is
    Bareiss's exact division, it must equal the eliminated diagonal, else
    the matrix is no ``I + L``; the last pivot is then ``D^n f`` and ``R``
    is ``D^n F``. In float mode ``R_k / pivot_k`` is row k of ``Q``.

    Column k of ``c I`` is a multiple of the unit vector until step k
    reads it: ``c`` times the previous pivot on row k in exact mode, ``c``
    in float mode, and 0 on every other row. So it joins the right block
    only at step k, with that value, and no earlier step updates it.
    """
    n = laplacian.order
    exact = laplacian.mode == EXACT
    left, c = common_denominator(laplacian._rows) if exact else (laplacian._rows, 1.0)
    zero = 0 * c
    rows = [row + [c] for row in left]
    for r, row in enumerate(rows):
        row[r] += c
    pivots, previous = [], 1
    for k in range(n):
        for row in rows:
            row.append(zero)
        pivot_row = rows[k]
        pivot_row[-1] = c * previous
        pivot = pivot_row[n] - sum(pivot_row[k + 1 : n])
        if exact and not 0 < pivot == pivot_row[k]:
            raise InconsistentWithTheoremError(
                f"pivot {k + 1} of the scaled identity-plus-Laplacian is "
                f"{format_for_message(pivot_row[k])} eliminated and {format_for_message(pivot)} "
                "from its row sum; it must be one positive value"
            )
        # Columns up to k are settled: the left block there is diagonal.
        # Off the diagonal every update adds terms of one sign.
        tail = pivot_row[k + 1 :]
        for row in rows[:k] + rows[k + 1 :]:
            factor = row[k]
            if exact:
                row[k + 1 :] = [
                    (pivot * x - factor * y) // previous for x, y in zip(row[k + 1 :], tail)
                ]
            else:
                factor /= pivot
                row[k + 1 :] = [x - factor * y for x, y in zip(row[k + 1 :], tail)]
        pivots.append(pivot)
        if exact:
            previous = pivot
    return pivots, c, [row[n + 1 :] for row in rows]


def forest_matrices(graph: MultiDigraph, mode: str = EXACT) -> ForestMatrices:
    """Compute the forest matrices from the graph's Laplacian."""
    pivots, c, weights = _forest_solve(graph.laplacian(mode))
    if mode == EXACT:
        det, scale = pivots[-1], c**graph.n
        matrix = Matrix._wrap([[Fraction(v, scale) for v in row] for row in weights], mode)
        proximity = Matrix._wrap([[Fraction(v, det) for v in row] for row in weights], mode)
        return ForestMatrices(Fraction(det, scale), matrix, proximity, mode)
    proximity = Matrix._wrap([[v / d for v in row] for row, d in zip(weights, pivots)], mode)
    total = math.prod(pivots)
    # F = f Q only where Q is nonzero: an overflowed f times 0.0 is nan, not 0.
    matrix = Matrix._wrap([[total * v if v else v for v in row] for row in proximity._rows], mode)
    return ForestMatrices(total, matrix, proximity, mode)
