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
``D^n F`` on the right; every division is exact, and the integer rows of
``D^n F`` become ``F`` over the scale ``D^n`` and ``Q`` over ``D^n f``
with no ``Fraction`` built. Float mode divides each
row of the right block by its pivot to get ``Q = (I + L)^-1``; ``f`` is
the product of the pivots and ``F`` is ``f Q``, with every zero of ``Q``
kept as a zero of ``F``. In both modes column k of the identity block
joins the elimination at step k, the first step that changes it; before
that it is a multiple of the k-th unit vector, which no step needs to
update.

The first ``n mod 4`` steps run alone and the rest go in blocks of four.
In float mode a row's entry takes the same operations in the same order as
in four passes of one step each, so every value is the one the one-step
elimination gives; what the block saves is the interpreter's work per
entry and pass, which in pure Python costs more than the arithmetic. In
exact mode Sylvester's identity, the result that makes Bareiss's divisions
exact, gives an entry's value after the block's four steps with one
division instead of four; exact integers are unique, so every value is
again the one the one-step elimination gives. Each step of a block first
goes only to the block's later rows. A pivot row, after its own step,
is then one of the other rows of the run of the block's later steps, whose
previous pivot is its own; so the identity gives its value after the block
with one division by that pivot, and rows k + 2, k + 1 and k take their
passes in that order. The lone steps come first, where Bareiss's
integers are smallest, since each costs a division per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentWithTheoremError
from .graph import MultiDigraph
from .matrix import EXACT, Matrix, Scalar, format_for_message, record_repr

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

    __repr__ = record_repr


def _forest_solve(laplacian: Matrix) -> tuple[list[float], float, list[list[float]]]:
    """``(pivots, c, R)`` from eliminating ``[c(I + L) | s | c I]``.

    ``c`` is ``D``, the scale of the exact Laplacian's integer rows, in
    exact mode and 1.0 in float mode, and ``s`` holds the
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

    The first ``n mod 4`` steps run alone; the others go in blocks of four,
    k to k + 3. Step k + j updates only the block's later rows once pivot
    k + j is read. Every other row then takes one pass over its tail, from
    column k + 4 on, and so do the block's first three rows, as below.

    In exact mode that pass is one division. Let ``q`` be the pivot before
    the block, ``p3`` the block's last pivot, ``a`` the row's entries in
    columns k to k + 3 before the block, and ``U`` the block's four pivot
    rows from column k + 4 on after the block's steps. Bareiss's value
    after step k + 3 is ``(p3*x - a0*U0 - a1*U1 - a2*U2 - a3*U3) // q``.
    Proof: let ``B`` and ``T`` be the block's pivot rows before the block,
    in columns k to k + 3 and from k + 4 on. The steps are row operations
    that turn ``[B | T]`` into ``[p3 I | U]``, so ``U = p3 B^-1 T``, and
    ``det B = q^3 p3`` by Sylvester's identity (``p3`` is ``B``'s last
    entry after three steps). So the bordered determinant is
    ``det [[B, T], [a, x]] = det B (x - a B^-1 T) = q^3 (p3*x - a.U)``,
    and by Sylvester's identity again Bareiss's value after four steps is
    that determinant over ``q^4``. The columns of ``c I`` that join within
    the block obey it too: they are 0 on the row, as in the one-step
    elimination, and ``U`` holds the values that elimination gives there.

    The same proof holds for a run of s steps, with ``q^(s-1)`` and
    ``q^s``. Pivot row k + l has taken steps k to k + l - 1 when its
    pivot is read, and its own step leaves it as it is. So it is one of the
    other rows of the run of steps k + l + 1 to k + 3, whose previous pivot
    is ``p_l``, and its value after the block is
    ``(p3*x - sum of a_m*U_m over m > l) // p_l``. That run's pivot rows
    are the block's later rows as the forward steps left them, and its
    ``U`` is their tails after the whole block; so rows k + 2, k + 1 and
    k take their passes in that order. Row k + 2's pass is its lone step
    k + 3.

    In float mode the row finds its four factors in turn, the factor of
    step k + j being its column k + j after the block's first j steps, and
    its pass is ``x - g0*y0 - g1*y1 - g2*y2 - g3*y3``. Each entry takes the
    same operations in the same order as in four passes; the columns of
    ``c I`` that join within the block, still 0 on those rows, take the
    earlier steps' terms too, which leaves them 0 (``0.0 - g * 0.0`` is
    ``0.0`` for a finite g). A float row with a zero factor takes the
    block's steps one at a time, and so skips those steps as a lone step
    does; that keeps the operations the same where a pivot row holds an
    infinity, and saves the pass on sparse rows. The block's first three
    rows take their later steps one at a time after the block's pivots,
    with the tails each step read, which are the values they took before.

    The lone steps come first because Bareiss's integers grow with the
    step: pivot k is ``D^(k+1)`` times a leading minor of ``I + L``. A
    lone step costs one division per entry and a block one per four
    steps, so the lone steps take the smallest integers; in float mode
    the steps, and so every value, are the same in any grouping.
    """
    n = laplacian.order
    exact = laplacian.mode == EXACT
    left, c = laplacian._rows, laplacian._scale if exact else 1.0
    zero = 0 * c
    rows = [row + [c] for row in left]
    for r, row in enumerate(rows):
        row[r] += c
    pivots = []

    def pivot_of(k: int, previous) -> float:
        pivot_row = rows[k]
        pivot_row[n + 1 + k] = c * previous
        pivot = pivot_row[n] - sum(pivot_row[k + 1 : n])
        if exact and not 0 < pivot == pivot_row[k]:
            raise InconsistentWithTheoremError(
                f"pivot {k + 1} of the scaled identity-plus-Laplacian is "
                f"{format_for_message(pivot_row[k])} eliminated and {format_for_message(pivot)} "
                "from its row sum; it must be one positive value"
            )
        pivots.append(pivot)
        return pivot

    def step(row: list, k: int, pivot, previous, tail: list) -> None:
        # Columns up to k are settled: the left block there is diagonal.
        # Off the diagonal every update adds terms of one sign.
        factor = row[k]
        if exact:
            row[k + 1 :] = [
                (pivot * x - factor * y) // previous for x, y in zip(row[k + 1 :], tail)
            ]
        elif factor:  # x - 0*y is x for finite y: a row with no entry in column k stays
            factor /= pivot
            row[k + 1 :] = [x - factor * y for x, y in zip(row[k + 1 :], tail)]

    previous = 1
    blocks = [(k, 1) for k in range(n % 4)] + [(k, 4) for k in range(n % 4, n, 4)]
    for k, size in blocks:
        end = k + size
        extra = [zero] * size
        for row in rows:
            row += extra
        steps = []
        block = rows[k:end]
        for j, pivot_row in enumerate(block):
            pivot = pivot_of(k + j, previous)
            steps.append((k + j, pivot, previous, pivot_row[k + j + 1 :]))
            for row in block[j + 1 :]:
                step(row, *steps[-1])
            if exact:
                previous = pivot
        others = rows[:k] + rows[end:]
        if size == 1:
            for row in others:
                step(row, *steps[0])
            continue
        (_, p0, q, t0), (_, p1, _, t1), (_, p2, _, t2), (_, p3, _, t3) = steps
        if exact:
            # Rows k + 2, k + 1 and k, in that order, take the block's later
            # steps in one division by their own pivot.
            b0, b1, b2, _ = block
            step(b2, *steps[3])
            a2, a3 = b1[k + 2 : end]
            b1[end:] = [
                (p3 * x - a2 * y2 - a3 * y3) // p1 for x, y2, y3 in zip(b1[end:], b2[end:], t3)
            ]
            a1, a2, a3 = b0[k + 1 : end]
            b0[end:] = [
                (p3 * x - a1 * y1 - a2 * y2 - a3 * y3) // p0
                for x, y1, y2, y3 in zip(b0[end:], b1[end:], b2[end:], t3)
            ]
            reduced = [pivot_row[end:] for pivot_row in block]
            for row in others:
                a0, a1, a2, a3 = row[k:end]
                row[end:] = [
                    (p3 * x - a0 * y0 - a1 * y1 - a2 * y2 - a3 * y3) // q
                    for x, y0, y1, y2, y3 in zip(row[end:], *reduced)
                ]
            continue
        for l, row in enumerate(block):
            for args in steps[l + 1 :]:
                step(row, *args)
        u0, u1, u2 = t0[3:], t1[2:], t2[1:]  # from column end on, as t3
        for row in others:
            f0, a1, a2, a3 = row[k:end]
            g0 = f0 / p0
            f1 = a1 - g0 * t0[0]
            g1 = f1 / p1
            f2 = a2 - g0 * t0[1] - g1 * t1[0]
            g2 = f2 / p2
            f3 = a3 - g0 * t0[2] - g1 * t1[1] - g2 * t2[0]
            if f0 and f1 and f2 and f3:
                g3 = f3 / p3
                row[end:] = [
                    x - g0 * y0 - g1 * y1 - g2 * y2 - g3 * y3
                    for x, y0, y1, y2, y3 in zip(row[end:], u0, u1, u2, t3)
                ]
            else:
                for args in steps:
                    step(row, *args)
    return pivots, c, [row[n + 1 :] for row in rows]


def forest_matrices(graph: MultiDigraph, mode: str = EXACT) -> ForestMatrices:
    """Compute the forest matrices from the graph's Laplacian."""
    pivots, c, weights = _forest_solve(graph.laplacian(mode))
    if mode == EXACT:
        det, scale = pivots[-1], c**graph.n
        matrix = Matrix._wrap(weights, mode, scale)
        proximity = Matrix._wrap(weights, mode, det)
        return ForestMatrices(Fraction(det, scale), matrix, proximity, mode)
    proximity = Matrix._wrap([[v / d for v in row] for row, d in zip(weights, pivots)], mode)
    total = math.prod(pivots)
    # F = f Q only where Q is nonzero: an overflowed f times 0.0 is nan, not 0.
    matrix = Matrix._wrap([[total * v if v else v for v in row] for row in proximity._rows], mode)
    return ForestMatrices(total, matrix, proximity, mode)
