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

The steps go in blocks of up to 16 in exact mode and 4 in float mode, and
a block of s steps runs as two halves of s/2, each half's rows taking the
other half's steps in one pass. Such a pass gives a row's value after a
run of s steps, the Schur complement, from its entries before the run and
the run's pivot rows after it; what it saves is the interpreter's work per
entry and pass, which in pure Python costs more than the arithmetic. In
exact mode Sylvester's identity, the result that makes Bareiss's divisions
exact, gives that value with one division instead of s; exact integers are
unique, so every value is the one the one-step elimination gives. In float
mode the values differ from that elimination's by rounding alone, and the
pass is subtraction-free as each step is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Callable

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


@cache
def _row_pass(width: int, exact: bool) -> Callable[..., None]:
    """``row_pass(targets, rows, k, q, pivots)``, by which each row of
    ``targets`` takes the ``width`` steps from k in one pass.

    ``x`` runs over the row from column k + width on, ``a`` over the row's
    entries in the steps' columns and ``u`` over the steps' pivot rows in
    ``rows``, from the same column on, after the steps. In exact mode the
    pass is ``(p*x - a0*u0 - a1*u1 - ...) // q``, ``p`` the last of the
    steps' pivots. In float mode it is ``x - g0*u0 - g1*u1 - ...`` with
    ``g = a / pivot``, and a row with a zero ``a`` takes one pass per
    nonzero one instead, leaving out the zero terms.
    The comprehension is written out for its width, as the generic forms
    cost the interpreter more per entry than the arithmetic; the source is
    built here once per width and mode.
    """
    m = range(width)
    a, g, p, u, y = ("".join(f"{v}{j}, " for j in m) for v in "agpuy")
    head = ["def row_pass(targets, rows, k, q, pivots):", f"end = k + {width}"]
    head += [f"{p}= pivots[k:end]", *(f"u{j} = rows[k + {j}][end:]" for j in m)]
    if exact:
        terms = "".join(f" - a{j} * y{j}" for j in m)
        body = [f"row[end:] = [(p{width - 1} * x{terms}) // q for x, {y}in zip(row[end:], {u})]"]
    else:
        terms = "".join(f" - g{j} * y{j}" for j in m)
        body = [
            f"if {' and '.join(f'a{j}' for j in m)}:",
            f"    {g}= {''.join(f'a{j} / p{j}, ' for j in m)}",
            f"    row[end:] = [x{terms} for x, {y}in zip(row[end:], {u})]",
            "else:",
            f"    for g, p, u in zip(({a}), ({p}), ({u})):",
            "        if g:",
            "            g /= p",
            "            row[end:] = [x - g * y for x, y in zip(row[end:], u)]",
        ]
    lines = [head[0], *("    " + line for line in head[1:]), "    for row in targets:"]
    lines += ["        " + line for line in [f"{a}= row[k:end]", *body]]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["row_pass"]


def _forest_solve(
    laplacian: Matrix,
) -> tuple[list[int], int, list[list[int]]] | tuple[list[float], float, list[list[float]]]:
    """``(pivots, c, R)`` from eliminating ``[c(I + L) | s | c I]``.

    ``c`` is ``D``, the scale of the exact Laplacian's integer rows, in
    exact mode and 1.0 in float mode, and ``s`` holds the
    row sums of the left block, ``c`` at the start. No pivot search: the
    pivot of step k is ``s_k`` plus the magnitudes right of the diagonal
    (GTH), positive by construction. In exact mode, where every update is
    Bareiss's exact division, it must equal the eliminated diagonal, else
    the matrix is no ``I + L``; the last pivot is then ``D^n f`` and ``R``
    is ``D^n F``, all ints. In float mode ``R_k / pivot_k`` is row k of
    ``Q``.

    Column k of ``c I`` is a multiple of the unit vector until step k
    reads it: ``c`` times the previous pivot on row k in exact mode, ``c``
    in float mode, and 0 on every other row. So it joins the right block
    only at step k, with that value, and no earlier step updates it. The
    rows grow by a top-level block's columns of ``c I`` before the block
    starts, so that every pivot row a pass reads has the row's length.

    The top-level blocks follow the binary digits of n, smallest first, with
    the blocks capped at 16 steps in exact mode and at 4 in float mode:
    n = 30 runs blocks of 2, 4, 8 and 16 steps exact, and of 2 and then
    seven of 4 float. The block's own rows run its steps, as below, and
    every other row then takes all of them in one pass.

    In exact mode that pass is one division. Let ``q`` be the pivot before
    a run of s steps from k, ``p`` its last pivot, ``a`` the row's entries
    in columns k to k + s - 1 before the run, and ``U`` the run's s pivot
    rows from column k + s on after the run. Bareiss's value after the run
    is ``(p*x - a0*U0 - ... - a(s-1)*U(s-1)) // q``. Proof: let ``B`` and
    ``T`` be the pivot rows before the run, in columns k to k + s - 1 and
    from k + s on. The steps are row operations that turn ``[B | T]`` into
    ``[p I | U]``, so ``U = p B^-1 T``, and ``det B = q^(s-1) p`` by
    Sylvester's identity (``p`` is ``B``'s last entry after s - 1 steps).
    So the bordered determinant is ``det [[B, T], [a, x]] =
    det B (x - a B^-1 T) = q^(s-1) (p*x - a.U)``, and by Sylvester's
    identity again Bareiss's value after the run is that determinant over
    ``q^s``. The columns of ``c I`` that join within the run obey it too:
    they are 0 on the row, as in the one-step elimination, and ``U`` holds
    the values that elimination gives there.

    A block of s steps runs as two halves of s/2. The first half runs on
    its own rows; the second half's rows, which have taken the steps
    before the block, then take the first half's steps in one pass, with
    ``q`` the block's previous pivot. The second half runs on its rows,
    with the first half's last pivot as its previous one. A row of the
    first half has taken every step before the second half when that half
    starts, its own step leaving it as it is, so it is one of the other
    rows of the second half's run, whose previous pivot is the first half's
    last; it takes the second half's steps in one pass with that divisor.
    By induction on s every row of the block leaves it as Bareiss's
    elimination leaves it after the block's last step, so the pass of the
    block's other rows reads ``U`` as the proof above needs it; a block of
    one step is just its pivot. A block's rows take log2(s) passes each
    and the block's other rows one; the passes at one level of the halving
    are as wide as its halves.

    In float mode the pass over the same run is
    ``x - g0*U0 - ... - g(s-1)*U(s-1)`` with ``g_j = a_j / pivot_(k+j)``.
    Gauss-Jordan, which does not scale its pivot rows, turns ``[B | T]``
    into ``[P | U]``, ``P`` the diagonal of the run's pivots, so
    ``U = P B^-1 T`` and the row's value after the run, the Schur
    complement ``x - a B^-1 T``, is ``x - (a P^-1) U``. Off the row's
    diagonal every term has the sign of ``x``, as ``a`` is at most 0 and
    ``x`` and ``U`` share a sign, so the pass adds no cancellation that the
    one-step elimination avoids. A row with a zero ``a_j`` takes one pass
    per nonzero term instead, and none if it has none. No entry is ``-0.0``
    and, on a Laplacian, every entry is finite, so ``x - 0.0*y`` is ``x``
    and those values are the full pass's; a pivot row that holds an
    infinity would make the zero term nan.

    Why 16 and 4. A pass costs one product per step and entry, and in
    exact mode one division per entry, so a wider exact block trades
    divisions, the dearest operation on Bareiss's growing integers, for
    products: exact blocks of 32 measured 4% slower than 16 at n = 33 and
    7% faster at n = 50. A float block saves only the interpreter's work
    per entry, which a row with a zero factor does not share: float blocks
    of 8 measured 5 to 10% slower than 4 at n = 8, 12 and 20 and 5 to 20%
    faster from n = 30 to 80, and blocks of 16 11 to 17% slower up to
    n = 20 (``random_graph`` inputs, 2-vCPU host, Python 3.11). Each wider
    cap pays only past the order where it first loses, so the caps stay at
    16 and 4.
    """
    n = laplacian.order
    exact = laplacian.mode == EXACT
    left, c = laplacian._rows, laplacian._scale if exact else 1.0
    zero = 0 * c
    rows = [row + [c] for row in left]
    for r, row in enumerate(rows):
        row[r] += c
    pivots = []

    def read_pivot(k: int, q) -> None:
        pivot_row = rows[k]
        pivot_row[n + 1 + k] = c * q if exact else c
        pivot = pivot_row[n] - sum(pivot_row[k + 1 : n])
        if exact and not 0 < pivot == pivot_row[k]:
            raise InconsistentWithTheoremError(
                f"pivot {k + 1} of the scaled identity-plus-Laplacian is "
                f"{format_for_message(pivot_row[k])} eliminated and {format_for_message(pivot)} "
                "from its row sum; it must be one positive value"
            )
        pivots.append(pivot)

    def run(k: int, end: int, q) -> None:
        # Rows k to end - 1, which have taken the steps before k, take steps
        # k to end - 1; q is the pivot before k.
        if end - k == 1:
            return read_pivot(k, q)
        mid = (k + end) // 2
        half = _row_pass(mid - k, exact)
        run(k, mid, q)
        half(rows[mid:end], rows, k, q, pivots)
        p = pivots[-1]
        run(mid, end, p)
        half(rows[k:mid], rows, mid, p, pivots)

    cap = 16 if exact else 4
    k, q = 0, 1
    for size in [b for b in (1, 2, 4, 8) if n % cap & b] + [cap] * (n // cap):
        end = k + size
        extra = [zero] * size
        for row in rows:
            row += extra
        run(k, end, q)
        _row_pass(size, exact)(rows[:k] + rows[end:], rows, k, q, pivots)
        k, q = end, pivots[-1]
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
