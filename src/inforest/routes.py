"""Route weights of the loop-augmented walk graph.

Given a valid walk parameter ``eps`` (positive, with ``eps`` times the
largest total out-weight strictly below 1), the matrix ``I - eps * L`` is
row stochastic. Dividing it by ``1 + eps`` gives the total-arc-weight
matrix of a loop-augmented graph: each vertex gains a loop carrying its
diagonal entry, and every original arc keeps its endpoints with weight
scaled by ``eps / (1 + eps)``. Summing weights over all routes (arc walks,
loops allowed, one zero-length route per vertex) of every length converges
because each step contracts total weight by ``1 / (1 + eps)``; the sum is
proportional to the forest matrix, which is what makes route
decompositions usable to certify forest-weight identities.

The series of the step matrix is summed here by doubling,
:func:`geometric_series`, beside :func:`_tail_bound`, the error bound that
counts the doubling's roundings, so that one cannot change without the other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import BadParametersError, EpsilonOutOfRangeError, NotConvergedError
from .forest import forest_matrices
from .graph import MultiDigraph
from .matrix import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    Matrix,
    Scalar,
    format_for_message,
    record_repr,
    scalar,
)

# Re-exported for the benchmark's tracer, which patches invert here
# (PATCH_POINTS in perfbench/spans.py, checked by
# tests/test_trace_points.py); no code of this module calls it.
from .matrix import invert  # noqa: F401

EpsilonValue = Union[Fraction, int, float]


def choose_epsilon(graph: MultiDigraph) -> Fraction:
    """Default walk parameter: the midpoint 1/(2 * max out-weight).

    Any value with ``eps * max_out_weight < 1`` works; the midpoint keeps
    both series convergence and loop weights moderate, and it is exact,
    as the weights are. Arcless graphs put no constraint on eps, so 1 is
    returned by convention.
    """
    return _walk(graph, None, EXACT).eps


class _Walk(NamedTuple):
    """A checked walk parameter: ``eps`` as given, the same value as a
    scalar of the mode, and the per-step contraction ratio ``1 / (1 + eps)``."""

    eps: EpsilonValue
    scalar: Scalar
    ratio: Scalar

    __repr__ = record_repr


def _walk(graph: MultiDigraph, eps: Optional[EpsilonValue], mode: str) -> _Walk:
    """The walk parameter, checked and converted to a scalar of ``mode``.
    When ``eps`` is None it is the default of :func:`choose_epsilon`, whose
    one home this is.

    The range ``0 < eps`` and ``eps * max out-weight < 1`` (strictly) is
    tested first, exactly, as the weights are, and so that NaN and infinity
    fail it. Only then is eps converted, so an eps no double holds is out
    of range rather than an overflow inside a scaling:
    :class:`EpsilonOutOfRangeError` when it rounds to zero or overflows as
    a double, or its reciprocal, which the route weights ``1 + 1/eps``
    hold, overflows.
    """
    heaviest = graph.max_out_weight()
    if eps is None:
        eps = Fraction(1, 2) / heaviest if heaviest else Fraction(1)
    if not eps > 0:
        raise EpsilonOutOfRangeError(f"epsilon must be positive, got {format_for_message(eps)}")
    if not (eps < math.inf and scalar(eps, EXACT) * heaviest < 1):
        raise EpsilonOutOfRangeError(
            f"epsilon {format_for_message(eps)} times max out-weight "
            f"{format_for_message(heaviest)} must stay below 1"
        )
    value = scalar(eps, mode)
    if not (0 < value < math.inf and 1 / value < math.inf):
        raise EpsilonOutOfRangeError(
            f"epsilon {format_for_message(eps)} or its reciprocal is not a finite double"
        )
    return _Walk(eps, value, scalar(1, mode) / (1 + value))


def _step(graph: MultiDigraph, walk: _Walk, mode: str) -> Matrix:
    """``P = (I - eps L) / (1 + eps)`` on the stored rows of ``L``."""
    identity = Matrix.identity(graph.n, mode)
    result = (identity - graph.laplacian(mode).scaled(walk.scalar)).scaled(walk.ratio)
    # 1 - eps d is positive, but in float mode it rounds below zero
    # when eps d is within a few roundings of 1, and to -0.0 when a
    # subnormal ratio scales it; zero is the nearer value.
    for i, row in enumerate(result._rows):
        if row[i] <= 0:
            row[i] = 0.0
    assert mode == FLOAT or all(total == walk.ratio for total in result.row_sums())
    return result


def step_matrix(
    graph: MultiDigraph, eps: Optional[EpsilonValue] = None, mode: str = EXACT
) -> Matrix:
    """The step matrix ``(I - eps * L) / (1 + eps)``, the total-arc-weight
    matrix of the loop-augmented graph, whose powers the route series
    sums; eps is :func:`choose_epsilon` when None."""
    return _step(graph, _walk(graph, eps, mode), mode)


@dataclass(frozen=True)
class RouteMatrices:
    """Truncated route-weight sum together with its convergence evidence.

    ``tail_bound`` is a guaranteed upper bound on the max-abs error of
    ``route_weights`` against the exact route weights, from
    :func:`_tail_bound`: the truncation, since the last added term decays
    at least geometrically with ratio ``r = 1 / (1 + eps)`` from there on
    (row sums of the step matrix shrink exactly by that ratio each step),
    plus in float mode the rounding of the sum and of the step matrix. An
    exact ``Fraction`` in exact mode, a double rounded up in float mode.
    """

    epsilon: EpsilonValue
    step_weights: Matrix
    route_weights: Matrix
    terms_used: int
    tail_bound: Scalar

    __repr__ = record_repr


def _refuse_unreachable_tolerance(
    n: int, walk: _Walk, tolerance: float, max_terms: int, mode: str
) -> None:
    """Raise :class:`NotConvergedError` where ``max_terms`` terms provably
    cannot bring the series below ``tolerance``.

    The step matrix is nonnegative and its rows sum to ``r = 1/(1 + eps)``,
    so the rows of ``P^m`` sum to ``r^m`` and some entry is at least
    ``r^m / n``. Since ``ln(1 + eps) <= eps``, once ``max_terms * eps <=
    ln(1 / (n * tolerance))`` every term up to ``P^max_terms`` stays at or
    above ``tolerance``, and the summation must end in that error. In
    float mode each step may shrink the row sums by a further ``(2n + 8)``
    units of rounding, which are added to eps; the argument is not made
    for a tolerance below the smallest normal double.
    """
    # geometric_series rejects a tolerance or a term count out of range.
    floor = sys.float_info.min if mode == FLOAT else 0
    if not (tolerance > floor and max_terms >= 1):
        return
    logs = (math.log(tolerance), math.log(n))
    # Lowered by more than the rounding of the two logarithms.
    limit = -sum(logs) - 4 * sys.float_info.epsilon * sum(map(abs, logs))
    rounding = 2 * (n + 4) * Fraction(sys.float_info.epsilon) if mode == FLOAT else 0
    if max_terms * (Fraction(walk.scalar) + rounding) <= limit:
        raise NotConvergedError(
            f"series cannot reach tolerance {tolerance} within {max_terms} terms: at epsilon "
            f"{format_for_message(walk.eps)}, term m has an entry of at least (1 + eps)^-m / {n}"
        )


class SeriesSum(NamedTuple):
    total: Matrix
    terms_used: int
    last_term_norm: Scalar

    __repr__ = record_repr


def geometric_series(
    matrix: Matrix, tolerance: float, max_terms: int = DEFAULT_MAX_TERMS
) -> SeriesSum:
    """Sum the powers ``A^0, A^1, ..., A^p`` of ``matrix``, where ``p`` is
    the largest power whose max-abs norm is at least ``tolerance``.

    ``A`` must be nonnegative, or :class:`ValueError` is raised, with
    every row sum at most 1, or :class:`NotConvergedError` is raised, as
    its series need not converge. Then no entry of ``A^(k+1) = A A^k``
    exceeds the largest entry of ``A^k``, so the norms never increase and
    the powers at or above tolerance are exactly ``A^0..A^p``: the sum is
    the one a loop adding term by term until the first term below
    tolerance would return. Returns that sum, the number of terms added
    (``p + 1``; 0 when even ``A^0`` is below tolerance) and the norm of
    ``A^p``. Raises :class:`BadParametersError` unless ``tolerance > 0``
    and ``max_terms >= 1``, and :class:`NotConvergedError` when
    ``A^max_terms`` is still at or above tolerance, that is when more than
    ``max_terms`` terms would be needed.

    The sum is formed by doubling, in about ``4 log2 p`` products. Square:
    build ``A^(2^t)`` and ``S_(2^t) = sum of A^k for k < 2^t`` through
    ``S_(2^(t+1)) = S_(2^t) + A^(2^t) S_(2^t)`` until a power drops below
    tolerance at depth ``T``, so that ``2^(T-1) <= p < 2^T``. Descend: from
    ``q = 2^(T-1)``, for t from ``T - 2`` down to 0, accept ``q + 2^t``
    when ``A^q A^(2^t)`` is still at or above tolerance and add
    ``A^q S_(2^t)`` to the sum; this ends at ``q = p``.

    Float rounding: a product adds at most n roundings to each route
    weight (product of entries) it forms and a sum adds one, so in the
    result every route of length k carries at most ``n k + 2 T`` roundings
    (``T = p.bit_length()``), as in a term-by-term loop apart from the
    ``2 T``; :func:`_tail_bound` charges exactly these. Exact sums do not
    depend on order, so in exact mode the result equals the term-by-term
    sum.

    Exact mode runs the same steps on integers. With ``d`` the scale of
    A's stored form, each power and partial sum is held as an exact matrix
    ``X`` at scale 1 and an exponent ``e``, standing for ``X / d^e``: a
    product adds the exponents, a sum first scales the lower one up, and a
    norm is compared with ``tolerance * d^e`` exactly. No product or sum
    normalises a fraction; the result is the integer sum over the scale
    ``d^p``, normalised once. In float mode ``d`` is 1 and every scaling
    is skipped.
    """
    if not tolerance > 0:
        raise BadParametersError(f"tolerance must be positive, got {tolerance}")
    if max_terms < 1:
        raise BadParametersError(f"max_terms must be at least 1, got {max_terms}")
    if not all(value >= 0 for row in matrix._rows for value in row):
        raise ValueError("the series needs a nonnegative matrix")
    if not all(total <= 1 for total in matrix.row_sums()):
        raise NotConvergedError("a row sums to more than 1, so its series need not converge")
    n, mode = matrix.order, matrix.mode
    identity = Matrix.identity(n, mode)
    if identity.max_abs() < tolerance:
        return SeriesSum(Matrix.zeros(n, mode), 0, scalar(0, mode))
    d = matrix._scale
    base = Matrix._wrap(matrix._rows, mode)
    threshold = scalar(tolerance, mode)

    # levels[t] = (A^(2^t), S_(2^t)) at exponents 2^t and 2^t - 1, for every
    # power A^(2^t) at or above tolerance; last_norm is the norm of the highest.
    levels = []
    square, norm = base, base.max_abs()
    while norm >= threshold * d ** (1 << len(levels)):
        size = 1 << len(levels)
        if size >= max_terms:
            raise _not_converged(tolerance, max_terms, size, norm / d**size)
        if levels:
            power, block = levels[-1]
            block = block.scaled(d ** (size >> 1)) + power @ block
        else:
            block = identity
        levels.append((square, block))
        last_norm = norm
        square = square @ square
        norm = square.max_abs()
    if not levels:
        return SeriesSum(identity, 1, identity.max_abs())
    # total = S_p at exponent p - 1 and power = A^p at exponent p.
    power, total = levels[-1]
    p = 1 << (len(levels) - 1)
    for t in range(len(levels) - 2, -1, -1):
        square, block = levels[t]
        if p + (1 << t) > max_terms:
            continue
        candidate = power @ square
        norm = candidate.max_abs()
        if norm >= threshold * d ** (p + (1 << t)):
            total = total.scaled(d ** (1 << t)) + power @ block
            power, last_norm, p = candidate, norm, p + (1 << t)
    if p == max_terms:
        raise _not_converged(tolerance, max_terms, p, last_norm / d**p)
    total = Matrix._wrap((total.scaled(d) + power)._rows, mode, d**p)
    return SeriesSum(total, p + 1, last_norm / d**p)


def _not_converged(tolerance, max_terms: int, term: int, norm: Scalar) -> NotConvergedError:
    return NotConvergedError(
        f"series did not reach tolerance {tolerance} within {max_terms} terms "
        f"(term {term} has norm {float(norm):.3e})"
    )



def route_matrix(
    graph: MultiDigraph,
    eps: Optional[EpsilonValue] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_terms: int = DEFAULT_MAX_TERMS,
    mode: str = FLOAT,
) -> RouteMatrices:
    """Sum the route-weight series of the loop-augmented graph.

    Raises :class:`NotConvergedError` before the first product when the
    series provably needs more than ``max_terms`` terms, or, from
    :func:`geometric_series`, in float mode when a row of the step matrix
    rounds to a sum above 1.
    """
    walk = _walk(graph, eps, mode)
    _refuse_unreachable_tolerance(graph.n, walk, tolerance, max_terms, mode)
    step = _step(graph, walk, mode)
    series = geometric_series(step, tolerance, max_terms)
    tail = _tail_bound(graph, walk, series, mode)
    return RouteMatrices(walk.eps, step, series.total, series.terms_used, tail)


def _tail_bound(graph: MultiDigraph, walk: _Walk, series: SeriesSum, mode: str) -> Scalar:
    """Bound on ``max|R - S|``: ``R = (I - P)^-1`` holds the exact route
    weights and ``S`` is ``series.total``, summed from the step matrix
    ``P'`` of the mode.

    With ``u`` the unit roundoff, ``2^-53`` for doubles and 0 in exact
    mode, ``g(k) = k u / (1 - k u)``, and ``a`` the largest out-arc count:

    - The step. An off-diagonal entry of ``P'`` carries at most ``a + 6``
      roundings (the weights and their sum, eps, ``1/(1 + eps)`` and two
      products). The diagonal ``r (1 - eps d)`` is off by at most
      ``g(a + n + 8)`` in absolute terms, since ``eps d < 1``. So ``delta
      = 2 g(a + n + 8)`` bounds ``||P' - P||_inf``, and ``rho = ratio + 2
      delta`` every row sum of ``P'`` (the rounding of ``ratio`` itself
      included). Let ``G = 1/(1 - rho)``.
    - Truncation. With terms ``P'^0..P'^p`` added, the rest of ``P'``'s
      series is at most ``||P'^p||_max rho G``; the computed norm is low
      by at most a factor ``1 - g(n p)``. With no term added the whole
      series, at most ``G``, is the rest.
    - Summation. A route of length k reaches ``S`` through at most ``n k
      + 2 T`` roundings, ``T = p.bit_length()`` doubling levels (see
      :func:`geometric_series`), each of relative size at most ``u`` since
      every product and sum is of nonnegative terms. With ``(P'^k)_ij <=
      rho^k`` the float sum is within ``u' (n rho G^2 + 2 T G)`` of the
      exact sum of ``P'^0..P'^p``, where ``u' = u / (1 - (n p + 2 T) u)``.
      A charge per level alone would fall short: the relative error of
      ``P'^(2^t)`` doubles with each squaring, and the series weights a
      power of relative error ``n k u`` by ``rho^k``.
    - The step's rounding, amplified. ``R - R' = R (P - P') R'`` with
      ``R' = (I - P')^-1``, and ``||R||_inf = 1 + 1/eps``, so this part is
      at most ``(1 + 1/eps) delta ||R'||_max``, where ``||R'||_max`` is at
      most ``||S||_max`` plus the two parts above.

    Underflow, at most ``2^-1074`` per operation, is left out: the bound
    is never below ``delta``. The sum of the parts is evaluated exactly;
    in float mode it is rounded up to a double, infinite where ``rho``
    reaches 1 or a rounding count reaches ``1/u``. In exact mode every
    rounding part is zero, ``P' = P`` and ``rho = r = 1/(1 + eps)``, so
    the bound is the exact truncation ``||P^p||_max r / (1 - r)``, or the
    whole series ``1 / (1 - r) = 1 + 1/eps`` with no term added.
    """
    # Unit roundoff of doubles, round to nearest; a Fraction zero, not
    # the int 0, keeps the exact arithmetic in fractions.
    u = Fraction(1, 2**53) if mode == FLOAT else Fraction(0)
    n = graph.n
    p = series.terms_used - 1
    depth = max(p, 0).bit_length()
    step_roundings = max((graph.out_degree(v) for v in range(n)), default=0) + n + 8
    if max(step_roundings, n * p + 2 * depth) * u >= Fraction(1, 2):
        return math.inf

    def gamma(k: int) -> Fraction:
        return k * u / (1 - k * u)

    delta = 2 * gamma(step_roundings)
    rho = Fraction(walk.ratio) + 2 * delta
    if rho >= 1:
        return math.inf
    geo = 1 / (1 - rho)
    if p < 0:
        head, rounding = geo, 0
    else:
        head = Fraction(series.last_term_norm) / (1 - gamma(n * p)) * rho * geo
        rounding = u / (1 - (n * p + 2 * depth) * u) * (n * rho * geo**2 + 2 * depth * geo)
    step_error = (1 + 1 / Fraction(walk.eps)) * delta * (
        Fraction(series.total.max_abs()) + head + rounding
    )
    bound = head + rounding + step_error
    return bound if mode == EXACT else math.nextafter(float(bound), math.inf)


def closed_route_matrix(
    graph: MultiDigraph, eps: Optional[EpsilonValue] = None, mode: str = EXACT
) -> Matrix:
    """Route weights in closed form: the inverse of I minus the step matrix.

    That matrix is ``(eps / (1 + eps)) (I + L)``, so its inverse is
    ``(1 + 1/eps) Q`` with ``Q`` from the forest solver.
    """
    weight = 1 + 1 / _walk(graph, eps, mode).scalar
    return forest_matrices(graph, mode).proximity.scaled(weight)


@dataclass(frozen=True)
class RouteDecomposition:
    """Route-weight split of the triple (start, via, end).

    The route weight from start to end splits into routes through ``via``
    and routes avoiding it; routes through ``via`` factor as the weight of
    start-to-via routes visiting ``via`` once times the weight of
    via-to-end routes. Triples with ``via`` equal to an endpoint are
    flagged degenerate: every route contains its endpoints, so the
    avoiding weight is zero by convention and the identities hold
    trivially.
    """

    start: int
    via: int
    end: int
    start_via: Scalar
    via_via: Scalar
    via_end: Scalar
    start_end: Scalar
    start_via_once: Scalar
    through_via: Scalar
    avoiding_via: Scalar
    degenerate: bool

    __repr__ = record_repr


def route_decomposition(
    graph: MultiDigraph,
    start: int,
    via: int,
    end: int,
    eps: Optional[EpsilonValue] = None,
    mode: str = EXACT,
) -> RouteDecomposition:
    """Decompose closed-form route weights over the triple (start, via, end).

    The avoiding weight is the (start, end) closed-form route weight of the
    cut graph, the graph without the out-arcs of ``via``. Every other
    vertex keeps its arcs and its loop, while a route that enters ``via``
    there stays on its loop; so the routes from ``start`` to an ``end``
    other than ``via`` are exactly the original routes that avoid ``via``.
    """
    for v in (start, via, end):
        graph.check_vertex(v)
    weight = 1 + 1 / _walk(graph, eps, mode).scalar
    full = forest_matrices(graph, mode).proximity
    degenerate = via in (start, end)
    if degenerate:
        avoiding = scalar(0, mode)
    else:
        cut = MultiDigraph(graph.n, [arc for arc in graph.arcs if arc.tail != via])
        avoiding = forest_matrices(cut, mode).proximity[start, end] * weight
    start_via = full[start, via] * weight
    via_via = full[via, via] * weight
    via_end = full[via, end] * weight
    start_end = full[start, end] * weight
    return RouteDecomposition(
        start=start,
        via=via,
        end=end,
        start_via=start_via,
        via_via=via_via,
        via_end=via_end,
        start_end=start_end,
        start_via_once=start_via / via_via,
        through_via=start_end - avoiding,
        avoiding_via=avoiding,
        degenerate=degenerate,
    )
