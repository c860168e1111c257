"""Walk parameter, step matrix, route series, and decompositions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from inforest import (
    BadParametersError,
    EXACT,
    FLOAT,
    EpsilonOutOfRangeError,
    Matrix,
    NotConvergedError,
    MultiDigraph,
    choose_epsilon,
    closed_route_matrix,
    complete_graph,
    forest_matrices,
    geometric_series,
    invert,
    path_graph,
    random_graph,
    route_decomposition,
    route_matrix,
    step_matrix,
)
from tests.helpers import (
    CORPUS_SEED,
    corpus,
    make_path,
    make_triangle,
    matrix_power,
    multidigraphs,
    random_multidigraph,
    reference_series,
    reference_step,
    route_weights_by_length,
)


def test_choose_epsilon_rules():
    assert choose_epsilon(MultiDigraph(2, [])) == 1
    assert choose_epsilon(make_triangle()) == Fraction(1, 4)
    eps = choose_epsilon(MultiDigraph(2, [(0, 1, 4)]))
    assert eps == Fraction(1, 8) and eps * 4 == Fraction(1, 2) < 1


def test_validate_epsilon_bounds():
    g = make_triangle()  # max out-weight 2
    step_matrix(g, Fraction(1, 4))
    with pytest.raises(EpsilonOutOfRangeError, match="^epsilon 1/2 times max out-weight 2 must stay below 1$"):
        step_matrix(g, Fraction(1, 2))
    with pytest.raises(EpsilonOutOfRangeError, match="^epsilon must be positive, got 0$"):
        step_matrix(g, 0)
    with pytest.raises(EpsilonOutOfRangeError, match="^epsilon must be positive, got -1$"):
        step_matrix(g, -1)


def test_a_route_walk_sums_the_max_out_weight_once(monkeypatch):
    g = make_triangle()
    calls = []
    original = MultiDigraph.max_out_weight

    def counted(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(MultiDigraph, "max_out_weight", counted)
    for eps in (None, Fraction(1, 4)):
        calls.clear()
        route_matrix(g, eps)
        assert len(calls) == 1
    calls.clear()
    step_matrix(g, choose_epsilon(g))
    assert len(calls) == 2


def test_epsilon_range_is_checked_against_the_exact_weights():
    # 0.1 + 0.7 is 0.7999999999999999 in floats, below the exact sum of the
    # two doubles, so this eps passes a range check on the float sum.
    g = MultiDigraph(2, [(0, 1, 0.1), (0, 1, 0.7)])
    eps = 2 / (Fraction(0.1) + Fraction(0.7) + Fraction(0.1 + 0.7))
    # A float eps is compared by its exact value too: this one times the
    # float sum 0.6 + 0.7 rounds below 1.
    heavy = MultiDigraph(2, [(0, 1, 0.6), (0, 1, 0.7)])
    for graph, value in ((g, eps), (heavy, 0.7692307692307693)):
        for mode in (EXACT, FLOAT):
            with pytest.raises(EpsilonOutOfRangeError):
                route_matrix(graph, value, mode=mode)
    assert choose_epsilon(g) == 1 / (2 * (Fraction(0.1) + Fraction(0.7)))


def test_step_matrix_examples():
    assert step_matrix(MultiDigraph(2, []), 1) == Matrix.identity(2).scaled(Fraction(1, 2))
    single = step_matrix(MultiDigraph(2, [(0, 1, 1)]), Fraction(1, 2))
    assert single.to_lists() == [[Fraction(1, 3), Fraction(1, 3)], [0, Fraction(2, 3)]]
    path = step_matrix(make_path(), Fraction(1, 2))
    assert path.to_lists() == [
        [Fraction(1, 3), Fraction(1, 3), 0],
        [0, Fraction(1, 3), Fraction(1, 3)],
        [0, 0, Fraction(2, 3)],
    ]


@given(multidigraphs())
@settings(max_examples=60, deadline=None)
def test_step_matrix_rows_sum_to_the_contraction_ratio(g):
    eps = choose_epsilon(g)
    p = step_matrix(g, eps)
    for total in p.row_sums():
        assert total == 1 / (1 + eps)
    for i in range(g.n):
        for j in range(g.n):
            assert 0 <= p[i, j] <= 1
    # The route series sums the powers of this very matrix.
    assert p == step_matrix(g) == route_matrix(g, eps, tolerance=2, mode=EXACT).step_weights


def test_route_series_empty_graph():
    g = MultiDigraph(2, [])
    result = route_matrix(g, eps=1, mode=EXACT)
    closed = closed_route_matrix(g, eps=1)
    assert closed == Matrix.identity(2).scaled(2)
    gap = (result.route_weights - closed).max_abs()
    assert gap <= result.tail_bound


def test_closed_route_matrix_single_arc():
    g = MultiDigraph(2, [(0, 1, 1)])
    closed = closed_route_matrix(g, eps=Fraction(1, 2))
    assert closed.to_lists() == [[Fraction(3, 2), Fraction(3, 2)], [0, 3]]


def test_closed_form_equals_proportional_forest_matrix():
    g = make_triangle()
    eps = choose_epsilon(g)
    closed = closed_route_matrix(g, eps=eps)
    assert closed == forest_matrices(g).proximity.scaled(1 + 1 / eps)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_route_series_proportional_to_forest_matrix(mode):
    for g in (make_path(), make_triangle(), MultiDigraph(2, [(0, 1, Fraction(5, 2))])):
        default = choose_epsilon(g)
        for eps in (default, default / 2):
            result = route_matrix(g, eps=eps, mode=mode)
            expected = closed_route_matrix(g, eps, mode)
            gap = (result.route_weights - expected).max_abs()
            assert gap <= result.tail_bound
            assert float(result.tail_bound) <= 1e-9


def test_route_series_partial_sums_nondecreasing():
    g = make_triangle()
    loose = route_matrix(g, tolerance=1e-3, mode=EXACT).route_weights
    tight = route_matrix(g, tolerance=1e-10, mode=EXACT).route_weights
    closed = closed_route_matrix(g)
    for i in range(g.n):
        for j in range(g.n):
            assert loose[i, j] <= tight[i, j] <= closed[i, j]


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


def test_geometric_series_rejects_nan_tolerance():
    with pytest.raises(ValueError):
        geometric_series(Matrix([[Fraction(1, 2)]]), float("nan"))



def test_zero_length_routes():
    g = make_path()
    assert route_weights_by_length(g, 0, 0)[0] == 1
    assert route_weights_by_length(g, 0, 0)[1] == 0


def test_length_two_routes_single_arc():
    # Loop at the source then the arc, or the arc then the loop at the head:
    # (1/3)(1/3) + (1/3)(2/3) = 1/3, the corresponding square-matrix entry.
    g = MultiDigraph(2, [(0, 1, 1)])
    eps = Fraction(1, 2)
    assert route_weights_by_length(g, 0, 2, eps=eps)[1] == Fraction(1, 3)
    step = route_matrix(g, eps=eps, mode=EXACT).step_weights
    assert (step @ step)[0, 1] == Fraction(1, 3)


@pytest.mark.parametrize("graph", [make_path(), make_triangle(), complete_graph(3)])
def test_route_enumeration_matches_matrix_powers(graph):
    eps = choose_epsilon(graph)
    step = route_matrix(graph, eps=eps, mode=EXACT).step_weights
    power = Matrix.identity(graph.n)
    for length in range(7):
        for source in range(graph.n):
            row = route_weights_by_length(graph, source, length, eps=eps)
            assert row == list(power.row(source))
        power = power @ step


@given(multidigraphs(max_n=3, max_arcs=4))
@settings(max_examples=25, deadline=None)
def test_route_enumeration_matches_powers_random(g):
    eps = choose_epsilon(g)
    step = route_matrix(g, eps=eps, mode=EXACT, tolerance=1e-3).step_weights
    length = 3
    expected = matrix_power(step, length)
    for source in range(g.n):
        assert route_weights_by_length(g, source, length, eps=eps) == list(
            expected.row(source)
        )


def test_decomposition_path_triple_is_equality():
    deco = route_decomposition(make_path(), 0, 1, 2)
    assert not deco.degenerate
    assert deco.avoiding_via == 0
    assert deco.start_via == deco.start_via_once * deco.via_via
    assert deco.start_end == deco.through_via + deco.avoiding_via
    assert deco.through_via == deco.start_via_once * deco.via_end
    assert deco.start_via * deco.via_end == deco.start_end * deco.via_via


def test_decomposition_triangle_triple_is_strict():
    deco = route_decomposition(make_triangle(), 0, 1, 2)
    assert deco.avoiding_via > 0
    assert deco.through_via == deco.start_via_once * deco.via_end
    assert deco.start_via * deco.via_end < deco.start_end * deco.via_via


def test_decomposition_degenerate_via_equals_start():
    deco = route_decomposition(make_triangle(), 0, 0, 2)
    assert deco.degenerate
    assert deco.avoiding_via == 0
    assert deco.start_via_once == 1
    assert deco.start_via == deco.start_via_once * deco.via_via


def test_decomposition_same_endpoints_is_strict():
    # The zero-length route survives deleting the via vertex, so the
    # avoiding weight is at least 1 and equality is impossible.
    deco = route_decomposition(make_triangle(), 0, 1, 0)
    assert deco.degenerate is False
    assert deco.avoiding_via >= 1
    assert deco.start_via * deco.via_end < deco.start_end * deco.via_via


def test_decomposition_float_mode_consistent():
    deco = route_decomposition(make_triangle(), 0, 1, 2, mode=FLOAT)
    assert deco.through_via == pytest.approx(deco.start_via_once * deco.via_end, rel=1e-12)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_closed_route_matrix_matches_reference_inverse(mode):
    # closed_route_matrix scales Q from the forest solver; the reference
    # inverts I minus the step matrix directly.
    graphs = [make_path(), make_triangle(), MultiDigraph(2, []), complete_graph(3)]
    graphs += [random_multidigraph(CORPUS_SEED + 500 + index) for index in range(20)]
    for g in graphs:
        default = choose_epsilon(g)
        for eps in (default, default / 3):
            step = step_matrix(g, eps, mode)
            reference = invert(Matrix.identity(g.n, mode) - step)
            closed = closed_route_matrix(g, eps, mode)
            assert closed.mode == mode
            if mode == EXACT:
                assert closed == reference
            else:
                assert (closed - reference).max_abs() <= 1e-12 * reference.max_abs()
            deco = route_decomposition(g, 0, g.n - 1, 0, eps=eps, mode=mode)
            assert deco.start_via == closed[0, g.n - 1]
            assert deco.via_via == closed[g.n - 1, g.n - 1]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_avoiding_weight_matches_the_reduced_inverse(mode):
    # The reference is a second, general solve: drop the via vertex from
    # I minus the step matrix and invert what is left.
    for g in corpus(20, base_seed=CORPUS_SEED + 700, min_n=3, max_n=6, max_arcs=12):
        eps = choose_epsilon(g)
        step = step_matrix(g, eps, mode)
        for via in range(g.n):
            keep = [v for v in range(g.n) if v != via]
            cut = Matrix([[step[u, w] for w in keep] for u in keep], mode)
            reduced = invert(Matrix.identity(g.n - 1, mode) - cut)
            for a, start in enumerate(keep):
                for b, end in enumerate(keep):
                    avoiding = route_decomposition(g, start, via, end, eps, mode).avoiding_via
                    if mode == EXACT:
                        assert avoiding == reduced[a, b]
                    else:
                        assert avoiding >= 0
                        assert abs(avoiding - reduced[a, b]) <= 1e-12 * reduced.max_abs()


def test_route_enumeration_survives_long_routes():
    # 3001 routes of 3000 arcs each: deeper than the recursion limit.
    g = path_graph(2)
    eps = Fraction(1, 1000)
    step = step_matrix(g, eps, FLOAT)
    expected = list(matrix_power(step, 3000).row(0))
    assert route_weights_by_length(g, 0, 3000, eps=eps, mode=FLOAT) == pytest.approx(
        expected, rel=1e-9
    )


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_tail_bound_covers_a_series_that_adds_no_term(mode):
    g = make_path()
    eps = choose_epsilon(g)
    result = route_matrix(g, eps=eps, tolerance=2, mode=mode)
    assert result.terms_used == 0
    for reference in (mode, EXACT):
        expected = closed_route_matrix(g, eps, reference).with_mode(mode)
        assert (result.route_weights - expected).max_abs() <= result.tail_bound


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_up_front_refusal_never_changes_the_outcome(mode, monkeypatch):
    # ln(1 / (3 * 1e-6)) / (1/8) is about 101.7: up to 101 terms are
    # refused before any product, and each refusal is a run that would
    # have ended in the same error.
    g, eps, tol = make_path(), Fraction(1, 8), 1e-6
    step = route_matrix(g, eps, tol, mode=mode).step_weights
    products = []
    original = Matrix.__matmul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    for max_terms in (1, 101, 102, 120, 200):
        products.clear()
        try:
            geometric_series(step, tol, max_terms)
            expected = None
        except NotConvergedError:
            expected = NotConvergedError
        products.clear()
        try:
            route_matrix(g, eps, tol, max_terms, mode)
            outcome = None
        except NotConvergedError:
            outcome = NotConvergedError
        assert outcome is expected
        assert (products == []) == (max_terms <= 101)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_route_series_takes_logarithmically_many_products(mode, monkeypatch):
    g, eps = make_path(), Fraction(1, 100)
    products = []
    original = Matrix.__matmul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    result = route_matrix(g, eps, mode=mode)
    assert result.terms_used >= 1000
    assert len(products) <= 4 * math.ceil(math.log2(result.terms_used)) + 4


def _float_gap_to_exact(graph, eps, tolerance, proximity):
    """Float ``route_matrix`` against the exact ``(1 + 1/eps) Q``, the gap
    taken in exact arithmetic."""
    result = route_matrix(graph, eps, tolerance, mode=FLOAT)
    factor = 1 + 1 / Fraction(eps)
    gap = max(
        abs(Fraction(value) - factor * exact)
        for row, exact_row in zip(result.route_weights.to_lists(), proximity.to_lists())
        for value, exact in zip(row, exact_row)
    )
    return result, gap


@pytest.mark.parametrize("n, seed", [(40, 3), (60, 5)])
def test_float_tail_bound_covers_long_series(n, seed):
    # Up to about 76,000 terms; eps is a double, so the exact closed form
    # is taken at the very value the float series uses.
    g = random_graph(n, seed)
    proximity = forest_matrices(g, EXACT).proximity
    heaviest = float(g.max_out_weight())
    for eps in (0.99 / heaviest, 0.5 / heaviest):
        for tolerance in (1e-12, 1e-15, 1e-300):
            result, gap = _float_gap_to_exact(g, eps, tolerance, proximity)
            assert gap <= result.tail_bound
            assert result.tail_bound <= 1e-9


def test_float_tail_bound_covers_a_wide_matrix():
    # n = 60 and the largest eps: the fewest terms for this graph, so the
    # rounding of each n-term product weighs most against the truncation.
    g = complete_graph(60)
    proximity = forest_matrices(g, EXACT).proximity
    eps = 0.999 / float(g.max_out_weight())
    for tolerance in (1e-12, 1e-300):
        result, gap = _float_gap_to_exact(g, eps, tolerance, proximity)
        assert gap <= result.tail_bound
        assert result.tail_bound <= 1e-9


def _clamped_step_input():
    """At the largest double eps that passes validation, eps * d rounds to
    just above 1 at vertex 0, and 1 - eps * d to -2.2e-16."""
    arcs = [(0, 1, 0.3), (0, 6, 0.2), (0, 2, 0.1), (0, 3, 0.2), (0, 2, 1.1), (0, 1, 0.31619498421306813)]
    return MultiDigraph(7, arcs), 0.4512238350521682


def test_float_step_rounding_to_a_negative_diagonal_is_clamped():
    g, eps = _clamped_step_input()
    step_matrix(g, eps)  # in range
    step = step_matrix(g, eps, FLOAT)
    assert step[0, 0] == 0.0
    result = route_matrix(g, eps, mode=FLOAT)
    expected = closed_route_matrix(g, eps, EXACT)
    gap = max(
        abs(Fraction(value) - exact)
        for row, exact_row in zip(result.route_weights.to_lists(), expected.to_lists())
        for value, exact in zip(row, exact_row)
    )
    assert gap <= result.tail_bound


def _subnormal_ratio_input():
    """A weight just above a halfway point between doubles, so that ``d``
    rounds up and ``eps * d`` to ``1 + 2.2e-16`` though ``eps * w < 1``.
    At eps near 1e308 the ratio ``1 / (1 + eps)`` is subnormal, and its
    product with ``1 - eps * d`` rounds to -0.0."""
    weight = Fraction(2 * 1510488701281951 + 1, 2**1075) + Fraction(1, 2**1100)
    return MultiDigraph(2, [(0, 1, weight)]), 1 / weight * (1 - Fraction(1, 10**30))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_step_matrix_is_the_entrywise_reference(mode):
    inputs = [(g, choose_epsilon(g)) for g in corpus(200)]
    inputs += [_clamped_step_input(), _subnormal_ratio_input()]
    # Matrix.scaled returns its input at eps = 1 and, in float mode, at
    # eps = 1e-17, where 1/(1 + eps) rounds to 1.0.
    halves = path_graph(4, Fraction(1, 2))
    inputs += [(halves, 1), (halves, 1e-17), (random_graph(8, 4), 1e-17)]
    for g, eps in inputs:
        assert repr(step_matrix(g, eps, mode)) == repr(reference_step(g, eps, mode))


def test_route_calls_build_no_matrix_through_the_constructor(monkeypatch):
    calls = []
    original = Matrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted)
    g = make_triangle()
    for mode in (EXACT, FLOAT):
        step_matrix(g, mode=mode)
        route_matrix(g, mode=mode)
        closed_route_matrix(g, mode=mode)
        route_decomposition(g, 0, 1, 2, mode=mode)
    assert calls == []


def test_float_step_with_a_row_sum_above_one_is_not_summed():
    # At eps = 1e-16 the ratio 1/(1 + eps) rounds to 1 and a row of the
    # step matrix to 1 + 2.2e-16; so many terms are allowed that the
    # up-front refusal does not apply.
    g = random_graph(8, 4)
    assert max(step_matrix(g, 1e-16, FLOAT).row_sums()) > 1
    with pytest.raises(NotConvergedError, match="need not converge"):
        route_matrix(g, 1e-16, mode=FLOAT, max_terms=10**20)


@pytest.mark.parametrize(
    "eps, terms, too_many_roundings",
    [(3e-16, 3_121_657_360_854_750, True), (1e-15, 624_331_474_027_967, False)],
    ids=["rounding-count", "rho-at-one"],
)
def test_float_tail_bound_is_infinite_past_its_precision(eps, terms, too_many_roundings):
    # The series stops at its tolerance after about 1/eps terms. With n p
    # roundings at unit roundoff u, the bound gives up once n p u >= 1/2;
    # short of that, the step's rounding lifts rho = 1/(1 + eps) + 2 delta
    # to 1 or above.
    result = route_matrix(path_graph(2), eps, tolerance=0.5, max_terms=10**17, mode=FLOAT)
    assert result.terms_used == terms
    assert (2 * (terms - 1) * Fraction(1, 2**53) >= Fraction(1, 2)) == too_many_roundings
    assert result.tail_bound == math.inf


def test_route_matrix_rejects_nan_tolerance():
    with pytest.raises(ValueError):
        route_matrix(make_path(), tolerance=float("nan"), max_terms=5)


@pytest.mark.parametrize("eps", [Fraction(1, 10**400), Fraction(10**400)])
def test_float_epsilon_that_is_no_double_is_out_of_range(eps):
    g = MultiDigraph(2, []) if eps > 1 else make_path()
    step_matrix(g, eps)  # in range, as an exact value
    for call in (
        lambda: route_matrix(g, eps=eps, mode=FLOAT),
        lambda: closed_route_matrix(g, eps=eps, mode=FLOAT),
        lambda: route_weights_by_length(g, 0, 1, eps=eps, mode=FLOAT),
    ):
        with pytest.raises(EpsilonOutOfRangeError):
            call()


def test_validate_epsilon_rejects_nan():
    with pytest.raises(EpsilonOutOfRangeError, match="^epsilon must be positive, got nan$"):
        step_matrix(path_graph(3), float("nan"))


def test_float_route_series_with_nan_epsilon_is_out_of_range():
    with pytest.raises(EpsilonOutOfRangeError):
        route_matrix(path_graph(3), float("nan"), mode=FLOAT, max_terms=50)


def test_infinite_epsilon_on_an_arcless_graph_is_out_of_range():
    # inf * 0 is NaN, which an ``eps * heaviest >= 1`` test lets through.
    arcless = MultiDigraph(2, [])
    with pytest.raises(EpsilonOutOfRangeError, match="^epsilon inf times max out-weight 0 must"):
        step_matrix(arcless, float("inf"))
    with pytest.raises(EpsilonOutOfRangeError):
        closed_route_matrix(arcless, float("inf"))


@pytest.mark.parametrize("g", [make_path(), make_triangle(), random_graph(4, 3)])
def test_exact_tail_bound_is_the_exact_truncation(g):
    # The float bound's no-rounding case: the last term's norm times
    # r / (1 - r), r = 1 / (1 + eps), kept as an exact Fraction.
    eps = choose_epsilon(g)
    result = route_matrix(g, eps=eps, tolerance=1e-6, mode=EXACT)
    ratio = 1 / (1 + eps)
    series = geometric_series(step_matrix(g, eps), 1e-6)
    assert result.terms_used == series.terms_used > 0
    assert type(result.tail_bound) is Fraction
    assert result.tail_bound == series.last_term_norm * ratio / (1 - ratio)
    # With no term added the bound is the whole series, 1 + 1/eps.
    empty = route_matrix(g, eps=eps, tolerance=2, mode=EXACT)
    assert type(empty.tail_bound) is Fraction
    assert empty.tail_bound == 1 + 1 / eps


def test_float_epsilon_whose_reciprocal_overflows_is_out_of_range():
    # The default eps, 1/(2 10^308), is a subnormal double: 1 + 1/eps
    # would be inf and the route weights inf and nan.
    g = MultiDigraph(3, [(0, 1, Fraction(10**308)), (1, 2, 1)])
    with pytest.raises(EpsilonOutOfRangeError):
        closed_route_matrix(g, mode=FLOAT)
    with pytest.raises(EpsilonOutOfRangeError):
        route_decomposition(g, 0, 1, 2, mode=FLOAT)
