"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``criterion-N ...: PASS`` (or FAIL) line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them as the checks
execute. All comparisons are exact unless a criterion is explicitly about
float truncation bounds.
"""

from contextlib import contextmanager
from fractions import Fraction

from inforest import (
    EXACT,
    FLOAT,
    Matrix,
    MultiDigraph,
    RELATION_EQUAL,
    check_triple,
    choose_epsilon,
    closed_route_matrix,
    determinant,
    forest_matrices,
    oracle_matrices,
    route_decomposition,
    route_matrix,
    step_matrix,
    summarize,
    verify_all_triples,
)
from tests.helpers import (
    CORPUS_SEED,
    corpus,
    fixture_graphs,
    make_path,
    make_triangle,
    random_multidigraph,
    random_undirected,
    route_weights_by_length,
    transpose,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_oracle_equivalence():
    with criterion("criterion-1 oracle equivalence (200 random multidigraphs)"):
        for g in corpus(200):
            forests = forest_matrices(g, EXACT)
            oracle = oracle_matrices(g)
            assert forests.matrix == oracle.matrix
            assert forests.total_weight == oracle.total_weight
            shifted = Matrix.identity(g.n) + g.laplacian()
            assert determinant(shifted) == oracle.total_weight


def test_criterion_2_bottleneck_sweep():
    with criterion("criterion-2 triple sweep with zero inconsistencies"):
        for g in corpus(200) + fixture_graphs():
            counts = summarize(verify_all_triples(g))
            assert counts.inconsistent == 0
            assert counts.total == g.n ** 3


def test_criterion_3_closed_form_fixtures():
    with criterion("criterion-3 closed-form path and triangle fixtures"):
        path = make_path()
        forests = forest_matrices(path)
        oracle = oracle_matrices(path)
        assert forests.total_weight == oracle.total_weight == 4
        # First row [2, 1, 1]: vertex 0 stays its own root in both the
        # arcless forest and the one using only the far arc, so the
        # diagonal entry is 2; confirmed by the enumeration oracle.
        assert list(forests.matrix.row(0)) == list(oracle.matrix.row(0)) == [2, 1, 1]
        path_report = check_triple(forests, path, 0, 1, 2)
        assert path_report.relation == RELATION_EQUAL
        assert path_report.lhs == path_report.rhs == 2

        triangle = make_triangle()
        tri_forests = forest_matrices(triangle)
        assert tri_forests.total_weight == oracle_matrices(triangle).total_weight == 6
        tri_report = check_triple(tri_forests, triangle, 0, 1, 2)
        assert tri_report.relation != RELATION_EQUAL
        assert tri_report.lhs == 3 and tri_report.rhs == 9


def test_criterion_4_route_series_proportionality():
    with criterion("criterion-4 route series within reported tail bound, two epsilons"):
        for g in corpus(200):
            default = choose_epsilon(g)
            for eps in (default, default / 2):
                result = route_matrix(g, eps=eps, tolerance=1e-12, mode=FLOAT)
                expected = closed_route_matrix(g, eps, EXACT).with_mode(FLOAT)
                gap = (result.route_weights - expected).max_abs()
                assert gap <= result.tail_bound
                assert result.tail_bound <= 1e-9


def test_criterion_5_route_length_oracle():
    with criterion("criterion-5 route enumeration equals step-matrix powers (k <= 6)"):
        for index in range(50):
            g = random_multidigraph(CORPUS_SEED + 10_000 + index, max_n=4)
            eps = choose_epsilon(g)
            step = step_matrix(g, eps)
            power = Matrix.identity(g.n)
            for _length in range(7):
                for source in range(g.n):
                    row = route_weights_by_length(g, source, _length, eps=eps)
                    assert row == list(power.row(source))
                power = power @ step


def test_criterion_6_route_decomposition_identities():
    with criterion("criterion-6 route decomposition identities on fixtures"):
        for g in (make_path(), make_triangle()):
            forests = forest_matrices(g)
            for report in verify_all_triples(g, forests):
                i, j, k = report.triple
                if report.degenerate:
                    continue
                deco = route_decomposition(g, i, j, k, mode=EXACT)
                assert deco.start_via == deco.start_via_once * deco.via_via
                assert deco.start_end == deco.through_via + deco.avoiding_via
                assert deco.through_via == deco.start_via_once * deco.via_end
                route_equal = (
                    deco.start_via * deco.via_end == deco.start_end * deco.via_via
                )
                assert route_equal == (report.relation == RELATION_EQUAL)
                assert (deco.avoiding_via == 0) == report.separator


def test_criterion_7_undirected_graphs():
    with criterion("criterion-7 undirected graphs: symmetric Laplacian and forest matrix"):
        for index in range(50):
            n, edges = random_undirected(CORPUS_SEED + 20_000 + index)
            doubled = MultiDigraph.from_undirected(n, edges)
            assert doubled.is_symmetric()
            assert summarize(verify_all_triples(doubled)).inconsistent == 0
            forests = forest_matrices(doubled)
            assert forests.matrix == transpose(forests.matrix)


def test_criterion_8_invariant_suite():
    with criterion("criterion-8 exact invariants across the corpus"):
        for g in corpus(200):
            forests = forest_matrices(g, EXACT)
            eps = choose_epsilon(g)
            p = step_matrix(g, eps)
            assert all(total == 1 / (1 + eps) for total in p.row_sums())
            assert all(0 <= p[i, j] <= 1 for i in range(g.n) for j in range(g.n))
            assert all(total == 1 for total in forests.proximity.row_sums())
            assert all(
                total == forests.total_weight for total in forests.matrix.row_sums()
            )

            merged_weights = {}
            for arc in g.arcs:
                key = (arc.tail, arc.head)
                merged_weights[key] = merged_weights.get(key, 0) + arc.weight
            merged = MultiDigraph(
                g.n, [(t, h, w) for (t, h), w in merged_weights.items()]
            )
            collapsed = forest_matrices(merged, EXACT)
            assert collapsed.total_weight == forests.total_weight
            assert collapsed.matrix == forests.matrix

            base = [r.relation for r in verify_all_triples(g, forests)]
            for t in (2, Fraction(1, 3)):
                assert [r.relation for r in verify_all_triples(g.scaled(t))] == base
