"""Triple classification against the separator test."""

import inspect
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from inforest import (
    EXACT,
    FLOAT,
    RELATION_EQUAL,
    RELATION_STRICT,
    InconsistentWithTheoremError,
    Matrix,
    MultiDigraph,
    check_triple,
    closed_route_matrix,
    forest_matrices,
    is_bottleneck,
    random_graph,
    summarize,
    verify_all_triples,
    verify_undirected,
    VertexOutOfRangeError,
)
from inforest.bottleneck import FLOAT_EQUALITY_RTOL, _equal
from inforest.cli import run
from tests.helpers import (
    CORPUS_SEED,
    corpus,
    make_path,
    make_triangle,
    multidigraphs,
    random_multidigraph,
    random_undirected,
    reference_separators,
)


def test_check_triple_path_equality():
    g = make_path()
    report = check_triple(forest_matrices(g), g, 0, 1, 2)
    assert report.lhs == 2 and report.rhs == 2
    assert report.relation == RELATION_EQUAL
    assert report.separator and report.consistent and not report.degenerate


def test_check_triple_triangle_strict():
    g = make_triangle()
    report = check_triple(forest_matrices(g), g, 0, 1, 2)
    assert report.lhs == 3 and report.rhs == 9
    assert report.relation == RELATION_STRICT
    assert not report.separator and report.consistent


def test_check_triple_empty_graph_vacuous_equality():
    g = MultiDigraph(3, [])
    report = check_triple(forest_matrices(g), g, 0, 1, 2)
    assert report.lhs == 0 and report.rhs == 0
    assert report.relation == RELATION_EQUAL and report.separator


def test_is_bottleneck_cases():
    path, triangle = make_path(), make_triangle()
    assert is_bottleneck(path, 0, 1, 2)
    assert not is_bottleneck(triangle, 0, 1, 2)
    # No path from 2 to 0 exists, so the condition holds vacuously.
    assert is_bottleneck(path, 2, 1, 0)
    # Endpoints lie on every path; only i itself separates i from i.
    assert is_bottleneck(triangle, 0, 0, 2) and is_bottleneck(triangle, 0, 2, 2)
    assert not is_bottleneck(triangle, 0, 1, 0)
    assert is_bottleneck(triangle, 0, 0, 0)
    with pytest.raises(VertexOutOfRangeError):
        is_bottleneck(path, 0, 1, 7)


def test_verify_counts_frozen_fixtures():
    # Splits confirmed against the enumeration oracle plus an independent
    # reachability recount before freezing.
    assert summarize(verify_all_triples(make_triangle()))[:3] == (27, 18, 9)
    assert summarize(verify_all_triples(make_path()))[:3] == (27, 19, 8)
    assert summarize(verify_all_triples(MultiDigraph(3, [])))[:3] == (27, 21, 6)


def test_verify_reports_are_ordered_and_consistent():
    reports = verify_all_triples(make_triangle())
    assert len(reports) == 27
    assert reports[0].triple == (0, 0, 0)
    assert all(r.consistent for r in reports)
    counts = summarize(reports)
    assert counts.degenerate == 21 and counts.inconsistent == 0


def test_check_triple_matches_sweep():
    g = make_triangle()
    forests = forest_matrices(g)
    for report in verify_all_triples(g, forests):
        single = check_triple(forests, g, *report.triple)
        assert single == report


def test_doctored_forest_matrix_raises():
    g = make_path()
    forests = forest_matrices(g)
    rows = forests.matrix.to_lists()
    rows[0][1] += 100  # breaks the product inequality
    doctored = replace(forests, matrix=Matrix(rows))
    with pytest.raises(InconsistentWithTheoremError):
        check_triple(doctored, g, 0, 1, 2)


def test_exact_equality_without_a_separator_is_rejected():
    # F_02 set to F_01 F_12 / F_11 makes the triple (0, 1, 2) equal, while
    # the arc 0->2 bypasses 1.
    g = MultiDigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    forests = forest_matrices(g)
    rows = forests.matrix.to_lists()
    rows[0][2] = rows[0][1] * rows[1][2] / rows[1][1]
    doctored = replace(forests, matrix=Matrix(rows))
    message = "triple (0, 1, 2): relation equal but separator is False"
    with pytest.raises(InconsistentWithTheoremError) as single:
        check_triple(doctored, g, 0, 1, 2)
    assert str(single.value) == message
    with pytest.raises(InconsistentWithTheoremError) as sweep:
        verify_all_triples(g, doctored)
    assert str(sweep.value) == message


def test_float_sweep_result_holds_no_entry_per_triple():
    # The result keeps the rows of F and n dominator masks per start
    # vertex, so it grows as n^2; a flag per triple would take 8 n^3 bytes.
    g = random_graph(60, 3)
    forests = forest_matrices(g, FLOAT)
    tracemalloc.start()
    try:
        reports = verify_all_triples(g, forests, FLOAT)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reports.summary.total == g.n**3
    assert held < 100 * g.n**2


def test_gap_is_the_forest_weight_of_the_cut_graph():
    # F_ik F_jj - F_ij F_jk = f * F'_ik for i, k other than j, where F' is
    # the forest matrix of the graph without the out-arcs of j, and its
    # total weight is F_jj.
    checked = 0
    for g in corpus(60):
        forests = forest_matrices(g)
        weights, total = forests.matrix, forests.total_weight
        for j in range(g.n):
            cut = forest_matrices(MultiDigraph(g.n, [a for a in g.arcs if a.tail != j]))
            assert cut.total_weight == weights[j, j]
            for i in range(g.n):
                for k in range(g.n):
                    if j in (i, k):
                        continue
                    gap = weights[i, k] * weights[j, j] - weights[i, j] * weights[j, k]
                    assert gap == total * cut.matrix[i, k]
                    checked += 1
    assert checked > 1000


def test_undirected_symmetry_check_is_relative_to_each_entry():
    # The off-diagonal entries are about 1e-6 while the diagonal is about
    # 1; one of them off by 1e-3 relative is caught, whatever the scale of
    # the largest entry.
    edges = [(0, 1, 1e-6), (1, 2, 1e-6)]
    doubled = MultiDigraph.from_undirected(3, edges)
    forests = forest_matrices(doubled, FLOAT)
    assert verify_undirected(doubled, forests).summary.inconsistent == 0
    rows = forests.proximity.to_lists()
    rows[0][1] *= 1.001
    doctored = replace(forests, proximity=Matrix(rows, FLOAT))
    with pytest.raises(InconsistentWithTheoremError, match="symmetric"):
        verify_undirected(doubled, doctored)


def test_undirected_symmetry_check_survives_an_overflowing_forest_matrix():
    # On the complete graph with 12 vertices and edge weight 1e30, f and
    # most of F overflow to inf, while Q stays symmetric.
    n = 12
    edges = [(u, v, 1e30) for u in range(n) for v in range(u + 1, n)]
    doubled = MultiDigraph.from_undirected(n, edges)
    assert not math.isfinite(forest_matrices(doubled, FLOAT).total_weight)
    assert verify_undirected(doubled, mode=FLOAT).summary.total == n**3


def test_verdicts_invariant_under_weight_scaling():
    g = make_triangle(Fraction(1, 2), 2, Fraction(3, 5))
    base = [r.relation for r in verify_all_triples(g)]
    for t in (2, Fraction(1, 3)):
        scaled = [r.relation for r in verify_all_triples(g.scaled(t))]
        assert scaled == base


def test_float_mode_matches_exact_on_triangle():
    g = make_triangle()
    exact = [r.relation for r in verify_all_triples(g, mode=EXACT)]
    floaty = [r.relation for r in verify_all_triples(g, mode=FLOAT)]
    assert exact == floaty
    assert all(r.consistent for r in verify_all_triples(g, mode=FLOAT))


def test_verify_undirected_path_and_triangle():
    path_reports = verify_undirected(MultiDigraph.from_undirected(3, [(0, 1, 1), (1, 2, 1)]))
    by_triple = {r.triple: r for r in path_reports}
    assert by_triple[(0, 1, 2)].relation == RELATION_EQUAL
    triangle = MultiDigraph.from_undirected(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    tri_reports = verify_undirected(triangle)
    by_triple = {r.triple: r for r in tri_reports}
    assert by_triple[(0, 1, 2)].relation == RELATION_STRICT


def test_verify_undirected_single_edge_consistent():
    reports = verify_undirected(MultiDigraph.from_undirected(2, [(0, 1, Fraction(2, 7))]))
    assert all(r.consistent for r in reports)


def test_verify_undirected_matches_doubled_digraph():
    edges = [(0, 1, 1), (1, 2, Fraction(1, 2)), (0, 2, 3)]
    doubled = MultiDigraph.from_undirected(3, edges)
    assert verify_undirected(doubled) == verify_all_triples(doubled)


def test_route_products_agree_with_forest_products():
    # The closed-form route matrix is computed through a different inverse,
    # so comparing verdicts checks the proportionality end to end.
    for g in (make_path(), make_triangle()):
        routes = closed_route_matrix(g)
        for report in verify_all_triples(g):
            i, j, k = report.triple
            route_equal = routes[i, j] * routes[j, k] == routes[i, k] * routes[j, j]
            assert route_equal == (report.relation == RELATION_EQUAL)


@given(multidigraphs())
@settings(max_examples=50, deadline=None)
def test_sweep_never_inconsistent(g):
    counts = summarize(verify_all_triples(g))
    assert counts.inconsistent == 0
    assert counts.total == g.n ** 3


def _separators(reports, n):
    """The sweep's separator flags as one table per start vertex, in the
    layout of :func:`reference_separators`."""
    flags = [report.separator for report in reports]
    return [[flags[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)]


def test_sweep_separators_match_is_bottleneck_on_corpus():
    for g in corpus():
        separators = _separators(verify_all_triples(g, mode=FLOAT), g.n)
        assert separators == [reference_separators(g.n, g.arcs, i) for i in range(g.n)]


def test_sweep_separators_match_is_bottleneck_on_sparse_corpus():
    unreachable = genuine_equal = 0
    for g in corpus(count=40, min_n=4, max_n=12, max_arcs=14):
        reports = verify_all_triples(g)
        assert _separators(reports, g.n) == [
            reference_separators(g.n, g.arcs, i) for i in range(g.n)
        ]
        for report in reports:
            i, j, k = report.triple
            reached = k in g.reachable(i)
            unreachable += not reached
            genuine_equal += reached and len({i, j, k}) == 3 and report.relation == RELATION_EQUAL
    # The corpus exercises both the vacuous and the genuine equality case.
    assert unreachable and genuine_equal


def _reports_one_by_one(g, forests):
    """Reports triple by triple, through :func:`check_triple`."""
    n = g.n
    return [check_triple(forests, g, i, j, k) for i in range(n) for j in range(n) for k in range(n)]


def _typed(report):
    return (report, type(report.lhs), type(report.rhs), report.lhs is report.rhs)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_reports_behave_as_the_list_they_replace(mode):
    g = random_multidigraph(CORPUS_SEED, min_n=4, max_n=4, max_arcs=6)
    forests = forest_matrices(g, mode)
    reports = verify_all_triples(g, forests)
    expected = _reports_one_by_one(g, forests)
    assert len(reports) == len(expected) == 64
    assert [_typed(r) for r in reports] == [_typed(r) for r in expected]
    assert reports == expected and expected == reports
    assert reports != expected[:-1] and reports != expected[::-1]
    assert reports[-1] == expected[-1] and reports[-64] == expected[0]
    assert reports[5] == expected[5] and reports[-7] == expected[-7]
    assert reports[3:50:7] == expected[3:50:7] and isinstance(reports[3:50:7], list)
    assert reports[::-1] == expected[::-1]
    for index in (64, -65):
        with pytest.raises(IndexError):
            reports[index]
    assert reports.summary == summarize(reports) == summarize(list(reports))
    assert summarize(reports) == summarize(expected)


def test_exact_sweep_raises_at_the_first_bad_triple_before_any_access():
    g = random_multidigraph(CORPUS_SEED, min_n=5, max_n=5, max_arcs=12)
    forests = forest_matrices(g)
    rows = forests.matrix.to_lists()
    rows[2][4] *= 2
    doctored = replace(forests, matrix=Matrix(rows))
    with pytest.raises(InconsistentWithTheoremError) as raised:
        verify_all_triples(g, doctored)
    # The message names the first triple in lexicographic order that the
    # triple-by-triple check rejects.
    with pytest.raises(InconsistentWithTheoremError) as first:
        _reports_one_by_one(g, doctored)
    assert str(raised.value) == str(first.value)


def test_float_sweep_counts_the_bad_triples_of_corrupted_forests():
    g = make_path()
    forests = forest_matrices(g, FLOAT)
    rows = forests.matrix.to_lists()
    rows[0][1] += 100  # breaks the equality of the separated triple (0, 1, 2)
    reports = verify_all_triples(g, replace(forests, matrix=Matrix(rows, FLOAT)))
    assert reports.summary.inconsistent > 0
    assert reports.summary == summarize(list(reports))


def test_undirected_separators_match_reference_bfs():
    # The sweep's separators, read off the doubled digraph, against a
    # search over the edge list in both modes: small graphs with up to 8
    # edges, then sparse ones up to n=12 whose cut vertices separate
    # connected pairs.
    graphs = [random_undirected(CORPUS_SEED + seed, max_n=6, max_edges=8) for seed in range(60)]
    graphs += [
        random_undirected(CORPUS_SEED + 100 + seed, min_n=7, max_n=12, max_edges=12)
        for seed in range(15)
    ]
    for mode in (EXACT, FLOAT):
        genuine = 0
        for n, edges in graphs:
            doubled = MultiDigraph.from_undirected(n, edges)
            reached = [doubled.reachable(i) for i in range(n)]
            reports = verify_undirected(doubled, mode=mode)
            assert _separators(reports, n) == [
                reference_separators(n, edges, i, undirected=True) for i in range(n)
            ]
            for report in reports:
                i, j, k = report.triple
                genuine += report.separator and len({i, j, k}) == 3 and k in reached[i]
        assert genuine


@pytest.mark.parametrize(
    "chord, expected",
    # The chord 1 -> 3 puts the two products about 2 * chord apart,
    # relative, on both sides of FLOAT_EQUALITY_RTOL = 1e-9.
    [(Fraction(1, 4 * 10**9), RELATION_EQUAL), (Fraction(1, 10**9), RELATION_STRICT)],
)
def test_decompose_and_check_triple_share_the_float_verdict(tmp_path, capsys, chord, expected):
    g = MultiDigraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, chord)])
    assert check_triple(forest_matrices(g, FLOAT), g, 0, 1, 2).relation == expected
    source = tmp_path / "near.graph"
    source.write_text(f"digraph 3\n1 2 1\n2 3 1\n1 3 {chord}\n")
    argv = ["decompose", "--input", str(source), "--mode", "float", "-i", "1", "-j", "2", "-k", "3"]
    assert run(argv) == 0
    assert f"relation={expected}" in capsys.readouterr().out.split()


def _reference_equal(a: float, b: float) -> bool:
    """The float rule as first written: the difference against the larger
    magnitude."""
    return abs(a - b) <= FLOAT_EQUALITY_RTOL * max(abs(a), abs(b))


def _rule_pairs():
    """Finite pairs at, just inside and just outside the relative gap
    FLOAT_EQUALITY_RTOL, at several scales, and signed zeros, subnormals
    and values near the top of the double range."""
    pairs = []
    for scale in (1e-300, 2.5e-7, 1.0, 3e5, 1e300):
        b = scale * (1 + FLOAT_EQUALITY_RTOL)
        for near in (b, math.nextafter(b, 0), math.nextafter(b, math.inf)):
            pairs += [(scale, near), (near, scale)]
        # The gap measured against the smaller side: the rule uses the larger.
        a = scale / (1 - FLOAT_EQUALITY_RTOL)
        pairs += [(scale, a), (scale, math.nextafter(a, 0)), (scale, math.nextafter(a, math.inf))]
    top = 1.7976931348623157e308
    tiny = 5e-324
    pairs += [
        (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, tiny), (tiny, tiny), (tiny, 2 * tiny),
        (1e-310, 1e-310 * (1 + 1e-9)), (2.2250738585072014e-308, 2.225073858507201e-308),
        (top, top), (top, math.nextafter(top, 0)), (top, top * (1 - FLOAT_EQUALITY_RTOL)),
        (top, top * (1 - 2 * FLOAT_EQUALITY_RTOL)), (-1.0, -1.0 - 1e-9), (-1.0, 1.0),
    ]
    return pairs


def test_float_rule_runs_as_isclose_with_the_same_verdicts():
    assert inspect.signature(math.isclose).parameters["rel_tol"].default == FLOAT_EQUALITY_RTOL
    assert inspect.signature(math.isclose).parameters["abs_tol"].default == 0
    pairs = _rule_pairs()
    expected = [_reference_equal(a, b) for a, b in pairs]
    # Both verdicts occur, and the C form agrees pair by pair.
    assert any(expected) and not all(expected)
    assert [math.isclose(a, b) for a, b in pairs] == expected
    # A finite row, whole and pair by pair (the sum of (top, top) is inf,
    # so that pair alone takes the written-out form).
    lhs, rhs = [a for a, _ in pairs], [b for _, b in pairs]
    assert _equal(lhs, rhs, FLOAT) == expected
    assert [_equal((a,), (b,), FLOAT)[0] for a, b in pairs] == expected


@pytest.mark.parametrize(
    "a, b, isclose_agrees",
    [
        (math.inf, math.inf, False),
        (math.inf, 1.0, False),
        (1.0, math.inf, False),
        (math.nan, 1.0, True),
    ],
)
def test_float_rule_on_non_finite_products_keeps_the_written_out_form(a, b, isclose_agrees):
    # The written-out rule calls (inf, inf) strict and (inf, 1.0) equal,
    # math.isclose the other way round; the overflowed verdicts pinned
    # elsewhere are the written-out ones.
    expected = _reference_equal(a, b)
    assert (math.isclose(a, b) == expected) == isclose_agrees
    assert _equal((a,), (b,), FLOAT) == [expected]
    # One non-finite product sends the whole row to the written-out form.
    assert _equal((1.0, a, 2.0), (1.0, b, 3.0), FLOAT) == [True, expected, False]


def test_float_sweep_with_overflowing_products_matches_triple_by_triple():
    g = MultiDigraph(3, [(0, 1, 1e308), (1, 2, 1)])
    forests = forest_matrices(g, FLOAT)
    rows = forests.matrix.to_lists()
    assert not all(math.isfinite(a * b) for a in rows[0] for b in rows[1])
    assert summarize(verify_all_triples(g, mode=FLOAT)) == summarize(_reports_one_by_one(g, forests))
