"""The one-pass forest solver against the reference oracles.

Exact ``forest_matrices`` runs one fraction-free elimination on ints; the
general ``invert``/``determinant`` and the brute-force enumeration stay as
the references it must match exactly.
"""

import random
from fractions import Fraction

import pytest

from inforest import (
    EXACT,
    FLOAT,
    InconsistentWithTheoremError,
    Matrix,
    MultiDigraph,
    determinant,
    forest_matrices,
    invert,
    oracle_matrices,
    path_graph,
    random_graph,
    verify_all_triples,
)
from inforest.forest import _forest_solve
from inforest.matrix import common_denominator
from tests.helpers import CORPUS_SEED, corpus, dag_graph, random_undirected


def _reference(graph):
    shifted = Matrix.identity(graph.n) + graph.laplacian()
    proximity = invert(shifted)
    total = determinant(shifted)
    return total, proximity.scaled(total), proximity


def _assert_matches_reference(graph):
    forests = forest_matrices(graph, EXACT)
    total, matrix, proximity = _reference(graph)
    assert forests.total_weight == total
    assert forests.matrix == matrix
    assert forests.proximity == proximity
    for values in (forests.matrix.to_lists(), forests.proximity.to_lists()):
        assert all(type(v) is Fraction for row in values for v in row)
    assert type(forests.total_weight) is Fraction
    return forests


@pytest.mark.parametrize("weight_range", [(1, 5), (1, 9), (2, 7)])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_solver_equals_invert_and_determinant(n, weight_range):
    for seed in range(3):
        _assert_matches_reference(random_graph(n, CORPUS_SEED + seed, weight_range))


def test_solver_equals_oracle_on_random_graphs():
    for n, seed in [(2, 1), (3, 2), (4, 3), (4, 4), (5, 5)]:
        for weight_range in ((1, 5), (1, 9)):
            graph = random_graph(n, seed, weight_range)
            forests = _assert_matches_reference(graph)
            oracle = oracle_matrices(graph)
            assert forests.total_weight == oracle.total_weight
            assert forests.matrix == oracle.matrix


def test_solver_with_parallel_arcs_and_mixed_denominators():
    graph = MultiDigraph(
        4,
        [
            (0, 1, Fraction(1, 3)),
            (0, 1, Fraction(5, 7)),
            (1, 2, Fraction(9, 4)),
            (2, 0, 2),
            (2, 0, Fraction(1, 6)),
            (3, 2, Fraction(3, 8)),
        ],
    )
    forests = _assert_matches_reference(graph)
    assert forests.matrix == oracle_matrices(graph).matrix
    for g in corpus(40):
        _assert_matches_reference(g)


def test_solver_on_arcless_graph_and_smallest_graph():
    forests = _assert_matches_reference(MultiDigraph(2, []))
    assert forests.total_weight == 1 and forests.matrix == Matrix.identity(2)
    forests = _assert_matches_reference(MultiDigraph(2, [(0, 1, Fraction(2, 3)), (1, 0, 5)]))
    assert forests.total_weight == 1 + Fraction(2, 3) + 5


def _rational_graph(n, seed, arcs):
    """Seeded exact graph on ``n`` vertices with ``arcs`` arcs drawn with
    repeats, so some are parallel, weighted p/q with p in 1..9, q in 1..12."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(arcs):
        tail, head = rng.sample(range(n), 2)
        drawn.append((tail, head, Fraction(rng.randint(1, 9), rng.randint(1, 12))))
    return MultiDigraph(n, drawn)


# Orders 13 to 15 run blocks of one and two steps, by the binary digits
# of n, and then a block of four and one of eight in exact mode, or three
# blocks of four in float mode. The DAG's rows have entries right of the
# diagonal only, so a step leaves a later row's zeros as zeros: its pivot
# rows keep the zeros of their later block columns. The sink, vertex 2, is
# the first pivot row of the one-sink graph's first block of four, and all
# its later block columns are 0.
SMALL_BLOCKS_FIRST = [
    dag_graph(13, 0.3),
    MultiDigraph(14, [arc for arc in _rational_graph(14, 3, 60).arcs if arc.tail != 2]),
    _rational_graph(15, CORPUS_SEED + 15, 40),
]


def _full_block_solve(laplacian):
    """The elimination of ``[c(I + L) | c I | s]`` one step at a time, with
    every column of ``c I`` updated at every step, as in the solver before
    it skipped the columns a step cannot change. A float row whose factor
    is 0 is left as it is, as the solver's one-step fallback leaves it;
    while every entry is finite that changes no value, since
    ``x - 0.0 * y`` is ``x``."""
    n = laplacian.order
    exact = laplacian.mode == EXACT
    left, c = common_denominator(laplacian.to_lists()) if exact else (laplacian.to_lists(), 1.0)
    rows = [row + [0 * c] * n + [c] for row in left]
    for r, row in enumerate(rows):
        row[r] += c
        row[n + r] = c
    pivots, previous = [], 1
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[-1] - sum(pivot_row[k + 1 : n])
        tail = pivot_row[k + 1 :]
        for row in rows[:k] + rows[k + 1 :]:
            factor = row[k]
            if exact:
                row[k + 1 :] = [
                    (pivot * x - factor * y) // previous for x, y in zip(row[k + 1 :], tail)
                ]
            elif factor:
                factor /= pivot
                row[k + 1 :] = [x - factor * y for x, y in zip(row[k + 1 :], tail)]
        pivots.append(pivot)
        previous = pivot
    return pivots, c, [row[n : 2 * n] for row in rows]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_solver_skipping_idle_identity_columns_changes_no_value(mode):
    graphs = [MultiDigraph(2, []), MultiDigraph(5, []), random_graph(2, 1), random_graph(30, 3)]
    graphs += corpus(60)
    graphs += [MultiDigraph(3, [(0, 1, 1e308), (1, 2, 1)]), MultiDigraph(3, [(0, 1, 1e-300)])]
    # Sparse graphs, where most rows have no entry in the pivot column and
    # the float solve leaves them alone.
    rng = random.Random(CORPUS_SEED)
    arcs = [(u, v, rng.randint(1, 5)) for u in range(40) for v in range(u + 1, 40)]
    graphs += [path_graph(40), MultiDigraph(40, [arc for arc in arcs if rng.random() < 0.05])]
    # The solver's top-level blocks follow the binary digits of n, up to 16
    # steps in exact mode and 4 in float mode: every order from 2 to 40 runs
    # each plan of blocks of 1, 2, 4 and 8 steps before the blocks of the cap.
    graphs += [random_graph(n, 4) for n in range(2, 41)] + [random_graph(31, 2)]
    graphs += SMALL_BLOCKS_FIRST
    # A block of 16 meets rows whose factors are all 0. The DAGs' rows have
    # entries right of the diagonal only; the sink, vertex 1 at n = 17 and
    # vertex 17 at n = 33, is the first pivot row of a block of 16 in exact
    # mode and of four in float mode, and its later block columns are 0.
    for n, sink in ((17, 1), (33, 17)):
        graphs.append(dag_graph(n, 0.2))
        graphs.append(
            MultiDigraph(n, [arc for arc in _rational_graph(n, n, 4 * n).arcs if arc.tail != sink])
        )
    # Stars into each vertex of the first block and a DAG, where a step of
    # a block has factor 0 on some rows and the others do not.
    graphs.append(MultiDigraph(9, [(v, 0, Fraction(v, 3)) for v in range(1, 9)]))
    for v in range(1, 4):
        graphs.append(MultiDigraph(9, [(u, v, Fraction(u + 1, 3)) for u in range(9) if u != v]))
    dag = [(u, v, Fraction(rng.randint(1, 5), 3)) for u in range(12) for v in range(u + 1, 12)]
    graphs.append(MultiDigraph(12, [arc for arc in dag if rng.random() < 0.3]))
    # Rational graphs of every density, whose exact blocks divide once.
    graphs += [
        _rational_graph(n, rng.randrange(2**32), rng.randint(0, n * n))
        for n in (rng.randint(2, 13) for _ in range(40))
    ]
    # Weights at both ends of the double range, in blocks of four.
    graphs.append(MultiDigraph(6, [(0, 1, 1e308), (1, 2, 1), (5, 3, 1e308), (4, 1, 1), (2, 5, 1)]))
    graphs.append(MultiDigraph(6, [(0, 1, 1e-300), (5, 2, 1e-300), (4, 0, 1), (3, 5, 1e-300)]))
    matrices = [graph.laplacian(mode) for graph in graphs]
    if mode == FLOAT:
        # Not a Laplacian: rows 4-7 take two steps of factor -1e308, so the
        # running sums of the second block's pivot rows overflow to inf.
        # In that block rows 0-3 have no nonzero factor and row 8 + j has a
        # zero factor at position j only. Each must skip its zero-factor
        # steps as a one-step pass does: taken, x - 0.0 * inf would be nan.
        rows = [[0.0] * 12 for _ in range(12)]
        for r in range(4, 8):
            rows[r][0] = rows[r][1] = -1e308
        for j in range(4):
            for i in range(4):
                if i != j:
                    rows[8 + j][4 + i] = -1.0
        matrices.append(Matrix(rows, FLOAT))
    for laplacian in matrices:
        solved, expected = _forest_solve(laplacian), _full_block_solve(laplacian)
        # repr tells 0.0 from -0.0 and compares nan with nan.
        assert repr(solved) == repr(expected)


# Orders 8 to 11 run blocks of zero to three steps, by the binary digits of
# n, and then a block of eight; order 20 runs a block of four and one of 16.
# The one-sink graphs and the DAGs have rows whose factors of a block are all
# 0, which the exact update still scales by p / q.
@pytest.mark.parametrize(
    "graph",
    [
        MultiDigraph(2, [(0, 1, Fraction(2, 3)), (1, 0, Fraction(5, 4))]),
        MultiDigraph(4, []),
        *(_rational_graph(n, CORPUS_SEED + n, 3 * n) for n in (8, 9, 10, 11, 20)),
        MultiDigraph(10, [arc for arc in _rational_graph(10, 7, 40).arcs if arc.tail != 0]),
        dag_graph(12, 0.3),
        *SMALL_BLOCKS_FIRST,
    ],
    ids=[
        *("n2", "arcless", "rational8", "rational9", "rational10", "rational11", "rational20"),
        *("one-sink", "dag", "dag13", "one-sink14", "rational15"),
    ],
)
def test_exact_solve_is_the_scaled_determinant_and_adjugate(graph):
    pivots, c, weights = _forest_solve(graph.laplacian(EXACT))
    shifted = Matrix.identity(graph.n) + graph.laplacian()
    total = determinant(shifted)
    scale = c**graph.n
    assert pivots[-1] == scale * total
    assert Matrix(weights) == invert(shifted).scaled(scale * total)
    if graph.n >= 8:
        # Mixed denominators, and parallel arcs in all but the DAGs.
        pairs = [(arc.tail, arc.head) for arc in graph.arcs]
        assert c > 1 and (len(set(pairs)) < len(pairs) or graph.n in (12, 13))


def test_solver_rejects_a_nonpositive_pivot():
    # Not a Laplacian: I plus this matrix has first leading principal minor 0.
    with pytest.raises(InconsistentWithTheoremError):
        _forest_solve(Matrix([[-1, 1], [1, -1]]))


def test_solver_rejects_rows_that_do_not_sum_to_zero():
    # Nonpositive off the diagonal and every pivot positive, but the first
    # row sums to 1: the pivot from the row sum is not the eliminated one.
    with pytest.raises(InconsistentWithTheoremError, match="row sum"):
        _forest_solve(Matrix([[2, -1], [-1, 1]]))


def test_report_products_are_the_forest_products():
    for graph in (random_graph(5, 11, (1, 9)), corpus(1)[0], MultiDigraph(3, [])):
        forests = forest_matrices(graph)
        weights = forests.matrix
        for report in verify_all_triples(graph, forests):
            i, j, k = report.triple
            assert type(report.lhs) is Fraction and type(report.rhs) is Fraction
            assert report.lhs == weights[i, j] * weights[j, k]
            assert report.rhs == weights[i, k] * weights[j, j]


def test_verify_undirected_reuses_given_forests():
    for index in range(10):
        n, edges = random_undirected(CORPUS_SEED + index)
        doubled = MultiDigraph.from_undirected(n, edges)
        forests = _assert_matches_reference(doubled)
        assert list(verify_all_triples(doubled, forests)) == list(verify_all_triples(doubled))
