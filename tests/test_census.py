"""Every simple digraph on 3 and 4 labelled vertices, checked three ways.

Each ordered pair (t, h), t != h, in row-major order gets an index; a graph
is a subset of the pairs, and the arc of index a weighs ``1 + a % 3``. On
each graph the exact solve must equal the enumeration oracle, exact verify
must find no inconsistent triple, and the dominator separators must equal
the breadth-first reference. At n = 4 the solve is one block of four
steps, run as two halves of two whose rows take each other's steps in one
pass, and at n = 3 a block of one step and then one of two, whose steps
the rows outside each block take in one pass; between them these passes
meet every zero pattern of factors of up to two steps. ``test_solver.py``
compares wider blocks with the one-step solve.
"""

from itertools import compress, product

import pytest

from inforest import (
    EXACT,
    MultiDigraph,
    forest_matrices,
    oracle_matrices,
    summarize,
    verify_all_triples,
)
from tests.helpers import reference_separators


def _census(n):
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    arcs = [(t, h, 1 + index % 3) for index, (t, h) in enumerate(pairs)]
    for chosen in product((False, True), repeat=len(pairs)):
        yield MultiDigraph(n, list(compress(arcs, chosen)))


@pytest.mark.parametrize("n, count", [(3, 64), (4, 4096)])
def test_census_of_small_digraphs(n, count):
    seen = 0
    for graph in _census(n):
        seen += 1
        forests = forest_matrices(graph, EXACT)
        oracle = oracle_matrices(graph)
        assert forests.total_weight == oracle.total_weight
        assert forests.matrix == oracle.matrix
        assert summarize(verify_all_triples(graph, forests)).inconsistent == 0
        for i, masks in enumerate(graph.dominator_masks()):
            rows = [[bool(masks[k] >> j & 1) for k in range(n)] for j in range(n)]
            assert rows == reference_separators(n, graph.arcs, i)
    assert seen == count
