"""Hash the library's outputs on a fixed corpus, one line per section and mode.

Prints one ``<section>.<mode> <sha256>`` line per section and scalar mode
(``exact`` or ``float``), each hashing the values, types and error texts
of a group of library calls in that mode on a seeded corpus of random and
generator graphs with at most 8 vertices:

- ``forest``: ``f``, ``F`` and ``Q`` of :func:`forest_matrices`;
- ``solve``: :func:`invert` and :func:`determinant` of ``I + L`` and of
  fixed small general matrices, singular ones with their error text;
- ``verify``: every report of :func:`verify_all_triples`, with the types of
  ``lhs`` and ``rhs`` and whether they are one object, and the summary;
- ``triple``: :func:`check_triple` on every triple;
- ``routes``: :func:`route_matrix`: the step matrix and the type names
  of its entries, weights, terms, tail bound and its type, or the error;
- ``decompose``: :func:`route_decomposition` on every triple;
- ``oracle``: :func:`oracle_matrices`, which is exact for every graph,
  under ``exact``;
- ``undirected``: every report of :func:`verify_all_triples` on the doubled
  digraph, recorded as in ``verify``, and the summary, on a seeded corpus
  of sparse undirected multigraphs with at most 8 vertices, where cut
  vertices occur;
- ``cli``: :func:`inforest.cli.run` in-process: the input text, argv,
  exit code, stdout and stderr of every graph command in both output
  formats on the corpus graphs with at most 5 vertices as text files, the
  undirected corpus as ``graph <n>`` files, a few graphs as JSON and a few
  malformed files, and of ``gen`` for each kind. Runs with no ``--mode``
  (exact at these sizes) and with ``--mode exact`` go under ``exact``,
  runs with ``--mode float`` under ``float``;
- ``verify_large``: :func:`verify_all_triples` on the larger graphs of
  :func:`large_corpus`: the summary and the reports of the first and the
  last start vertex, recorded as in ``verify``. Under ``float``, where
  products overflow at n=90, ``f``, ``F`` and ``Q`` come first, and six
  seeded 9-vertex paths with two tiny arcs follow, whose products
  straddle 2^-1000 (``tiny_paths``). Under ``exact`` the graphs are
  of 20 and 30 vertices, whose triples are nearly all strict by a wide
  margin, and a 2-cycle of weight 1e10, whose strict triples are close to
  equality. Both modes end with ``detour_graph``, where the sweep's
  row bound leaves some rows to the rule, and
  :func:`joined_blocks`, whose one strong articulation point sends the
  separators through one dominator pass per start vertex, then
  ``sink_graph`` and ``dag_graph``, whose zero entries make the
  sweep decide every triple by comparing its products. ``tiny_paths``,
  ``detour_graph``, ``sink_graph`` and ``dag_graph`` are the builders of
  ``tests/helpers.py``, which the tests run on too.

A section and mode with no record print no line.

A change that keeps every output prints the same lines as its parent, and
a change to float arithmetic alone leaves every ``.exact`` line as it was. The
tool imports ``inforest`` from the ``src`` directory of the checkout it
lies in, and the four shared builders and the report counter
``count_reports`` from its ``tests/helpers.py``, so it needs the test
dependencies (``hypothesis``, which that module imports). To compare two
checkouts, copy it into the other one and run it in both; the other
checkout's ``tests/helpers.py`` must define those five names.

Usage: ``python tools/output_digest.py``
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from inforest import (  # noqa: E402
    EXACT,
    FLOAT,
    InforestError,
    Matrix,
    MultiDigraph,
    check_triple,
    complete_graph,
    cycle_graph,
    determinant,
    forest_matrices,
    format_graph,
    format_weight,
    invert,
    oracle_matrices,
    path_graph,
    random_graph,
    route_decomposition,
    route_matrix,
    summarize,
    verify_all_triples,
)
from inforest import bottleneck, cli  # noqa: E402
from tests.helpers import (  # noqa: E402
    count_reports,
    dag_graph,
    detour_graph,
    sink_graph,
    tiny_paths,
)

MODES = (EXACT, FLOAT)
# Exact route series, the enumeration oracle and the per-triple route
# decompositions grow fastest in cost, so they run on the smaller graphs.
EXACT_ROUTES_MAX_N = 4
SMALL_N = 5
ROUTE_ARGUMENTS = (
    {}, {"eps": Fraction(1, 9)}, {"tolerance": 1e-4}, {"tolerance": 2}, {"max_terms": 3}
)
SECTIONS = (
    "forest", "solve", "verify", "triple", "routes", "decompose", "oracle", "undirected", "cli",
    "verify_large",
)
# (n, seed) of the random graphs of the verify_large section, per mode.
LARGE = {EXACT: ((20, 1), (30, 1)), FLOAT: ((40, 1), (50, 1), (90, 1))}
# The graph commands, whether each takes ``--mode`` and whether it takes a
# triple.
COMMANDS = (
    ("forest", True, False),
    ("proximity", True, False),
    ("enumerate", False, False),
    ("routes", True, False),
    ("decompose", True, True),
    ("bottleneck", True, True),
    ("verify", True, False),
)
TRIPLE = ["-i", "1", "-j", "2", "-k", "3"]
# A bad header, a bad weight, a loop arc, a zero weight, truncated JSON and
# a weight whose forest weights have more digits than Python prints.
MALFORMED = (
    "digraf 3\n1 2 1\n",
    "digraph 3\n1 2 1/x\n",
    "digraph 3\n1 2 1\n2 2 1\n",
    "graph 3\n1 2 0\n",
    '{"n": 3, "arcs": [[1, 2, "1"]',
    "digraph 2\n1 2 1e-4300\n",
)
GEN_ARGUMENTS = (
    ["path", "4"],
    ["cycle", "5", "--weights", "3/7"],
    ["complete", "3", "--weights", "0.5"],
    ["random", "5", "--seed", "3", "--weight-range", "1:9"],
)


def corpus() -> list:
    """The fixed graphs: seeded random graphs and the three generators."""
    graphs = [random_graph(n, seed) for n in range(2, 9) for seed in (1, 2, 3)]
    graphs.append(random_graph(5, 3, (1, 40)))
    for make in (path_graph, cycle_graph, complete_graph):
        graphs += [make(3), make(6, Fraction(3, 7))]
    return graphs


def large_corpus() -> list:
    """``(mode, graph)`` pairs of the ``verify_large`` section."""
    pairs = [(mode, random_graph(n, seed)) for mode in MODES for n, seed in LARGE[mode]]
    pairs.append((EXACT, MultiDigraph(2, [(0, 1, 10**10), (1, 0, 10**10)])))
    pairs += [(FLOAT, graph) for graph in tiny_paths()]
    pairs += [(mode, detour_graph()) for mode in MODES]
    pairs += [(mode, joined_blocks()) for mode in MODES]
    pairs += [(mode, graph) for mode in MODES for graph in (sink_graph(), dag_graph())]
    return pairs


def joined_blocks() -> MultiDigraph:
    """``random_graph(20, 1)`` and ``random_graph(20, 2)`` on 39 vertices,
    the second shifted by 19 so that the two share vertex 19. Each block is
    strongly connected with no strong articulation point, so vertex 19 is
    the graph's only one: every path between the blocks runs through it."""
    second = [(t + 19, h + 19, w) for t, h, w in random_graph(20, 2).arcs]
    return MultiDigraph(39, [*random_graph(20, 1).arcs, *second])


def undirected_corpus() -> list:
    """Fixed undirected multigraphs as ``(n, edges)``: seeded random ones
    with ``n - 1`` or ``n + 2`` edges, and a weighted path."""
    rng = random.Random(16)
    graphs = []
    for n in range(2, 9):
        for count in (n - 1, n + 2):
            edges = []
            for _ in range(count):
                u, v = rng.sample(range(n), 2)
                edges.append((u, v, Fraction(rng.randint(1, 5), rng.randint(1, 5))))
            graphs.append((n, edges))
    graphs.append((6, [(v, v + 1, Fraction(v + 1, 3)) for v in range(5)]))
    return graphs


def _edge_text(n: int, edges) -> str:
    lines = [f"graph {n}"]
    lines += [f"{u + 1} {v + 1} {format_weight(Fraction(w))}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def _json_text(n: int, edges, directed: bool) -> str:
    arcs = [[u + 1, v + 1, format_weight(Fraction(w))] for u, v, w in edges]
    return json.dumps({"n": n, "directed": directed, "arcs": arcs})


def cli_corpus(graphs, undirected) -> list[tuple[str, list[str], str]]:
    """``(mode, argv, input text)`` runs of the CLI: every graph command
    on the digraphs ``graphs`` with at most ``SMALL_N`` vertices as text,
    on the undirected ``(n, edges)`` pairs ``undirected`` as ``graph <n>``
    files, on the first two of each as JSON and on the ``MALFORMED`` files,
    then ``gen`` for each kind."""
    small = [g for g in graphs if g.n <= SMALL_N]
    files = [format_graph(g) for g in small]
    files += [_edge_text(n, edges) for n, edges in undirected]
    files += [_json_text(g.n, g.arcs, True) for g in small[:2]]
    files += [_json_text(n, edges, False) for n, edges in undirected[:2]]
    files += MALFORMED
    runs = []
    for text in files:
        for name, with_mode, with_triple in COMMANDS:
            for fmt in ("tsv", "json"):
                argv = [name, "--format", fmt] + (TRIPLE if with_triple else [])
                runs.append((EXACT, argv, text))
                if with_mode:
                    runs += [(mode, argv + ["--mode", mode], text) for mode in MODES]
    runs += [(EXACT, ["gen", *arguments], "") for arguments in GEN_ARGUMENTS]
    return runs


def _cli(argv: list[str], text: str) -> str:
    """The input, argv, exit code, stdout and stderr of ``cli.run(argv)``
    with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    return repr((text, argv, code, out.getvalue(), err.getvalue()))


def general_matrices() -> list[list[list[int]]]:
    """Fixed small matrices, singular ones among them."""
    rng = random.Random(12)
    matrices = [[[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 1], [1, 0]]]
    matrices.append([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    for n in range(1, 7):
        for _ in range(12):
            matrices.append([[rng.choice((-2, 0, 0, 1, 3)) for _ in range(n)] for _ in range(n)])
    return matrices


def _attempt(call) -> str:
    """The repr of ``call()``, or the error's class and text."""
    try:
        return repr(call())
    except InforestError as exc:
        return f"{type(exc).__name__}: {exc}"


def _reports(reports) -> list[str]:
    """Every report with the types of its sides and whether they are one
    object, then their counts."""
    reports = list(reports)
    records = [
        repr((r, type(r.lhs).__name__, type(r.rhs).__name__, r.lhs is r.rhs)) for r in reports
    ]
    return records + [repr(count_reports(reports))]


def _start_reports(graph, forests, i: int) -> list:
    """The reports of the triples (i, j, k) in lexicographic order, from
    one dominator pass from i."""
    rows, masks = forests.matrix.to_lists(), graph.dominators(i)
    span = range(graph.n)
    return [
        bottleneck._report(forests.mode, (i, j, k), rows[i], rows[j], bool(masks[k] >> j & 1))
        for j in span
        for k in span
    ]


def _sections(graphs, undirected, runs, large) -> dict:
    """The records of every ``(section, mode)`` pair, in line order."""
    out = {(name, mode): [] for name in SECTIONS for mode in MODES}
    for graph in graphs:
        n = graph.n
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        for mode in MODES:
            forests = forest_matrices(graph, mode)
            matrices = (forests.matrix.to_lists(), forests.proximity.to_lists())
            out["forest", mode].append(repr((mode, forests.total_weight, *matrices)))
            shifted = Matrix.identity(n, mode) + graph.laplacian(mode)
            out["solve", mode].append(_attempt(lambda: invert(shifted).to_lists()))
            out["solve", mode].append(_attempt(lambda: determinant(shifted)))
            out["verify", mode] += _reports(verify_all_triples(graph, forests, mode))
            for triple in triples:
                out["triple", mode].append(_attempt(lambda: check_triple(forests, graph, *triple)))
            if mode == FLOAT or n <= EXACT_ROUTES_MAX_N:
                for kwargs in ROUTE_ARGUMENTS:
                    out["routes", mode].append(_attempt(lambda: _routes(graph, mode, **kwargs)))
            if n <= SMALL_N:
                for triple in triples:
                    out["decompose", mode].append(
                        _attempt(lambda: route_decomposition(graph, *triple, mode=mode))
                    )
        if n <= SMALL_N:
            result = oracle_matrices(graph)
            rows = result.matrix.to_lists()
            record = repr((result.total_weight, rows, result.forest_count))
            out["oracle", EXACT].append(record)
    for rows in general_matrices():
        for mode in MODES:
            matrix = Matrix(rows, mode)
            out["solve", mode].append(_attempt(lambda: invert(matrix).to_lists()))
            out["solve", mode].append(_attempt(lambda: determinant(matrix)))
    for n, edges in undirected:
        doubled = MultiDigraph.from_undirected(n, edges)
        for mode in MODES:
            out["undirected", mode] += _reports(verify_all_triples(doubled, mode=mode))
    for mode, graph in large:
        forests = forest_matrices(graph, mode)
        if mode == FLOAT:
            matrices = (forests.matrix.to_lists(), forests.proximity.to_lists())
            out["verify_large", mode].append(repr((forests.total_weight, *matrices)))
        reports = verify_all_triples(graph, forests, mode)
        out["verify_large", mode].append(repr(summarize(reports)))
        first, last = (_start_reports(graph, forests, i) for i in (0, graph.n - 1))
        out["verify_large", mode] += _reports(first + last)
    # Building the argument parser takes most of a small run's time, and a
    # parser keeps no state between calls, so the runs share one.
    parser = cli.build_parser()
    with mock.patch.object(cli, "build_parser", lambda: parser):
        for mode, argv, text in runs:
            out["cli", mode].append(_cli(argv, text))
    return out


def _routes(graph, mode: str, **kwargs) -> tuple:
    result = route_matrix(graph, mode=mode, **kwargs)
    bound = result.tail_bound
    steps = result.step_weights.to_lists()
    types = sorted({type(v).__name__ for row in steps for v in row})
    weights = result.route_weights.to_lists()
    return (result.epsilon, steps, types, weights, result.terms_used, bound, type(bound).__name__)


def digest(graphs, undirected=(), runs=(), large=()) -> list[str]:
    """One ``<section>.<mode> <sha256 hex>`` line per section and mode
    with records for the digraphs ``graphs``, the undirected
    ``(n, edges)`` pairs ``undirected``, the CLI runs ``runs`` of
    :func:`cli_corpus` and the ``(mode, graph)`` pairs ``large`` of
    larger digraphs."""
    lines = []
    for (name, mode), records in _sections(graphs, undirected, runs, large).items():
        if not records:
            continue
        h = hashlib.sha256()
        for record in records:
            h.update(record.encode("utf-8") + b"\n")
        lines.append(f"{name}.{mode} {h.hexdigest()}")
    return lines


def main() -> int:
    graphs, undirected = corpus(), undirected_corpus()
    runs = cli_corpus(graphs, undirected)
    print("\n".join(digest(graphs, undirected, runs, large_corpus())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
