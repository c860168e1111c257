"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 enumeration/series limits exceeded,
3 theory-consistency failure (an implementation bug, surfaced distinctly).
Errors print to stderr as ``error:<code>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bottleneck import (
    check_triple,
    relation,
    summarize,
    verify_all_triples,
    verify_undirected,
)
from .errors import (
    BadParametersError,
    GraphFormatError,
    InconsistentWithTheoremError,
    InforestError,
    VertexOutOfRangeError,
)
from .forest import forest_matrices
from .generators import complete_graph, cycle_graph, path_graph, random_graph
from .graph import MultiDigraph
from .io import format_graph, format_weight, parse_graph, parse_weight
from .matrix import EXACT, FLOAT, Matrix
from .oracle import DEFAULT_CHOICE_CAP, choice_count, enumerate_in_forests, oracle_matrices
from .routes import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOLERANCE,
    choose_epsilon,
    route_decomposition,
    route_matrix,
)

EXACT_MODE_MAX_VERTICES = 12


def _read_input(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            # Stdin may turn undecodable bytes into lone surrogates
            # (surrogateescape); those do not encode back to UTF-8.
            text.encode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeError as exc:
        source = "stdin" if path == "-" else path
        raise GraphFormatError(f"{source} is not UTF-8 text") from exc
    except OSError as exc:
        raise BadParametersError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_graph(args):
    return parse_graph(_read_input(args.input), force_undirected=args.undirected)


def _resolve_mode(args, graph: MultiDigraph) -> str:
    if args.mode:
        return args.mode
    return EXACT if graph.n <= EXACT_MODE_MAX_VERTICES else FLOAT


def _oracle_cap() -> int:
    raw = os.environ.get("FOREST_ORACLE_CAP")
    if raw is None:
        return DEFAULT_CHOICE_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise BadParametersError(f"FOREST_ORACLE_CAP must be an integer, got {raw!r}") from exc


def _scalar_json(value):
    if isinstance(value, float):
        return value
    return str(Fraction(value))


def _matrix_json(matrix: Matrix):
    return [[_scalar_json(v) for v in matrix.row(i)] for i in range(matrix.order)]


def _matrix_tsv(matrix: Matrix) -> list[str]:
    return [
        "\t".join(format_weight(v) for v in matrix.row(i)) for i in range(matrix.order)
    ]


def _vertex_arg(value: int, graph: MultiDigraph, flag: str) -> int:
    if not (1 <= value <= graph.n):
        raise VertexOutOfRangeError(f"{flag} must lie in 1..{graph.n}, got {value}")
    return value - 1


def _rational_arg(raw: str, flag: str) -> Fraction:
    try:
        return parse_weight(raw)
    except GraphFormatError as exc:
        raise BadParametersError(f"{flag} must be a rational, got {raw!r}") from exc


def _epsilon_arg(args, graph: MultiDigraph):
    if args.epsilon is None:
        return choose_epsilon(graph)
    return _rational_arg(args.epsilon, "--epsilon")


def _cmd_forest(args) -> int:
    graph = _load_graph(args).graph
    mode = _resolve_mode(args, graph)
    forests = forest_matrices(graph, mode)
    if args.fmt == "json":
        payload = {
            "f": _scalar_json(forests.total_weight),
            "F": _matrix_json(forests.matrix),
            "Q": _matrix_json(forests.proximity),
        }
        print(json.dumps(payload))
    else:
        print(f"# f={format_weight(forests.total_weight)}")
        print("\n".join(_matrix_tsv(forests.matrix)))
    return 0


def _cmd_proximity(args) -> int:
    graph = _load_graph(args).graph
    mode = _resolve_mode(args, graph)
    forests = forest_matrices(graph, mode)
    if args.fmt == "json":
        print(json.dumps({"Q": _matrix_json(forests.proximity)}))
    else:
        print("\n".join(_matrix_tsv(forests.proximity)))
    return 0


def _cmd_enumerate(args) -> int:
    graph = _load_graph(args).graph
    cap = _oracle_cap()
    if args.fmt == "json":
        forests = [
            {
                "choices": [
                    "root" if c is None else c + 1 for c in forest.arc_choice
                ],
                "roots": [v + 1 for v in forest.roots],
                "weight": _scalar_json(forest.weight),
            }
            for forest in enumerate_in_forests(graph, cap=cap)
        ]
        print(json.dumps(forests))
        return 0
    for forest in enumerate_in_forests(graph, cap=cap):
        tokens = ["root" if c is None else str(c + 1) for c in forest.arc_choice]
        print(" ".join(tokens) + "\t" + format_weight(forest.weight))
    return 0


def _cmd_routes(args) -> int:
    graph = _load_graph(args).graph
    mode = _resolve_mode(args, graph)
    eps = _epsilon_arg(args, graph)
    if not args.tol > 0:
        raise BadParametersError(f"--tol must be positive, got {args.tol}")
    if args.max_terms < 1:
        raise BadParametersError(f"--max-terms must be at least 1, got {args.max_terms}")
    result = route_matrix(
        graph, eps=eps, tolerance=args.tol, max_terms=args.max_terms, mode=mode
    )
    if args.fmt == "json":
        payload = {
            "epsilon": _scalar_json(result.epsilon),
            "terms_used": result.terms_used,
            "tail_bound": float(result.tail_bound),
            "R": _matrix_json(result.route_weights),
        }
        print(json.dumps(payload))
    else:
        print(
            f"# epsilon={format_weight(result.epsilon)} terms_used={result.terms_used} "
            f"tail_bound={float(result.tail_bound)!r}"
        )
        print("\n".join(_matrix_tsv(result.route_weights)))
    return 0


def _cmd_decompose(args) -> int:
    graph = _load_graph(args).graph
    mode = _resolve_mode(args, graph)
    eps = _epsilon_arg(args, graph)
    i = _vertex_arg(args.i, graph, "-i")
    j = _vertex_arg(args.j, graph, "-j")
    k = _vertex_arg(args.k, graph, "-k")
    deco = route_decomposition(graph, i, j, k, eps=eps, mode=mode)
    verdict = relation(deco.start_via * deco.via_end, deco.start_end * deco.via_via, mode)
    fields = {
        "r_ij": deco.start_via,
        "r_jj": deco.via_via,
        "r_jk": deco.via_end,
        "r_ik": deco.start_end,
        "r_ij_once": deco.start_via_once,
        "r_ijk": deco.through_via,
        "r_ik_avoid_j": deco.avoiding_via,
    }
    if args.fmt == "json":
        payload = {name: _scalar_json(value) for name, value in fields.items()}
        payload["relation"] = verdict
        payload["degenerate"] = deco.degenerate
        print(json.dumps(payload))
    else:
        parts = [f"{name}={format_weight(value)}" for name, value in fields.items()]
        parts.append(f"relation={verdict}")
        parts.append(f"degenerate={str(deco.degenerate).lower()}")
        print(" ".join(parts))
    return 0


def _cmd_bottleneck(args) -> int:
    graph = _load_graph(args).graph
    mode = _resolve_mode(args, graph)
    forests = forest_matrices(graph, mode)
    i = _vertex_arg(args.i, graph, "-i")
    j = _vertex_arg(args.j, graph, "-j")
    k = _vertex_arg(args.k, graph, "-k")
    report = check_triple(forests, graph, i, j, k)
    if args.fmt == "json":
        payload = {
            "relation": report.relation,
            "separator": report.separator,
            "lhs": _scalar_json(report.lhs),
            "rhs": _scalar_json(report.rhs),
            "degenerate": report.degenerate,
        }
        print(json.dumps(payload))
    else:
        print(
            f"{report.relation} separator={str(report.separator).lower()} "
            f"lhs={format_weight(report.lhs)} rhs={format_weight(report.rhs)}"
        )
    return 0


def _cmd_verify(args) -> int:
    parsed = _load_graph(args)
    graph = parsed.graph
    mode = _resolve_mode(args, graph)
    forests = forest_matrices(graph, mode)
    if parsed.undirected:
        reports = verify_undirected(graph.n, parsed.edges, forests=forests)
    else:
        reports = verify_all_triples(graph, forests)
    counts = summarize(reports)
    oracle_state = "skipped"
    cap = _oracle_cap()
    if mode == EXACT and choice_count(graph) <= cap:
        oracle = oracle_matrices(graph, cap=cap)
        if (
            oracle.total_weight != forests.total_weight
            or oracle.matrix != forests.matrix
        ):
            raise InconsistentWithTheoremError(
                "enumeration oracle disagrees with the algebraic forest matrices"
            )
        oracle_state = "match"
    if args.fmt == "json":
        payload = {
            "triples": counts.total,
            "equal": counts.equal,
            "strict": counts.strict,
            "inconsistent": counts.inconsistent,
            "oracle": oracle_state,
        }
        print(json.dumps(payload))
    else:
        print(
            f"triples={counts.total} equal={counts.equal} strict={counts.strict} "
            f"inconsistent={counts.inconsistent} oracle={oracle_state}"
        )
    return 3 if counts.inconsistent else 0


def _parse_weight_range(raw: str) -> tuple[int, int]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise BadParametersError(f"--weight-range must look like lo:hi, got {raw!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise BadParametersError(f"--weight-range must be integers, got {raw!r}") from exc
    return lo, hi


def _cmd_gen(args) -> int:
    weight = _rational_arg(args.weights, "--weights")
    if args.kind == "random":
        if args.seed is None:
            raise BadParametersError("gen random requires --seed")
        graph = random_graph(args.n, args.seed, _parse_weight_range(args.weight_range))
    elif args.kind == "path":
        graph = path_graph(args.n, weight)
    elif args.kind == "cycle":
        graph = cycle_graph(args.n, weight)
    else:
        graph = complete_graph(args.n, weight)
    sys.stdout.write(format_graph(graph))
    return 0


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", default="-", help="graph file, or - for stdin")
    parser.add_argument("--mode", choices=[EXACT, FLOAT], help="scalar mode (default: exact up to 12 vertices)")
    parser.add_argument("--format", dest="fmt", choices=["tsv", "json"], default="tsv")
    parser.add_argument("--undirected", action="store_true", help="treat input lines as undirected edges")


def _add_series_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", help="walk parameter as a rational, e.g. 1/4")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)


def _add_triple_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", type=int, required=True, help="start vertex (1-based)")
    parser.add_argument("-j", type=int, required=True, help="via vertex (1-based)")
    parser.add_argument("-k", type=int, required=True, help="end vertex (1-based)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inforest",
        description="Spanning converging forest matrices and bottleneck verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, extras in [
        ("forest", _cmd_forest, ()),
        ("proximity", _cmd_proximity, ()),
        ("enumerate", _cmd_enumerate, ()),
        ("routes", _cmd_routes, ("series",)),
        ("decompose", _cmd_decompose, ("series", "triple")),
        ("bottleneck", _cmd_bottleneck, ("triple",)),
        ("verify", _cmd_verify, ()),
    ]:
        sub = commands.add_parser(name)
        _add_io_options(sub)
        if "series" in extras:
            _add_series_options(sub)
        if "triple" in extras:
            _add_triple_options(sub)
        sub.set_defaults(handler=handler)

    gen = commands.add_parser("gen", help="emit a generated graph file")
    gen.add_argument("kind", choices=["path", "cycle", "complete", "random"])
    gen.add_argument("n", type=int)
    gen.add_argument("--weights", default="1", help="fixed arc weight for non-random kinds")
    gen.add_argument("--seed", type=int, help="seed for the random kind")
    gen.add_argument("--weight-range", default="1:5", help="numerator/denominator range lo:hi")
    gen.set_defaults(handler=_cmd_gen)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except InforestError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    try:
        code = run()
        # Flush inside the handler so a closed pipe raises here, not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as ``| head`` does. Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
