"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 enumeration/series limits exceeded,
3 theory-consistency failure (an implementation bug, surfaced distinctly).
Errors print to stderr as ``error:<code>: <message>``.

Each command runs in a process of its own, which loads (and, without
cached bytecode, compiles) every module it imports. So this module imports
only what every graph command needs, and a command imports the rest of the
library, and ``json``, when it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import (
    BadParametersError,
    GraphFormatError,
    InconsistentWithTheoremError,
    InforestError,
    InstanceTooLargeError,
    VertexOutOfRangeError,
)
from .forest import forest_matrices
from .graph import MultiDigraph
from .io import format_graph, format_weight, parse_graph, parse_weight
from .matrix import DEFAULT_MAX_TERMS, DEFAULT_TOLERANCE, EXACT, FLOAT, Matrix, scalar

EXACT_MODE_MAX_VERTICES = 12

# perfbench/spans.py wraps these on this module as well as on their own.
# They resolve through the package on first access. The commands import
# them from their own modules when they run, and so call what is there.
_TRACED_NAMES = ("verify_all_triples", "route_matrix", "enumerate_in_forests")


def __getattr__(name):
    if name not in _TRACED_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


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


def _json_value(value):
    if isinstance(value, Matrix):
        return [[_json_value(v) for v in value.row(i)] for i in range(value.order)]
    # A non-finite float goes out as its text, which strict JSON can hold.
    if isinstance(value, (int, str)) or isinstance(value, float) and math.isfinite(value):
        return value
    return format_weight(value)


def _text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, str):
        return value
    return format_weight(value)


def _emit(fmt: str, fields: dict, line: Optional[str] = None) -> None:
    """Print ``fields`` as one JSON object or as TSV.

    TSV is one line of ``name=value`` pairs, or ``line`` formatted with the
    field texts, followed by the rows of the first matrix among the fields;
    the line then starts with ``# ``. All text is built before any is
    printed, so a value too long to print leaves stdout empty.
    """
    if fmt == "json":
        import json

        print(json.dumps({name: _json_value(value) for name, value in fields.items()}))
        return
    texts = {name: _text(value) for name, value in fields.items() if not isinstance(value, Matrix)}
    head = line.format(**texts) if line else " ".join(f"{k}={v}" for k, v in texts.items())
    matrix = next((value for value in fields.values() if isinstance(value, Matrix)), None)
    if matrix is None:
        print(head)
        return
    rows = ["\t".join(format_weight(v) for v in matrix.row(i)) for i in range(matrix.order)]
    print("\n".join(([f"# {head}"] if head else []) + rows))


def _triple_args(args, graph: MultiDigraph) -> tuple[int, int, int]:
    """The 0-based vertices of ``-i``, ``-j`` and ``-k``."""
    for flag, value in (("-i", args.i), ("-j", args.j), ("-k", args.k)):
        if not (1 <= value <= graph.n):
            raise VertexOutOfRangeError(f"{flag} must lie in 1..{graph.n}, got {value}")
    return args.i - 1, args.j - 1, args.k - 1


def _rational_arg(raw: Optional[str], flag: str) -> Optional[Fraction]:
    """The option's value as a rational, or None when it was not given."""
    try:
        return None if raw is None else parse_weight(raw)
    except GraphFormatError as exc:
        raise BadParametersError(f"{flag} must be a rational, got {raw!r}") from exc


def _cmd_forest(args, graph: MultiDigraph, mode: str) -> int:
    forests = forest_matrices(graph, mode)
    _emit(args.fmt, {"f": forests.total_weight, "F": forests.matrix, "Q": forests.proximity})
    return 0


def _cmd_proximity(args, graph: MultiDigraph, mode: str) -> int:
    _emit(args.fmt, {"Q": forest_matrices(graph, mode).proximity})
    return 0


def _cmd_enumerate(args, graph: MultiDigraph, mode: str) -> int:
    from .oracle import enumerate_in_forests

    forests = enumerate_in_forests(graph)
    if args.fmt == "json":
        import json

        payload = [
            {
                "choices": ["root" if c is None else c + 1 for c in forest.arc_choice],
                "roots": [v + 1 for v in forest.roots],
                "weight": _json_value(forest.weight),
            }
            for forest in forests
        ]
        print(json.dumps(payload))
        return 0
    # Every line is built before any is printed, as in _emit.
    lines = []
    for forest in forests:
        tokens = ["root" if c is None else str(c + 1) for c in forest.arc_choice]
        lines.append(" ".join(tokens) + "\t" + format_weight(forest.weight))
    print("\n".join(lines))
    return 0


def _cmd_routes(args, graph: MultiDigraph, mode: str) -> int:
    from .routes import route_matrix

    eps = _rational_arg(args.epsilon, "--epsilon")
    result = route_matrix(graph, eps=eps, tolerance=args.tol, max_terms=args.max_terms, mode=mode)
    fields = {
        "epsilon": result.epsilon,
        "terms_used": result.terms_used,
        "tail_bound": scalar(result.tail_bound, FLOAT),
        "R": result.route_weights,
    }
    _emit(args.fmt, fields)
    return 0


def _cmd_decompose(args, graph: MultiDigraph, mode: str) -> int:
    from .bottleneck import relation
    from .routes import route_decomposition

    eps = _rational_arg(args.epsilon, "--epsilon")
    deco = route_decomposition(graph, *_triple_args(args, graph), eps=eps, mode=mode)
    fields = {
        "r_ij": deco.start_via,
        "r_jj": deco.via_via,
        "r_jk": deco.via_end,
        "r_ik": deco.start_end,
        "r_ij_once": deco.start_via_once,
        "r_ijk": deco.through_via,
        "r_ik_avoid_j": deco.avoiding_via,
        # The law r_ij r_jk <= r_ik r_jj divided by r_jj > 0: the left side
        # never exceeds r_jk, so it cannot overflow where r_ij r_jk would.
        "relation": relation(deco.start_via_once * deco.via_end, deco.start_end, mode),
        "degenerate": deco.degenerate,
    }
    _emit(args.fmt, fields)
    return 0


def _cmd_bottleneck(args, graph: MultiDigraph, mode: str) -> int:
    from .bottleneck import check_triple

    forests = forest_matrices(graph, mode)
    report = check_triple(forests, graph, *_triple_args(args, graph))
    fields = {
        "relation": report.relation,
        "separator": report.separator,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "degenerate": report.degenerate,
    }
    # The bare leading relation token is what scripts split on.
    _emit(args.fmt, fields, "{relation} separator={separator} lhs={lhs} rhs={rhs}")
    return 0 if report.consistent else 3


def _cmd_verify(args, graph: MultiDigraph, mode: str) -> int:
    from .bottleneck import summarize, verify_all_triples
    from .oracle import oracle_matrices

    forests = forest_matrices(graph, mode)
    counts = summarize(verify_all_triples(graph, forests))
    oracle_state = "skipped"
    if mode == EXACT:
        try:
            oracle = oracle_matrices(graph)
        except InstanceTooLargeError:
            pass
        else:
            if oracle.total_weight != forests.total_weight or oracle.matrix != forests.matrix:
                raise InconsistentWithTheoremError(
                    "enumeration oracle disagrees with the algebraic forest matrices"
                )
            oracle_state = "match"
    fields = {
        "triples": counts.total,
        "equal": counts.equal,
        "strict": counts.strict,
        "inconsistent": counts.inconsistent,
        "oracle": oracle_state,
    }
    _emit(args.fmt, fields)
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
    from .generators import complete_graph, cycle_graph, path_graph, random_graph

    if args.kind == "random":
        if args.seed is None:
            raise BadParametersError("gen random requires --seed")
        graph = random_graph(args.n, args.seed, _parse_weight_range(args.weight_range))
    else:
        fixed = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}
        graph = fixed[args.kind](args.n, _rational_arg(args.weights, "--weights"))
    sys.stdout.write(format_graph(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inforest",
        description="Spanning converging forest matrices and bottleneck verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, extras in [
        ("forest", _cmd_forest, ("mode",)),
        ("proximity", _cmd_proximity, ("mode",)),
        ("enumerate", _cmd_enumerate, ()),
        ("routes", _cmd_routes, ("mode", "epsilon", "series")),
        ("decompose", _cmd_decompose, ("mode", "epsilon", "triple")),
        ("bottleneck", _cmd_bottleneck, ("mode", "triple")),
        ("verify", _cmd_verify, ("mode",)),
    ]:
        sub = commands.add_parser(name)
        sub.add_argument("--input", default="-", help="graph file, or - for stdin")
        if "mode" in extras:
            sub.add_argument("--mode", choices=[EXACT, FLOAT], help="scalar mode (default: exact up to 12 vertices)")
        sub.add_argument("--format", dest="fmt", choices=["tsv", "json"], default="tsv")
        if "epsilon" in extras:
            sub.add_argument("--epsilon", help="walk parameter as a rational, e.g. 1/4")
        if "series" in extras:
            sub.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
            sub.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
        if "triple" in extras:
            for flag, role in (("-i", "start"), ("-j", "via"), ("-k", "end")):
                sub.add_argument(flag, type=int, required=True, help=f"{role} vertex (1-based)")
        # enumerate has no --mode, but run reads args.mode for every graph command.
        sub.set_defaults(handler=handler, mode=None)

    gen = commands.add_parser("gen", help="emit a generated graph file")
    gen.add_argument("kind", choices=["path", "cycle", "complete", "random"])
    gen.add_argument("n", type=int)
    gen.add_argument("--weights", default="1", help="fixed arc weight for non-random kinds")
    gen.add_argument("--seed", type=int, help="seed for the random kind")
    gen.add_argument("--weight-range", default="1:5", help="numerator/denominator range lo:hi")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        graph = parse_graph(_read_input(args.input)).graph
        mode = args.mode or (EXACT if graph.n <= EXACT_MODE_MAX_VERTICES else FLOAT)
        return args.handler(args, graph, mode)
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
