"""Reference checks for each workload's outputs.

Every check raises :class:`CheckFailed` when an output is wrong and
otherwise returns the observables it computed on the way. They run outside
the timed region of an op, and every op is checked.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from inforest import __version__
from inforest.bottleneck import check_triple, summarize, verify_all_triples
from inforest.forest import forest_matrices
from inforest.io import format_graph
from inforest.matrix import EXACT, FLOAT, Matrix
from inforest.oracle import enumerate_in_forests, oracle_matrices
from inforest.routes import choose_epsilon, route_decomposition, route_matrix

ROW_SUM_TOLERANCE = 1e-9
RESIDUAL_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _shifted(graph, mode: str) -> Matrix:
    return Matrix.identity(graph.n, mode) + graph.laplacian(mode)


def _summary_ok(graph, summary) -> None:
    _require(summary.total == graph.n**3, f"{summary.total} triples, expected {graph.n ** 3}")
    _require(summary.inconsistent == 0, f"{summary.inconsistent} inconsistent triples")


def check_exact(graph, forests, summary) -> dict:
    """``(I + L) F == f I`` exactly, and no inconsistent triple."""
    product = _shifted(graph, EXACT) @ forests.matrix
    _require(
        product == Matrix.identity(graph.n, EXACT).scaled(forests.total_weight),
        "(I+L)F differs from fI",
    )
    _summary_ok(graph, summary)
    return {}


def check_float(graph, forests, summary) -> dict:
    """Finite ``F``; ``Q = F / f`` has unit row sums and a small residual
    ``max|(I + L) Q - I|``; no inconsistent triple."""
    f = forests.total_weight
    rows = forests.matrix.to_lists()
    _require(math.isfinite(f) and all(math.isfinite(v) for row in rows for v in row), "F is not finite")
    q = Matrix([[v / f for v in row] for row in rows], FLOAT)
    worst = max(abs(total - 1.0) for total in q.row_sums())
    _require(worst <= ROW_SUM_TOLERANCE, f"a row of Q sums to 1{worst:+.3e}")
    residual = (_shifted(graph, FLOAT) @ q - Matrix.identity(graph.n, FLOAT)).max_abs()
    _require(residual <= RESIDUAL_TOLERANCE, f"residual {residual:.3e}")
    _summary_ok(graph, summary)
    return {"residual": residual}


def check_routes(result, forests) -> dict:
    """``max|R - (1 + 1/eps) Q| <= tail_bound``, with ``Q = F / f`` from a
    reference solve of the same graph."""
    factor = 1.0 + 1.0 / float(result.epsilon)
    f = float(forests.total_weight)
    expected = Matrix([[factor * float(v) / f for v in row] for row in forests.matrix.to_lists()], FLOAT)
    gap = (result.route_weights.with_mode(FLOAT) - expected).max_abs()
    tail = float(result.tail_bound)
    _require(gap <= tail, f"route gap {gap:.3e} exceeds tail bound {tail:.3e}")
    return {"gap_ratio": gap / tail}


# --- CLI -------------------------------------------------------------------


def _fractions(line: str, sep: str = "\t") -> list[Fraction]:
    return [Fraction(token) for token in line.split(sep)]


def _fields(text: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in text.split() if "=" in token)


def cli_reference(label: str, graph):
    """Library results the stdout of CLI command ``label`` must match;
    ``graph`` is the command's input graph, or for ``gen`` the graph it
    should generate."""
    if label == "version":
        return f"inforest {__version__}\n"
    if label == "gen":
        return format_graph(graph)
    if label in ("forest", "proximity", "json"):
        return forest_matrices(graph, EXACT)
    if label == "enumerate":
        return [
            (tuple("root" if c is None else str(c + 1) for c in forest.arc_choice), forest.weight)
            for forest in enumerate_in_forests(graph)
        ]
    if label == "bottleneck":
        return check_triple(forest_matrices(graph, EXACT), graph, 0, 1, 2)
    if label == "decompose":
        return route_decomposition(graph, 0, 1, 2, eps=choose_epsilon(graph), mode=EXACT)
    if label == "verify":
        counts = summarize(verify_all_triples(graph, mode=EXACT))
        oracle = oracle_matrices(graph)
        forests = forest_matrices(graph, EXACT)
        match = oracle.total_weight == forests.total_weight and oracle.matrix == forests.matrix
        return counts, match
    if label == "routes":
        return route_matrix(graph, eps=choose_epsilon(graph), mode=EXACT), forest_matrices(graph, EXACT)
    raise ValueError(f"unknown CLI command {label!r}")


def check_cli(label: str, returncode: int, stdout: str, reference) -> dict:
    """Exit 0 and stdout matching the library results in ``reference``."""
    _require(returncode == 0, f"{label}: exit {returncode}")
    lines = stdout.splitlines()
    observed = {"stdout_bytes": len(stdout.encode("utf-8"))}
    if label in ("version", "gen"):
        _require(stdout == reference, f"{label}: stdout differs")
    elif label == "forest":
        _require(Fraction(lines[0].removeprefix("# f=")) == reference.total_weight, "forest: f differs")
        _require([_fractions(line) for line in lines[1:]] == reference.matrix.to_lists(), "forest: F differs")
    elif label == "proximity":
        _require([_fractions(line) for line in lines] == reference.proximity.to_lists(), "proximity: Q differs")
    elif label == "json":
        payload = json.loads(stdout)
        _require(Fraction(payload["f"]) == reference.total_weight, "json: f differs")
        for key, matrix in (("F", reference.matrix), ("Q", reference.proximity)):
            got = [[Fraction(v) for v in row] for row in payload[key]]
            _require(got == matrix.to_lists(), f"json: {key} differs")
    elif label == "enumerate":
        got = [(tuple(choices.split()), Fraction(weight)) for choices, weight in (line.split("\t") for line in lines)]
        _require(got == reference, "enumerate: forests differ")
    elif label == "bottleneck":
        relation, rest = stdout.split(" ", 1)
        fields = _fields(rest)
        _require(relation == reference.relation, "bottleneck: relation differs")
        _require(fields["separator"] == str(reference.separator).lower(), "bottleneck: separator differs")
        _require(Fraction(fields["lhs"]) == reference.lhs and Fraction(fields["rhs"]) == reference.rhs, "bottleneck: products differ")
    elif label == "decompose":
        fields = _fields(stdout)
        names = {
            "r_ij": "start_via", "r_jj": "via_via", "r_jk": "via_end", "r_ik": "start_end",
            "r_ij_once": "start_via_once", "r_ijk": "through_via", "r_ik_avoid_j": "avoiding_via",
        }
        for key, attribute in names.items():
            _require(Fraction(fields[key]) == getattr(reference, attribute), f"decompose: {key} differs")
    elif label == "verify":
        counts, match = reference
        fields = _fields(stdout)
        expected = {
            "triples": str(counts.total), "equal": str(counts.equal), "strict": str(counts.strict),
            "inconsistent": "0", "oracle": "match",
        }
        _require(match, "verify: enumeration oracle disagrees with the library")
        _require(fields == expected, f"verify: got {stdout.strip()!r}")
    elif label == "routes":
        result, forests = reference
        fields = _fields(lines[0])
        _require(int(fields["terms_used"]) == result.terms_used, "routes: terms_used differs")
        _require(float(fields["tail_bound"]) == float(result.tail_bound), "routes: tail_bound differs")
        weights = [_fractions(line) for line in lines[1:]]
        _require(weights == result.route_weights.to_lists(), "routes: R differs")
        factor = 1 + 1 / Fraction(result.epsilon)
        gap = max(
            abs(r - factor * v / forests.total_weight)
            for row_r, row_f in zip(weights, forests.matrix.to_lists())
            for r, v in zip(row_r, row_f)
        )
        _require(gap <= result.tail_bound, f"routes: gap {float(gap):.3e} exceeds the tail bound")
        observed["gap_ratio"] = float(gap / result.tail_bound)
    return observed
