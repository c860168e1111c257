"""Graph text and JSON formats.

Text format::

    digraph <n>          (or "graph <n>" for an undirected edge list)
    <tail> <head> <weight>

Vertices are 1-based; weights are decimals or rationals like ``p/q``.
Lines starting with ``#`` and blank lines are ignored. The JSON form is
``{"n": int, "directed": bool, "arcs": [[tail, head, "weight"], ...]}``;
a weight is a string or a JSON number, and either is read from its text,
as a text-file token is, so exact values survive the boundary.

Emission is canonical (arcs sorted by tail then head, input order
preserved among parallels) so parse-emit round trips are byte identical.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import GraphFormatError, LoopArcError, NonPositiveWeightError, VertexOutOfRangeError
from .graph import MultiDigraph
from .matrix import MAX_DIGITS, format_weight, record_repr


class ParsedGraph(NamedTuple):
    """A parsed graph.

    An input that declares itself undirected, by a ``graph <n>`` header or
    ``"directed": false``, becomes the doubled digraph of
    :meth:`MultiDigraph.from_undirected`, the only form it travels in.
    """

    graph: MultiDigraph

    __repr__ = record_repr


def parse_weight(token: str) -> Fraction:
    """A decimal or ``p/q`` rational; exponents beyond ``MAX_DIGITS`` in
    magnitude are rejected, since ``Fraction`` would expand them into
    integers of that many digits."""
    _, marker, exponent = token.lower().partition("e")
    try:
        if marker and abs(int(exponent)) > MAX_DIGITS:
            raise ValueError("exponent out of range")
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad weight {token!r}") from exc


def _is_int(value) -> bool:
    # JSON true and false arrive as bools, which Python counts as ints.
    return isinstance(value, int) and not isinstance(value, bool)


def _parsed_graph(
    n: int,
    entries: list[tuple[int, int, Fraction]],
    unit: str,
    numbers: Sequence[int],
    undirected: bool,
) -> ParsedGraph:
    """The graph of the 0-based ``entries``. An endpoint out of range, a
    loop or a weight that is not positive is reported in the file's
    1-based numbering, with the place of the first entry that holds one:
    ``unit`` (line or arc) and that entry's number in ``numbers``."""
    build = MultiDigraph.from_undirected if undirected else MultiDigraph
    try:
        return ParsedGraph(build(n, entries))
    except (VertexOutOfRangeError, LoopArcError, NonPositiveWeightError) as exc:
        # The graph checks its arcs in file order, each as this loop does,
        # so the first entry that fails here is the one it stopped at.
        for (tail, head, weight), number in zip(entries, numbers):
            place = f"{unit} {number}"
            for v in (tail, head):
                if not 0 <= v < n:
                    raise VertexOutOfRangeError(f"vertex {v + 1} outside 1..{n} ({place})") from None
            if tail == head:
                raise LoopArcError(f"arc {tail + 1}->{head + 1} is a loop ({place})") from None
            if weight <= 0:
                raise NonPositiveWeightError(f"{exc} ({place})") from None
        raise


def parse_graph_text(text: str) -> ParsedGraph:
    header = None
    n = 0
    entries: list[tuple[int, int, Fraction]] = []
    line_numbers = []
    # Files repeat a few weight tokens over many arcs, and Fraction(str)
    # runs a regular expression, so each distinct token is parsed once per
    # file. A bad token is never stored, so it raises where it first occurs.
    read_weight = functools.cache(parse_weight)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if header is not None and len(tokens) == 3:
            # An arc line; range checks happen at graph construction.
            try:
                tail = int(tokens[0]) - 1
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: bad vertex {tokens[0]!r}") from exc
            try:
                head = int(tokens[1]) - 1
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: bad vertex {tokens[1]!r}") from exc
            try:
                weight = read_weight(tokens[2])
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {line_no}: {exc}") from exc
            entries.append((tail, head, weight))
            line_numbers.append(line_no)
            continue
        if header is None:
            if len(tokens) != 2 or tokens[0] not in ("digraph", "graph"):
                raise GraphFormatError(
                    f"line {line_no}: expected 'digraph <n>' or 'graph <n>'"
                )
            header = tokens[0]
            try:
                n = int(tokens[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {line_no}: bad vertex count {tokens[1]!r}") from exc
            continue
        raise GraphFormatError(f"line {line_no}: expected '<tail> <head> <weight>'")
    if header is None:
        raise GraphFormatError("empty input: missing 'digraph <n>' or 'graph <n>' header")
    return _parsed_graph(n, entries, "line", line_numbers, header == "graph")


def parse_graph_json(text: str) -> ParsedGraph:
    import json

    # A JSON number with a fraction or an exponent stays its own text, so
    # that parse_weight reads it exactly. Besides JSONDecodeError, a
    # ValueError, json.loads raises a plain ValueError for an integer past
    # Python's digit limit and RecursionError for deep nesting.
    try:
        payload = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"bad JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "arcs" not in payload:
        raise GraphFormatError('JSON graphs need "n" and "arcs" keys')
    n = payload["n"]
    if not _is_int(n):
        raise GraphFormatError('"n" must be an integer')
    if not isinstance(payload["arcs"], list):
        raise GraphFormatError('"arcs" must be a list')
    directed = payload.get("directed", True)
    if not isinstance(directed, bool):
        raise GraphFormatError('"directed" must be true or false')
    entries = []
    read_weight = functools.cache(parse_weight)  # as in parse_graph_text
    for number, item in enumerate(payload["arcs"], start=1):
        if not isinstance(item, list) or len(item) != 3:
            raise GraphFormatError(f"arc {number} is not a [tail, head, weight] array")
        tail, head, weight = item
        if not (_is_int(tail) and _is_int(head)):
            raise GraphFormatError(f"arc {number} has endpoints that are not integers")
        # Numbers arrive as their text or as ints; a literal, an array or
        # an object is named as the file spells it.
        if not (isinstance(weight, str) or _is_int(weight)):
            raise GraphFormatError(f"bad weight {json.dumps(weight)} (arc {number})")
        try:
            weight = read_weight(str(weight))
        except GraphFormatError as exc:
            raise GraphFormatError(f"{exc} (arc {number})") from exc
        entries.append((tail - 1, head - 1, weight))
    numbers = range(1, len(entries) + 1)
    return _parsed_graph(n, entries, "arc", numbers, not directed)


def parse_graph(text: str) -> ParsedGraph:
    """Parse either format, sniffing JSON by its leading brace."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def format_graph(graph: MultiDigraph) -> str:
    """Canonical text form of a digraph (1-based, arcs sorted by endpoints,
    parallel arcs in input order)."""
    lines = [f"digraph {graph.n}"]
    for arc in sorted(graph.arcs, key=lambda arc: (arc.tail, arc.head)):
        lines.append(f"{arc.tail + 1} {arc.head + 1} {format_weight(arc.weight)}")
    return "\n".join(lines) + "\n"
