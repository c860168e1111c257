"""Graph text and JSON parsing, canonical emission, round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inforest import (
    GraphFormatError,
    InforestError,
    InstanceTooLargeError,
    LoopArcError,
    MultiDigraph,
    NonPositiveWeightError,
    ParsedGraph,
    TooFewVerticesError,
    VertexOutOfRangeError,
    format_graph,
    format_weight,
    parse_graph,
    parse_weight,
)
from inforest.matrix import format_for_message
from tests.helpers import reference_parse_text, transpose

PATH_TEXT = """\
# three-vertex path
digraph 3

1 2 1/2
2 3 0.25
"""


def test_parse_text_with_comments_and_blanks():
    parsed = parse_graph(PATH_TEXT)
    assert parsed.graph == MultiDigraph(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 4))])


def test_parse_undirected_header_doubles_edges():
    parsed = parse_graph("graph 3\n1 2 2\n2 3 1/3\n")
    assert parsed.graph == MultiDigraph.from_undirected(3, [(0, 1, 2), (1, 2, Fraction(1, 3))])
    assert len(parsed.graph.arcs) == 4
    assert parsed.graph.laplacian() == transpose(parsed.graph.laplacian())


@pytest.mark.parametrize(
    "text",
    [
        "",
        "trigraph 3\n",
        "digraph\n",
        "digraph x\n",
        "digraph 3\n1 2\n",
        "digraph 3\n1 2 1 9\n",
        "digraph 3\n1 2 one\n",
        "digraph 3\nx 2 1\n",
    ],
)
def test_malformed_text_rejected(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_semantic_errors_surface_from_construction():
    with pytest.raises(NonPositiveWeightError):
        parse_graph("digraph 2\n1 2 0\n")
    with pytest.raises(VertexOutOfRangeError):
        parse_graph("digraph 2\n0 2 1\n")
    with pytest.raises(VertexOutOfRangeError):
        parse_graph("digraph 2\n1 3 1\n")
    # The vertex count is checked before any endpoint.
    with pytest.raises(TooFewVerticesError):
        parse_graph("digraph 1\n1 3 1\n")
    for text in ("digraph 4097\n", "graph 4097\n1 4098 1\n", '{"n": 4097, "arcs": []}'):
        with pytest.raises(InstanceTooLargeError, match="^graphs have at most 4096 vertices, got 4097$"):
            parse_graph(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("digraph 2\n1 3 1\n", "vertex 3 outside 1..2 (line 2)"),
        ("digraph 2\n0 1 1\n", "vertex 0 outside 1..2 (line 2)"),
        ("# arcs\ngraph 3\n1 2 1\n\n2 4 1\n", "vertex 4 outside 1..3 (line 5)"),
        ('{"n": 2, "arcs": [[1, 3, "1"]]}', "vertex 3 outside 1..2 (arc 1)"),
        (
            '{"n": 3, "directed": false, "arcs": [[1, 2, "1"], [0, 3, "1"]]}',
            "vertex 0 outside 1..3 (arc 2)",
        ),
    ],
    ids=["text-past-n", "text-zero", "text-undirected", "json-past-n", "json-undirected"],
)
def test_endpoint_out_of_range_is_named_as_in_the_file(text, message):
    with pytest.raises(VertexOutOfRangeError) as raised:
        parse_graph(text)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("digraph 3\n1 2 1/3\n2 1 1/3\n3 3 1/3\n", LoopArcError, "arc 3->3 is a loop (line 4)"),
        (
            "graph 3\n1 2 0\n2 3 0\n",
            NonPositiveWeightError,
            "arc weight must be positive, got 0 (line 2)",
        ),
        (
            '{"n": 3, "arcs": [[1, 2, "2"], [2, 3, "-2"], [3, 1, "-2"]]}',
            NonPositiveWeightError,
            "arc weight must be positive, got -2 (arc 2)",
        ),
        # The graph checks an arc's endpoints before its weight.
        ("digraph 2\n1 3 0\n", VertexOutOfRangeError, "vertex 3 outside 1..2 (line 2)"),
        ("digraph 3\n1 2 1\n2 3 1/x\n", GraphFormatError, "line 3: bad weight '1/x'"),
        (
            '{"n": 3, "arcs": [[1, 2, "1"], [2, 3, "x"]]}',
            GraphFormatError,
            "bad weight 'x' (arc 2)",
        ),
        # JSON values are spelled as in the file, arc entries by number.
        ('{"n": 2, "arcs": [[1, 2, true]]}', GraphFormatError, "bad weight true (arc 1)"),
        ('{"n": 2, "arcs": [[1, 2, false]]}', GraphFormatError, "bad weight false (arc 1)"),
        ('{"n": 2, "arcs": [[1, 2, null]]}', GraphFormatError, "bad weight null (arc 1)"),
        ('{"n": 2, "arcs": [[1, 2, [1]]]}', GraphFormatError, "bad weight [1] (arc 1)"),
        ('{"n": 2, "arcs": [[1, 2, {"a": 1}]]}', GraphFormatError, 'bad weight {"a": 1} (arc 1)'),
        (
            '{"n": 2, "arcs": [null]}',
            GraphFormatError,
            "arc 1 is not a [tail, head, weight] array",
        ),
        (
            '{"n": 2, "arcs": [[1, 2]]}',
            GraphFormatError,
            "arc 1 is not a [tail, head, weight] array",
        ),
        (
            '{"n": 2, "arcs": [{"a": 1}]}',
            GraphFormatError,
            "arc 1 is not a [tail, head, weight] array",
        ),
        (
            '{"n": 2, "arcs": [[true, 2, "1"]]}',
            GraphFormatError,
            "arc 1 has endpoints that are not integers",
        ),
    ],
    ids=[
        "text-loop",
        "undirected-zero",
        "json-negative",
        "endpoint-first",
        "text-weight",
        "json-weight",
        "json-true",
        "json-false",
        "json-null",
        "json-array-weight",
        "json-object-weight",
        "json-null-entry",
        "json-short-entry",
        "json-object-entry",
        "json-bool-endpoint",
    ],
)
def test_arc_errors_are_named_as_in_the_file(text, error, message):
    with pytest.raises(error) as raised:
        parse_graph(text)
    assert str(raised.value).endswith(message)


def test_repeated_weight_tokens_parse_to_their_values():
    # Each distinct token is parsed once per file; every arc still gets
    # the value its own token denotes.
    lines = [f"{v + 1} {(v + 1) % 6 + 1} {('1/3', '2', '1/3', '0.5')[v % 4]}" for v in range(6)]
    graph = parse_graph("digraph 6\n" + "\n".join(lines) + "\n").graph
    expected = [Fraction(1, 3), 2, Fraction(1, 3), Fraction(1, 2)] * 2
    assert [arc.weight for arc in graph.arcs] == expected[:6]
    arcs = [[1, 2, "1/3"], [2, 3, 0.5], [3, 1, "1/3"], [1, 3, 0.5]]
    graph = parse_graph(json.dumps({"n": 3, "arcs": arcs})).graph
    assert [arc.weight for arc in graph.arcs] == [Fraction(1, 3), Fraction(1, 2)] * 2
    with pytest.raises(GraphFormatError, match="bad weight '1/x'"):
        parse_graph("digraph 3\n1 2 1\n2 3 1/x\n3 1 1/x\n")


def test_round_trip_is_byte_identical():
    emitted = format_graph(parse_graph(PATH_TEXT).graph)
    assert format_graph(parse_graph(emitted).graph) == emitted


def test_canonical_emission_sorts_arcs_stably():
    g = MultiDigraph(3, [(1, 2, 5), (0, 1, 2), (0, 1, 3)])
    assert format_graph(g) == "digraph 3\n1 2 2\n1 2 3\n2 3 5\n"
    # Parallel arcs keep their input order, not weight order.
    g = MultiDigraph(3, [(1, 2, 5), (0, 1, 3), (0, 1, 2)])
    assert format_graph(g) == "digraph 3\n1 2 3\n1 2 2\n2 3 5\n"


def test_weight_formatting():
    assert format_weight(Fraction(10, 2)) == "5"
    assert format_weight(Fraction(2, 3)) == "2/3"
    assert format_weight(7) == "7"
    assert format_weight(0.5) == "0.5"
    assert parse_weight("1/2") == Fraction(1, 2)
    with pytest.raises(GraphFormatError):
        parse_weight("7/0")


def test_parse_json_directed():
    parsed = parse_graph('{"n": 2, "directed": true, "arcs": [[1, 2, "1/2"]]}')
    assert parsed.graph == MultiDigraph(2, [(0, 1, Fraction(1, 2))])
    assert parsed.graph.arcs[0].weight == Fraction(1, 2)


def test_parse_json_undirected_and_numeric_weights():
    parsed = parse_graph('{"n": 3, "directed": false, "arcs": [[1, 2, 1], [2, 3, 0.5]]}')
    assert parsed.graph == MultiDigraph.from_undirected(3, [(0, 1, 1), (1, 2, Fraction(1, 2))])
    assert len(parsed.graph.arcs) == 4
    assert parsed.graph.arcs[2].weight == Fraction(1, 2)
    # As doubles these would be 0.0, inf and 0.3; the token itself is read,
    # as in the text format.
    for token in ("1e-400", "1e400", "0.30000000000000000001"):
        parsed = parse_graph(f'{{"n": 2, "arcs": [[1, 2, {token}]]}}')
        assert parsed == parse_graph(f"digraph 2\n1 2 {token}\n")
        assert parsed.graph.arcs[0].weight == parse_weight(token)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"arcs": []}',
        '{"n": "3", "arcs": []}',
        '{"n": 2, "arcs": [[1, 2]]}',
        '{"n": 2, "arcs": [["a", 2, "1"]]}',
    ],
)
def test_malformed_json_rejected(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_json_directed_must_be_a_bool():
    with pytest.raises(GraphFormatError, match="directed"):
        parse_graph('{"n": 2, "directed": "no", "arcs": [[1, 2, "1"]]}')


def test_weight_exponent_beyond_the_digit_limit_is_rejected():
    assert parse_weight("1e300") == 10**300
    assert parse_weight("1E-300") == Fraction(1, 10**300)
    assert parse_weight("1e4300") == 10**4300
    for token in ("1e1000000", "1e4301", "1e-4301"):
        with pytest.raises(GraphFormatError):
            parse_weight(token)
    with pytest.raises(GraphFormatError, match=r"^bad weight '1e99999' \(arc 1\)$"):
        parse_graph('{"n": 2, "arcs": [[1, 2, 1e99999]]}')


@pytest.mark.parametrize(
    "text",
    [
        '{"n": true, "arcs": []}',
        '{"n": 3, "arcs": [[true, 2, "1"], [2, 3, "1"]]}',
        '{"n": 3, "arcs": [[1, false, "1"]]}',
    ],
)
def test_json_booleans_are_no_integers(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_value_too_long_to_print_is_instance_too_large():
    assert format_weight(Fraction(10**4299, 3)) == f"{10**4299}/3"
    with pytest.raises(InstanceTooLargeError):
        format_weight(Fraction(10**4300, 3))


def test_message_text_of_a_value_too_long_to_print_is_its_magnitude():
    assert format_for_message(Fraction(10**4299, 3)) == f"{10**4299}/3"
    assert format_for_message(0.5) == "0.5"
    assert format_for_message(Fraction(10**4300, 3)) == "~10^4299.52"
    assert format_for_message(-Fraction(1, 10**4300)) == "-~10^-4300.00"


# Declared vertex counts: small ones, and counts beyond the graph's vertex
# limit, which ``MultiDigraph`` refuses before it allocates per vertex.
VERTEX_COUNTS = st.one_of(st.integers(2, 30), st.sampled_from([4097, 10**9, 10**18]))
WEIGHTS = st.sampled_from(["1", "2/3", "0.25", "1e-3", "5"])
JUNK = st.sampled_from(
    ["0", "-1", "32", "x", "1.5", "1e1", "٣", "1_0", "nan", "inf", "1/0", "1/2/3", "1e-400",
     "1e400", "1e4300", "1e4301", "7" * 4400, "1e" + "9" * 5000, ""]
)
JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=5), st.integers(-2, 32),
    st.lists(st.integers(-2, 32), max_size=4), JUNK,
)


@st.composite
def near_valid_text(draw):
    """A valid text graph with up to two tokens replaced by junk."""
    n = draw(VERTEX_COUNTS)
    rows = [[draw(st.sampled_from(["digraph", "graph"])), str(n)]]
    for _ in range(draw(st.integers(0, 8))):
        rows.append([str(draw(st.integers(1, n))), str(draw(st.integers(1, n))), draw(WEIGHTS)])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
    return "\n".join(" ".join(row) for row in rows)


@st.composite
def near_valid_json(draw):
    """A valid JSON graph with up to two values replaced by junk, at
    times cut short."""
    n = draw(VERTEX_COUNTS)
    weights = st.one_of(WEIGHTS, st.integers(1, 9))
    arcs = [
        [draw(st.integers(1, n)), draw(st.integers(1, n)), draw(weights)]
        for _ in range(draw(st.integers(0, 6)))
    ]
    payload = {"n": n, "directed": draw(st.booleans()), "arcs": arcs}
    for _ in range(draw(st.integers(0, 2))):
        place = draw(st.sampled_from([payload] + arcs))
        key = draw(st.sampled_from(sorted(payload) if place is payload else range(3)))
        place[key] = draw(JSON_JUNK)
    text = json.dumps(payload)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


# Arbitrary text without these declares no vertex count: a text header
# needs the word graph and a JSON key needs quotes.
ARBITRARY_TEXT = st.text(max_size=200).filter(lambda text: "graph" not in text and '"' not in text)


@given(st.one_of(ARBITRARY_TEXT, near_valid_text(), near_valid_json()))
@settings(max_examples=400, deadline=None)
def test_parse_graph_returns_a_graph_or_raises_an_inforest_error(text):
    try:
        parsed = parse_graph(text)
    except InforestError:
        return
    assert isinstance(parsed, ParsedGraph)


def _outcome(parse, text):
    """The parsed graph with the types of its arcs, or the type and message
    of the error."""
    try:
        graph = parse(text).graph
    except InforestError as exc:
        return type(exc), str(exc)
    return graph, [type(arc) for arc in graph.arcs]


@given(st.one_of(ARBITRARY_TEXT, near_valid_text()))
@settings(max_examples=400, deadline=None)
def test_parse_graph_text_equals_the_per_line_reference(text):
    assume(not text.lstrip().startswith("{"))  # parse_graph reads that as JSON
    assert _outcome(parse_graph, text) == _outcome(reference_parse_text, text)


@pytest.mark.parametrize(
    "text",
    [
        "digraph 3\nx 2 1\n",
        "digraph 3\n1 y 1\n",
        "digraph 3\n1 2 1/0\n",
        "digraph 3\nx y z\n",
        "digraph 3\n1 y z\n",
        "digraph 3\n1 2\n",
        "digraph 3\n1 2 1 4\n",
        "digraph 3\n1 2 1\ndigraph 3\n",
        "digraph 3\n1 2 1\ngraph 3 1\n",
        "digraph 3\n   # indented comment\n\t#tab\n1 2 1\n",
        "  # before the header\ndigraph 3\n2 3 1/2\n",
        "digraph 3\n1 2 1 # not a comment\n",
        "digraph 3\n1 2 #\n",
        "digraph 3\n1 2 1\n1 2 1\n2 1 1e-3\n",
        "digraph 3\n 1  2\t1/3 \n",
    ],
    ids=[
        "bad-tail", "bad-head", "bad-weight", "bad-tail-first", "bad-head-before-weight",
        "two-tokens", "four-tokens", "second-header", "second-header-three-tokens",
        "indented-comment", "comment-before-header", "hash-after-first-token",
        "hash-as-weight", "parallel-arcs", "spacing",
    ],
)
def test_parse_graph_text_lines_equal_the_per_line_reference(text):
    assert _outcome(parse_graph, text) == _outcome(reference_parse_text, text)
