"""Command-line behavior: outputs, formats, exit codes, determinism."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inforest.bottleneck
import inforest.cli
import inforest.oracle
from inforest import Matrix, format_graph, random_graph
from inforest.cli import run

PATH_FILE = "digraph 3\n1 2 1\n2 3 1\n"
TRIANGLE_FILE = "digraph 3\n1 2 1\n1 3 1\n2 3 1\n"
# A child interpreter imports the package these tests import, whether or
# not the calling shell sets PYTHONPATH.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(inforest.cli.__file__).parents[1]))


@pytest.fixture
def path_file(tmp_path):
    target = tmp_path / "path.graph"
    target.write_text(PATH_FILE)
    return str(target)


@pytest.fixture
def triangle_file(tmp_path):
    target = tmp_path / "triangle.graph"
    target.write_text(TRIANGLE_FILE)
    return str(target)


def test_forest_tsv_output(path_file, capsys):
    assert run(["forest", "--input", path_file, "--mode", "exact", "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["# f=4", "2\t1\t1", "0\t2\t2", "0\t0\t4"]


def test_forest_json_reparses_to_same_values(path_file, capsys):
    assert run(["forest", "--input", path_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert Fraction(payload["f"]) == 4
    assert [[Fraction(v) for v in row] for row in payload["F"]][0] == [2, 1, 1]
    assert [Fraction(v) for v in payload["Q"][0]] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    ]


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_json_output_prints_non_finite_floats_as_text(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 2 1\n")
    argv = ["routes", "--format", "json", "--epsilon", "1e-400", "--tol", "2"]
    assert run([*argv, "--input", str(source)]) == 0
    assert _strict_json(capsys.readouterr().out)["tail_bound"] == "inf"
    source.write_text("digraph 2\n1 2 1e308\n2 1 1e308\n")
    assert run(["forest", "--mode", "float", "--format", "json", "--input", str(source)]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["f"] == "inf" and payload["F"] == [["inf", "inf"], ["inf", "inf"]]
    assert payload["Q"] == [[0.5, 0.5], [0.5, 0.5]]


def test_forest_keeps_exact_rationals(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 2 1/3\n")
    assert run(["forest", "--input", str(source)]) == 0
    out = capsys.readouterr().out
    assert "# f=4/3" in out and "1/3" in out and "." not in out


def test_proximity_output(path_file, capsys):
    assert run(["proximity", "--input", path_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1/2\t1/4\t1/4"


def test_bottleneck_golden_line(path_file, capsys):
    assert run(["bottleneck", "--input", path_file, "-i", "1", "-j", "2", "-k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "equal separator=true lhs=2 rhs=2"


def test_bottleneck_strict_line(triangle_file, capsys):
    assert run(["bottleneck", "--input", triangle_file, "-i", "1", "-j", "2", "-k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "strict separator=false lhs=3 rhs=9"


OVERFLOW_FILE = "digraph 3\n1 2 1e308\n2 3 1\n"


def test_float_bottleneck_that_contradicts_its_separator_exits_3(tmp_path, capsys):
    # F overflows to inf, so the products compare strict while vertex 2
    # separates; verify --mode float counts the same triple inconsistent.
    source = tmp_path / "g.graph"
    source.write_text(OVERFLOW_FILE)
    argv = ["bottleneck", "--mode", "float", "--input", str(source), *_TRIPLE]
    assert run(argv) == 3
    assert capsys.readouterr().out == "strict separator=true lhs=inf rhs=inf\n"


@pytest.mark.parametrize(
    "text, extra",
    [(OVERFLOW_FILE, []), (PATH_FILE, ["--epsilon", "1e-309"])],
    ids=["default-epsilon", "given-epsilon"],
)
def test_float_decompose_at_an_epsilon_whose_reciprocal_overflows_is_out_of_range(
    tmp_path, capsys, text, extra
):
    source = tmp_path / "g.graph"
    source.write_text(text)
    argv = ["decompose", "--mode", "float", "--input", str(source), *_TRIPLE, *extra]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:epsilon-out-of-range:")


def test_float_forest_with_an_overflowed_total_weight_prints_no_nan(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_text(OVERFLOW_FILE)
    assert run(["forest", "--mode", "float", "--input", str(source)]) == 0
    assert capsys.readouterr().out == "# f=inf\ninf\tinf\tinf\n0.0\tinf\tinf\n0.0\t0.0\tinf\n"


def test_float_decompose_verdict_survives_route_products_past_the_double_range(
    path_file, capsys
):
    # At eps = 1e-300 the route weights are near 1e299 and both products of
    # the law near 1e599; vertex 2 separates, so the verdict is equal.
    argv = ["decompose", "--mode", "float", "--input", path_file, *_TRIPLE, "--epsilon", "1e-300"]
    assert run(argv) == 0
    assert "relation=equal" in capsys.readouterr().out.split()


def test_bottleneck_vertex_out_of_range(path_file, capsys):
    assert run(["bottleneck", "--input", path_file, "-i", "1", "-j", "2", "-k", "9"]) == 1
    assert capsys.readouterr().err.startswith("error:vertex-out-of-range:")


def test_verify_triangle_summary(triangle_file, capsys):
    assert run(["verify", "--input", triangle_file]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "triples=27 equal=18 strict=9 inconsistent=0 oracle=match"
    )


def test_verify_json(triangle_file, capsys):
    assert run(["verify", "--input", triangle_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "triples": 27,
        "equal": 18,
        "strict": 9,
        "inconsistent": 0,
        "oracle": "match",
    }


def test_verify_undirected_input(tmp_path, capsys):
    source = tmp_path / "u.graph"
    source.write_text("graph 3\n1 2 1\n2 3 1\n")
    assert run(["verify", "--input", str(source)]) == 0
    assert "inconsistent=0" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_verify_prints_the_same_for_a_graph_file_and_its_mirrored_digraph(tmp_path, capsys, fmt):
    # The edge 2-3 is a pair of parallel edges, which the digraph file
    # mirrors as one arc each way of their total weight.
    files = {
        "graph": "graph 4\n1 2 1\n2 3 1/2\n2 3 1/2\n3 4 2\n1 4 1/3\n",
        "digraph": "digraph 4\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 2\n4 3 2\n1 4 1/3\n4 1 1/3\n",
    }
    outputs = []
    for name, text in files.items():
        source = tmp_path / f"{name}.graph"
        source.write_text(text)
        assert run(["verify", "--input", str(source), "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "oracle" in outputs[0]


def test_verify_skips_oracle_in_float_mode(triangle_file, capsys):
    assert run(["verify", "--input", triangle_file, "--mode", "float"]) == 0
    assert "oracle=skipped" in capsys.readouterr().out


def test_enumerate_triangle(triangle_file, capsys):
    assert run(["enumerate", "--input", triangle_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "root root root\t1"


def test_verify_exits_3_when_the_oracle_disagrees(triangle_file, capsys, monkeypatch):
    real = inforest.oracle.oracle_matrices

    def wrong_total(graph):
        result = real(graph)
        return replace(result, total_weight=result.total_weight + 1)

    monkeypatch.setattr(inforest.oracle, "oracle_matrices", wrong_total)
    assert run(["verify", "--input", triangle_file]) == 3
    assert capsys.readouterr().err.startswith("error:inconsistent-with-theorem:")


@pytest.fixture
def beyond_cap_file(tmp_path):
    # 1,770,209,280 choice vectors, above the enumeration cap of 10^7.
    target = tmp_path / "random12.graph"
    target.write_text(format_graph(random_graph(12, 1)))
    return str(target)


def test_enumerate_beyond_the_cap_is_instance_too_large(beyond_cap_file, capsys):
    assert run(["enumerate", "--input", beyond_cap_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:instance-too-large:")


def test_exact_verify_beyond_the_cap_skips_the_oracle(beyond_cap_file, capsys):
    assert run(["verify", "--input", beyond_cap_file, "--mode", "exact"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("oracle=skipped")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_enumerate_prints_nothing_before_a_weight_too_long_to_print(tmp_path, capsys, fmt):
    # The arcless forest, weight 1, comes first; the forest of the arc
    # weighs 10^-4300, whose denominator has more digits than Python prints.
    source = tmp_path / "tiny.graph"
    source.write_text("digraph 2\n1 2 1e-4300\n")
    assert run(["enumerate", "--format", fmt, "--input", str(source)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:instance-too-large:")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["forest"], "digraph 1000000000\n"),
        (["forest"], json.dumps({"n": 10**12, "arcs": [[1, 2, "1"]]})),
        (["gen", "random", "1000000000", "--seed", "1"], ""),
    ],
    ids=["text", "json", "gen"],
)
def test_a_vertex_count_beyond_the_limit_is_instance_too_large(tmp_path, capsys, argv, text):
    if argv[0] != "gen":
        source = tmp_path / "huge.graph"
        source.write_text(text)
        argv = [*argv, "--input", str(source)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:instance-too-large: graphs have at most 4096 vertices")


def test_routes_header_and_matrix(path_file, capsys):
    assert run(["routes", "--input", path_file, "--mode", "float"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# epsilon=1/2 terms_used=")
    assert len(lines) == 4


def test_routes_not_converged_exit_code(path_file, capsys):
    assert run(["routes", "--input", path_file, "--max-terms", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:not-converged:")


def test_routes_refuses_a_series_that_cannot_converge_before_any_product(
    tmp_path, capsys, monkeypatch
):
    # At eps = 1e-4300 every term keeps an entry near 1/2, so 100,000
    # terms cannot reach the tolerance; no matrix product is needed to
    # know it.
    def no_products(self, other):
        raise AssertionError("matrix product computed")

    monkeypatch.setattr(Matrix, "__matmul__", no_products)
    source = tmp_path / "arc.graph"
    source.write_text("digraph 2\n1 2 1\n")
    assert run(["routes", "--input", str(source), "--epsilon", "1e-4300"]) == 2
    assert capsys.readouterr().err.startswith("error:not-converged:")


def test_exact_routes_too_long_to_print_is_instance_too_large(tmp_path, capsys):
    # At eps = 1/100 the series converges within 2,777 terms, but the
    # exact sum has entries of more than 4300 digits.
    source = tmp_path / "arc.graph"
    source.write_text("digraph 2\n1 2 1\n")
    assert run(["routes", "--input", str(source), "--epsilon", "1/100"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:instance-too-large:")
    assert captured.out == ""


def test_routes_rejects_bad_epsilon(path_file, capsys):
    assert run(["routes", "--input", path_file, "--epsilon", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:epsilon-out-of-range:")


def test_decompose_line(path_file, capsys):
    assert run(["decompose", "--input", path_file, "-i", "1", "-j", "2", "-k", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert "r_ik_avoid_j=0" in out
    assert "relation=equal" in out
    assert "degenerate=false" in out


def test_decompose_json(triangle_file, capsys):
    assert run(
        [
            "decompose",
            "--input",
            triangle_file,
            "--format",
            "json",
            "-i",
            "1",
            "-j",
            "2",
            "-k",
            "3",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relation"] == "strict"
    assert Fraction(payload["r_ik_avoid_j"]) > 0


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(PATH_FILE))
    assert run(["forest", "--input", "-"]) == 0
    assert capsys.readouterr().out.startswith("# f=4")


def test_gen_path_golden(capsys):
    assert run(["gen", "path", "3", "--weights", "1"]) == 0
    assert capsys.readouterr().out == "digraph 3\n1 2 1\n2 3 1\n"


def test_gen_complete_counts(capsys):
    assert run(["gen", "complete", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(" 1") for line in lines[1:])


def test_gen_random_deterministic(capsys):
    assert run(["gen", "random", "4", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "random", "4", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    # The random kind reads --weight-range, never --weights.
    assert run(["gen", "random", "4", "--seed", "7", "--weights", "abc"]) == 0
    assert capsys.readouterr().out == first
    assert run(["gen", "random", "4", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


def test_gen_random_requires_seed(capsys):
    assert run(["gen", "random", "4"]) == 1
    assert capsys.readouterr().err.startswith("error:bad-parameters:")


def test_gen_random_refuses_a_weight_range_without_colon(capsys):
    assert run(["gen", "random", "5", "--seed", "1", "--weight-range", "5"]) == 1
    assert capsys.readouterr().err.startswith("error:bad-parameters:")


def test_gen_random_refuses_a_weight_range_that_is_no_integers(capsys):
    assert run(["gen", "random", "5", "--seed", "1", "--weight-range", "1:x"]) == 1
    expected = "error:bad-parameters: --weight-range must be integers, got '1:x'\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("argv", [["gen", "path", "1"], ["gen", "random", "1", "--seed", "1"]])
def test_gen_with_fewer_than_two_vertices_is_too_few_vertices(capsys, argv):
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error:too-few-vertices:")


def test_gen_roundtrip_through_parser(capsys, monkeypatch):
    assert run(["gen", "random", "5", "--seed", "3"]) == 0
    emitted = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(emitted))
    assert run(["verify", "--input", "-"]) == 0


def test_missing_file_is_input_error(capsys):
    assert run(["forest", "--input", "/nonexistent/g.graph"]) == 1
    assert capsys.readouterr().err.startswith("error:bad-parameters:")


def test_arc_endpoint_out_of_range_is_vertex_out_of_range(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 3 1\n")
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:vertex-out-of-range: vertex ")


def test_loop_arc_file_is_input_error(tmp_path, capsys):
    source = tmp_path / "loop.graph"
    source.write_text("digraph 2\n1 1 1\n")
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:loop-arc:")


@pytest.mark.parametrize(
    "text, error",
    [
        ("digraph 3\n1 2 1\n3 3 1\n", "error:loop-arc: arc 3->3 is a loop (line 3)\n"),
        ('{"n": 3, "arcs": [[2, 2, "1"]]}', "error:loop-arc: arc 2->2 is a loop (arc 1)\n"),
        (
            "digraph 3\n1 2 1\n2 3 0\n",
            "error:nonpositive-weight: arc weight must be positive, got 0 (line 3)\n",
        ),
        ("digraph 3\n1 2 1\n2 3 1/x\n", "error:format: line 3: bad weight '1/x'\n"),
        (
            '{"n": 3, "arcs": [[1, 2, "1"], [2, 3, "x"]]}',
            "error:format: bad weight 'x' (arc 2)\n",
        ),
        ('{"n": 2, "arcs": [[1, 2, true]]}', "error:format: bad weight true (arc 1)\n"),
    ],
    ids=["text-loop", "json-loop", "zero-weight", "text-weight", "json-weight", "json-literal"],
)
def test_arc_errors_name_the_file_vertex_and_place(tmp_path, capsys, text, error):
    source = tmp_path / "bad.graph"
    source.write_text(text)
    assert run(["forest", "--input", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == error


def test_unknown_flag_rejected(path_file, capsys):
    assert run(["forest", "--input", path_file, "--bogus"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "-i", "1", "-j", "2", "-k", "3", "--tol", "5"],
        ["decompose", "-i", "1", "-j", "2", "-k", "3", "--max-terms", "1"],
        ["enumerate", "--mode", "float"],
    ],
)
def test_flag_the_command_does_not_read_is_rejected(path_file, capsys, argv):
    assert run([*argv, "--input", path_file]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_command_rejected(capsys):
    assert run(["frobnicate"]) == 1


def test_console_entry_point_smoke(tmp_path):
    source = tmp_path / "p.graph"
    source.write_text(PATH_FILE)
    result = subprocess.run(
        [sys.executable, "-m", "inforest", "verify", "--input", str(source)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("triples=27")


def test_routes_epsilon_that_is_no_rational_is_bad_parameters(path_file, capsys):
    # Every caller of the one rational-option reader names its own flag.
    for argv, flag in [
        (["routes", "--input", path_file, "--epsilon", "abc"], "--epsilon"),
        (["decompose", "--input", path_file, *_TRIPLE, "--epsilon", "abc"], "--epsilon"),
        (["gen", "path", "3", "--weights", "abc"], "--weights"),
    ]:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == f"error:bad-parameters: {flag} must be a rational, got 'abc'\n"
        assert captured.out == ""


def test_json_arcs_that_are_no_list_is_format_error(tmp_path, capsys):
    source = tmp_path / "g.json"
    source.write_text('{"n":3,"arcs":5}')
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:format:")


@pytest.mark.parametrize(
    "text",
    ['{"n": 3, "arcs": [[1, 2, %s]]}' % ("7" * 5000), '{"n": %s, "arcs": []}' % ("7" * 5000)],
    ids=["weight", "n"],
)
def test_json_integer_beyond_the_digit_limit_is_format_error(tmp_path, capsys, text):
    source = tmp_path / "g.json"
    source.write_text(text)
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:format:")


def test_json_nested_too_deep_is_format_error(tmp_path, capsys):
    source = tmp_path / "g.json"
    source.write_text('{"n": 3, "arcs": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:format:")


def test_closed_stdout_pipe_exits_quietly(path_file):
    process = subprocess.Popen(
        [sys.executable, "-m", "inforest", "forest", "--input", path_file],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    # The reader goes away before the first write, as "| head -c 0" would.
    process.stdout.close()
    stderr = process.stderr.read().decode()
    assert process.wait(timeout=60) == 1
    assert stderr == ""


# Run in a fresh interpreter: prints, after each step, the inforest modules
# loaded and whether json is.
MODULE_PROBE = """
import sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("inforest.")), "json" in sys.modules

steps = {}
import inforest
steps["import"] = loaded()
from inforest.cli import run
run(["--version"])
steps["version"] = loaded()
assert run(["forest", "--input", sys.argv[1]]) == 0
steps["forest"] = loaded()
print(repr(steps))
"""


def test_commands_load_only_the_modules_they_run(path_file):
    result = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, path_file],
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    steps = ast.literal_eval(result.stdout.splitlines()[-1])
    assert steps["import"] == ([], False)
    # What the CLI imports before it reads its arguments: what every graph
    # command needs.
    common = [
        "inforest.cli",
        "inforest.errors",
        "inforest.forest",
        "inforest.graph",
        "inforest.io",
        "inforest.matrix",
    ]
    assert steps["version"] == (common, False)
    # A TSV forest run needs nothing more: no bottleneck, oracle, routes,
    # generators or json.
    assert steps["forest"] == (common, False)


@pytest.mark.parametrize("text", [TRIANGLE_FILE, "graph 3\n1 2 1\n2 3 1/2\n"])
def test_verify_solves_the_forest_matrices_once(tmp_path, capsys, monkeypatch, text):
    source = tmp_path / "g.graph"
    source.write_text(text)
    assert run(["verify", "--input", str(source)]) == 0
    expected = capsys.readouterr().out
    calls = []
    original = inforest.cli.forest_matrices

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(inforest.cli, "forest_matrices", counted)
    monkeypatch.setattr(inforest.bottleneck, "forest_matrices", counted)
    assert run(["verify", "--input", str(source)]) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) == 1


def test_non_utf8_file_is_format_error(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_bytes(b"digraph 2\n1 2 \xff\n")
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:format:")


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_non_utf8_stdin_is_format_error(monkeypatch, capsys, errors):
    # Under surrogateescape, the default for stdin in the C and POSIX
    # locales, a bad byte in a comment would otherwise pass unnoticed.
    raw = io.BytesIO(b"digraph 2\n# caf\xe9\n1 2 1\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8", errors=errors))
    assert run(["forest"]) == 1
    assert capsys.readouterr().err.startswith("error:format:")


@pytest.mark.parametrize(
    "flags",
    [["--tol", "0"], ["--tol", "nan", "--max-terms", "5"], ["--max-terms", "0"]],
    ids=["tol-0", "tol-nan", "max-terms-0"],
)
def test_routes_series_parameters_out_of_range_are_bad_parameters(path_file, capsys, flags):
    assert run(["routes", "--input", path_file, *flags]) == 1
    assert capsys.readouterr().err.startswith("error:bad-parameters:")


def test_decompose_float_epsilon_that_underflows_is_out_of_range(path_file, capsys):
    argv = ["decompose", "--input", path_file, "-i", "1", "-j", "2", "-k", "3"]
    assert run(argv + ["--mode", "float", "--epsilon", "1e-400"]) == 1
    assert capsys.readouterr().err.startswith("error:epsilon-out-of-range:")


def test_routes_epsilon_minus_one_is_out_of_range(path_file, capsys):
    assert run(["routes", "--input", path_file, "--epsilon", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error:epsilon-out-of-range:")


_TRIPLE = ["-i", "1", "-j", "2", "-k", "3"]
_R_DENOMINATOR = "278128389443693511257285776231761"
_R_ROWS = [
    [
        f"417192584165540266885928664347641/{_R_DENOMINATOR}",
        f"208596292082770133442964332173786/{_R_DENOMINATOR}",
        f"208596292082179837632605626522144/{_R_DENOMINATOR}",
    ],
    [
        "0",
        f"417192584165540266885928664347641/{_R_DENOMINATOR}",
        "139064194721649990358523319565310/92709463147897837085761925410587",
    ],
    ["0", "0", f"834385168330490237961498623043571/{_R_DENOMINATOR}"],
]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["forest", "--format", "tsv"], "# f=4\n2\t1\t1\n0\t2\t2\n0\t0\t4\n"),
        (
            ["forest", "--format", "json"],
            '{"f": "4", "F": [["2", "1", "1"], ["0", "2", "2"], ["0", "0", "4"]], '
            '"Q": [["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"], ["0", "0", "1"]]}\n',
        ),
        (["proximity", "--format", "tsv"], "1/2\t1/4\t1/4\n0\t1/2\t1/2\n0\t0\t1\n"),
        (
            ["proximity", "--format", "json"],
            '{"Q": [["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"], ["0", "0", "1"]]}\n',
        ),
        (
            ["routes", "--format", "tsv"],
            "# epsilon=1/2 terms_used=69 tail_bound=2.122386037395905e-12\n"
            + "".join("\t".join(row) + "\n" for row in _R_ROWS),
        ),
        (
            ["routes", "--format", "json"],
            '{"epsilon": "1/2", "terms_used": 69, "tail_bound": 2.122386037395905e-12, "R": '
            + json.dumps(_R_ROWS)
            + "}\n",
        ),
        (
            ["decompose", "--format", "tsv", *_TRIPLE],
            "r_ij=3/4 r_jj=3/2 r_jk=3/2 r_ik=3/4 r_ij_once=1/2 r_ijk=3/4 r_ik_avoid_j=0 "
            "relation=equal degenerate=false\n",
        ),
        (
            ["decompose", "--format", "json", *_TRIPLE],
            '{"r_ij": "3/4", "r_jj": "3/2", "r_jk": "3/2", "r_ik": "3/4", "r_ij_once": "1/2", '
            '"r_ijk": "3/4", "r_ik_avoid_j": "0", "relation": "equal", "degenerate": false}\n',
        ),
        (["bottleneck", "--format", "tsv", *_TRIPLE], "equal separator=true lhs=2 rhs=2\n"),
        (
            ["bottleneck", "--format", "json", *_TRIPLE],
            '{"relation": "equal", "separator": true, "lhs": "2", "rhs": "2", "degenerate": false}\n',
        ),
        (
            ["verify", "--format", "tsv"],
            "triples=27 equal=19 strict=8 inconsistent=0 oracle=match\n",
        ),
        (
            ["verify", "--format", "json"],
            '{"triples": 27, "equal": 19, "strict": 8, "inconsistent": 0, "oracle": "match"}\n',
        ),
        (
            ["verify", "--format", "tsv", "--mode", "float"],
            "triples=27 equal=19 strict=8 inconsistent=0 oracle=skipped\n",
        ),
    ],
)
def test_golden_stdout_on_the_path(path_file, capsys, argv, expected):
    mode = [] if "--mode" in argv else ["--mode", "exact"]
    assert run([*argv, "--input", path_file, *mode]) == 0
    assert capsys.readouterr().out == expected


@pytest.fixture
def nines_file(tmp_path):
    # Each weight parses, but f, the F products and row 2 of Q hold
    # integers of over 4300 digits; row 1 of Q (vertex 1 has no arcs) does not.
    nines = "9" * 3000
    target = tmp_path / "nines.graph"
    target.write_text(f"digraph 4\n2 3 {nines}\n3 4 {nines}\n")
    return str(target)


@pytest.mark.parametrize(
    "argv",
    [
        ["forest", "--format", "tsv"],
        ["forest", "--format", "json"],
        ["proximity", "--format", "tsv"],
        ["bottleneck", "-i", "2", "-j", "3", "-k", "4"],
    ],
)
def test_value_too_long_to_print_is_instance_too_large(nines_file, capsys, argv):
    assert run([*argv, "--input", nines_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:instance-too-large:")


def test_weight_exponent_beyond_the_digit_limit_is_format_error(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 2 1e1000000\n")
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:format:")


def test_epsilon_exponent_beyond_the_digit_limit_is_bad_parameters(path_file, capsys):
    assert run(["routes", "--input", path_file, "--epsilon", "1e1000000"]) == 1
    assert capsys.readouterr().err.startswith("error:bad-parameters:")


@pytest.mark.parametrize(
    "argv",
    [
        ["routes", "--epsilon", "1e4300"],
        ["decompose", "-i", "1", "-j", "2", "-k", "1", "--epsilon", "1e4300"],
        ["routes", "--epsilon=-1e4300"],
        ["routes", "--mode", "float", "--epsilon", "1e-4300"],
    ],
)
def test_epsilon_too_long_to_print_is_out_of_range(tmp_path, capsys, argv):
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 2 1\n")
    assert run([*argv, "--input", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:epsilon-out-of-range:")


def test_weight_too_long_to_print_is_nonpositive_weight(tmp_path, capsys):
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 2 -1e4300\n")
    assert run(["forest", "--input", str(source)]) == 1
    assert capsys.readouterr().err.startswith("error:nonpositive-weight:")


def test_float_verify_is_consistent_on_small_weights(tmp_path, capsys):
    # The products here lie far below 1, where a tolerance with an absolute
    # floor called strict triples equal.
    source = tmp_path / "small.graph"
    source.write_text(format_graph(random_graph(8, 1).scaled(Fraction(1, 10000))))
    assert run(["verify", "--mode", "float", "--input", str(source)]) == 0
    assert "inconsistent=0" in capsys.readouterr().out.split()


def test_exact_routes_tail_bound_past_the_double_range_is_inf(tmp_path, capsys):
    # No term reaches an infinite tolerance, so the bound is the whole
    # series, 1 + 1/eps = 1 + 10^400, which no double holds.
    source = tmp_path / "g.graph"
    source.write_text("graph 2\n1 2 1\n1 2 1\n")
    argv = ["routes", "--format", "tsv", "--epsilon=1e-400", "--tol=inf", "--input", str(source)]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0].split()[2:] == ["terms_used=0", "tail_bound=inf"]


_13_VERTICES = "digraph 13\n1 2 1e400\n" + "".join(f"{v} {v + 1} 1\n" for v in range(2, 13))


@pytest.mark.parametrize(
    "text, argv",
    [
        ("digraph 3\n1 2 1e400\n2 3 1\n", ["forest", "--mode", "float"]),
        ("digraph 3\n1 2 1e400\n2 3 1\n", ["proximity", "--mode", "float"]),
        ("digraph 3\n1 2 1e400\n2 3 1\n", ["verify", "--mode", "float"]),
        ("digraph 3\n1 2 1e400\n2 3 1\n", ["bottleneck", "--mode", "float", *_TRIPLE]),
        (_13_VERTICES, ["forest"]),
        ("digraph 3\n1 2 1e-400\n2 3 1\n", ["verify", "--mode", "float"]),
        ("digraph 3\n1 2 1e308\n1 2 1e308\n2 3 1\n", ["forest", "--mode", "float"]),
    ],
    ids=[
        "forest-1e400",
        "proximity-1e400",
        "verify-1e400",
        "bottleneck-1e400",
        "default-forest-13-vertices-1e400",
        "verify-1e-400",
        "forest-two-parallel-1e308",
    ],
)
def test_float_weight_a_double_cannot_hold_is_nonpositive_weight(tmp_path, capsys, text, argv):
    source = tmp_path / "g.graph"
    source.write_text(text)
    assert run([*argv, "--input", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error:nonpositive-weight: [^\n]*\n", captured.err)


@pytest.mark.parametrize("command", ["forest", "verify"])
def test_float_weights_too_far_apart_are_instance_too_large(tmp_path, capsys, command):
    # Weights near 1e13 once exceeded float mode's precision, and float
    # mode gave up with instance-too-large; they now solve as in exact mode.
    source = tmp_path / "g.graph"
    source.write_text("digraph 2\n1 2 1e13\n2 1 1e13\n")
    records = {}
    for mode in ("exact", "float"):
        code = run([command, "--mode", mode, "--format", "json", "--input", str(source)])
        captured = capsys.readouterr()
        assert captured.err == ""
        records[mode] = json.loads(captured.out)
        # Float verdicts on products 2e-13 apart are still a tolerance
        # question, and a contradicted one exits 3; the solve itself is whole.
        assert code == (3 if records[mode].get("inconsistent") else 0)
    exact, approx = records["exact"], records["float"]
    if command == "verify":
        assert exact["inconsistent"] == 0 and approx["triples"] == exact["triples"]
        return
    pairs = [(approx["f"], exact["f"])]
    pairs += zip(sum(approx["F"], []), sum(exact["F"], []))
    for got, want in pairs:
        assert abs(Fraction(got) - Fraction(want)) <= Fraction(want) / 10**13


def test_json_boolean_endpoint_is_format_error(tmp_path, capsys):
    source = tmp_path / "g.json"
    source.write_text('{"n": 3, "arcs": [[true, 2, "1"], [2, 3, "1"]]}')
    assert run(["forest", "--input", str(source)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:format:")


FLAG_VALUES = ["nan", "inf", "0", "-1", "1e-400", "1e400", "1e4300", "7" * 4400]
FILE_WEIGHTS = ["1", "2/3", "0.25", "5/4", "1e400", "1e-400"]
REJECTED_WEIGHTS = ["0", "-1", "nan", "inf", "1e4301", "7" * 4400]
GRAPH_COMMANDS = ["forest", "proximity", "enumerate", "routes", "decompose", "bottleneck", "verify"]


@st.composite
def cli_cases(draw):
    """A graph file of at most 8 vertices, as text or JSON, and an argv
    (without ``--input``) for any command.

    Flags take the values of ``FLAG_VALUES``. File weights are small
    rationals and valid weights beyond the range of doubles, which float
    mode refuses, and now and then a token that every mode rejects. No
    weight near the top of the double range is drawn: one arc of ``1e308``
    overflows ``f``, and float ``verify`` and ``bottleneck`` then exit 3
    (ROADMAP item 1).
    """

    def flag(name, values):
        return [f"{name}={draw(st.sampled_from(values))}"] * draw(st.booleans())

    n = draw(st.integers(2, 8))
    arcs = []
    for _ in range(draw(st.integers(0, 12))):
        tail, head = draw(st.integers(1, n)), draw(st.integers(1, n - 1))
        if head >= tail:
            head += 1
        weights = REJECTED_WEIGHTS if draw(st.integers(0, 19)) == 0 else FILE_WEIGHTS
        arcs.append((tail, head, draw(st.sampled_from(weights))))
    directed = draw(st.booleans())
    if draw(st.booleans()):
        text = json.dumps({"n": n, "directed": directed, "arcs": [list(arc) for arc in arcs]})
    else:
        header = "digraph" if directed else "graph"
        text = "\n".join([f"{header} {n}"] + [f"{t} {h} {w}" for t, h, w in arcs])
    command = draw(st.sampled_from(GRAPH_COMMANDS + ["gen"]))
    if command == "gen":
        kind = draw(st.sampled_from(["path", "cycle", "complete", "random"]))
        argv = ["gen", kind, str(draw(st.sampled_from([-1, 0, 1, 2, 5, 8, 4097, 10**9, 10**18])))]
        argv += flag("--weights", FLAG_VALUES + ["2/3"]) + flag("--seed", ["0", "-1", "3"])
        ranges = ["1:5", "5:1", "0:2", "x", "1e400:2", "1:" + "7" * 4400]
        return text, argv + flag("--weight-range", ranges)
    argv = [command, "--format", draw(st.sampled_from(["tsv", "json"]))]
    if command != "enumerate":
        argv += flag("--mode", ["exact", "float"])
    if command in ("routes", "decompose"):
        argv += flag("--epsilon", FLAG_VALUES)
    if command == "routes":
        argv += flag("--tol", FLAG_VALUES) + flag("--max-terms", ["0", "-1", "1", "3"])
    if command in ("decompose", "bottleneck"):
        for name in ("-i", "-j", "-k"):
            argv += [name, str(draw(st.integers(-1, n + 1)))]
    return text, argv


@given(cli_cases())
@example(
    (
        "graph 2\n1 2 1\n1 2 1\n1 2 1\n1 2 1",
        ["routes", "--format", "tsv", "--epsilon=1e-400", "--tol=inf"],
    )
)
@example(("digraph 2\n1 2 1", ["routes", "--format", "json", "--epsilon=1e-400", "--tol=2"]))
@settings(max_examples=300, deadline=None)
def test_cli_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, case):
    text, argv = case
    source = tmp_path_factory.getbasetemp() / "fuzz.graph"
    source.write_text(text)
    if argv[0] != "gen":
        argv = [*argv, "--input", str(source)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        if argv[1:3] == ["--format", "json"]:
            _strict_json(out.getvalue())
    else:
        assert re.fullmatch(r"error:[a-z-]+: [^\n]*\n", err.getvalue())
        assert out.getvalue() == ""
