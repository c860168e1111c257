"""The output digest tool hashes the same outputs to the same lines, and
the library's outputs on the tool's corpus hash to the committed lines."""

import importlib.util
import re
from pathlib import Path

from inforest import MultiDigraph, path_graph, random_graph

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
# The lines ``python tools/output_digest.py`` prints. A change that alters
# an output on purpose regenerates this file and says why.
EXPECTED = Path(__file__).resolve().parent / "output_digest.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_are_stable_and_well_formed():
    module = _tool()
    graphs = [path_graph(3), random_graph(4, 1)]
    lines = module.digest(graphs)
    assert lines == module.digest(graphs)
    # The oracle is exact for every graph, so it prints no float line, and
    # with no undirected input or CLI run the last two sections print none.
    # verify_large, the last section, has records only for larger graphs.
    names = [f"{name}.{mode}" for name in module.SECTIONS[:-1] for mode in module.MODES]
    assert [line.split()[0] for line in lines] == names[:-5]
    assert all(re.fullmatch(r"[a-z]+\.(exact|float) [0-9a-f]{64}", line) for line in lines)
    mixed = module.digest(graphs + [MultiDigraph(3, [(0, 1, 0.5), (1, 2, 0.25)])])
    assert [line.split()[0] for line in mixed] == names[:-5]
    both = module.digest(graphs, [(3, [(0, 1, 1), (1, 2, 2)])])
    assert [line.split()[0] for line in both] == names[:-5] + names[-4:-2]
    # The fixed matrices of the solve section are hashed whatever the input.
    runs = [("exact", ["gen", "path", "3"], ""), ("float", ["forest", "--mode", "float"], "x")]
    cli = module.digest([], (), runs)
    assert [line.split()[0] for line in cli] == names[2:4] + names[-2:]
    assert cli == module.digest([], (), runs)
    large = module.digest([], large=[(mode, random_graph(4, 1)) for mode in module.MODES])
    assert [line.split()[0] for line in large] == names[2:4] + [
        "verify_large.exact", "verify_large.float"
    ]


def test_corpus_outputs_match_the_committed_digest():
    module = _tool()
    graphs, undirected = module.corpus(), module.undirected_corpus()
    runs = module.cli_corpus(graphs, undirected)
    lines = module.digest(graphs, undirected, runs, module.large_corpus())
    assert lines == EXPECTED.read_text().splitlines()
