"""The output digest tool hashes the same outputs to the same lines."""

import importlib.util
import re
from pathlib import Path

from inforest import MultiDigraph, path_graph, random_graph

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_digest_lines_are_stable_and_well_formed():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    graphs = [path_graph(3), random_graph(4, 1)]
    lines = module.digest(graphs)
    assert lines == module.digest(graphs)
    # The oracle runs in the mode of the weights: exact for these graphs.
    names = [f"{name}.{mode}" for name in module.SECTIONS for mode in module.MODES]
    assert [line.split()[0] for line in lines] == names[:-1]
    assert all(re.fullmatch(r"[a-z]+\.(exact|float) [0-9a-f]{64}", line) for line in lines)
    mixed = module.digest(graphs + [MultiDigraph(3, [(0, 1, 0.5), (1, 2, 0.25)])])
    assert [line.split()[0] for line in mixed] == names
