"""Every mutant of the mutation table still names source text that exists."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def test_each_mutant_edits_text_that_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert len({mutant.name for mutant in module.MUTANTS}) == len(module.MUTANTS)
    for mutant in module.MUTANTS:
        source = (ROOT / "src" / "inforest" / mutant.path).read_text()
        assert source.count(mutant.old) == 1, mutant.name
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests), mutant.name
