"""The package's ``__all__`` and its imports name the same public API."""

import ast
from pathlib import Path

import inforest


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(inforest.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(inforest.__all__) == sorted(imported)
    for name in inforest.__all__:
        assert getattr(inforest, name) is not None
