"""Every record of the library prints through one ``repr``, which never raises."""

import collections
import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import inforest
from inforest import (
    EXACT,
    FLOAT,
    ForestMatrices,
    Matrix,
    SeriesSum,
    check_triple,
    enumerate_in_forests,
    forest_matrices,
    geometric_series,
    oracle_matrices,
    parse_graph,
    route_decomposition,
    route_matrix,
    step_matrix,
    summarize,
    verify_all_triples,
)
from inforest.matrix import record_repr
from inforest.routes import _walk


def _record_classes() -> set[type]:
    """Every named tuple and dataclass that a module of the package defines."""
    found = set()
    for module in pkgutil.iter_modules(inforest.__path__):
        if module.name == "__main__":
            continue
        namespace = importlib.import_module(f"inforest.{module.name}")
        for cls in vars(namespace).values():
            if inspect.isclass(cls) and cls.__module__ == namespace.__name__:
                if dataclasses.is_dataclass(cls) or issubclass(cls, tuple):
                    found.add(cls)
    return found


def _default_repr(record) -> str:
    """``repr(record)`` as Python builds it for a plain named tuple or
    dataclass of the same name and fields."""
    if isinstance(record, tuple):
        plain = collections.namedtuple(type(record).__name__, record._fields)
        return repr(plain(*record))
    names = [field.name for field in dataclasses.fields(record)]
    plain = dataclasses.make_dataclass(type(record).__qualname__, names)
    return repr(plain(*(getattr(record, name) for name in names)))


def test_repr_of_every_record_returns_on_a_value_too_long_to_print():
    # The parser reads 1e4300 exactly, a numerator of 4,301 digits, past
    # the digits that Fraction's repr converts to text; each record holds
    # a value that large, or its reciprocal, and prints it as its sign and
    # order of magnitude. The exact series of this graph takes too long,
    # so the series record is built directly.
    graph = parse_graph("digraph 2\n1 2 1e4300").graph
    forests = forest_matrices(graph)
    records = [
        graph.arcs[0],
        forests,
        check_triple(forests, graph, 0, 1, 1),
        oracle_matrices(graph),
        max(enumerate_in_forests(graph), key=lambda forest: forest.weight),
        _walk(graph, None, EXACT),
        route_matrix(graph, mode=EXACT, tolerance=2),
        route_decomposition(graph, 0, 1, 0),
        SeriesSum(Matrix.zeros(2), 1, Fraction(1, 10**4400)),
    ]
    for record in records:
        with pytest.raises(ValueError):
            _default_repr(record)
        text = repr(record)
        assert text.startswith(f"{type(record).__name__}(") and "~10^" in text, text


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_repr_of_every_record_is_the_default_on_printable_values(mode):
    parsed = parse_graph("digraph 3\n1 2 1/3\n2 3 0.1\n3 1 2\n1 3 7\n")
    graph = parsed.graph
    forests = forest_matrices(graph, mode)
    walk = _walk(graph, None, mode)
    records = [
        parsed,
        *graph.arcs,
        forests,
        check_triple(forests, graph, 0, 1, 2),
        summarize(verify_all_triples(graph, forests)),
        oracle_matrices(graph),
        *enumerate_in_forests(graph),
        walk,
        route_matrix(graph, mode=mode, tolerance=1e-3),
        route_decomposition(graph, 0, 1, 2, mode=mode),
        geometric_series(step_matrix(graph, walk.eps, mode), 1e-3),
    ]
    # One record of each kind the package defines, and each prints
    # through record_repr.
    classes = _record_classes()
    assert {type(record) for record in records} == classes
    assert all(cls.__repr__ is record_repr for cls in classes)
    for record in records:
        assert repr(record) == _default_repr(record)


def test_forest_matrices_is_the_one_dataclass_and_every_other_record_a_tuple():
    # The other records are named tuples, so that only the commands that
    # solve for the forest matrices load dataclasses.
    classes = _record_classes()
    assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == {ForestMatrices}
    assert all(issubclass(cls, tuple) for cls in classes - {ForestMatrices})
