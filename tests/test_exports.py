"""The package's ``__all__`` and its table of lazily loaded names name the
same public API, and each name resolves to what its module defines."""

import importlib

import pytest

import inforest


def test_all_lists_exactly_the_imported_public_names():
    exported = [name for names in inforest._EXPORTS.values() for name in names]
    # No name is listed under two modules.
    assert len(exported) == len(set(exported))
    assert sorted(inforest.__all__) == sorted(exported)
    assert set(inforest.__all__) <= set(dir(inforest))
    namespace = {}
    exec("from inforest import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(exported)


def test_each_name_is_the_object_its_module_defines():
    for module_name, names in inforest._EXPORTS.items():
        module = importlib.import_module(f"inforest.{module_name}")
        for name in names:
            value = getattr(inforest, name)
            assert value is getattr(module, name), name
            # Functions and classes come from the module that defines them,
            # not from one that imports them.
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        inforest.no_such_name
