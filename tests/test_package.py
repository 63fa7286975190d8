"""The package's public names load their submodule lazily; each must still resolve."""

import importlib

import pytest

import halflearn


def test_every_export_resolves():
    for name in halflearn.__all__:
        value = getattr(halflearn, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    namespace: dict = {}
    exec("from halflearn import *", namespace)
    assert set(halflearn.__all__) <= set(namespace)
    assert set(halflearn.__all__) <= set(dir(halflearn))


@pytest.mark.parametrize("name", ["no_such_name", "tangential_component", "enumerate_multi_indices"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(halflearn, name)
