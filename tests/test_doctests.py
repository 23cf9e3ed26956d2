"""The examples in the package's docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import pytest

import ncrewrite

MODULES = ["ncrewrite"] + [f"ncrewrite.{m.name}"
                           for m in pkgutil.iter_modules(ncrewrite.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
