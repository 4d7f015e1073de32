"""Every docstring example in the package runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import e8g2

MODULES = ["e8g2"] + sorted(f"e8g2.{m.name}" for m in pkgutil.iter_modules(e8g2.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
