"""Keep the docstring examples honest."""

import doctest
import importlib
import pkgutil

import weylkit


def test_module_doctests():
    names = [info.name for info in pkgutil.iter_modules(weylkit.__path__)]
    assert {"expressions", "pbw", "shriek", "verify"} <= set(names)  # the walk finds the modules
    for name in names:
        mod = importlib.import_module(f"weylkit.{name}")
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
