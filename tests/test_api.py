"""Public API: every name a module exports resolves to an attribute."""

import importlib
import pkgutil

import pytest

import levyq

MODULES = ["levyq"] + [f"levyq.{m.name}" for m in pkgutil.iter_modules(levyq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
