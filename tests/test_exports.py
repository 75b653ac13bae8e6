import importlib
import pkgutil

import pytest

import mixedkde

MODULES = ["mixedkde"] + [f"mixedkde.{m.name}" for m in pkgutil.iter_modules(mixedkde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
