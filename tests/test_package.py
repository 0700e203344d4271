import importlib
import pkgutil

import pytest

import rstokes

MODULES = ["rstokes"] + [f"rstokes.{m.name}" for m in pkgutil.iter_modules(rstokes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from rstokes import *", namespace)
    assert set(rstokes.__all__) <= set(namespace)
