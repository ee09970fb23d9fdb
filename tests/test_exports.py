"""Every name a module of the package lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import anisomp

MODULES = sorted(f"anisomp.{m.name}" for m in pkgutil.iter_modules(anisomp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
