"""Every name a module exports in __all__ resolves, so a deletion cannot
leave a dangling export."""

import importlib
import pkgutil

import pytest

import mildspde

MODULES = ["mildspde"] + [f"mildspde.{info.name}"
                          for info in pkgutil.iter_modules(mildspde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
    assert len(set(exported)) == len(exported)
