"""Every name that memdiff or one of its modules exports must resolve, so a
deletion cannot leave a stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import memdiff

_MODULES = ["memdiff"] + [f"memdiff.{info.name}" for info in
                          pkgutil.iter_modules(memdiff.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
