"""The public names: every entry of a module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import quadwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadwalk.__path__))


def test_modules_found():
    assert {"dp", "ladders", "steps"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"quadwalk.{name}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mod, n)] == []
