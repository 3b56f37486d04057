"""The public names: every entry of a module's ``__all__`` resolves, every
error type is raised somewhere, and the test oracles share no library code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import quadwalk
from quadwalk import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(quadwalk.__path__))


def test_modules_found():
    assert {"dp", "ladders", "steps"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"quadwalk.{name}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mod, n)] == []


def test_every_error_type_is_raised():
    # a class in errors.py that no code raises is dead weight
    src = "".join(p.read_text() for p in Path(quadwalk.__file__).parent.glob("*.py"))
    raised = set(re.findall(r"raise\s+(?:\w+\.)*(\w+)", src))
    types = {n for n, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.QuadwalkError)}
    assert types - raised - {"QuadwalkError"} == set()


def test_oracles_import_nothing_from_the_library():
    # the oracles check the library, so they must not run its code
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n.split(".")[0] == "quadwalk"]
