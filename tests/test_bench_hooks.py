"""The benchmark's tracing hooks name attributes that exist in the package.

perfbench/traced.py rebinds package functions by attribute (module.attr)
and the scipy Cholesky calls by identity.  A renamed or deleted function
would break a traced run, or leave a scipy span that never fires.  The
script is read with ast, not run.
"""

import ast
import importlib
from pathlib import Path

import scipy.linalg

import cdmafusion

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
TREE = ast.parse(TRACED.read_text(), filename=str(TRACED))


def package_modules() -> dict:
    """The names traced.py gives to cdmafusion and its submodules."""
    names = {}
    for node in ast.walk(TREE):
        if isinstance(node, ast.ImportFrom) and node.module == "cdmafusion":
            for alias in node.names:
                names[alias.asname or alias.name] = importlib.import_module(f"cdmafusion.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "cdmafusion":
                    names[alias.asname or alias.name] = cdmafusion
    return names


def attribute_refs(owner) -> set:
    """(name, attr) of every `name.attr` in traced.py whose name passes owner."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(TREE)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and owner(node.value.id)
    }


def test_every_traced_package_attribute_exists():
    modules = package_modules()
    refs = attribute_refs(lambda name: name in modules)
    assert ("core", "validate") in refs and ("cli", "main") in refs
    missing = sorted(f"{mod}.{attr}" for mod, attr in refs if not hasattr(modules[mod], attr))
    assert missing == []


def test_every_traced_scipy_call_is_bound_in_the_package():
    # scipy.linalg.X is rebound by identity, so some package module must hold X
    calls = {
        node.attr
        for node in ast.walk(TREE)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and (node.value.value.id, node.value.attr) == ("scipy", "linalg")
    }
    assert calls
    holders = list(package_modules().values())
    unbound = sorted(
        name for name in calls
        if not any(vars(mod).get(name) is getattr(scipy.linalg, name) for mod in holders)
    )
    assert unbound == []
