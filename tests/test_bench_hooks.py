"""The benchmark's tracing hooks name attributes that exist in the package.

perfbench/traced.py rebinds package functions by attribute (module.attr).
A renamed or deleted function would break a traced run.  The script is read
with ast, not run.  It also rebinds scipy's Cholesky calls by identity; the
package imports no scipy, so those spans read 0 on every workload.
"""

import ast
import importlib
from pathlib import Path

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


def test_package_imports_no_scipy():
    # the program computes with numpy and the standard library alone
    package = Path(cdmafusion.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []
