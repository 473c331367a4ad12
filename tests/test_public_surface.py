"""Every public name has a caller: the package itself or the benchmark's hooks.

A name in cdmafusion.__all__ must be referenced by some package module other
than __init__.py (a call, an import, a base class, an annotation), or be an
attribute that perfbench/traced.py rebinds.  A name that only tests use has
no place on the public surface.  The sources are read with ast, not run.
"""

import ast
from pathlib import Path

import cdmafusion
from test_bench_hooks import attribute_refs, package_modules

PACKAGE = Path(cdmafusion.__file__).resolve().parent


def package_references() -> set:
    """Every name and attribute referenced in the package's modules, __init__.py aside."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    modules = package_modules()
    traced = {attr for _, attr in attribute_refs(lambda name: name in modules)}
    used = package_references() | traced
    assert sorted(set(cdmafusion.__all__) - used) == []


def test_only_exact_reads_its_private_names():
    # exact is the one home of the bordered factor: no other module imports
    # its private helpers, or reads them off the module, to lay out, build
    # or factor a covariance
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("exact", "cdmafusion.exact"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "exact":
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    assert found == []
