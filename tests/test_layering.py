"""Lint: the lower layers of the package import little of it.

``src/netsynth/linsys.py`` knows integer rows, columns and blocks only; it
imports no other ``netsynth`` module, so the region layout stays with the
callers, and no ``fractions``.
``src/netsynth/petri.py`` knows nets and transition systems; of the
package it imports ``netsynth.lts`` alone, so nets are assembled from
places, not from regions.  ``src/netsynth/relations.py`` also imports
``netsynth.lts`` alone, so the relation calculus knows no solver, row or
region.  And the package as a whole imports only the
standard library and itself, function-local imports included, so
``import netsynth`` needs no third-party package.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).parents[1] / "src" / "netsynth"


def imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from inside the package
            names.append("." * node.level + (node.module or ""))
    return names


def package_imports(module: str) -> list[str]:
    """The package modules that ``src/netsynth/<module>.py`` imports."""
    names = imported_modules(ast.parse((SRC / f"{module}.py").read_text()))
    return [n for n in names
            if n.startswith(".") or n.split(".")[0] == "netsynth"]


def test_linsys_imports_no_netsynth_module():
    tree = ast.parse((SRC / "linsys.py").read_text())
    names = imported_modules(tree)
    # rows are integral: no Fraction, and no lcm to scale one
    assert "math" in names and "fractions" not in names
    assert "lcm" not in {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)
                         for alias in node.names}
    assert package_imports("linsys") == []


def test_petri_imports_only_lts():
    assert package_imports("petri") == ["netsynth.lts"]


def test_relations_imports_only_lts():
    assert package_imports("relations") == ["netsynth.lts"]


def foreign_imports(tree: ast.AST) -> list[str]:
    """The imports in ``tree`` of neither the standard library nor the
    package."""
    return [n for n in imported_modules(tree)
            if not n.startswith(".")
            and n.split(".")[0] not in sys.stdlib_module_names | {"netsynth"}]


def test_package_imports_only_the_standard_library():
    found = {path.name: foreign_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert "oracle.py" in found
    assert {name: names for name, names in found.items() if names} == {}


def test_foreign_import_check_sees_local_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "def f():\n    import numpy as np\n"
                     "    from scipy import optimize\n")
    assert foreign_imports(tree) == ["numpy", "scipy"]


def test_import_check_sees_package_imports():
    tree = ast.parse("import netsynth.lts\nfrom . import petri\n"
                     "from netsynth import separation\n")
    assert imported_modules(tree) == ["netsynth.lts", ".", "netsynth"]
