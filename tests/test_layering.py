"""Lint: the exact LP core is the bottom layer of the package.

``src/netsynth/linsys.py`` knows rows, columns and blocks only; it imports
no other ``netsynth`` module, so the region layout stays with the callers.
"""

import ast
import pathlib

LINSYS = pathlib.Path(__file__).parents[1] / "src" / "netsynth" / "linsys.py"


def imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from inside the package
            names.append("." * node.level + (node.module or ""))
    return names


def test_linsys_imports_no_netsynth_module():
    names = imported_modules(ast.parse(LINSYS.read_text()))
    assert "fractions" in names
    assert [n for n in names
            if n.startswith(".") or n.split(".")[0] == "netsynth"] == []


def test_import_check_sees_package_imports():
    tree = ast.parse("import netsynth.lts\nfrom . import petri\n"
                     "from netsynth import separation\n")
    assert imported_modules(tree) == ["netsynth.lts", ".", "netsynth"]
