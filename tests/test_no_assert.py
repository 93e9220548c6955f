"""Lint: no correctness check in the package may rely on ``assert``.

``python -O`` strips assert statements, so every invariant in
``src/netsynth`` raises explicitly instead.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "netsynth"


def test_no_assert_statements_in_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
