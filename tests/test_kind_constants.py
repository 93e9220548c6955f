"""Lint: edge kinds and origins are named, never spelled out.

``src/netsynth/relations.py`` defines each relation-graph edge kind and
edge origin once, as a constant (``DISJOINT = "disjoint"``).  Every other
use names the constant, so an interpretation of a doi edge is written in
one vocabulary.  No string constant in the package other than a docstring
may equal a kind or an origin, except those definitions.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "netsynth"
KINDS = ("disjoint", "included", "doi", "equivalent", "original",
         "strengthened")


def docstring_nodes(tree: ast.AST) -> set[int]:
    """The ids of the docstring constants of every module, class and
    function in ``tree``."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                ids.add(id(first.value))
    return ids


def kind_literals(source: str, module: str) -> list[tuple[int, str]]:
    """``(line, value)`` of every string constant in ``source`` equal to a
    kind or origin, other than a docstring and, in ``relations``, than the
    definition ``NAME = "name"``."""
    tree = ast.parse(source)
    allowed = docstring_nodes(tree)
    if module == "relations":
        allowed |= {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and [getattr(t, "id", None) for t in node.targets]
                    == [str(node.value.value).upper()]}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in KINDS
                  and id(node) not in allowed)


def test_package_spells_out_no_kind():
    found = {path.stem: kind_literals(path.read_text(), path.stem)
             for path in sorted(SRC.glob("*.py"))}
    assert {m: sites for m, sites in found.items() if sites} == {}


def test_kind_check_sees_literals():
    source = ('"""doi docstring"""\n'
              'DOI = "doi"\n'
              '_TO_DOI = "doi"\n'
              'x = ("included", f"disjoint:{y}", "disjointness")\n'
              'def f():\n'
              '    """original"""\n'
              '    return {"strengthened": 1}\n')
    assert kind_literals(source, "relations") == \
        [(3, "doi"), (4, "included"), (7, "strengthened")]
    assert kind_literals(source, "cli") == \
        [(2, "doi"), (3, "doi"), (4, "included"), (7, "strengthened")]
    assert len(kind_literals("x = ['doi'] * 2 + ['doi']\n", "cli")) == 2
