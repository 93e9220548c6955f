"""Lint: ``synthesis._region`` is the one place that picks a solver.

A system with 0/1 columns is solved in integers, any other over the
rationals and lifted; ``_region`` reads ``system.zero_one`` to choose.
Elsewhere in ``src/netsynth/synthesis.py`` the solver names appear only in
the import.  The import stays, so that a tracer can wrap each solver as an
attribute of ``netsynth.synthesis``.
"""

import ast
import pathlib

SYNTHESIS = pathlib.Path(__file__).parents[1] / "src" / "netsynth" / \
    "synthesis.py"
SOLVERS = {"solve_integer", "solve_rational", "lift_homogeneous_to_integer"}


def solver_uses(source: str) -> tuple[set[str], list[int]]:
    """The solvers named inside ``_region``, and the lines that name one
    anywhere else, as a name or an attribute; imports do not count."""
    tree = ast.parse(source)
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_region"
              for sub in ast.walk(node)}
    named, outside = set(), []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in SOLVERS:
            if id(node) in inside:
                named.add(name)
            else:
                outside.append(node.lineno)
    return named, outside


def test_solvers_named_only_in_region():
    source = SYNTHESIS.read_text()
    assert solver_uses(source) == (SOLVERS, [])
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)
                and node.module == "netsynth.linsys"
                for alias in node.names}
    assert SOLVERS <= imported


def test_check_sees_uses_outside_region():
    source = ("from netsynth.linsys import solve_integer\n"
              "solve = solve_integer\n"
              "def _region(ctx, system):\n"
              "    return solve_integer(system)\n"
              "class Stage:\n"
              "    def run(self, system):\n"
              "        return linsys.solve_rational(system)\n")
    assert solver_uses(source) == ({"solve_integer"}, [2, 7])
