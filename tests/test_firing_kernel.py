"""Lint: `reachability_graph` and `realises` fire through one kernel.

``petri._kernel`` packs markings into ints and tests enabledness by guard
bits.  Each walk calls it once and reads no arcs, preset or effect of its
own, and every shift and every guard test in ``src/netsynth/petri.py``
lies inside ``_kernel``.
"""

import ast
import pathlib

PETRI = pathlib.Path(__file__).parents[1] / "src" / "netsynth" / "petri.py"
WALKS = ("reachability_graph", "realises")
NET_TABLES = {"firing_table", "preset_of_transition", "consume", "produce",
              "w_in", "preset", "effect"}


def names(node: ast.AST) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def is_guard_test(node: ast.AST) -> bool:
    """``(x - need) & guard == guard``."""
    return isinstance(node, ast.Compare) and \
        isinstance(node.left, ast.BinOp) and \
        isinstance(node.left.op, ast.BitAnd) and \
        isinstance(node.left.left, ast.BinOp) and \
        isinstance(node.left.left.op, ast.Sub)


def packed_outside_kernel(source: str) -> tuple[list[int], list[int]]:
    """The lines that shift or test guards outside ``_kernel``, and the
    lines of ``_kernel`` that do."""
    tree = ast.parse(source)
    kernel = {id(sub) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_kernel"
              for sub in ast.walk(node)}
    outside, inside = [], []
    for node in ast.walk(tree):
        if is_guard_test(node) or isinstance(node, ast.BinOp) and \
                isinstance(node.op, ast.LShift):
            (inside if id(node) in kernel else outside).append(node.lineno)
    return outside, inside


def walk_uses(source: str) -> dict[str, tuple[set[str], int]]:
    """Per walk, the net tables it names and its calls of ``_kernel``."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    return {name: (names(functions[name]) & NET_TABLES,
                   sum(isinstance(sub, ast.Call) and
                       isinstance(sub.func, ast.Name) and
                       sub.func.id == "_kernel"
                       for sub in ast.walk(functions[name])))
            for name in WALKS}


def test_walks_fire_through_the_kernel():
    source = PETRI.read_text()
    assert walk_uses(source) == {name: (set(), 1) for name in WALKS}
    outside, inside = packed_outside_kernel(source)
    assert outside == [] and inside


def test_check_sees_packing_outside_the_kernel():
    source = ("def _kernel(net):\n"
              "    return 1 << 3\n"
              "def reachability_graph(net, cap):\n"
              "    for p, w in net.firing_table[0][0]:\n"
              "        pass\n"
              "    return (m - need) & guard == guard\n"
              "def realises(net, lts):\n"
              "    return _kernel(net), 1 << 2\n")
    assert packed_outside_kernel(source) == ([6, 8], [2])
    assert walk_uses(source) == {"reachability_graph": ({"firing_table"}, 0),
                                 "realises": (set(), 1)}
