"""Lint: the package keeps no cache that outlives a run.

A table that saves work, such as the relation rows a `SystemContext`
builds once per resolved graph, lives on an object that one run builds
and drops.  ``functools.cache``, ``functools.lru_cache`` and a ``global``
statement would keep values across runs, and across the inputs of one
process, so no module under ``src/netsynth`` uses them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "netsynth"

CACHES = {"cache", "lru_cache"}


def process_wide_caches(tree: ast.AST) -> list[str]:
    """Each use of a functools cache decorator, and each ``global``
    statement, in ``tree``, as text."""
    modules = {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == "functools" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"from functools import {alias.name}"
                      for alias in node.names if alias.name in CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in CACHES \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Global):
            found.append("global " + ", ".join(node.names))
    return found


def test_src_has_no_process_wide_cache():
    found = {path.name: process_wide_caches(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert "separation.py" in found
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_check_sees_every_form():
    tree = ast.parse(
        "import functools\nimport functools as ft\n"
        "from functools import lru_cache, partial, cache as memo\n"
        "@functools.cache\ndef f(): pass\n"
        "@ft.lru_cache(maxsize=None)\ndef g(): pass\n"
        "def h():\n    global TABLE\n    TABLE = {}\n")
    assert sorted(process_wide_caches(tree)) == [
        "from functools import cache", "from functools import lru_cache",
        "ft.lru_cache", "functools.cache", "global TABLE"]


def test_check_allows_run_scoped_tables():
    tree = ast.parse(
        "from functools import partial, reduce\n"
        "class Context:\n"
        "    def __init__(self):\n        self.cache = {}\n"
        "def run(cache):\n    cache.clear()\n    return cache\n")
    assert process_wide_caches(tree) == []
