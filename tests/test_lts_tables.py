"""Lint: no module in ``src/`` reads a per-state or per-label set table
of an `Lts`.

The enabled labels of a state and the enabling states of a label are the
int bit masks ``Lts.label_masks`` and ``Lts.state_masks``; the frozenset
tables ``enabled`` and ``enabled_states`` they replaced must not come
back beside them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src"
SET_TABLES = {"enabled", "enabled_states"}


def set_table_reads(source: str) -> list[tuple[int, str]]:
    """``(line, attribute)`` of every read of a set table."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in SET_TABLES)


def test_src_reads_no_set_table():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    assert {path.name: set_table_reads(path.read_text())
            for path in modules} == {path.name: [] for path in modules}


def test_check_sees_a_planted_read():
    source = ("def pair(lts, a, s):\n"
              "    enabled = lts.label_masks[s]\n"
              "    return a in lts.enabled[s], lts.enabled_states[a]\n")
    assert set_table_reads(source) == [(3, "enabled"),
                                       (3, "enabled_states")]
