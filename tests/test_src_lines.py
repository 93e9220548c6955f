"""`src_lines`, the line table of ``src/netsynth`` by kind."""

import pytest

from src_lines import KINDS, counts, line_kinds, modules_now

SAMPLE = '''"""Module docstring,

over three lines."""
import os  # a trailing comment is code

# a comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        x = """not a docstring"""
        return x
'''


def test_each_kind_of_a_sample():
    assert line_kinds(SAMPLE) == [
        "docstring", "docstring", "docstring", "code", "blank", "comment",
        "blank", "blank", "code", "docstring", "blank", "code",
        "docstring", "docstring", "code", "code"]


@pytest.mark.parametrize("name", sorted(modules_now()))
def test_kinds_add_up_to_the_line_count(name):
    text = modules_now()[name]
    got = counts(text)
    assert got["total"] == text.count("\n") == len(text.splitlines())
    assert sum(got[kind] for kind in KINDS) == got["total"]
