"""Lint: ``src/netsynth`` holds only what the tool runs.

`run_the_tool` runs every CLI command on every fixture, and both
pipelines on the graphs of ``random_brac_net(0..9)``, on
``random_lts(0..29, 24, 6)`` and on ``random_lts(331, 8, 4)``, where BRAC
assigns its leftover state separations to choice blocks.  `scan` records, through a `sys.setprofile`
hook, every code object that runs meanwhile.  Every ``def`` of the
package, methods and nested functions included, must be among them,
unless `ALLOWED` names it with the reason the scan cannot reach it.  A
name on `ALLOWED` must still be defined and must stay unreached, so the
list holds exactly what the scan misses.  Code that only tests read
belongs in ``tests/reference.py``.
"""

import ast
import contextlib
import importlib
import io
import pathlib
import sys

import pytest

from netsynth import cli
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph
from netsynth.synthesis import synthesize_brac, synthesize_wpi

from conftest import FIXTURES

SRC = pathlib.Path(__file__).parents[1] / "src" / "netsynth"

# dotted name -> why the scan does not reach it
ALLOWED = {
    "cli.main": "the console entry point; the scan calls `cli.run`",
    "linsys.dump_lp": "the LP dump of the system behind a failure witness",
    "linsys.Rows.__iter__": "`dump_lp` reads a system's rows with it",
    "separation.SystemContext.base_rows":
        "`Rows.__iter__` writes the context's rows out with it",
    "separation.SystemContext._lhs": "`base_rows` builds the rows from it",
    "linsys.Rows.__len__":
        "the perfbench tracer counts a system's rows with it",
    "separation.SystemContext.__len__":
        "`Rows.__len__` counts the context's rows with it",
    "synthesis._verification_witness":
        "the witness of a synthesised net that fails verification",
}


def definitions(paths) -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every ``def`` in ``paths``:
    ``module.function``, ``module.Class.method``, ``module.function.inner``.
    A decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(path, first)] = name
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem, str(path.resolve()))
    return found


def scan(run) -> set[tuple[str, int]]:
    """(file, first line) of every code object that runs during ``run()``;
    the profile function set before is set again afterwards."""
    codes = set()
    add = codes.add
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: add(frame.f_code))
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(str(pathlib.Path(c.co_filename).resolve()), c.co_firstlineno)
            for c in codes}


def violations(defined: dict[tuple[str, int], str],
               reached: set[tuple[str, int]],
               allowed: dict[str, str]) -> list[str]:
    """What breaks the lint: an unreached definition not in ``allowed``,
    and a name in ``allowed`` that is not defined or that is reached."""
    names = set(defined.values())
    unreached = {name for key, name in defined.items() if key not in reached}
    return sorted(
        [f"{name}: never reached" for name in unreached - allowed.keys()]
        + [f"{name}: allowed, but not defined"
           for name in allowed.keys() - names]
        + [f"{name}: allowed, but reached"
           for name in allowed.keys() & (names - unreached)])


def run_the_tool() -> list[int]:
    """Every CLI command on every fixture, then both pipelines on
    generated inputs; returns the CLI exit codes."""
    lts_files = sorted(map(str, FIXTURES.glob("*.lts")))
    net_files = sorted(map(str, FIXTURES.glob("*.pn")))
    argvs = []
    for lts in lts_files:
        argvs += [["validate", lts], ["relations", lts]]
        argvs += [["synth", lts, "--class", target, "--report", "-",
                   "--dot", "-", "--prune"] for target in ("wpi", "brac")]
    for net in net_files:
        argvs += [["check", net, "--class", target]
                  for target in ("wpi", "brac")]
        argvs += [["rg", net], ["dot", net]]
        argvs += [["verify", net, lts, "--class", target]
                  for lts in lts_files for target in ("wpi", "brac")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        codes = [cli.run(argv) for argv in argvs]
    inputs = [reachability_graph(random_brac_net(seed))
              for seed in range(10)]
    inputs += [random_lts(seed, 24, 6) for seed in range(30)]
    inputs.append(random_lts(331, 8, 4))
    for lts in inputs:
        synthesize_wpi(lts)
        synthesize_brac(lts)
    return codes


def test_every_definition_is_reached_or_allowed():
    assert pathlib.Path(cli.__file__).resolve().parent == SRC.resolve()
    codes = []
    reached = scan(lambda: codes.extend(run_the_tool()))
    assert cli.INTERNAL not in codes
    defined = definitions(sorted(SRC.glob("*.py")))
    assert violations(defined, reached, ALLOWED) == []


PLANTED = '''
def used():
    return helper()


def helper():
    return 1


def dead():
    return 2


class Box:
    @property
    def value(self):
        return used()

    def unused(self):
        return 0
'''


def test_planted_violations_are_caught(tmp_path, monkeypatch):
    path = tmp_path / "planted_src.py"
    path.write_text(PLANTED)
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("planted_src")
    try:
        reached = scan(lambda: module.Box().value)
    finally:
        del sys.modules["planted_src"]
    allowed = {"planted_src.helper": "reached through `used`",
               "planted_src.gone": "no longer defined"}
    assert violations(definitions([path]), reached, allowed) == [
        "planted_src.Box.unused: never reached",
        "planted_src.dead: never reached",
        "planted_src.gone: allowed, but not defined",
        "planted_src.helper: allowed, but reached",
    ]
    assert violations(definitions([path]), reached, {
        "planted_src.Box.unused": "", "planted_src.dead": ""}) == []


def test_scan_restores_the_previous_profile_function():
    def previous(frame, event, arg):
        pass

    outer = sys.getprofile()
    sys.setprofile(previous)
    try:
        with pytest.raises(ZeroDivisionError):
            scan(lambda: 1 / 0)
        assert sys.getprofile() is previous
    finally:
        sys.setprofile(outer)
