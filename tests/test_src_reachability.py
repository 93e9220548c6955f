"""Lint: every line of ``src/netsynth`` runs, or the list says why not.

`run_the_tool` runs every CLI command on every fixture and on the small
files of `LTS_FILES`, `NET_FILES` and `MALFORMED`, made for the paths and
exits the fixtures miss; then both pipelines on the graphs of
``random_brac_net(0..9)``, on ``random_lts(0..29, 24, 6)``, on
``random_lts(331, 8, 4)``, where BRAC assigns its leftover state
separations to choice blocks, and on ``random_lts(245, 24, 6)`` and
``random_lts(917, 5, 3)``, which build state-separation systems for
pairs outside the cycle span, the second with a choice-free row.
`scan` records, through a `sys.settrace` line hook, every line of the
package that runs meanwhile.

`executable` lists the lines a function's code maps an instruction to,
its ``def`` line aside; module and class bodies run whole at import and
are not scanned.  A ``def`` counts as reached when a line of its body
runs.  What the scan misses (`findings`) is a ``def`` that is never
reached, keyed by its dotted name, and an unreached line of a reached
``def``, keyed by that name and the first line of the line's statement.
Each must be on `ALLOWED` with the reason the scan cannot reach it, and
an entry of `ALLOWED` must still name a finding, so the list holds
exactly what the scan misses.  Code that only tests read belongs in
``tests/reference.py``.

``PYTHONPATH=src python tests/test_src_reachability.py`` prints each
finding missing from `ALLOWED` and each stale entry, by module, and exits
1 if there is any.  Every file the scan writes goes in a temporary
directory that it removes.
"""

import ast
import contextlib
import importlib
import inspect
import io
import os
import pathlib
import sys
import tempfile
import types

import pytest

from netsynth import cli
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph
from netsynth.synthesis import synthesize_brac, synthesize_wpi

from conftest import CASE6_DISJOINT, EQUIVALENCE_CONFLICT, FIXTURES

# the package as imported, so that its paths read as its code's file names
SRC = pathlib.Path(cli.__file__).parent

# a def's dotted name, or (a def's dotted name, the first line of a
# statement in it) -> why the scan does not reach it.  "check:" marks a
# correctness check that no input of the tool fails, "guard:" a refusal
# that the caller in `src` rules out, "dump_lp:" and "perfbench:" code
# that only `linsys.dump_lp` or the perfbench tracer runs, "entry:" the
# console script, and "no input:" a path of the procedure that no known
# input takes.
ALLOWED = {
    "cli.main": "entry: the console script; the scan calls `cli.run`",
    ("cli._cmd_synth",
     'raise AssertionError("success reported without a net")'):
        "check: a success carries its net",
    ("cli.run", "except Exception as exc:"):
        "check: the internal-error exit, which only a broken invariant "
        "takes (tests/test_cli.py plants one)",
    ("cli.run", 'print(f"internal error: {type(exc).__name__}: {exc}",'):
        "check: the internal-error exit",
    ("cli.run", "return INTERNAL"): "check: the internal-error exit",
    ("linsys.make_row", 'raise ValueError(f"unknown relation {rel!r}")'):
        "guard: every caller in `src` passes a relation of `RELATIONS`",
    "linsys.Rows.__len__":
        "perfbench: the tracer counts a system's rows with it",
    "linsys.Rows.__iter__": "dump_lp: `dump_lp` reads a system's rows",
    ("linsys.LinearSystem.__post_init__",
     'raise ValueError(f"a block over {part.columns} columns "'):
        "guard: a context's block spans the columns of its systems",
    ("linsys.LinearSystem.__post_init__",
     'raise ValueError(f"row {part.tag!r} references "'):
        "guard: the systems' rows use the context's columns",
    "linsys.dump_lp":
        "dump_lp: the LP dump of the system behind a failure witness",
    ("linsys._Simplex.__init__",
     'raise ValueError(f"unknown relation {part.rel!r}")'):
        "guard: `make_row` refuses other relations",
    ("linsys._Simplex._pivot",
     'raise RuntimeError("pivot limit exceeded")'):
        "guard: Bland's rule terminates",
    ("linsys.solve_rational",
     'raise AssertionError("simplex witness failed re-substitution")'):
        "check: the re-substitution of every simplex witness",
    ("linsys.lift_homogeneous_to_integer",
     'raise ValueError("system is not homogeneous apart from margins")'):
        "guard: `_region` lifts only systems without 0/1 columns, whose "
        "rows are homogeneous or unit margins",
    ("linsys.lift_homogeneous_to_integer",
     'raise ValueError("can only lift a feasible solution")'):
        "guard: `_region` lifts only feasible solutions",
    ("linsys.lift_homogeneous_to_integer",
     'raise AssertionError("lifted solution failed re-substitution")'):
        "check: the re-substitution of every lifted witness",
    ("linsys.solve_integer", 'raise RuntimeError("pivot limit exceeded")'):
        "guard: the pipelines' searches branch only on 0/1 columns and "
        "take at most 25 pivots",
    ("lts._Table.__get__", "return self"):
        "guard: the descriptor read on the class, as `help` does",
    ("lts.Lts.__post_init__",
     'raise LtsError("state or label names repeat")'):
        "guard: `parse_lts` interns each name once",
    ("lts.Lts.__post_init__", 'raise LtsError("initial state out of range")'):
        "guard: `parse_lts` and `reachability_graph` number their states",
    ("lts.Lts.__post_init__",
     'raise LtsError(f"edge ({s},{t},{s2}) out of range")'):
        "guard: `parse_lts` and `reachability_graph` number their states",
    ("lts.ValidationReport.raise_if_invalid",
     'raise LtsError(f"label {self.unused_labels[0]!r} is on no edge")'):
        "guard: a parsed label names an edge",
    ("lts.spanning_tree",
     'raise LtsError(f"unreachable state {lts.states[missing[0]]!r}; "'):
        "guard: `validate` refuses an unreachable state first",
    ("oracle.random_lts", 'raise AssertionError("generated LTS is not '
     'deterministic and "'):
        "check: each generated LTS is valid",
    ("oracle.random_brac_net",
     'raise AssertionError("generated net is not plain BRAC")'):
        "check: each generated net is plain BRAC",
    ("petri.PetriNet.__post_init__",
     'raise PetriNetError("place and transition names overlap or "'):
        "guard: `parse_net` refuses a repeated name",
    ("petri.PetriNet.__post_init__",
     'raise PetriNetError("initial marking size mismatch")'):
        "guard: every builder in `src` gives each place a count",
    ("petri.PetriNet.__post_init__",
     'raise PetriNetError("arc weights must be positive")'):
        "guard: `parse_net` and `net_from_regions` write positive weights",
    ("petri.PetriNet.__post_init__",
     'raise PetriNetError("initial token counts must not be negative")'):
        "guard: a count is digits or a valid region's initial count",
    ("petri.PetriNet.__post_init__",
     'raise PetriNetError(f"arc between place {p} and transition "'):
        "guard: every builder in `src` numbers its arcs' ends",
    ("petri.reachability_graph",
     'raise ValueError("cap must be at least 1")'):
        "guard: `rg` refuses a cap below 1 first, and verification "
        "passes |S| + 1",
    ("petri.isomorphic", 'return Mismatch("nondeterministic system")'):
        "guard: `verify` refuses a nondeterministic LTS, and a "
        "reachability graph is deterministic",
    ("petri.isomorphic", "if len(mapping) != len(lts.states) or "
     "len(mapping) != len(other.states):"):
        "check: two reachable systems paired by the walk have equal sizes",
    ("petri.isomorphic", 'return Mismatch("state counts differ")'):
        "check: two reachable systems paired by the walk have equal sizes",
    ("petri.isomorphic", "return mapping"):
        "check: `isomorphic` runs only on a net that `realises` rejected, "
        "so it finds a mismatch",
    ("relations.RelationGraph.code_from",
     'raise ValueError(f"unexpected edge kind {e.kind} between "'):
        "guard: equivalence edges are gone once a graph is quotiented",
    ("relations.quotient_by_equivalence",
     'raise ValueError("equivalence edges are not transitive")'):
        "guard: the equivalence edges of a raw graph form cliques",
    ("relations._triangles", "continue"):
        "no input: rules 17, 22 and 23 at a strengthened inclusion; "
        "neither the scan's inputs, nor `random_lts`, nor any LTS of up to "
        "4 states and 2 labels or 3 states and 3 labels reaches them, so "
        "hand-built graphs of tests/test_relations.py "
        "(test_deactivation_rules_skip_a_strengthened_inclusion) do",
    ("relations.resolve_inclusion_matching.augment", "return False"):
        "no input: a matching that leaves a self-loop label out "
        "(ROADMAP item 5)",
    ("relations.resolve_inclusion_matching",
     "return MatchingFailure(unmatched)"):
        "no input: a matching that leaves a self-loop label out",
    ("separation.Region.is_valid", "return False"):
        "check: every solved region re-simulates every edge",
    "separation.SystemContext.__len__":
        "perfbench: `Rows.__len__` counts the context's rows with it",
    "separation.SystemContext.base_rows":
        "dump_lp: `Rows.__iter__` writes the context's rows out with it; "
        "the perfbench tracer counts them",
    "separation.SystemContext._lhs":
        "dump_lp: `base_rows` builds the rows from it",
    ("separation.SystemContext.holds", "return False"):
        "check: every witness satisfies the cycle rows",
    ("separation.SystemContext.ssp_row",
     """raise ValueError("sign must be '<' or '>'")"""):
        "guard: `_candidates` passes '<' or '>'",
    ("separation.SystemContext.relation_rows",
     'raise ValueError(f"relation rows need resolved edges, not "'):
        "guard: the pipelines build systems from resolved graphs",
    ("separation.solution_to_region",
     'raise ValueError("an infeasible solution has no region")'):
        "guard: `_region` converts only feasible solutions",
    ("separation.solution_to_region",
     'raise ValueError(f"non-integral value in column {j}: {v}/{den}")'):
        "guard: `_region` converts only integer solutions",
    "separation.normalize_region":
        "perfbench: the tracer wraps it, and no pipeline calls it, as a "
        "solved region has least count 0 or a tight edge row (tests/"
        "test_synthesis.py::TestSolvedRegionsNeedNoShift); it waits for "
        "ROADMAP item 1 to drop it from the tracer",
    ("synthesis._region",
     'raise AssertionError("a solved system gave an invalid region")'):
        "check: every solved region re-simulates every edge",
    ("synthesis._maybe_prune",
     'raise AssertionError("the pruned net failed verification")'):
        "check: the pruned net is verified",
    ("synthesis._solve_brac",
     'raise AssertionError("doi chains must be resolved")'):
        "guard: `strengthen_brac` resolves every doi chain",
    ("synthesis._solve_brac", "raise _Unsolvable({"):
        "no input: a matching that leaves a self-loop label out",
    ("synthesis._solve_brac",
     "raise _Unsolvable(_verification_witness(record))"):
        "check: every BRAC net verifies on the inputs seen",
    ("synthesis._assign_ssps_to_blocks", "solutions[si] = cache[key]"):
        "no input: the success of the block assignment (ROADMAP item 20)",
    ("synthesis._assign_ssps_to_blocks",
     "for si, region in solutions.items():"):
        "no input: the success of the block assignment",
    ("synthesis._assign_ssps_to_blocks", "pool[targets[si][1]] = region"):
        "no input: the success of the block assignment",
    ("synthesis._assign_ssps_to_blocks", "return"):
        "no input: the success of the block assignment",
}

# hand-written inputs for the paths the fixtures miss: file name -> text
LTS_FILES = {
    "case6-disjoint.lts": CASE6_DISJOINT,
    "equivalence-conflict.lts": EQUIVALENCE_CONFLICT,
    # a triangle-22 contradiction
    "triangle.lts": "initial s0\ns0 c s1\ns1 b s2\ns1 c s0\ns2 a s1\n"
                    "s2 b s2\ns2 c s2\n",
    # BRAC branches on a fractional 0/1 column
    "branch.lts": "initial s0\ns0 b s1\ns1 b s2\ns2 a s2\n",
    # a BRAC block system is infeasible (essp-block)
    "essp-block.lts": "initial s0\ns0 b s1\ns1 a s0\ns1 b s0\n",
    # a self-loop label with a doi edge and no feasible inclusion
    "no-inclusion.lts": "initial s0\ns0 a s0\ns0 b s1\ns1 a s2\n",
    # BRAC keeps the event separation regions of an unmatched doi target
    "gate.lts": "initial s0\ns0 a s0\ns0 b s1\ns1 a s1\n",
    # WPI's net fails its class check
    "wpi-verification.lts": "initial s0\ns0 b s0\ns0 c s1\ns1 a s0\n"
                            "s1 c s2\n",
    # two doi edges, above a self-loop cap of 1
    "two-doi.lts": "initial s0\ns0 b s0\ns0 c s1\ns1 a s0\ns1 b s1\n",
    # BRAC leaves a state separation to its choice block
    "leftover.lts": "initial s0\ns0 b s1\ns1 a s2\ns1 b s3\ns2 a s1\n"
                    "s2 b s3\n",
    "nondeterministic.lts": "initial s0\ns0 a s0\ns0 a s1\ns1 b s0\n",
    "unreachable.lts": "initial s0\ns0 a s0\ns1 a s0\n",
    # reachable, but s1's edge out comes before the edge into s1, so
    # `validate` searches the out-edges after its forward pass
    "late-edge.lts": "initial s0\ns1 b s2\ns0 a s1\n",
    # the labels of the two nets below on other graphs, so that `verify`
    # finds each mismatch `isomorphic` names
    "ab-line.lts": "initial s0\ns0 a s1\ns1 b s2\n",
    "ab-loop.lts": "initial s0\ns0 a s1\ns1 b s0\n",
    "ab-fork.lts": "initial s0\ns0 a s1\ns0 b s1\n",
}
NET_FILES = {
    "ab-cycle.pn": "place p 1\nplace q 0\ntransition a\ntransition b\n"
                   "arc p a\narc a q\narc q b\narc b p\n",
    "ab-chain.pn": "place p 1\nplace q 0\nplace r 0\ntransition a\n"
                   "transition b\narc p a\narc a q\narc q b\narc b r\n",
}
# file name -> text that `validate` or `check` refuses
MALFORMED = {
    "bad-name.lts": "initial s0\ns0 a! s1\n",
    "two-initial.lts": "initial s0\ninitial s1\n",
    "duplicate-edge.lts": "initial s0\ns0 a s1\ns0 a s1\n",
    "bare-initial.lts": "initial\n",
    "two-fields.lts": "initial s0\ns0 a\n",
    "no-initial.lts": "s0 a s1\n",
    "bad-tokens.pn": "place p x\n",
    "long-number.pn": "place p " + "9" * 5000 + "\n",
    "duplicate-id.pn": "place p 0\ntransition p\n",
    "bare-transition.pn": "transition\n",
    "short-arc.pn": "place p 1\ntransition t\narc p\n",
    "bad-weight.pn": "place p 1\ntransition t\narc p t 0\n",
    "unknown-end.pn": "place p 1\ntransition t\narc p u\n",
    "duplicate-arc.pn": "place p 1\ntransition t\narc p t\narc p t 2\n",
    "bad-directive.pn": "token p\n",
}


def _function_codes(code: types.CodeType):
    """The code of every function, lambda and comprehension in ``code``;
    a class body's own code is left out."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:
                yield const
            yield from _function_codes(const)


def executable(paths) -> dict[tuple[str, int], tuple[str, str]]:
    """(file, line) -> (dotted name of its ``def``, first line of its
    statement) of every line a function of ``paths`` maps an instruction
    to, its ``def`` line aside.  A ``def``'s name is ``module.function``,
    ``module.Class.method`` or ``module.function.inner``, and a line of a
    lambda or comprehension belongs to the ``def`` around it."""
    found = {}
    for path in paths:
        source = path.read_text()
        text = source.splitlines()
        where: dict[int, tuple[str, int]] = {}

        def visit(node, prefix, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    for line in range(child.lineno, child.end_lineno + 1):
                        where[line] = (owner, child.lineno)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    visit(child, name,
                          owner if isinstance(child, ast.ClassDef) else name)
                else:
                    visit(child, prefix, owner)

        visit(ast.parse(source), path.stem, None)
        file = str(path)
        for code in _function_codes(compile(source, file, "exec")):
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    owner, first = where[line]
                    found[(file, line)] = (owner, text[first - 1].strip())
    return found


def scan(run, root: pathlib.Path = SRC) -> set[tuple[str, int]]:
    """(file, line) of every line under ``root`` that runs during
    ``run()``; the trace function set before is set again afterwards."""
    prefix = os.path.join(root, "")
    lines = set()
    add = lines.add

    def line(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


def findings(lines: dict[tuple[str, int], tuple[str, str]],
             reached: set[tuple[str, int]]) -> dict:
    """What the scan misses, each with its first (file, line): a ``def``
    none of whose lines ran, by its dotted name, and an unreached line of
    a ``def`` that ran, by the ``(name, statement)`` of `executable`."""
    ran = {lines[key][0] for key in lines.keys() & reached}
    found = {}
    for key in sorted(lines.keys() - reached):
        name, statement = lines[key]
        found.setdefault(name if name not in ran else (name, statement), key)
    return found


def violations(lines: dict[tuple[str, int], tuple[str, str]],
               found: dict, allowed: dict) -> list[str]:
    """What breaks the lint, sorted, so by module: a finding not in
    ``allowed``, and an entry of ``allowed`` that names no finding, as its
    ``def`` or statement is gone or runs."""
    def show(key):
        return key if isinstance(key, str) else f"{key[0]}: `{key[1]}`"

    defined = {name for name, _ in lines.values()} | set(lines.values())
    return sorted(
        [f"{show(key)}: never reached "
         f"({pathlib.Path(file).name}:{line})"
         for key, (file, line) in found.items() if key not in allowed]
        + [f"{show(key)}: allowed, but "
           f"{'reached' if key in defined else 'not defined'}"
           for key in allowed.keys() - found.keys()])


def run_the_tool() -> list[int]:
    """Every CLI command on every fixture and on the files made from
    `LTS_FILES`, `NET_FILES` and `MALFORMED` in a temporary directory,
    then both pipelines on generated inputs; returns the CLI exit codes."""
    with tempfile.TemporaryDirectory() as tmp:
        made = pathlib.Path(tmp)
        for name, text in {**LTS_FILES, **NET_FILES, **MALFORMED}.items():
            (made / name).write_text(text)
        (made / "latin-1.lts").write_bytes(b"initial s\xe9\n")
        lts_files = sorted(map(str, FIXTURES.glob("*.lts"))) + \
            [str(made / name) for name in LTS_FILES]
        net_files = sorted(map(str, FIXTURES.glob("*.pn"))) + \
            [str(made / name) for name in NET_FILES]
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
        fig1, net = str(FIXTURES / "fig1.lts"), str(made / "net.pn")
        argvs += [["validate", str(made / name)] for name in MALFORMED
                  if name.endswith(".lts")]
        argvs += [["check", str(made / name), "--class", "wpi"]
                  for name in MALFORMED if name.endswith(".pn")]
        argvs += [
            ["validate", str(made / "latin-1.lts")],
            ["validate", str(made / "missing.lts")],
            ["synth"],
            ["synth", fig1, "--class", "wpi", "--selfloop-cap", "0"],
            ["synth", str(made / "two-doi.lts"), "--class", "wpi",
             "--selfloop-cap", "1"],
            ["synth", str(made / "leftover.lts"), "--class", "brac",
             "--ssp-combo-cap", "1"],
            ["rg", str(FIXTURES / "fig1-net.pn"), "--rg-cap", "1"],
            ["rg", str(FIXTURES / "fig1-net.pn"), "--rg-cap", "0"],
            # a new file, the same file again, a device, a directory,
            # then one file named by two outputs
            ["synth", fig1, "--class", "brac", "-o", net],
            ["synth", fig1, "--class", "brac", "-o", net],
            ["synth", fig1, "--class", "brac", "-o", os.devnull],
            ["synth", fig1, "--class", "brac", "-o", net, "--report", tmp],
            ["synth", fig1, "--class", "brac", "-o", net, "--report", net],
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            codes = [cli.run(argv) for argv in argvs]
    inputs = [reachability_graph(random_brac_net(seed))
              for seed in range(10)]
    inputs += [random_lts(seed, 24, 6) for seed in range(30)]
    inputs += [random_lts(331, 8, 4), random_lts(245, 24, 6),
               random_lts(917, 5, 3)]
    for lts in inputs:
        synthesize_wpi(lts)
        synthesize_brac(lts)
    return codes


def _lint() -> list[str]:
    codes = []
    reached = scan(lambda: codes.extend(run_the_tool()))
    if cli.INTERNAL in codes:
        return ["a CLI command exited with an internal error"]
    lines = executable(sorted(SRC.glob("*.py")))
    return violations(lines, findings(lines, reached), ALLOWED)


def test_every_line_is_reached_or_allowed():
    checkout = pathlib.Path(__file__).parents[1] / "src" / "netsynth"
    assert SRC.resolve() == checkout.resolve()
    assert _lint() == []


PLANTED = '''
def used(flag=False):
    if flag:
        return -1
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
        reached = scan(lambda: module.Box().value, tmp_path)
    finally:
        del sys.modules["planted_src"]
    lines = executable([path])
    found = findings(lines, reached)
    allowed = {"planted_src.helper": "reached through `used`",
               ("planted_src.used", "return helper()"): "it runs",
               "planted_src.gone": "no longer defined"}
    assert violations(lines, found, allowed) == [
        "planted_src.Box.unused: never reached (planted_src.py:22)",
        "planted_src.dead: never reached (planted_src.py:13)",
        "planted_src.gone: allowed, but not defined",
        "planted_src.helper: allowed, but reached",
        "planted_src.used: `return -1`: never reached (planted_src.py:4)",
        "planted_src.used: `return helper()`: allowed, but reached",
    ]
    assert violations(lines, found, {
        "planted_src.Box.unused": "", "planted_src.dead": "",
        ("planted_src.used", "return -1"): ""}) == []


def test_scan_restores_the_previous_trace_function():
    def previous(frame, event, arg):
        return None

    outer = sys.gettrace()
    sys.settrace(previous)
    try:
        with pytest.raises(ZeroDivisionError):
            scan(lambda: 1 / 0)
        assert sys.gettrace() is previous
    finally:
        sys.settrace(outer)


if __name__ == "__main__":
    problems = _lint()
    print("\n".join(problems) or "every line of src/netsynth is reached "
          "or allowed")
    sys.exit(1 if problems else 0)
