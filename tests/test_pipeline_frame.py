"""Lint: ``synthesis._synthesize`` is the one frame of both pipelines.

The frame creates the one ``SynthesisReport`` a run returns and is the
one place that catches ``_Unsolvable``; each pipeline's stages fill in
the report they are handed and raise ``_Unsolvable`` to end the run.
Elsewhere in ``src/netsynth/synthesis.py`` no ``SynthesisReport`` is
built and no handler names ``_Unsolvable``.
"""

import ast
import pathlib

SYNTHESIS = pathlib.Path(__file__).parents[1] / "src" / "netsynth" / \
    "synthesis.py"
FRAME = "_synthesize"


def _name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def frame_uses(source: str) -> tuple[list[str], list[int]]:
    """What the frame does of building a report and catching
    ``_Unsolvable``, sorted, and the lines that do either anywhere else."""
    tree = ast.parse(source)
    inside = {id(sub) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == FRAME
              for sub in ast.walk(node)}
    done, outside = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                _name(node.func) == "SynthesisReport":
            kind = "build"
        elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "_Unsolvable" in map(_name, ast.walk(node.type)):
            kind = "catch"
        else:
            continue
        if id(node) in inside:
            done.append(kind)
        else:
            outside.append(node.lineno)
    return sorted(done), sorted(outside)


def test_frame_alone_builds_and_catches():
    assert frame_uses(SYNTHESIS.read_text()) == (["build", "catch"], [])


def test_check_sees_uses_outside_frame():
    source = ("def _synthesize(lts, solve):\n"
              "    report = SynthesisReport('failure', 'wpi')\n"
              "    try:\n"
              "        solve(report)\n"
              "    except _Unsolvable:\n"
              "        return report\n"
              "def _solve_brac(lts, report):\n"
              "    try:\n"
              "        return synthesis.SynthesisReport('success', 'brac')\n"
              "    except (ValueError, _Unsolvable):\n"
              "        pass\n"
              "    except KeyError:\n"
              "        pass\n")
    assert frame_uses(source) == (["build", "catch"], [9, 10])
