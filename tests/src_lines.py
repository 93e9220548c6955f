"""Line counts of the modules of ``src/netsynth``, by kind.

Each line of a module is of one kind: ``docstring`` if it lies in a
module, class or function docstring (blank lines inside one too),
else ``blank`` if it holds only whitespace, else ``comment`` if it
starts with ``#``, else ``code``.  This file prints, per module and in
all, the total and the count of each kind, each with its change against
a git revision (default ``HEAD``); a module absent at one side counts as
empty there:

    python tests/src_lines.py [REVISION]
"""

from __future__ import annotations

import ast
import collections
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = "src/netsynth"
KINDS = ("code", "docstring", "comment", "blank")
COLUMNS = ("total",) + KINDS


def line_kinds(text: str) -> list[str]:
    """The kind of each line of the Python source ``text``."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    return ["docstring" if i in docstring
            else "blank" if not line.strip()
            else "comment" if line.lstrip().startswith("#")
            else "code" for i, line in enumerate(lines, 1)]


def counts(text: str) -> dict[str, int]:
    """The total and per-kind line counts of ``text``."""
    kinds = line_kinds(text)
    return {"total": len(kinds), **{k: kinds.count(k) for k in KINDS}}


def modules_at(revision: str) -> dict[str, str]:
    """Module file name -> its text at ``revision``."""
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", revision, PACKAGE + "/"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout.split()
    return {pathlib.Path(name).name: subprocess.run(
                ["git", "show", f"{revision}:{name}"], cwd=ROOT, check=True,
                capture_output=True, text=True).stdout
            for name in names if name.endswith(".py")}


def modules_now() -> dict[str, str]:
    """Module file name -> its text in the working tree."""
    return {path.name: path.read_text()
            for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def table(revision: str = "HEAD") -> list[str]:
    """The rows this file prints, against ``revision``."""
    now, then = modules_now(), modules_at(revision)
    rows = [f"{'module':<14}" + "".join(f"{c:>16}" for c in COLUMNS)]
    all_now, all_then = collections.Counter(), collections.Counter()
    for name in sorted(now.keys() | then.keys()):
        a, b = counts(now.get(name, "")), counts(then.get(name, ""))
        all_now.update(a)
        all_then.update(b)
        rows.append(_row(name, a, b))
    rows.append(_row("all", all_now, all_then))
    return rows


def _row(name: str, now: dict, then: dict) -> str:
    return f"{name:<14}" + "".join(
        f"{f'{now[c]} ({now[c] - then[c]:+d})':>16}" for c in COLUMNS)


if __name__ == "__main__":
    revision = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    print(f"{PACKAGE} against {revision}")
    print("\n".join(table(revision)))
