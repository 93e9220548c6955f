"""Relation-table regression guard.

Pins the exit code and the SHA-256 of the bytes ``netsynth relations
--json`` writes for every fixture and for ``random_lts(0..299, 24, 6)``.
A change to how the pair relations are computed must leave every entry
of ``fixtures/relation_digests.json`` unchanged.

``PYTHONPATH=src python tests/test_relation_digests.py`` rewrites the
record and prints the keys it changed.
"""

import hashlib
import json
import pathlib

from netsynth.cli import run
from netsynth.lts import serialize_lts
from netsynth.oracle import random_lts

from conftest import rewrite_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "relation_digests.json"


def inputs() -> dict[str, str]:
    """Case name -> .lts text."""
    cases = {f"fixture/{p.stem}": p.read_text()
             for p in sorted(FIXTURES.glob("*.lts"))}
    cases.update({f"random_lts/{i}": serialize_lts(random_lts(i, 24, 6))
                  for i in range(300)})
    return cases


def relation_digests(workdir: pathlib.Path) -> dict[str, str]:
    """Case name -> ``"<exit code>:<sha256 of the --json bytes>"``."""
    out = {}
    lts_file, target = workdir / "input.lts", workdir / "relations.json"
    for name, text in inputs().items():
        lts_file.write_text(text)
        code = run(["relations", str(lts_file), "--json", str(target)])
        out[name] = f"{code}:{hashlib.sha256(target.read_bytes()).hexdigest()}"
        target.unlink()
    return out


def test_relations_bytes_unchanged(tmp_path):
    expected = json.loads(RECORD.read_text())
    got = relation_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, f"relations output changed: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        record = relation_digests(pathlib.Path(workdir))
    rewrite_record(RECORD, record)
