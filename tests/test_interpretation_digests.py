"""Doi-interpretation regression guard.

Pins one SHA-256 per pipeline and input over the ``dump_lp`` text of every
system the pipeline builds, in build order.  The inputs are the fixtures
and random LTSs whose pipelines reach a non-trivial interpretation of
their "disjoint or included" (doi) edges: WPI enumerates 3, 2, 4 and 8
interpretations on them, and BRAC settles their doi edges by probing and
matching.  A change to how an interpretation reaches the system builders
must leave every digest in ``fixtures/interpretation_digests.json``
unchanged.

``PYTHONPATH=src python tests/test_interpretation_digests.py`` rewrites the
record and prints the keys whose digests it changed.
"""

import hashlib
import json
import pathlib

import pytest

import netsynth.synthesis
from netsynth.linsys import dump_lp
from netsynth.lts import parse_lts
from netsynth.oracle import random_lts
from netsynth.separation import SystemContext

from conftest import rewrite_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "interpretation_digests.json"
# case name -> interpretations WPI tries on it
TRIED = {"fixture/brac7": 3, "fixture/case6b": 2, "random_lts/4": 4,
         "random_lts/366": 8}
# random_lts(seed, states, labels) of the random_lts cases
RANDOM_LTS = ((4, 12, 4), (366, 16, 5))


def inputs() -> dict:
    """Case name -> Lts."""
    cases = {f"fixture/{name}": parse_lts((FIXTURES / f"{name}.lts")
                                          .read_text())
             for name in ("brac7", "case6b")}
    cases.update({f"random_lts/{seed}": random_lts(seed, states, labels)
                  for seed, states, labels in RANDOM_LTS})
    return cases


def built_systems_digest(lts, pipeline: str):
    """The pipeline's report and the SHA-256 over the ``dump_lp`` text of
    every system it builds, in build order, each followed by a blank
    line."""
    digest = hashlib.sha256()
    original = SystemContext.system

    def system(ctx, rows, zero_one=False):
        built = original(ctx, rows, zero_one)
        digest.update(dump_lp(built, ctx.names).encode() + b"\n\n")
        return built

    SystemContext.system = system
    try:
        report = getattr(netsynth.synthesis, "synthesize_" + pipeline)(lts)
    finally:
        SystemContext.system = original
    return report, digest.hexdigest()


def all_digests() -> dict[str, str]:
    out = {}
    for name, lts in inputs().items():
        for pipeline in ("wpi", "brac"):
            _, out[f"{pipeline}/{name}"] = built_systems_digest(lts,
                                                                pipeline)
    return out


@pytest.mark.parametrize("pipeline", ["wpi", "brac"])
@pytest.mark.parametrize("name", sorted(TRIED))
def test_interpretation_systems_unchanged(name, pipeline):
    record = json.loads(RECORD.read_text())
    report, digest = built_systems_digest(inputs()[name], pipeline)
    if pipeline == "wpi":
        assert report.interpretations_tried == TRIED[name]
    assert digest == record[f"{pipeline}/{name}"]


def test_record_covers_every_case():
    record = json.loads(RECORD.read_text())
    assert sorted(record) == sorted(f"{p}/{name}" for name in TRIED
                                    for p in ("wpi", "brac"))


if __name__ == "__main__":
    rewrite_record(RECORD, all_digests())
