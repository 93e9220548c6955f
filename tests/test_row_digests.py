"""Base-row and system-dump regression guard.

Pins the SHA-256 of ``repr(ctx.base_rows())`` and of the ``dump_lp`` text
of the first system of each kind (ESSP, SSP, choice block, free-choice)
that each pipeline builds, on every fixture, on the reachability graphs of
``random_brac_net(0..9)``, on those of the three scale-ladder nets and on
three random LTSs whose pipelines reach the SSP and free-choice systems:
``random_lts(23, 24, 6)`` and ``random_lts(331, 8, 4)`` on pairs in the
cycle span, whose systems `first_system_dumps` builds itself, and
``random_lts(245, 24, 6)`` on a pair outside it.  A
change to how the rows are stored or handed to the solver must leave every
digest in ``fixtures/row_digests.json`` unchanged.

On the ladder nets a pipeline stops as soon as it has built every kind
the record names for it, so only the first systems are built.

``PYTHONPATH=src python tests/test_row_digests.py`` rewrites the record
and prints the keys whose digests it changed.
"""

import hashlib
import json
import pathlib

import pytest

import netsynth.synthesis
from netsynth.linsys import dump_lp
from netsynth.lts import parse_lts
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph
from netsynth.synthesis import _prepare

from conftest import rewrite_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "row_digests.json"
# the system builders the pipelines call, by kind
BUILDERS = {"essp_system_wpi": "essp", "ssp_system_wpi": "ssp",
            "brac_block_systems": "block",
            "brac_ssp_system_freechoice": "freechoice"}
# random_brac_net(seed, 6, 4) of each scale-ladder rung, by markings
LADDER = {300: 44, 600: 17, 1296: 38}
# random_lts(seed, states, labels) of the random_lts family
RANDOM_LTS = ((23, 24, 6), (331, 8, 4), (245, 24, 6))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def inputs(family: str) -> dict:
    """Case name -> Lts of one input family."""
    if family == "fixture":
        return {f"fixture/{p.stem}": parse_lts(p.read_text())
                for p in sorted(FIXTURES.glob("*.lts"))}
    if family == "random_brac_net":
        return {f"random_brac_net/{i}":
                reachability_graph(random_brac_net(i), 100_000)
                for i in range(10)}
    if family == "random_lts":
        return {f"random_lts/{seed}": random_lts(seed, states, labels)
                for seed, states, labels in RANDOM_LTS}
    return {f"ladder/{m}": reachability_graph(random_brac_net(s, 6, 4),
                                              100_000)
            for m, s in LADDER.items()}


class _Built(Exception):
    """Every kind asked for has been built."""


def first_system_dumps(lts, pipeline: str, stop_after=None) -> dict:
    """Kind -> ``dump_lp`` text of the first system of that kind the
    pipeline builds (both systems of a choice block).  A state pair in
    the cycle span gets candidates without systems; the first candidate
    of the first such pair is built here, as the pipeline would have
    built it before it settled such pairs.  With ``stop_after``, the run
    ends once those kinds are built."""
    dumps = {}

    def wrap(name, builder):
        kind = BUILDERS[name]

        def build(ctx, *args, **kwargs):
            result = builder(ctx, *args, **kwargs)
            if kind not in dumps:
                systems = result if isinstance(result, tuple) else (result,)
                dumps[kind] = "\n\n".join(dump_lp(s, ctx.names)
                                          for s in systems)
                if stop_after is not None and stop_after <= dumps.keys():
                    raise _Built
            return result
        return build

    def candidates(ctx, graph, reps, brac):
        systems = real_candidates(ctx, graph, reps, brac)
        name = "brac_ssp_system_freechoice" if brac else "ssp_system_wpi"

        def settled_too(problem):
            for tag, system in systems(problem):
                if system is None and BUILDERS[name] not in dumps:
                    # the first candidate of a settled pair: reps[0], "<"
                    getattr(netsynth.synthesis, name)(ctx, graph, problem,
                                                      reps[0], "<")
                yield tag, system
        return settled_too

    originals = {name: getattr(netsynth.synthesis, name)
                 for name in BUILDERS}
    real_candidates = netsynth.synthesis._candidates
    for name, builder in originals.items():
        setattr(netsynth.synthesis, name, wrap(name, builder))
    netsynth.synthesis._candidates = candidates
    try:
        getattr(netsynth.synthesis, "synthesize_" + pipeline)(lts)
    except _Built:
        pass
    finally:
        for name, builder in originals.items():
            setattr(netsynth.synthesis, name, builder)
        netsynth.synthesis._candidates = real_candidates
    return dumps


def family_digests(family: str, expected=None) -> dict[str, str]:
    """Every digest of one family.  On the ladder, each pipeline stops
    after the kinds ``expected`` names for it."""
    out = {}
    for name, lts in inputs(family).items():
        out[f"base/{name}"] = sha256(repr(_prepare(lts).base_rows()))
        for pipeline in ("wpi", "brac"):
            prefix = f"{pipeline}/{name}/"
            stop_after = None
            if family == "ladder" and expected is not None:
                stop_after = {k[len(prefix):] for k in expected
                              if k.startswith(prefix)}
            dumps = first_system_dumps(lts, pipeline, stop_after)
            out.update({prefix + kind: sha256(text)
                        for kind, text in dumps.items()})
    return out


FAMILIES = ("fixture", "random_brac_net", "ladder", "random_lts")


@pytest.mark.parametrize("family", FAMILIES)
def test_rows_and_dumps_unchanged(family):
    record = json.loads(RECORD.read_text())
    expected = {k: v for k, v in record.items()
                if k.split("/")[1] == family}
    got = family_digests(family, expected)
    assert sorted(got) == sorted(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, f"rows or system dumps changed: {changed}"


if __name__ == "__main__":
    record = {}
    for family in FAMILIES:
        record.update(family_digests(family))
    rewrite_record(RECORD, record)
