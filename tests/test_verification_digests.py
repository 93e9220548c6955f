"""`netsynth verify` output on a fixed family of (net, LTS) pairs, pinned.

The base pairs are every fixture net against every fixture LTS and against
its own reachability graph, and the nets `synthesize_brac` returns on the
graphs of ``random_brac_net(0..19)`` against those graphs.  Each base
pair comes with its one-step mutants: one initial token more, and one
fewer where there is one, at each place; each arc dropped; each transition
renamed; each place dropped with its arcs; the LTS given one more label
that labels no edge, once as it is and once with a transition of that
name that never fires; and, per label, the LTS unrolled into two copies
that its edges of that label cross.

``fixtures/verification_digests.json`` holds, per base pair, the SHA-256
over the verify JSON of the pair and of each mutant, in that order, each
preceded by the mutant's name, and the number of pairs that end in each
mismatch reason.  A change to how a net is verified must keep every
digest.  ``PYTHONPATH=src python tests/test_verification_digests.py``
rewrites the record and prints the keys it changed.
"""

import collections
import hashlib
import json
import pathlib
from dataclasses import replace
from typing import Iterator

import pytest

from netsynth.cli import run
from netsynth.lts import Lts, parse_lts, serialize_lts
from netsynth.oracle import random_brac_net
from netsynth.petri import (CapExceeded, PetriNet, isomorphic, parse_net,
                            reachability_graph, realises)
from netsynth.synthesis import synthesize_brac, verify_solution

from conftest import rewrite_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORD = FIXTURES / "verification_digests.json"
TARGET = "brac"
UNUSED_LABEL = "zz_unused"


def verify_json(net: PetriNet, lts: Lts) -> str:
    """The bytes ``netsynth verify NET LTS --class brac --json`` writes."""
    record = verify_solution(net, lts, TARGET)
    return json.dumps({"schema": 1, **record.to_json()}, indent=2,
                      sort_keys=True) + "\n"


def base_pairs() -> dict[str, tuple[PetriNet, Lts]]:
    """Base pair name -> (net, LTS)."""
    ltss = {p.stem: parse_lts(p.read_text())
            for p in sorted(FIXTURES.glob("*.lts"))}
    pairs = {}
    for path in sorted(FIXTURES.glob("*.pn")):
        net = parse_net(path.read_text())
        pairs[f"fixture/{path.stem}/own"] = (net,
                                             reachability_graph(net, 100_000))
        for name, lts in ltss.items():
            pairs[f"fixture/{path.stem}/{name}"] = (net, lts)
    for i in range(20):
        lts = reachability_graph(random_brac_net(i), 100_000)
        pairs[f"random_brac_net/{i}"] = (synthesize_brac(lts).net, lts)
    return pairs


def without_place(net: PetriNet, p: int) -> PetriNet:
    """``net`` less place ``p`` and its arcs."""
    def index(q):
        return q - (q > p)
    return replace(net, places=net.places[:p] + net.places[p + 1:],
                   m0=net.m0[:p] + net.m0[p + 1:],
                   consume={(index(q), t): w
                            for (q, t), w in net.consume.items() if q != p},
                   produce={(t, index(q)): w
                            for (t, q), w in net.produce.items() if q != p})


def with_dead_transition(net: PetriNet, name: str) -> PetriNet:
    """``net`` plus a transition ``name`` fed by a new empty place."""
    return PetriNet(places=net.places + ("zz_empty",),
                    transitions=net.transitions + (name,),
                    consume={**net.consume,
                             (len(net.places), len(net.transitions)): 1},
                    produce=net.produce, m0=net.m0 + (0,))


def double_cover(lts: Lts, label: int) -> Lts:
    """Two copies of ``lts`` whose edges of ``label`` lead to the other
    copy, restricted to the states reachable from the initial one."""
    order = [(lts.initial, 0)]
    index = {order[0]: 0}
    edges = []
    for i, (s, k) in enumerate(order):  # ``order`` grows while it is walked
        for _, a, s2 in lts.out_edges[s]:
            target = (s2, k ^ (a == label))
            if target not in index:
                index[target] = len(order)
                order.append(target)
            edges.append((i, a, index[target]))
    return Lts(states=tuple(f"{lts.states[s]}_{k}" for s, k in order),
               labels=lts.labels, edges=tuple(edges), initial=0)


def mutants(net: PetriNet, lts: Lts) -> Iterator[tuple[str, PetriNet, Lts]]:
    """The pair itself, then its one-step mutants, in a fixed order."""
    yield "pair", net, lts
    for p, name in enumerate(net.places):
        for step in (1, -1):
            if net.m0[p] + step >= 0:
                m0 = net.m0[:p] + (net.m0[p] + step,) + net.m0[p + 1:]
                yield f"tokens{step:+d} {name}", replace(net, m0=m0), lts
    for p, t in sorted(net.consume):
        consume = {k: w for k, w in net.consume.items() if k != (p, t)}
        yield (f"drop {net.places[p]}->{net.transitions[t]}",
               replace(net, consume=consume), lts)
    for t, p in sorted(net.produce):
        produce = {k: w for k, w in net.produce.items() if k != (t, p)}
        yield (f"drop {net.transitions[t]}->{net.places[p]}",
               replace(net, produce=produce), lts)
    for t, name in enumerate(net.transitions):
        names = net.transitions[:t] + (name + "_renamed",) \
            + net.transitions[t + 1:]
        yield f"rename {name}", replace(net, transitions=names), lts
    for p, name in enumerate(net.places):
        yield f"drop {name}", without_place(net, p), lts
    unused = replace(lts, labels=lts.labels + (UNUSED_LABEL,))
    yield "unused label", net, unused
    yield ("unused label, dead transition",
           with_dead_transition(net, UNUSED_LABEL), unused)
    for a, name in enumerate(lts.labels):
        yield f"double cover {name}", net, double_cover(lts, a)


def family() -> Iterator[tuple[str, str, PetriNet, Lts]]:
    """(base pair, mutant, net, LTS) over the whole family."""
    for base, (net, lts) in base_pairs().items():
        for mutant, mnet, mlts in mutants(net, lts):
            yield base, mutant, mnet, mlts


def recorded() -> dict:
    digests: dict = {}
    reasons: collections.Counter = collections.Counter()
    for base, mutant, net, lts in family():
        text = verify_json(net, lts)
        digests.setdefault(base, hashlib.sha256()).update(
            f"{mutant}\n{text}".encode())
        reasons[json.loads(text)["mismatch"] or "isomorphic"] += 1
    return {"digests": {k: h.hexdigest() for k, h in digests.items()},
            "reasons": dict(sorted(reasons.items()))}


def test_verification_bytes_unchanged():
    got = recorded()
    expected = json.loads(RECORD.read_text())
    assert sorted(got["digests"]) == sorted(expected["digests"])
    changed = sorted(k for k in got["digests"]
                     if got["digests"][k] != expected["digests"][k])
    assert not changed, f"verify output changed: {changed}"
    assert got["reasons"] == expected["reasons"]


def test_realises_matches_the_graph():
    """On every pair of the family, firing the net along the LTS accepts
    exactly when `isomorphic` pairs the LTS with the net's reachability
    graph explored to |S| + 1 markings (a larger graph reads as no)."""
    differ, accepted = [], 0
    for base, mutant, net, lts in family():
        try:
            graph = reachability_graph(net, len(lts.states) + 1)
            expected = isinstance(isomorphic(lts, graph), dict)
        except CapExceeded:
            expected = False
        if realises(net, lts) != expected:
            differ.append((base, mutant, expected))
        accepted += expected
    assert not differ, f"realises differs from the graph: {differ[:5]}"
    assert accepted == json.loads(RECORD.read_text())["reasons"]["isomorphic"]


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.pn")))
def test_helper_writes_the_cli_bytes(name, tmp_path):
    """`verify_json` writes what the command writes, on each fixture net
    against its own graph and against fig1."""
    net = parse_net((FIXTURES / f"{name}.pn").read_text())
    for lts in (reachability_graph(net, 100_000),
                parse_lts((FIXTURES / "fig1.lts").read_text())):
        lts_file, out = tmp_path / "in.lts", tmp_path / "out.json"
        lts_file.write_text(serialize_lts(lts))
        run(["verify", str(FIXTURES / f"{name}.pn"), str(lts_file),
             "--class", TARGET, "--json", str(out)])
        assert out.read_text() == verify_json(net, lts)


if __name__ == "__main__":
    rewrite_record(RECORD, recorded())
