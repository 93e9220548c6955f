"""Renaming states and labels and reordering edges keeps the outcome.

Each input is written out with new state and label names and its edge
lines shuffled, then parsed again, so states and labels are also numbered
in a new order.  Under both pipelines the outcome (success, impossible or
cap exceeded) must be that of the input as given, and every success must
verify against the renamed LTS.  The net itself may differ: the vertex the
solver finds depends on the column order.  The witness kind is not
compared either, as a pooled region found for one label may solve another
label's problem in one order and not in the other.
"""

import random

import pytest

from netsynth.lts import parse_lts
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph
from netsynth.synthesis import synthesize_brac, synthesize_wpi, \
    verify_solution

PIPELINES = {"wpi": synthesize_wpi, "brac": synthesize_brac}
RENAMINGS = 2


def renamed(lts, rng: random.Random):
    """``lts`` with its states and labels renamed, in shuffled name order,
    and its edge lines shuffled, parsed again."""
    states = [f"q{i}" for i in rng.sample(range(len(lts.states)),
                                         len(lts.states))]
    labels = [f"x{i}" for i in rng.sample(range(len(lts.labels)),
                                         len(lts.labels))]
    lines = [f"{states[s]} {labels[t]} {states[d]}" for s, t, d in lts.edges]
    rng.shuffle(lines)
    return parse_lts("\n".join([f"initial {states[lts.initial]}", *lines])
                     + "\n")


def inputs(family: str) -> dict:
    if family == "random_lts":
        return {i: random_lts(i, 24, 6) for i in range(300)}
    return {i: reachability_graph(random_brac_net(i), 100_000)
            for i in range(20)}


@pytest.mark.parametrize("pipeline", list(PIPELINES))
@pytest.mark.parametrize("family", ["random_lts", "random_brac_net"])
def test_outcome_survives_renaming(family, pipeline):
    synthesize = PIPELINES[pipeline]
    outcomes = set()
    for seed, lts in inputs(family).items():
        outcome = synthesize(lts).outcome
        outcomes.add(outcome)
        rng = random.Random(f"{family} {seed}")
        for _ in range(RENAMINGS):
            other = renamed(lts, rng)
            assert len(other.edges) == len(lts.edges)
            report = synthesize(other)
            assert report.outcome == outcome, (seed, pipeline)
            if report.ok:
                assert verify_solution(report.net, other, pipeline).ok
    if family == "random_lts":
        assert len(outcomes) > 1  # successes and failures both occur


# A class {t0, t1} of equal enabled sets in which t1 is a self-loop label.
# BRAC's shared block must leave t1's produce weight free: pinning it to 0
# contradicts t1's self-loop, and the outcome then hung on which member
# numbered first.
CLASS_WITH_SELF_LOOP = ["s0 t0 s1", "s0 t1 s0", "s0 t2 s2", "s1 t0 s3",
                        "s1 t1 s1", "s1 t2 s4", "s2 t0 s4", "s2 t1 s2"]


@pytest.mark.parametrize("order", ["as-drawn", "self-loop-first"])
def test_class_with_a_self_loop_member_in_either_edge_order(order):
    lines = list(CLASS_WITH_SELF_LOOP)
    if order == "self-loop-first":
        lines.insert(0, lines.pop(1))
    lts = parse_lts("\n".join(["initial s0", *lines]) + "\n")
    report = synthesize_brac(lts)
    assert report.ok, report.witness
    assert len(report.net.places) == 2
    assert verify_solution(report.net, lts, "brac").ok
