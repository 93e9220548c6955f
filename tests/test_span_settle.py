"""State pairs in the cycle span are settled without a system.

By the state equation R(s) = R0 + psi(s).(F - B), and as F - B is zero on
every cycle vector, no region of any net separates two states whose
Parikh difference lies in the rational span of the cycle basis.
`SystemContext.separable` tests that membership, and
`synthesis._candidates` gives such a pair its candidate tags without
systems.  These tests build what the pipelines no longer build and check
that it is infeasible, and check `separable` against the Fraction
reference of ``tests/reference.py``.
"""

import pathlib

import pytest

import netsynth.synthesis
from netsynth.lts import parse_lts
from netsynth.oracle import random_lts
from netsynth.separation import (SSP, brac_ssp_system_freechoice,
                                 ssp_system_wpi)
from netsynth.synthesis import (_prepare, _region, synthesize_brac,
                                synthesize_wpi)

from reference import cycle_span, in_cycle_span

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# two states share a tree vector: both are reached by one a and one b
SHARED_TREE_VECTOR = "initial s0\ns0 a s1\ns0 b s2\ns1 b s3\ns2 a s4\n"
# two a-edges into s1; the chord s2 -a-> s1 makes b a cycle vector
TWO_A_EDGES_IN = "initial s0\ns0 a s1\ns0 b s2\ns2 a s1\ns2 b s2\n"


def inputs(family: str) -> list:
    if family == "fixture":
        return [parse_lts(p.read_text())
                for p in sorted(FIXTURES.glob("*.lts"))]
    if family == "random_lts":
        return [random_lts(seed, 24, 6) for seed in range(300)]
    if family == "random_lts/331":
        return [random_lts(331, 8, 4)]
    return [random_lts(2655, 16, 4)]


FAMILIES = ("fixture", "random_lts", "random_lts/331", "random_lts/2655")


def settled_candidates(lts, synthesize) -> list:
    """(ctx, graph, reps, brac, pair, tags) of every pair whose candidates
    `_candidates` yields without systems in one run of ``synthesize``."""
    settled = []
    real = netsynth.synthesis._candidates

    def candidates(ctx, graph, reps, brac):
        systems = real(ctx, graph, reps, brac)

        def recorded(problem):
            tags = []
            for tag, system in systems(problem):
                if system is None:
                    tags.append(tag)
                yield tag, system
            if tags:
                settled.append((ctx, graph, reps, brac, problem, tags))
        return recorded
    netsynth.synthesis._candidates = candidates
    try:
        synthesize(lts)
    finally:
        netsynth.synthesis._candidates = real
    return settled


@pytest.mark.parametrize("family", FAMILIES)
def test_every_settled_candidate_has_no_region(family):
    """Each candidate system of a settled pair, built as the pipeline
    built it before, is infeasible, and its tag is the one reported.
    No fixture reaches a settled pair; every other family does."""
    count = 0
    for lts in inputs(family):
        for synthesize in (synthesize_wpi, synthesize_brac):
            for ctx, graph, reps, brac, ssp, tags in \
                    settled_candidates(lts, synthesize):
                assert in_cycle_span(lts, ctx.tree, ssp)
                build = brac_ssp_system_freechoice if brac \
                    else ssp_system_wpi
                built = []
                for a in reps:
                    for sign in ("<", ">"):
                        system = build(ctx, graph, ssp, a, sign)
                        assert _region(ctx, system) is None
                        built.append(f"{system.rows.parts[0].tag}:"
                                     f"{lts.labels[a]}:{sign}")
                assert tags == built
                count += 1
    assert (count > 0) is (family != "fixture")


@pytest.mark.parametrize("family", FAMILIES)
def test_separable_matches_the_fraction_reference(family):
    outside = inside = 0
    for lts in inputs(family):
        ctx = _prepare(lts)
        span = cycle_span(lts, ctx.tree)
        for i in range(len(lts.states)):
            for j in range(i + 1, len(lts.states)):
                ssp = SSP(i, j)
                spanned = in_cycle_span(lts, ctx.tree, ssp, span)
                assert ctx.separable(ssp) is not spanned, (lts.states, ssp)
                inside += spanned
                outside += not spanned
    assert inside and outside


class TestHandBuilt:
    """Three small inputs: two settled pairs and a separable one."""

    @staticmethod
    def run_without_ssp_systems(lts, monkeypatch):
        def refuse(*args):
            raise AssertionError("a state-separation system was built")
        monkeypatch.setattr("netsynth.synthesis.ssp_system_wpi", refuse)
        monkeypatch.setattr(
            "netsynth.synthesis.brac_ssp_system_freechoice", refuse)
        return synthesize_wpi(lts).witness, synthesize_brac(lts).witness

    def test_states_sharing_a_tree_vector(self, monkeypatch):
        """s3 and s4 share the tree vector a + b; the witnesses are
        those the pipelines gave when they solved the pair's systems."""
        lts = parse_lts(SHARED_TREE_VECTOR)
        ctx = _prepare(lts)
        assert ctx.tree.parikh[3] == ctx.tree.parikh[4]
        assert not ctx.separable(SSP(3, 4))
        wpi, brac = self.run_without_ssp_systems(lts, monkeypatch)
        assert wpi == {"kind": "ssp", "states": ["s3", "s4"],
                       "systems_tried": ["ssp:s3:s4:a:<", "ssp:s3:s4:a:>",
                                         "ssp:s3:s4:b:<", "ssp:s3:s4:b:>"]}
        assert brac == {"kind": "ssp", "states": ["s3", "s4"],
                        "systems_tried": ["freechoice:all-labels"]}

    def test_two_a_edges_into_one_state(self, monkeypatch):
        """s0 and s2 both reach s1 by a, so b is a cycle vector and
        psi(s2) - psi(s0) = b lies in the span."""
        lts = parse_lts(TWO_A_EDGES_IN)
        ctx = _prepare(lts)
        assert not ctx.separable(SSP(0, 2))
        assert ctx.separable(SSP(0, 1)) and ctx.separable(SSP(1, 2))
        wpi, brac = self.run_without_ssp_systems(lts, monkeypatch)
        assert wpi == {"kind": "ssp", "states": ["s0", "s2"],
                       "systems_tried": ["ssp:s0:s2:a:<", "ssp:s0:s2:a:>"]}
        assert brac == {"kind": "ssp", "states": ["s0", "s2"],
                        "systems_tried": ["freechoice:all-labels"]}

    def test_separable_pair_is_not_settled(self):
        """``random_lts(245, 24, 6)`` is acyclic, so only equal tree
        vectors are in its span; its pair (s1, s2) is not, and both
        pipelines build its first candidate and pool its region."""
        lts = random_lts(245, 24, 6)
        ctx = _prepare(lts)
        assert ctx.basis == []
        assert ctx.separable(SSP(1, 2))
        assert not in_cycle_span(lts, ctx.tree, SSP(1, 2))
        for synthesize in (synthesize_wpi, synthesize_brac):
            assert settled_candidates(lts, synthesize) == []
            assert synthesize(lts).ok
