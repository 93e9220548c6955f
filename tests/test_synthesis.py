import fractions
import functools
import hashlib
import itertools
import json
import pathlib

import pytest

import netsynth.linsys
import netsynth.synthesis
from netsynth.cli import run
from netsynth.linsys import LinearSystem, Row, Rows, make_row, solve_integer
from netsynth.lts import Lts, LtsError, parse_lts, serialize_lts, validate
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import (CapExceeded, classify_net, isomorphic,
                            parse_net, reachability_graph, realises,
                            serialize_net)
from netsynth.relations import (Contradiction, MatchingFailure,
                                build_relation_graph)
from netsynth.separation import (ESSP, Region, SSP, StatePartition,
                                 SystemContext, brac_block_systems,
                                 brac_ssp_system_freechoice,
                                 essp_system_wpi, normalize_region)
from netsynth.synthesis import (SynthesisConfig, _prepare,
                                relation_stage, synthesize_brac,
                                synthesize_wpi, verify_solution)

from reference import (OracleBound, brute_force_region,
                       enumerate_separation_problems, evaluate,
                       satisfied_by, state_pairs, w_in)
from test_lts import one_edge_removed

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def consume_vector(net, label):
    t = net.transitions.index(label)
    return tuple(w_in(net, p, t) for p in range(len(net.places)))


def selfloop_product() -> str:
    """The product of two copies of case6b's self-loop pattern, as text."""
    lines = ["initial s00"]
    for j in range(3):
        lines += [f"s0{j} a s1{j}", f"s1{j} a s2{j}", f"s2{j} b s1{j}",
                  f"s1{j} c s1{j}", f"s2{j} c s2{j}"]
    for i in range(3):
        lines += [f"s{i}0 d s{i}1", f"s{i}1 d s{i}2", f"s{i}2 e s{i}1",
                  f"s{i}1 f s{i}1", f"s{i}2 f s{i}2"]
    return "\n".join(lines)


def presets_disjoint(net, x, y):
    wx, wy = consume_vector(net, x), consume_vector(net, y)
    return all(a == 0 or b == 0 for a, b in zip(wx, wy))


def preset_strictly_below(net, x, y):
    wx, wy = consume_vector(net, x), consume_vector(net, y)
    return all(a <= b for a, b in zip(wx, wy)) and wx != wy


class TestWpi:
    def test_fig1_success(self, fig1):
        report = synthesize_wpi(fig1)
        assert report.ok
        assert report.verification.ok
        assert "WPI" in report.verification.classes
        rg = reachability_graph(report.net)
        assert len(rg.states) == 15 and len(rg.edges) == 24

    def test_genx_fails_at_relations(self, genx):
        report = synthesize_wpi(genx)
        assert report.outcome == "failure"
        assert report.witness["kind"] == "contradiction"
        assert set(report.witness["labels"]) == {"a", "b"}

    def test_case6a_disjoint_presets(self, case6a):
        report = synthesize_wpi(case6a)
        assert report.ok
        assert presets_disjoint(report.net, "b", "c")

    def test_case6b_included_presets(self, case6b):
        report = synthesize_wpi(case6b)
        assert report.ok
        assert preset_strictly_below(report.net, "c", "b")
        assert ("c", "b", "included") in report.interpretation

    def test_case6b_label_order_immaterial(self):
        # the doi direction must not depend on which label interns first
        loop_last = parse_lts("initial s0\ns0 a s1\ns1 a s2\ns2 b s1\n"
                              "s1 c s1\ns2 c s2\n")
        loop_first = parse_lts("initial s0\ns0 a s1\ns1 c s1\ns1 a s2\n"
                               "s2 b s1\ns2 c s2\n")
        assert loop_last.labels == ("a", "b", "c")
        assert loop_first.labels == ("a", "c", "b")
        for variant in (loop_last, loop_first):
            report = synthesize_wpi(variant)
            assert report.ok
            assert preset_strictly_below(report.net, "c", "b")

    def test_equivalent_labels_share_preset_columns(self, fig1):
        report = synthesize_wpi(fig1)
        assert consume_vector(report.net, "e") == \
            consume_vector(report.net, "f")

    def test_selfloop_cap(self, case6b):
        cfg = SynthesisConfig(selfloop_cap=1)
        assert synthesize_wpi(case6b, cfg).ok

    def test_selfloop_cap_exceeded_on_product(self):
        # two independent copies of the self-loop pattern leave two
        # unresolved doi edges, one more than the cap allows
        lts = parse_lts(selfloop_product())
        report = synthesize_wpi(lts, SynthesisConfig(selfloop_cap=1))
        assert report.outcome == "cap-exceeded"
        assert report.cap == "selfloop-cap"
        full = synthesize_wpi(lts)
        assert full.ok
        assert ("c", "b", "included") in full.interpretation
        assert ("f", "e", "included") in full.interpretation
        assert full.interpretations_tried == 4

    def test_invalid_lts_rejected(self):
        lts = parse_lts("initial s0\ns0 a s1\ns0 a s2\n")
        with pytest.raises(ValueError, match="deterministic"):
            synthesize_wpi(lts)

    def test_determinism(self, fig1):
        first = synthesize_wpi(fig1)
        second = synthesize_wpi(fig1)
        assert serialize_net(first.net) == serialize_net(second.net)
        assert first.to_json(fig1.labels) == second.to_json(fig1.labels)


class TestBrac:
    def test_fig1_success(self, fig1):
        report = synthesize_brac(fig1)
        assert report.ok
        assert "BRAC" in report.verification.classes
        assert "WPI" in report.verification.classes

    def test_brac7_forced_inclusion(self, brac7):
        report = synthesize_brac(brac7)
        assert report.ok
        assert preset_strictly_below(report.net, "c", "e")
        assert ("c", "e") in report.inclusion_candidates
        assert report.matching == {"c": "e"}

    def test_freechoice_systems_read_the_matched_graph(self, brac7,
                                                       monkeypatch):
        # the pooled places separate every state pair of brac7, so regions
        # are made to solve no state pair and the free-choice stage, which
        # runs after the matching, is reached; the stream of unseparated
        # pairs would hold none, so the reference enumeration feeds it
        graphs = []
        real_system = netsynth.synthesis.brac_ssp_system_freechoice
        real_solves = Region.solves

        def system(ctx, graph, *args):
            graphs.append(graph)
            return real_system(ctx, graph, *args)
        monkeypatch.setattr(
            "netsynth.synthesis.brac_ssp_system_freechoice", system)
        monkeypatch.setattr(
            Region, "solves",
            lambda region, p: not isinstance(p, SSP)
            and real_solves(region, p))
        monkeypatch.setattr(StatePartition, "pairs",
                            lambda partition, regions: state_pairs(brac7))
        assert synthesize_brac(brac7).matching == {"c": "e"}
        c, e = brac7.labels.index("c"), brac7.labels.index("e")
        assert graphs
        for graph in graphs:
            assert graph.doi_edges() == []
            assert (c, e) in graph.included_edges()

    def test_case6a_success_disjoint(self, case6a):
        report = synthesize_brac(case6a)
        assert report.ok
        assert presets_disjoint(report.net, "b", "c")

    def test_case6b_not_plain_solvable(self, case6b):
        # the only solutions need an arc weight of two; with weights
        # capped at one the target label pair has no admissible region
        report = synthesize_brac(case6b)
        assert report.outcome == "failure"
        assert report.witness["kind"] == "essp"

    def test_genx_fails(self, genx):
        report = synthesize_brac(genx)
        assert report.outcome == "failure"
        assert report.witness["kind"] == "contradiction"

    def test_determinism(self, brac7):
        first = synthesize_brac(brac7)
        second = synthesize_brac(brac7)
        assert serialize_net(first.net) == serialize_net(second.net)

    def test_report_json_stable(self, brac7):
        import json
        r1 = json.dumps(synthesize_brac(brac7).to_json(brac7.labels),
                        sort_keys=True)
        r2 = json.dumps(synthesize_brac(brac7).to_json(brac7.labels),
                        sort_keys=True)
        assert r1 == r2


class TestVerify:
    def test_fig1_fixture_net(self, fig1, fig1_net):
        record = verify_solution(fig1_net, fig1, "brac")
        assert record.ok and record.isomorphic
        assert {"BRAC", "RAC", "WPI"} <= record.classes

    def test_brac7_fixture_net(self, brac7, brac7_net):
        record = verify_solution(brac7_net, brac7, "brac")
        assert record.ok

    def test_wrong_lts_mismatch(self, genx, fig1_net):
        record = verify_solution(fig1_net, genx, "wpi")
        assert not record.isomorphic

    TWO_STATES = "initial s0\ns0 a s1\n"

    def test_two_edges_of_one_label_are_not_verified(self):
        # the net's one a edge would pair with the last a edge of s0
        net = parse_net("place p 1\ntransition a\narc p a\n")
        lts = Lts(states=("s0", "s1"), labels=("a",),
                  edges=((0, 0, 0), (0, 0, 1)), initial=0)
        record = verify_solution(net, lts, "wpi")
        assert not record.isomorphic and not record.ok
        assert record.mismatch == "nondeterministic system"

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_repeated_edge_is_invalid_input(self, synthesize):
        # an identical repeated edge is refused as input, not synthesised
        # into a net that then fails verification
        lts = Lts(states=("s0", "s1"), labels=("a", "b"),
                  edges=((0, 0, 1), (0, 0, 1), (1, 1, 0)), initial=0)
        with pytest.raises(LtsError, match="deterministic"):
            synthesize(lts)

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_label_on_no_edge_is_invalid_input(self, synthesize):
        # refused as input, not synthesised into a net whose graph then
        # lacks the label ("label sets differ")
        lts = Lts(states=("s0", "s1"), labels=("a", "b", "c"),
                  edges=((0, 0, 1), (1, 1, 0)), initial=0)
        with pytest.raises(LtsError, match="^label 'c' is on no edge$"):
            synthesize(lts)

    def test_one_edge_removed_graphs(self):
        """Each graph of ``random_brac_net(0..29)`` less one edge is
        refused or synthesised; no run ends in "label sets differ"."""
        refused = accepted = 0
        for lts, _ in one_edge_removed(range(30)):
            if not validate(lts).ok:
                for synthesize in (synthesize_wpi, synthesize_brac):
                    with pytest.raises(LtsError):
                        synthesize(lts)
                refused += 1
                continue
            for synthesize in (synthesize_wpi, synthesize_brac):
                report = synthesize(lts)
                assert report.witness is None or \
                    report.witness.get("detail") != "label sets differ"
            accepted += 1
        assert refused > 0 and accepted > 0

    def test_unbounded_net_is_a_state_count_mismatch(self):
        # the graph is explored to |S| + 1 markings, never to exhaustion
        net = parse_net("place p 0\ntransition a\narc a p\n")
        record = verify_solution(net, parse_lts(self.TWO_STATES), "wpi")
        assert not record.isomorphic and not record.ok
        assert record.mismatch == "state counts differ"
        assert record.classes == classify_net(net)

    @pytest.mark.parametrize("tokens, reason",
                             [(2, "enabled labels differ"),
                              (3, "state counts differ")],
                             ids=["S+1-markings", "S+2-markings"])
    def test_bound_is_one_past_the_state_count(self, tokens, reason):
        # p holding k tokens gives a chain of k + 1 markings; the full
        # graph of either net first diverges by enabled labels at m1
        lts = parse_lts(self.TWO_STATES)
        net = parse_net(f"place p {tokens}\ntransition a\narc p a\n")
        full = isomorphic(lts, reachability_graph(net))
        assert full.reason == "enabled labels differ"
        assert len(reachability_graph(net).states) == len(lts.states) \
            + tokens - 1
        record = verify_solution(net, lts, "wpi")
        assert not record.isomorphic
        assert record.mismatch == reason

    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "prune"])
    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac],
                             ids=["wpi", "brac"])
    def test_accepted_net_builds_no_graph(self, synthesize, prune,
                                          monkeypatch):
        """Firing the net along the input accepts it without a
        reachability graph: an accepted run builds none and verifies one
        net, and with pruning one more, the kept net; the candidates are
        decided by the walk alone."""
        graphs, records = [], []
        real_graph = netsynth.synthesis.reachability_graph
        real_verify = netsynth.synthesis.verify_solution

        def reachability_graph(net, cap):
            graphs.append(cap)
            return real_graph(net, cap)

        def verify_solution(net, lts, target_class):
            records.append(real_verify(net, lts, target_class))
            return records[-1]
        monkeypatch.setattr(netsynth.synthesis, "reachability_graph",
                            reachability_graph)
        monkeypatch.setattr(netsynth.synthesis, "verify_solution",
                            verify_solution)
        accepted = 0
        for name, lts in TestPoolHoldsNoRegionTwice.inputs():
            graphs.clear()
            records.clear()
            if synthesize(lts, SynthesisConfig(prune=prune)).ok:
                assert not graphs, name
                assert len(records) == 1 + prune, name
                assert all(r.ok for r in records), name
                accepted += 1
        assert accepted > 0

    def test_soundness_on_every_success(self, fig1, case6a, case6b, brac7):
        for lts, run in ((fig1, synthesize_wpi), (fig1, synthesize_brac),
                         (case6a, synthesize_wpi), (case6a, synthesize_brac),
                         (case6b, synthesize_wpi), (brac7, synthesize_brac),
                         (brac7, synthesize_wpi)):
            report = run(lts)
            if report.ok:
                check = verify_solution(report.net, lts,
                                        report.target_class)
                assert check.ok


class TestProductBehaviour:
    def test_two_concurrent_forced_inclusions(self, brac7_net):
        # disjoint union of two forced-inclusion nets: the product
        # behaviour needs two doi edges matched at once
        from netsynth.petri import PetriNet, reachability_graph
        base = brac7_net
        np_, nt = len(base.places), len(base.transitions)
        consume, produce = {}, {}
        for (p, t), w in base.consume.items():
            consume[(p, t)] = w
            consume[(p + np_, t + nt)] = w
        for (t, p), w in base.produce.items():
            produce[(t, p)] = w
            produce[(t + nt, p + np_)] = w
        union = PetriNet(
            tuple(f"{p}_1" for p in base.places)
            + tuple(f"{p}_2" for p in base.places),
            tuple(f"{t}_1" for t in base.transitions)
            + tuple(f"{t}_2" for t in base.transitions),
            consume, produce, base.m0 + base.m0)
        rg = reachability_graph(union, 5000)
        assert len(rg.states) == 64
        report = synthesize_brac(rg)
        assert report.ok
        assert report.matching == {"c_1": "e_1", "c_2": "e_2"}
        assert preset_strictly_below(report.net, "c_1", "e_1")
        assert preset_strictly_below(report.net, "c_2", "e_2")


class TestRandomInstances:
    def test_soundness_and_class_inclusion_on_random_lts(self):
        from netsynth.oracle import random_lts
        for seed in range(60):
            lts = random_lts(seed, 7, 3)
            wpi = synthesize_wpi(lts)
            brac = synthesize_brac(lts)
            for report in (wpi, brac):
                if report.ok:
                    assert report.verification.ok, seed
            # a block-reduced solution is in particular comparable-preset
            if brac.ok:
                assert wpi.ok, seed


class TestFailureWitnesses:
    def test_genx_witnessed_problems_oracle_unsolvable(self, genx):
        # the named unsolvable problems really have no bounded region
        s2 = genx.states.index("s2")
        s3 = genx.states.index("s3")
        s7 = genx.states.index("s7")
        b = genx.labels.index("b")
        assert brute_force_region(genx, ESSP(s2, b), OracleBound(3)) is None
        assert brute_force_region(genx, SSP(s3, s7), OracleBound(3)) is None

    def test_case6b_brac_witness_oracle_check(self, case6b):
        report = synthesize_brac(case6b)
        assert report.outcome == "failure"
        state = case6b.states.index(report.witness["state"])
        label = case6b.labels.index(report.witness["label"])
        # no plain region (weights up to 1) solves the witnessed problem
        # alongside the forced-disjoint relation rows; bound 1 mirrors that
        from netsynth.lts import spanning_tree
        tree = spanning_tree(case6b)
        found = brute_force_region(case6b, ESSP(state, label),
                                   OracleBound(1))
        if found is not None:
            c = case6b.labels.index("c")
            assert found.b[c] > 0  # only non-disjoint regions remain


class TestSeparate:
    def test_yields_unsolved_and_pools_later_problems(self):
        from netsynth.synthesis import _separate
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\n")
        ctx = _prepare(lts)

        def systems(problem):
            row = ctx.essp_row(problem) if isinstance(problem, ESSP) \
                else ctx.ssp_row(problem, "<")
            yield row.tag, ctx.system([row, *ctx.base_rows()])

        pool = []
        # a is enabled at s0, so its event separation there is infeasible
        problems = [ESSP(0, 0), SSP(0, 1), SSP(0, 2), SSP(1, 2)]
        unsolved = list(_separate(ctx, pool, problems, systems))
        assert unsolved == [(ESSP(0, 0), ["essp:s0:a"])]
        assert pool
        assert all(any(r.solves(p) for r in pool) for p in problems[1:])
        assert all(r.is_valid(lts) for r in pool)


class TestBlockAssignment:
    """Direct checks of the state-separation-to-block assignment search.

    No fixture reaches this stage (free-choice places cover their
    separations); ``random_lts(331, 8, 4)`` does, and ``TestRareBracExits``
    pins its report.  Here the search is driven with manufactured
    leftovers.
    """

    def _pipeline_state(self, brac7):
        from netsynth.lts import cycle_basis, spanning_tree
        from netsynth.relations import (build_relation_graph,
                                        quotient_by_equivalence,
                                        strengthen_brac, strengthen_wpi)
        from netsynth.separation import (SystemContext, brac_block_systems)
        from netsynth.synthesis import _Block, _region
        tree = spanning_tree(brac7)
        basis = cycle_basis(brac7, tree)
        ctx = SystemContext(brac7, tree, basis)
        graph, _ = quotient_by_equivalence(build_relation_graph(brac7))
        graph = strengthen_brac(strengthen_wpi(graph))
        pool = []
        b, d = brac7.labels.index("b"), brac7.labels.index("d")
        sys1, sys2 = brac_block_systems(ctx, graph, (b, d))
        indices = []
        for system in (sys1, sys2):
            region = _region(ctx, system)
            assert region is not None
            indices.append(len(pool))
            pool.append(region)
        return ctx, pool, [_Block((b, d), (sys1, sys2), indices)]

    def test_assignment_absorbs_real_pair(self, brac7):
        from netsynth.separation import SSP
        from netsynth.synthesis import (SynthesisConfig,
                                        _assign_ssps_to_blocks)
        ctx, pool, blocks = self._pipeline_state(brac7)
        ssp = SSP(brac7.states.index("s0"), brac7.states.index("s1"))
        cfg = SynthesisConfig()
        assert _assign_ssps_to_blocks(ctx, pool, blocks, [ssp], cfg)
        assert any(r.solves(ssp) for r in pool)
        assert all(r.is_valid(ctx.lts) for r in pool)
        assert len(set(pool)) == len(pool)

    def test_assignment_failure_witnessed(self, brac7):
        from netsynth.separation import SSP
        from netsynth.synthesis import (SynthesisConfig,
                                        _assign_ssps_to_blocks)
        ctx, pool, blocks = self._pipeline_state(brac7)
        before = list(pool)
        # a pair with zero Parikh difference can never be separated
        hopeless = SSP(brac7.states.index("s1"), brac7.states.index("s1"))
        cfg = SynthesisConfig()
        assert _assign_ssps_to_blocks(ctx, pool, blocks, [hopeless],
                                      cfg) is False
        assert pool == before

    def test_assignment_combo_cap(self, brac7):
        from netsynth.separation import SSP
        from netsynth.synthesis import (SynthesisConfig, _Unsolvable,
                                        _assign_ssps_to_blocks)
        ctx, pool, blocks = self._pipeline_state(brac7)
        hopeless = SSP(brac7.states.index("s1"), brac7.states.index("s1"))
        cfg = SynthesisConfig(ssp_combo_cap=2)
        with pytest.raises(_Unsolvable) as outcome:
            _assign_ssps_to_blocks(ctx, pool, blocks, [hopeless], cfg)
        assert outcome.value.cap == "ssp-combo-cap"
        assert outcome.value.witness is None


class TestPoolHoldsNoRegionTwice:
    """Nothing deduplicates the pool: a region is pooled only for a problem
    no pooled region solves, and regions of different BRAC stages consume
    different labels.  So no report lists a region twice.

    The inputs are those of the report digests, the ``gate`` family
    included: the two graphs of ``random_lts(0..599, 24, 6)`` whose BRAC
    success keeps the event separation regions of an unmatched doi
    target.
    """

    @staticmethod
    def inputs():
        from test_report_digests import family_inputs
        for family in ("fixture", "random_lts", "random_brac_net", "gate"):
            for name, text in family_inputs(family).items():
                yield name, parse_lts(text)

    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "prune"])
    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac],
                             ids=["wpi", "brac"])
    def test_report_regions_distinct(self, synthesize, prune):
        cfg = SynthesisConfig(prune=prune)
        listed = 0
        for name, lts in self.inputs():
            regions = synthesize(lts, cfg).regions
            assert len(set(regions)) == len(regions), name
            listed += len(regions)
        assert listed


class TestPrune:
    def test_prune_keeps_verification(self, fig1):
        cfg = SynthesisConfig(prune=True)
        report = synthesize_brac(fig1, cfg)
        assert report.ok and report.verification.ok
        baseline = synthesize_brac(fig1)
        assert len(report.regions) <= len(baseline.regions)

    def test_prune_off_by_default(self):
        assert SynthesisConfig().prune is False

    @pytest.mark.parametrize("pipeline", ["wpi", "brac"])
    def test_unverified_pruned_net_is_an_internal_error(
            self, pipeline, fig1, monkeypatch, tmp_path, capsys):
        """A pruned net that fails verification is never reported: with
        verification failing on every net with fewer places than the
        unpruned one, ``synth --prune`` exits 4 and writes no net."""
        synthesize = {"wpi": synthesize_wpi, "brac": synthesize_brac}
        places = len(synthesize[pipeline](fig1).regions)
        assert len(synthesize[pipeline](
            fig1, SynthesisConfig(prune=True)).regions) < places
        real = netsynth.synthesis.verify_solution

        def verify_solution(net, lts, target_class):
            record = real(net, lts, target_class)
            return record if len(net.places) >= places \
                else record._replace(target_ok=False)
        monkeypatch.setattr(netsynth.synthesis, "verify_solution",
                            verify_solution)
        out = tmp_path / "out.pn"
        assert run(["synth", str(FIXTURES / "fig1.lts"), "--class",
                    pipeline, "--prune", "-o", str(out)]) == 4
        assert "internal error: AssertionError" in capsys.readouterr().err
        assert not out.exists()


def prune_inputs() -> dict:
    """Name -> LTS of every input ``prune_digests.json`` pins."""
    from test_report_digests import PRUNE_DIGESTS, SCALE_NETS, family_inputs
    inputs = {name: parse_lts(text)
              for family in ("fixture", "random_brac_net", "gate")
              for name, text in family_inputs(family).items()}
    inputs["scale/1296"] = reachability_graph(
        random_brac_net(SCALE_NETS[1296], 6, 4), 100_000)
    assert sorted(f"{pipeline}/{name}" for pipeline in ("brac", "wpi")
                  for name in inputs) == sorted(PRUNE_DIGESTS)
    return inputs


@functools.cache
def pruned_runs() -> tuple:
    """Per `prune_inputs` input and pipeline: the name, the LTS, the
    pruned report, the net before pruning and every net the prune step
    built (its candidates, then the kept net); a failure has neither."""
    real_build = netsynth.synthesis.net_from_regions
    real_prune = netsynth.synthesis._maybe_prune
    built: list = []
    unpruned: list = []

    def net_from_regions(labels, places):
        net = real_build(labels, places)
        if unpruned:
            built.append(net)
        return net

    def maybe_prune(report, lts, cfg):
        unpruned.append(report.net)
        return real_prune(report, lts, cfg)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netsynth.synthesis, "net_from_regions", net_from_regions)
        mp.setattr(netsynth.synthesis, "_maybe_prune", maybe_prune)
        for name, lts in prune_inputs().items():
            for synthesize in (synthesize_wpi, synthesize_brac):
                built.clear()
                unpruned.clear()
                pruned = synthesize(lts, SynthesisConfig(prune=True))
                runs.append((name, lts, pruned, unpruned[0] if unpruned
                             else None, tuple(built)))
    return tuple(runs)


class TestPruneByWalk:
    """The prune step decides each candidate by `realises` alone.

    That is exact because the walk agrees with the isomorphism check and
    the target classes are closed under deleting a place, so the class
    check `verify_solution` adds cannot reject a candidate.  Both facts
    are checked here, against full verification as the reference.
    """

    @staticmethod
    def graph_verdict(net, lts, target_class) -> bool:
        """Verification without the walk: the reachability graph, explored
        to |S| + 1 markings, is isomorphic to ``lts``, and the net lies in
        the target class."""
        try:
            graph = reachability_graph(net, len(lts.states) + 1)
        except CapExceeded:
            return False
        return isinstance(isomorphic(lts, graph), dict) \
            and target_class.upper() in classify_net(net)

    def test_walk_matches_verification(self):
        """On every net the prune step builds, the walk agrees with
        `verify_solution` and with verification by the graph, which does
        not rest on the walk."""
        verdicts = {True: 0, False: 0}
        for name, lts, pruned, _, built in pruned_runs():
            assert built or not pruned.ok, name
            for net in built:
                walk = realises(net, lts)
                target = pruned.target_class
                assert walk == verify_solution(net, lts, target).ok \
                    == self.graph_verdict(net, lts, target), \
                    (name, net.places)
                verdicts[walk] += 1
        # both verdicts occur, so neither side is trivially constant
        assert verdicts[True] and verdicts[False]

    @staticmethod
    def nets(source: str):
        """Name and net of each net the closure lemma is checked on."""
        if source == "fixture":
            for path in sorted(FIXTURES.glob("*.pn")):
                yield path.stem, parse_net(path.read_text())
        elif source == "random_brac_net":
            for i in range(100):
                yield f"random_brac_net/{i}", random_brac_net(i)
        else:
            for name, _, pruned, unpruned, _ in pruned_runs():
                if pruned.ok:
                    yield f"{pruned.target_class}/{name}", unpruned
                    yield f"{pruned.target_class}/{name}/pruned", pruned.net

    @pytest.mark.parametrize("source",
                             ["fixture", "random_brac_net", "synthesised"])
    def test_deleting_a_place_keeps_the_class(self, source):
        from test_verification_digests import without_place
        checked = {"wpi": 0, "brac": 0}
        for name, net in self.nets(source):
            for target in checked:
                if target.upper() not in classify_net(net):
                    continue
                lost = [net.places[p] for p in range(len(net.places))
                        if target.upper()
                        not in classify_net(without_place(net, p))]
                assert not lost, (name, target, lost)
                checked[target] += 1
        assert checked["wpi"] and checked["brac"]


class TestBracIntegerSearch:
    """Branch-and-bound decides BRAC 0/1 systems and never branches on R0.

    In these systems B and F are 0/1, and R0 appears only in edge rows,
    which bound it from below, and in ESSP rows, which bound it from above;
    cycle, tie, fixing and SSP rows are free of it.  An edge row at state s
    reads R0 >= B_t + psi(s).(B - F), which is at most 1 + depth(s).
    Lowering R0 of any solution to its largest lower bound (or 0) keeps
    every row, so some solution has R0 <= tree depth + 1 <= |S|, and
    enumerating R0 in [0, |S|] with B, F in {0, 1} is an exact oracle.
    """

    @staticmethod
    def brute_force(system, n_states):
        binary = sorted(system.zero_one)
        assert set(range(system.columns)) == {0, *binary}  # column 0 is R0
        # rows without R0 decide a weight choice before R0 is enumerated
        weight_rows = [r for r in system.rows
                       if all(j != 0 for j, _ in r.coeffs)]
        for bits in itertools.product((0, 1), repeat=len(binary)):
            values = [0] * system.columns
            for j, bit in zip(binary, bits):
                values[j] = bit
            if not all(evaluate(r, values) for r in weight_rows):
                continue
            for r0 in range(n_states + 1):
                values[0] = r0
                if satisfied_by(system, values):
                    return True
        return False

    @staticmethod
    def brac_systems(lts):
        """Every ESSP, block and free-choice system of the BRAC pipeline."""
        ctx = _prepare(lts)
        graph = relation_stage(build_relation_graph(lts), brac=True)
        if isinstance(graph, Contradiction):
            return []
        reps = sorted(graph.classes)
        doi_pairs = graph.doi_edges()
        all_disjoint = graph.resolved(doi_pairs)
        systems = []
        for pair in graph.included_edges() + doi_pairs:
            systems += brac_block_systems(ctx, graph, pair)
        for problem in enumerate_separation_problems(lts):
            if isinstance(problem, SSP):
                systems += [brac_ssp_system_freechoice(ctx, graph, problem,
                                                       a, sign)
                            for a in reps for sign in ("<", ">")]
            elif problem.label in reps:
                systems.append(essp_system_wpi(ctx, all_disjoint, problem,
                                               zero_one=True))
        return systems

    def test_search_matches_brute_force(self, monkeypatch):
        real = netsynth.linsys.solve_rational
        branches = []

        def record(system):
            branches.extend(p for p in system.rows.parts
                            if isinstance(p, Row)
                            and p.tag.startswith("branch-"))
            return real(system)
        monkeypatch.setattr("netsynth.linsys.solve_rational", record)
        verdicts = []
        for seed in range(40):
            lts = random_lts(seed, 6, 3)
            for system in self.brac_systems(lts):
                feasible = solve_integer(system).feasible
                assert feasible == self.brute_force(system,
                                                    len(lts.states)), \
                    (seed, system.rows.parts[0].tag)
                verdicts.append(feasible)
        assert len(verdicts) == 779
        # both verdicts occur, so neither side is trivially constant
        assert True in verdicts and False in verdicts
        assert branches and all(row.coeffs[0][0] != 0 for row in branches)

    def test_pipeline_never_branches_outside_zero_one(self, monkeypatch):
        # `_region` solves these systems with no bound row on R0: at every
        # node whose 0/1 columns are integral, R0 must be integral too.
        # Each search's nodes and pivots show the pivot limit's headroom.
        real = netsynth.linsys.solve_rational
        real_search = netsynth.synthesis.solve_integer
        feasible, nodes, searches = [], [], []

        def search(system):
            first = len(nodes)
            solution = real_search(system)
            searches.append((len(nodes) - first, solution.pivots))
            return solution

        def check(system):
            nodes.append(system)
            solution = real(system)
            others = set(range(system.columns)) - system.zero_one
            assert len(others) == 1
            if solution.feasible:
                num, den = solution.num, solution.den
                if all(num[j] % den == 0 for j in system.zero_one):
                    assert all(num[j] % den == 0 for j in others)
                feasible.append(solution)
            return solution
        monkeypatch.setattr("netsynth.linsys.solve_rational", check)
        monkeypatch.setattr("netsynth.synthesis.solve_integer", search)
        inputs = [parse_lts(p.read_text())
                  for p in sorted(FIXTURES.glob("*.lts"))]
        inputs += [random_lts(seed, 24, 6) for seed in range(300)]
        inputs += [reachability_graph(random_brac_net(i), 2000)
                   for i in range(100)]
        for lts in inputs:
            synthesize_brac(lts)
        assert len(feasible) == 886
        assert searches and all(
            n <= 3 and pivots < netsynth.linsys._MAX_PIVOTS // 1000
            for n, pivots in searches)


def _fail_matching(monkeypatch):
    monkeypatch.setattr(
        "netsynth.synthesis.resolve_inclusion_matching",
        lambda lam: MatchingFailure(tuple(sorted({lo for lo, _ in lam}))))


def _fail_matched_private_block(monkeypatch):
    # (c, e) is a doi pair of brac7: its shared system serves the inclusion
    # probe, and only the matched-block stage solves its private system
    real = netsynth.synthesis.brac_block_systems

    def blocks(ctx, graph, pair):
        shared, private = real(ctx, graph, pair)
        if [ctx.lts.labels[x] for x in pair] == ["c", "e"]:
            never = (make_row({0: 1}, ">=", 1), make_row({0: 1}, "<=", 0))
            private = LinearSystem(private.columns, private.rows.parts + never,
                                   private.zero_one)
        return shared, private
    monkeypatch.setattr("netsynth.synthesis.brac_block_systems", blocks)


def _fail_verification(monkeypatch):
    real = netsynth.synthesis.verify_solution
    monkeypatch.setattr("netsynth.synthesis.verify_solution",
                        lambda *args: real(*args)._replace(target_ok=False))


class TestRareBracExits:
    """Report bytes of the BRAC exits that no digest input reaches.

    On the fixtures and ``random_lts(0..299, 24, 6)`` the BRAC pipeline
    ends only at a contradiction, an ``essp`` or ``essp-block`` witness,
    free-choice leftovers or a success.  Two small random inputs reach the
    inclusion probe and a leftover left to a choice block; brac7 with one
    stage forced to fail reaches the matching, matched-block and
    verification exits.  Each case pins the SHA-256 of its ``synth --report`` bytes.
    """

    CASES = {
        "random_lts/305": (lambda: serialize_lts(random_lts(305, 8, 3)),
                           None, "essp",
                           "ae6f71c5d51684beaefcbadc8da6759d"
                           "19d707ae1c5e018c0e399982d44c2655"),
        "random_lts/331": (lambda: serialize_lts(random_lts(331, 8, 4)),
                           None, "ssp",
                           "4cd722c16d853906e4a6a7dab59236b7"
                           "94fcb29ad5542278976d613c4cceedbf"),
        "brac7/matching": (lambda: (FIXTURES / "brac7.lts").read_text(),
                           _fail_matching, "matching",
                           "b0061a895ceb7ad424f5708d23fece00"
                           "e4072585f3a2b87dfde0448fbd0644ec"),
        "brac7/matched-block": (lambda: (FIXTURES / "brac7.lts").read_text(),
                                _fail_matched_private_block, "essp-block",
                                "4e6b71f932bfce159c80508c5cce8d1a"
                                "49f8c94c5c30a583404368565e38b0bd"),
        "brac7/verification": (lambda: (FIXTURES / "brac7.lts").read_text(),
                               _fail_verification, "verification",
                               "3a106d548fcd5548bbcc42b813a270a8"
                               "10f8eed5549249810f531805af2a5886"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_pinned(self, case, monkeypatch, tmp_path):
        text, force, kind, digest = self.CASES[case]
        lts_file, report = tmp_path / "in.lts", tmp_path / "report.json"
        lts_file.write_text(text())
        if force is not None:
            force(monkeypatch)
        assert run(["synth", str(lts_file), "--class", "brac",
                    "-o", str(tmp_path / "out.pn"),
                    "--report", str(report)]) == 1
        assert json.loads(report.read_text())["witness"]["kind"] == kind
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestRareWpiAndCapExits:
    """Report bytes and exit codes of the WPI exits and cap reports that
    no digest input reaches.

    On the fixtures and ``random_lts(0..299, 24, 6)`` no WPI run fails
    verification or fails after more than one interpretation, and no cap
    report is pinned.  With verification forced to fail, fig1 fails after
    its one interpretation, and brac7 after all 8, reporting the ``essp``
    witness of the all-disjoint one.  The self-loop product exceeds a
    self-loop cap of 1.  ``random_lts(331, 8, 4)`` under a combination
    cap of 2 gives its default report (`TestRareBracExits`), as its
    leftover lies in the cycle span and the search is not entered.  Each
    case pins the SHA-256 of its ``synth --report`` bytes.
    """

    CASES = {
        "wpi/fig1/verification": (
            lambda: (FIXTURES / "fig1.lts").read_text(), "wpi", [],
            _fail_verification, 1,
            "b7f16a3194799614ae60694335c03981"
            "4af565915a609393ffc445138a24e1b8"),
        "wpi/brac7/verification": (
            lambda: (FIXTURES / "brac7.lts").read_text(), "wpi", [],
            _fail_verification, 1,
            "95992e6a5a1f97654e31a4f4294963fd"
            "709bc96afd63e4727f41efbe7df24806"),
        "wpi/product/selfloop-cap": (
            selfloop_product, "wpi", ["--selfloop-cap", "1"], None, 3,
            "19f0b1e2dd6bfa3ebb09699931029607"
            "d6633e22c42f4de5bea6c87167e887db"),
        "brac/random_lts/331/ssp-combo-cap": (
            lambda: serialize_lts(random_lts(331, 8, 4)), "brac",
            ["--ssp-combo-cap", "2"], None, 1,
            "4cd722c16d853906e4a6a7dab59236b7"
            "94fcb29ad5542278976d613c4cceedbf"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_pinned(self, case, monkeypatch, tmp_path):
        text, target, extra, force, code, digest = self.CASES[case]
        lts_file, report = tmp_path / "in.lts", tmp_path / "report.json"
        lts_file.write_text(text())
        if force is not None:
            force(monkeypatch)
        assert run(["synth", str(lts_file), "--class", target,
                    "-o", str(tmp_path / "out.pn"),
                    "--report", str(report), *extra]) == code
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    def test_wpi_verification_exits(self, monkeypatch):
        _fail_verification(monkeypatch)
        fig1 = parse_lts((FIXTURES / "fig1.lts").read_text())
        brac7 = parse_lts((FIXTURES / "brac7.lts").read_text())
        single, every = synthesize_wpi(fig1), synthesize_wpi(brac7)
        assert single.witness["kind"] == "verification"
        assert (single.interpretations_tried, single.regions) == (1, [])
        assert every.witness["kind"] == "essp"
        assert (every.interpretations_tried, every.regions) == (8, [])


RING_REPORT = ("c9c7f2f0e3047af680a57e7f61bf5a9b"
               "0e547ebd786d86bab38e5e0b0bda501f")


class TestFreeChoiceLeftoverExits:
    """Report bytes of BRAC failures at a free-choice leftover.

    These inputs have no asymmetric choice block, so the first state
    separation that no free-choice place solves is the witness.  The ten
    single-label rings of ``random_lts(i, 24, 6)`` give the same report,
    naming s0 and s1; on ``random_lts(2655, 16, 4)`` a free-choice place
    would solve a later pair.  Each case pins the SHA-256 of its
    ``synth --report`` bytes.
    """

    CASES = {
        **{f"random_lts/{i}": (i, 24, 6, RING_REPORT)
           for i in (47, 64, 69, 144, 194, 210, 252, 261, 282, 283)},
        "random_lts/2655": (2655, 16, 4,
                            "000cbc135a4c705fe028816967249fa9"
                            "5e1e4e8bd0cc561f67e2f107dedb5d96"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_pinned(self, case, tmp_path):
        seed, n, k, digest = self.CASES[case]
        lts_file, report = tmp_path / "in.lts", tmp_path / "report.json"
        lts_file.write_text(serialize_lts(random_lts(seed, n, k)))
        assert run(["synth", str(lts_file), "--class", "brac",
                    "-o", str(tmp_path / "out.pn"),
                    "--report", str(report)]) == 1
        witness = json.loads(report.read_text())["witness"]
        assert witness["kind"] == "ssp"
        assert witness["systems_tried"] == ["freechoice:all-labels"]
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


class TestFreeChoiceWork:
    """Free-choice systems BRAC builds before it fails at a leftover.

    Without a choice block the first state separation that no
    free-choice place solves is the failure, so on a single-label ring
    BRAC once built one system per sign for one pair.  With a block, a
    leftover in the cycle span is the failure too, and the block
    assignment search is not entered.  On these three inputs the failing
    pair lies in the span, so it is settled (`SystemContext.separable` is
    False) and no system is built.
    """

    @pytest.mark.parametrize("seed, n, k, assigned", [
        (283, 24, 6, []),
        (47, 24, 6, []),
        (331, 8, 4, []),
    ], ids=["ring-283", "ring-47", "blocks-331"])
    def test_systems_built(self, seed, n, k, assigned, monkeypatch):
        systems, leftovers, settled = [], [], []
        real_system = netsynth.synthesis.brac_ssp_system_freechoice
        real_assign = netsynth.synthesis._assign_ssps_to_blocks
        real_separable = SystemContext.separable

        def system(*args):
            systems.append(args)
            return real_system(*args)

        def assign(ctx, pool, blocks, ssps, *args):
            leftovers.append(list(ssps))
            return real_assign(ctx, pool, blocks, ssps, *args)

        def separable(ctx, ssp):
            found = real_separable(ctx, ssp)
            if not found:
                settled.append([ctx.lts.states[ssp.s1],
                                ctx.lts.states[ssp.s2]])
            return found
        monkeypatch.setattr(
            "netsynth.synthesis.brac_ssp_system_freechoice", system)
        monkeypatch.setattr(
            "netsynth.synthesis._assign_ssps_to_blocks", assign)
        monkeypatch.setattr(SystemContext, "separable", separable)
        report = synthesize_brac(random_lts(seed, n, k))
        assert report.witness["kind"] == "ssp"
        assert systems == []
        assert leftovers == assigned
        assert report.witness["states"] in settled


class TestRelationStageExits:
    """Report and relation-table bytes of the two relation-stage exits
    after the raw graph: a contradiction raised by the equivalence
    quotient, and one raised by the WPI triangle rules.  Each case pins
    the SHA-256 of ``synth --report`` under both pipelines and of
    ``relations --json``; every command exits 1."""

    CASES = {
        994: ("equivalence-conflict", {
            "wpi": "cec3fc4d2e5678f888a57d1b1dd8bf7e"
                   "ff55ce80f659b8afa34a33d001898687",
            "brac": "248cd5329c46582ed0eba55ee960cc52"
                    "c0eee42bfa12d9c7f7e36db72c78246c",
            "relations": "e74f9d034c1dffbe0d6626cb23de2631"
                         "ceb85ee184481f1eb89ebf6d11944cdb"}),
        1836: ("triangle-22", {
            "wpi": "f6152e5b5f03988f6e35f121924d25b0"
                   "f9da2c1a41c0eabc490c0f5079fa9be6",
            "brac": "6c6161a18dcc7797b269e28e4ec0dc49"
                    "10994d7b91d411e770b634ab4fc7a464",
            "relations": "590b36a73025f43a016954753ed24e22"
                         "54a60fe08e16b177d474166aa96f6fa8"}),
    }

    @pytest.mark.parametrize("command", ["wpi", "brac", "relations"])
    @pytest.mark.parametrize("seed", sorted(CASES))
    def test_bytes_pinned(self, seed, command, tmp_path):
        rule, digests = self.CASES[seed]
        lts_file, out = tmp_path / "in.lts", tmp_path / "out.json"
        lts_file.write_text(serialize_lts(random_lts(seed, 12, 5)))
        if command == "relations":
            argv = ["relations", str(lts_file), "--json", str(out)]
        else:
            argv = ["synth", str(lts_file), "--class", command,
                    "-o", str(tmp_path / "out.pn"), "--report", str(out)]
        assert run(argv) == 1
        payload = json.loads(out.read_text())
        found = payload["contradictions"][0] if command == "relations" \
            else payload["witness"]
        assert found["rule"] == rule
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[command]


class TestWithoutFractions:
    """The pipelines solve, lift and read regions in integers alone."""

    @staticmethod
    def report_bytes():
        inputs = [parse_lts(p.read_text())
                  for p in sorted(FIXTURES.glob("*.lts"))]
        inputs += [reachability_graph(random_brac_net(i), 100_000)
                   for i in range(10)]
        inputs += [random_lts(i, 24, 6) for i in range(60)]
        return [json.dumps(synthesize(lts).to_json(lts.labels), indent=2,
                           sort_keys=True)
                for lts in inputs
                for synthesize in (synthesize_wpi, synthesize_brac)]

    def test_same_reports_when_fraction_raises(self, monkeypatch):
        expected = self.report_bytes()

        def no_fraction(*args, **kwargs):
            raise AssertionError("a pipeline built a Fraction")
        # no module of the package imports fractions; this catches a
        # Fraction built anywhere
        monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
        assert self.report_bytes() == expected


class TestContextAfterRelations:
    """A verdict of the relation stage needs no spanning tree, cycle basis
    or system context, and the pipelines build none for it: with all three
    made to raise, every contradiction report keeps its pinned bytes."""

    @staticmethod
    def no_context(monkeypatch):
        def refuse(*args):
            raise AssertionError("a context was built")
        for name in ("SystemContext", "spanning_tree", "cycle_basis"):
            monkeypatch.setattr(f"netsynth.synthesis.{name}", refuse)

    def test_contradiction_reports_pinned(self, monkeypatch, tmp_path):
        from test_report_digests import DIGESTS, family_inputs, report_digest
        self.no_context(monkeypatch)
        lts_file = tmp_path / "in.lts"
        checked = []
        for family in ("fixture", "random_lts", "random_brac_net"):
            for name, text in family_inputs(family).items():
                for pipeline in ("wpi", "brac"):
                    graph = relation_stage(
                        build_relation_graph(parse_lts(text)),
                        brac=pipeline == "brac")
                    if not isinstance(graph, Contradiction):
                        continue
                    lts_file.write_text(text)
                    assert report_digest(pipeline, lts_file, tmp_path) \
                        == DIGESTS[f"{pipeline}/{name}"], name
                    checked.append(f"{pipeline}/{name}")
        assert "wpi/fixture/genx" in checked and "brac/fixture/genx" in checked

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_invalid_lts_still_rejected(self, synthesize, monkeypatch):
        self.no_context(monkeypatch)
        lts = parse_lts("initial s0\ns0 a s1\ns0 a s2\n")
        with pytest.raises(ValueError) as raised:
            synthesize(lts)
        assert str(raised.value) == "LTS must be deterministic and reachable"


class TestSystemsBuiltOnce:
    """Each system is built once, its 0/1 flag included: on the inputs of
    ``test_trace_counts.py`` no pipeline hands the `Rows` of a built
    system back to `SystemContext.system`."""

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_built_rows_never_rewrapped(self, synthesize, monkeypatch):
        from test_trace_counts import inputs
        real = SystemContext.system
        passed = []

        def system(ctx, rows, zero_one=False):
            passed.append(type(rows))
            return real(ctx, rows, zero_one)
        monkeypatch.setattr(SystemContext, "system", system)
        for lts in inputs().values():
            synthesize(lts)
        assert passed and Rows not in passed


class TestRelationRowsOncePerGraph:
    """A resolved graph's tie rows and ``B_rep = 0`` rows are built at most
    once in a run: every system of the graph holds the same `Row`s.  Each
    `make_row` call of a ``tie:*`` or ``disjoint:*`` row is counted against
    the graph that `relation_rows` or `class_tie_rows` was asked about."""

    @staticmethod
    def inputs():
        return [reachability_graph(random_brac_net(i), 2000)
                for i in range(100)] + [random_lts(i, 24, 6)
                                        for i in range(60)]

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_built_once_per_graph(self, synthesize, monkeypatch):
        import collections
        import netsynth.separation
        real_make_row = netsynth.separation.make_row
        built = collections.Counter()
        asked = []  # every graph asked about, kept so no id is reused

        def make_row(coeffs, rel, const=0, tag=""):
            if tag.startswith(("tie:", "disjoint:")):
                built[(id(asked[-1]), tag)] += 1
            return real_make_row(coeffs, rel, const, tag)

        def asking(method):
            def wrapped(ctx, graph, *args):
                asked.append(graph)
                return method(ctx, graph, *args)
            return wrapped
        monkeypatch.setattr(netsynth.separation, "make_row", make_row)
        for name in ("relation_rows", "class_tie_rows"):
            monkeypatch.setattr(SystemContext, name,
                                asking(getattr(SystemContext, name)))
        for lts in self.inputs():
            synthesize(lts)
        kinds = {tag.split(":")[0] for _, tag in built}
        assert kinds == {"tie", "disjoint"}
        assert max(built.values()) == 1


class TestSolvedRegionsNeedNoShift:
    """A witness is a basic solution, so unless R0 = 0 a tight row holds
    R0: an edge row R(s) = B_t, or an event separation's margin, which
    BRAC's B_a <= 1 makes R(s) = 0 and WPI's other homogeneous tight rows
    cannot all miss.  So every solved region has least count 0 or a tight
    edge, and `normalize_region`'s shift would leave it as it is."""

    def test_every_region_has_a_zero_or_a_tight_edge(self, monkeypatch):
        real = netsynth.synthesis.solution_to_region
        kinds = set()

        def check(solution, tree):
            region = real(solution, tree)
            zero = min(region.marks) == 0
            tight = any(region.marks[s] == region.b[t]
                        for s, t, _ in tree.lts.edges)
            assert zero or tight, tree.lts.edges
            assert normalize_region(region, tree.lts) == region
            kinds.add((zero, tight))
            return region
        monkeypatch.setattr(netsynth.synthesis, "solution_to_region", check)
        inputs = [parse_lts(p.read_text())
                  for p in sorted(FIXTURES.glob("*.lts"))]
        inputs += [reachability_graph(random_brac_net(i), 100_000)
                   for i in range(100)]
        inputs += [random_lts(i, 24, 6) for i in range(300)]
        for lts in inputs:
            synthesize_brac(lts)
            synthesize_wpi(lts)
        assert any(zero for zero, _ in kinds)
        assert any(tight and not zero for zero, tight in kinds)
