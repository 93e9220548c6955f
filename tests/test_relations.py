import itertools
import random

import pytest

from netsynth.lts import parse_lts
from netsynth.oracle import random_lts
from netsynth.relations import (A_GTR_B, B_GTR_A, Contradiction, DISJOINT,
                                DOI, EQUIV, EQUIVALENT, Edge, INCLUDED,
                                INTERLEAVE, MatchingFailure, RelationGraph,
                                STRENGTHENED, build_relation_graph,
                                classify_case, scan_pairs,
                                quotient_by_equivalence,
                                resolve_inclusion_matching, strengthen_brac,
                                strengthen_wpi)
from netsynth.synthesis import relation_stage, synthesize_brac, synthesize_wpi

from conftest import CASE6_DISJOINT, EQUIVALENCE_CONFLICT
from reference import pair_relation, reference_relation_graph, w_in


def rel(lts, a, b):
    return pair_relation(lts, lts.labels.index(a), lts.labels.index(b))


def edge_kind(lts, graph, a, b):
    e = graph.edge(lts.labels.index(a), lts.labels.index(b))
    if e.kind in (INCLUDED, DOI):
        return (e.kind, lts.labels[e.lo], lts.labels[e.hi])
    return e.kind


class TestPairRelation:
    def test_fig1_equivalent_pair(self, fig1):
        r = rel(fig1, "e", "f")
        assert r.kind == EQUIV and r.merge

    def test_fig1_inclusion_pair(self, fig1):
        r = rel(fig1, "a", "b")
        assert r.kind == A_GTR_B and r.merge

    def test_fig1_reverse_inclusion(self, fig1):
        r = rel(fig1, "c", "d")
        assert r.kind == B_GTR_A and r.merge

    def test_case6a_self_loop_pair(self, case6a):
        r = rel(case6a, "b", "c")
        assert r.kind == A_GTR_B and not r.merge

    def test_fig1_full_table(self, fig1):
        special = {frozenset("ef"): EQUIV, frozenset("ab"): None,
                   frozenset("cd"): None}
        for x, y in itertools.combinations("abcdef", 2):
            r = rel(fig1, x, y)
            key = frozenset({x, y})
            if key == frozenset("ef"):
                assert r.kind == EQUIV
            elif key in (frozenset("ab"), frozenset("cd")):
                assert r.kind in (A_GTR_B, B_GTR_A)
            else:
                assert r.kind == INTERLEAVE, (x, y)
                assert not r.merge

    def test_exactly_one_kind_on_random_lts(self):
        for seed in range(40):
            lts = random_lts(seed, 8, 4)
            for a in range(len(lts.labels)):
                for b in range(a + 1, len(lts.labels)):
                    fwd = pair_relation(lts, a, b)
                    rev = pair_relation(lts, b, a)
                    assert fwd.merge == rev.merge
                    if fwd.kind == A_GTR_B:
                        assert rev.kind == B_GTR_A
                    elif fwd.kind == B_GTR_A:
                        assert rev.kind == A_GTR_B
                    else:
                        assert rev.kind == fwd.kind


class TestClassifyCase:
    @pytest.mark.parametrize("kind,merge,case", [
        (INTERLEAVE, True, 1), (INTERLEAVE, False, 2),
        (EQUIV, True, 3), (EQUIV, False, 4),
        (A_GTR_B, True, 5), (B_GTR_A, True, 5),
        (A_GTR_B, False, 6), (B_GTR_A, False, 6),
    ])
    def test_mapping(self, kind, merge, case):
        assert classify_case(kind, merge) == case

    def test_genx_is_case_one(self, genx):
        r = rel(genx, "a", "b")
        assert classify_case(r.kind, r.merge) == 1


class TestBuildGraph:
    def test_genx_contradiction(self, genx):
        result = build_relation_graph(genx)
        assert isinstance(result, Contradiction)
        assert result.rule == "deactivating-interleave"
        assert {genx.labels[i] for i in result.labels} == {"a", "b"}

    def test_fig1_graph(self, fig1):
        g = build_relation_graph(fig1)
        assert edge_kind(fig1, g, "a", "b") == (INCLUDED, "b", "a")
        assert edge_kind(fig1, g, "c", "d") == (INCLUDED, "c", "d")
        assert edge_kind(fig1, g, "e", "f") == EQUIVALENT
        for x, y in itertools.combinations("abcdef", 2):
            if {x, y} not in ({"a", "b"}, {"c", "d"}, {"e", "f"}):
                assert edge_kind(fig1, g, x, y) == DISJOINT

    def test_brac7_graph(self, brac7):
        g = build_relation_graph(brac7)
        assert edge_kind(brac7, g, "c", "b") == (DOI, "c", "b")
        assert edge_kind(brac7, g, "c", "d") == (DOI, "c", "d")
        assert edge_kind(brac7, g, "c", "e") == (DOI, "c", "e")
        assert edge_kind(brac7, g, "b", "d") == (INCLUDED, "b", "d")
        assert edge_kind(brac7, g, "a", "b") == DISJOINT

    def test_case6_without_self_loop_is_disjoint(self):
        # a is enabled at s0 and s1, b everywhere, and neither disables
        # the other: case 6 with b the wider label, which never self-loops
        lts = parse_lts("initial s0\ns0 a s2\ns0 b s1\ns1 a s3\n"
                        "s1 b s0\ns2 b s3\ns3 b s2\n")
        assert not lts.self_loop_labels
        a, b = lts.labels.index("a"), lts.labels.index("b")
        assert classify_case(*pair_relation(lts, a, b)) == 6
        g = build_relation_graph(lts)
        assert g.edge(a, b) == Edge(DISJOINT, min(a, b), max(a, b))


class TestQuotient:
    def test_fig1_collapses_ef(self, fig1):
        g = build_relation_graph(fig1)
        graph, reps = quotient_by_equivalence(g)
        e = fig1.labels.index("e")
        f = fig1.labels.index("f")
        assert reps[f] == e and reps[e] == e
        assert e in graph.nodes and f not in graph.nodes
        assert graph.classes[e] == (e, f)

    def test_identity_without_equivalences(self, brac7):
        g = build_relation_graph(brac7)
        graph, reps = quotient_by_equivalence(g)
        assert reps == {n: n for n in range(len(brac7.labels))}

    def test_strengthens_member_doi_toward_resolved_edge(self):
        # a=b equivalent; a included in c; b doi toward c: b follows a
        names = ("a", "b", "c")
        edges = {(0, 1): Edge(EQUIVALENT, 0, 1),
                 (0, 2): Edge(INCLUDED, 0, 2),
                 (1, 2): Edge(DOI, 1, 2)}
        graph, reps = quotient_by_equivalence(
            RelationGraph(names, (0, 1, 2), edges))
        assert reps[1] == 0
        assert graph.edge(0, 2).kind == INCLUDED

    def test_conflicting_member_edges_contradict(self):
        names = ("a", "b", "c")
        edges = {(0, 1): Edge(EQUIVALENT, 0, 1),
                 (0, 2): Edge(INCLUDED, 0, 2),
                 (1, 2): Edge(DISJOINT, 1, 2)}
        result = quotient_by_equivalence(
            RelationGraph(names, (0, 1, 2), edges))
        assert isinstance(result, Contradiction)
        assert result.rule == "equivalence-conflict"

    def test_representative_prefers_original_inclusion(self):
        # b carries the original inclusion edge, so b represents {a, b}
        names = ("a", "b", "c")
        edges = {(0, 1): Edge(EQUIVALENT, 0, 1),
                 (1, 2): Edge(INCLUDED, 1, 2),
                 (0, 2): Edge(DOI, 0, 2)}
        graph, reps = quotient_by_equivalence(
            RelationGraph(names, (0, 1, 2), edges))
        assert reps[0] == 1 and reps[1] == 1

    @pytest.mark.parametrize("equivalent", [((0, 1), (1, 2)),
                                            ((0, 1), (0, 2))],
                             ids=["chain", "star"])
    def test_intransitive_equivalence_refused(self, equivalent):
        """Equivalence edges of a raw graph form cliques; a hand-built
        graph whose edges do not is refused, not closed."""
        edges = {pair: Edge(EQUIVALENT, *pair) for pair in equivalent}
        for pair in {(0, 1), (0, 2), (1, 2)} - set(equivalent):
            edges[pair] = Edge(DISJOINT, *pair)
        with pytest.raises(ValueError, match="not transitive"):
            quotient_by_equivalence(
                RelationGraph(("a", "b", "c"), (0, 1, 2), edges))

    def test_classes_are_equal_state_masks(self, fig1, genx, case6a,
                                           case6b, brac7):
        """On every raw graph without a contradiction, the classes are
        the groups of labels enabled at the same states: the fixtures,
        ``random_lts(0..299, 24, 6)`` and the roundtrip graphs of
        ``random_brac_net(0..99)``."""
        from netsynth.oracle import random_brac_net
        from netsynth.petri import reachability_graph
        inputs = [fig1, genx, case6a, case6b, brac7]
        inputs += [random_lts(i, 24, 6) for i in range(300)]
        inputs += [reachability_graph(random_brac_net(i), 2000)
                   for i in range(100)]
        quotiented = 0
        for lts in inputs:
            graph = build_relation_graph(lts)
            if isinstance(graph, Contradiction):
                continue
            groups: dict[int, list[int]] = {}
            for label, mask in enumerate(lts.state_masks):
                groups.setdefault(mask, []).append(label)
            quotient, _ = quotient_by_equivalence(graph)
            assert sorted(quotient.classes.values()) == \
                sorted(map(tuple, groups.values()))
            quotiented += 1
        assert quotiented > 200


class TestResolved:
    """An interpretation of the doi edges as a resolved copy of the graph."""

    @staticmethod
    def brac7_graph(brac7):
        graph, _ = quotient_by_equivalence(build_relation_graph(brac7))
        return strengthen_wpi(graph)

    def test_sets_exactly_the_listed_pairs(self, brac7):
        graph = self.brac7_graph(brac7)
        before = dict(graph.edges)
        pairs = graph.doi_edges()
        assert len(pairs) == 3
        out = graph.resolved(pairs, [pairs[1]])
        assert graph.edges == before and graph.doi_edges() == pairs
        changed = sorted(k for k in before if out.edges[k] != before[k])
        assert changed == sorted(tuple(sorted(p)) for p in pairs)
        assert [out.edge(*p) for p in pairs] == [
            Edge(DISJOINT, *pairs[0], STRENGTHENED),
            Edge(INCLUDED, *pairs[1], STRENGTHENED),
            Edge(DISJOINT, *pairs[2], STRENGTHENED)]
        assert out.doi_edges() == []
        assert (out.names, out.nodes, out.rep, out.classes) == \
            (graph.names, graph.nodes, graph.rep, graph.classes)

    def test_unlisted_doi_edges_stay(self, brac7):
        graph = self.brac7_graph(brac7)
        pairs = graph.doi_edges()
        out = graph.resolved(pairs[:1], pairs)
        assert out.doi_edges() == pairs[1:]
        assert out.included_edges() == \
            sorted(graph.included_edges() + pairs[:1])
        assert graph.resolved([]).edges == graph.edges


def triangle(ab, ac, bc):
    """Graph over labels a=0, b=1, c=2 with the given edges."""
    return RelationGraph(("a", "b", "c"), (0, 1, 2),
                         {(0, 1): ab, (0, 2): ac, (1, 2): bc})


DISJ = lambda i, j: Edge(DISJOINT, i, j)


class TestStrengthenWpi:
    def test_solid_at_self_loop_forces_disjoint(self):
        # a doi b with a solidly below c and b,c unrelated
        g = triangle(Edge(DOI, 0, 1), Edge(INCLUDED, 0, 2), DISJ(1, 2))
        out = strengthen_wpi(g)
        assert out.edge(0, 1).kind == DISJOINT
        assert out.edge(0, 1).origin == "strengthened"

    def test_transitivity_forces_inclusion(self):
        # a doi b, a below c, c below b
        g = triangle(Edge(DOI, 0, 1), Edge(INCLUDED, 0, 2),
                     Edge(INCLUDED, 2, 1))
        out = strengthen_wpi(g)
        e = out.edge(0, 1)
        assert (e.kind, e.lo, e.hi) == (INCLUDED, 0, 1)

    def test_shared_lower_bound_forces_inclusion(self):
        # c below both a and b: disjointness of a, b is impossible
        g = triangle(Edge(DOI, 0, 1), Edge(INCLUDED, 2, 0),
                     Edge(INCLUDED, 2, 1))
        out = strengthen_wpi(g)
        assert out.edge(0, 1).kind == INCLUDED

    def test_inclusion_cycle_contradicts(self):
        # c below a (solid), b below c: arrows form a cycle with a doi b
        g = triangle(Edge(DOI, 0, 1), Edge(INCLUDED, 2, 0),
                     Edge(INCLUDED, 1, 2))
        out = strengthen_wpi(g)
        assert isinstance(out, Contradiction)
        assert out.rule == "triangle-8"

    def test_mutual_deactivation_of_self_loops_contradicts(self):
        # original solid a->c plus doi c->b: self-loops a and c would have
        # to deactivate each other
        g = triangle(Edge(DOI, 0, 1), Edge(INCLUDED, 0, 2),
                     Edge(DOI, 2, 1))
        out = strengthen_wpi(g)
        assert isinstance(out, Contradiction)
        assert out.rule == "triangle-22"

    def test_strengthened_solid_skips_deactivation_rule(self):
        # the same shape is not contradictory when the solid edge was
        # itself derived rather than a deactivating pair
        g = triangle(Edge(DOI, 0, 1),
                     Edge(INCLUDED, 0, 2, origin="strengthened"),
                     Edge(DOI, 2, 1))
        out = strengthen_wpi(g)
        assert not isinstance(out, Contradiction)
        assert out.edge(0, 1).kind == DOI

    @pytest.mark.parametrize("ac,bc,original", [
        (Edge(INCLUDED, 0, 2), Edge(DOI, 1, 2), DISJOINT),
        (Edge(INCLUDED, 0, 2), Edge(DOI, 2, 1), "triangle-22"),
        (Edge(INCLUDED, 2, 0), Edge(DOI, 2, 1), "triangle-23"),
    ], ids=["rule17", "rule22", "rule23"])
    def test_deactivation_rules_skip_a_strengthened_inclusion(
            self, ac, bc, original):
        """Rules 17, 22 and 23 fire at an original inclusion (0, 2) and
        leave every edge as it is at a strengthened one."""
        out = strengthen_wpi(triangle(Edge(DOI, 0, 1), ac, bc))
        if isinstance(out, Contradiction):
            assert out.rule == original
        else:
            assert out.edge(0, 1).kind == original
        g = triangle(Edge(DOI, 0, 1), ac._replace(origin=STRENGTHENED), bc)
        out = strengthen_wpi(g)
        assert not isinstance(out, Contradiction)
        assert out.edges == g.edges

    def test_indirect_resolution_through_provenance_triangles(self):
        # four labels: a doi b strengthened to inclusion via c; the
        # remaining doi edges toward d resolve through the c-triangles
        names = ("a", "b", "c", "d")
        edges = {(0, 1): Edge(DOI, 0, 1),
                 (0, 2): Edge(INCLUDED, 0, 2),
                 (1, 2): Edge(INCLUDED, 2, 1),
                 (0, 3): Edge(DOI, 0, 3),
                 (1, 3): Edge(DOI, 1, 3),
                 (2, 3): Edge(DISJOINT, 2, 3)}
        out = strengthen_wpi(RelationGraph(names, (0, 1, 2, 3), edges))
        assert out.edge(0, 1).kind == INCLUDED
        assert out.edge(0, 3).kind == DISJOINT
        assert out.edge(1, 3).kind == DISJOINT

    def test_indirect_contradiction_through_provenance_triangles(self):
        # same shape but c doi d: the hidden mutual deactivation surfaces
        names = ("a", "b", "c", "d")
        edges = {(0, 1): Edge(DOI, 0, 1),
                 (0, 2): Edge(INCLUDED, 0, 2),
                 (1, 2): Edge(INCLUDED, 2, 1),
                 (0, 3): Edge(DOI, 0, 3),
                 (1, 3): Edge(DOI, 1, 3),
                 (2, 3): Edge(DOI, 2, 3)}
        out = strengthen_wpi(RelationGraph(names, (0, 1, 2, 3), edges))
        assert isinstance(out, Contradiction)
        assert out.rule in ("triangle-22", "triangle-23")

    @pytest.mark.parametrize("ac,bc,rule", [
        # arrows along included/doi edges order label occurrence counts,
        # so any directed cycle through the doi edge is impossible
        (Edge(INCLUDED, 2, 0), Edge(INCLUDED, 1, 2), "triangle-8"),
        (Edge(DOI, 2, 0), Edge(INCLUDED, 1, 2), "triangle-10"),
        (Edge(INCLUDED, 2, 0), Edge(DOI, 1, 2), "triangle-18"),
        (Edge(DOI, 2, 0), Edge(DOI, 1, 2), "triangle-20"),
        (Edge(INCLUDED, 2, 0), Edge(DOI, 2, 1), "triangle-23"),
    ])
    def test_contradictory_configurations(self, ac, bc, rule):
        out = strengthen_wpi(triangle(Edge(DOI, 0, 1), ac, bc))
        assert isinstance(out, Contradiction)
        assert out.rule == rule

    @pytest.mark.parametrize("ac,bc", [
        (DISJ(0, 2), DISJ(1, 2)),                       # lone doi edge
        (Edge(DOI, 0, 2), DISJ(1, 2)),                  # two dois out
        (Edge(DOI, 2, 0), DISJ(1, 2)),                  # doi in, none at b
        (Edge(INCLUDED, 0, 2), Edge(INCLUDED, 1, 2)),   # shared upper bound
        (Edge(DOI, 0, 2), Edge(INCLUDED, 1, 2)),
        (DISJ(0, 2), Edge(INCLUDED, 2, 1)),
        (Edge(DOI, 0, 2), Edge(INCLUDED, 2, 1)),
        (Edge(DOI, 2, 0), Edge(INCLUDED, 2, 1)),
        (DISJ(0, 2), Edge(DOI, 1, 2)),
        (Edge(DOI, 0, 2), Edge(DOI, 1, 2)),
        (DISJ(0, 2), Edge(DOI, 2, 1)),
        (Edge(DOI, 0, 2), Edge(DOI, 2, 1)),
        (Edge(DOI, 2, 0), Edge(DOI, 2, 1)),
    ])
    def test_unresolved_configurations_keep_doi(self, ac, bc):
        out = strengthen_wpi(triangle(Edge(DOI, 0, 1), ac, bc))
        assert not isinstance(out, Contradiction)
        assert out.edge(0, 1).kind == DOI

    def test_case6a_resolves_to_disjoint(self, case6a):
        graph, _ = quotient_by_equivalence(build_relation_graph(case6a))
        out = strengthen_wpi(graph)
        b = case6a.labels.index("b")
        c = case6a.labels.index("c")
        assert out.edge(b, c).kind == DISJOINT

    def test_case6b_stays_unresolved(self, case6b):
        graph, _ = quotient_by_equivalence(build_relation_graph(case6b))
        out = strengthen_wpi(graph)
        b = case6b.labels.index("b")
        c = case6b.labels.index("c")
        assert out.edge(b, c).kind == DOI

    def test_brac7_unchanged_under_wpi_rules(self, brac7):
        graph, _ = quotient_by_equivalence(build_relation_graph(brac7))
        out = strengthen_wpi(graph)
        assert out.edges == graph.edges

    def test_idempotent(self, case6a, brac7):
        for lts in (case6a, brac7):
            graph, _ = quotient_by_equivalence(build_relation_graph(lts))
            once = strengthen_wpi(graph)
            assert strengthen_wpi(once).edges == once.edges

    def test_never_flips_resolved_edges(self, case6a):
        graph, _ = quotient_by_equivalence(build_relation_graph(case6a))
        before = {k: e for k, e in graph.edges.items() if e.kind != DOI}
        out = strengthen_wpi(graph)
        for key, e in before.items():
            assert out.edges[key].kind == e.kind


class TestStrengthenBrac:
    def test_two_inclusions_sharing_a_label_contradict(self):
        g = triangle(Edge(INCLUDED, 0, 1), Edge(INCLUDED, 1, 2),
                     DISJ(0, 2))
        out = strengthen_brac(g)
        assert isinstance(out, Contradiction)
        assert out.rule == "shared-inclusion"

    def test_doi_at_inclusion_incident_label_means_disjoint(self):
        # b solidly below c: the doi edge a->b cannot be an inclusion
        g = triangle(Edge(DOI, 0, 1), DISJ(0, 2), Edge(INCLUDED, 1, 2))
        out = strengthen_brac(g)
        assert out.edge(0, 1).kind == DISJOINT

    def test_doi_chain_front_edge_means_disjoint(self):
        g = triangle(Edge(DOI, 0, 1), DISJ(0, 2), Edge(DOI, 1, 2))
        out = strengthen_brac(g)
        assert out.edge(0, 1).kind == DISJOINT
        assert out.edge(1, 2).kind == DOI

    def test_brac7_resolution(self, brac7):
        graph, _ = quotient_by_equivalence(build_relation_graph(brac7))
        out = strengthen_brac(strengthen_wpi(graph))
        assert edge_kind(brac7, out, "c", "b") == DISJOINT
        assert edge_kind(brac7, out, "c", "d") == DISJOINT
        assert edge_kind(brac7, out, "c", "e") == (DOI, "c", "e")
        assert edge_kind(brac7, out, "b", "d") == (INCLUDED, "b", "d")

    def test_no_label_on_two_inclusions_afterwards(self):
        for seed in range(60):
            lts = random_lts(seed, 7, 4)
            g = build_relation_graph(lts)
            if isinstance(g, Contradiction):
                continue
            q = quotient_by_equivalence(g)
            if isinstance(q, Contradiction):
                continue
            out = strengthen_brac(q[0])
            if isinstance(out, Contradiction):
                continue
            counts = {}
            for lo, hi in out.included_edges():
                for x in (lo, hi):
                    counts[x] = counts.get(x, 0) + 1
            assert all(v <= 1 for v in counts.values())

    def test_idempotent(self, brac7):
        graph, _ = quotient_by_equivalence(build_relation_graph(brac7))
        once = strengthen_brac(graph)
        assert strengthen_brac(once).edges == once.edges


class TestAgainstSourceNets:
    def test_original_edges_hold_in_every_solving_net(self):
        # original inclusion and disjointness edges are claims about every
        # comparable-preset net solving the behaviour; the generating net
        # solves its own reachability graph, so it must satisfy them
        from netsynth.oracle import random_brac_net
        from netsynth.petri import reachability_graph
        from netsynth.relations import ORIGINAL
        checked = 0
        for seed in range(80):
            net = random_brac_net(seed)
            rg = reachability_graph(net, 2000)
            graph = build_relation_graph(rg)
            assert not isinstance(graph, Contradiction), seed
            tmap = {name: i for i, name in enumerate(net.transitions)}
            nplaces = len(net.places)

            def col(name):
                t = tmap[name]
                return [w_in(net, p, t) for p in range(nplaces)]

            for (a, b), e in graph.edges.items():
                if e.origin != ORIGINAL:
                    continue
                if e.kind == INCLUDED:
                    lo, hi = col(rg.labels[e.lo]), col(rg.labels[e.hi])
                    assert all(x <= y for x, y in zip(lo, hi)) and lo != hi
                    checked += 1
                elif e.kind == DISJOINT:
                    wa, wb = col(rg.labels[a]), col(rg.labels[b])
                    assert all(x == 0 or y == 0 for x, y in zip(wa, wb))
                    checked += 1
        assert checked > 1000


class TestMatching:
    def test_single_candidate(self):
        assert resolve_inclusion_matching([(2, 4)]) == {2: 4}

    def test_empty(self):
        assert resolve_inclusion_matching([]) == {}

    def test_augmenting_path(self):
        # x:{u,v}, y:{u} forces x onto v
        x, y, u, v = 0, 1, 10, 11
        result = resolve_inclusion_matching([(x, u), (x, v), (y, u)])
        assert result == {x: v, y: u}

    def test_unmatched_reported(self):
        x, y, u = 0, 1, 10
        result = resolve_inclusion_matching([(x, u), (y, u)])
        assert isinstance(result, MatchingFailure)
        assert len(result.unmatched) == 1

    def test_deterministic(self):
        pairs = [(0, 10), (0, 11), (1, 10), (1, 12), (2, 11)]
        first = resolve_inclusion_matching(pairs)
        for _ in range(5):
            assert resolve_inclusion_matching(pairs) == first

    @staticmethod
    def maximum(pairs) -> int:
        """The size of a maximum matching of ``pairs``, by trying every
        choice of at most one target per left label."""
        adj = {}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
        best = 0
        for choice in itertools.product(*([None] + targets
                                          for targets in adj.values())):
            picked = [b for b in choice if b is not None]
            if len(set(picked)) == len(picked):
                best = max(best, len(picked))
        return best

    def test_random_candidates_against_brute_force(self):
        """Over random candidate lists of up to 5 left and 6 right labels,
        the matching is valid and covers every left label exactly when a
        left-perfect matching exists; otherwise as many labels are
        unmatched as a maximum matching leaves.  Shuffled or repeated
        candidates give the same result."""
        rng = random.Random(41)
        failures = 0
        for _ in range(400):
            pairs = sorted({(rng.randrange(5), rng.randrange(6))
                            for _ in range(rng.randint(1, 12))})
            lefts = sorted({a for a, _ in pairs})
            best = self.maximum(pairs)
            result = resolve_inclusion_matching(pairs)
            if isinstance(result, MatchingFailure):
                failures += 1
                assert best < len(lefts)
                assert len(result.unmatched) == len(lefts) - best
                assert list(result.unmatched) == sorted(
                    set(result.unmatched) & set(lefts))
            else:
                assert best == len(lefts)
                assert list(result) == lefts
                assert all((a, b) in pairs for a, b in result.items())
                assert len(set(result.values())) == len(result)
            shuffled = pairs + rng.sample(pairs, rng.randint(0, len(pairs)))
            rng.shuffle(shuffled)
            assert resolve_inclusion_matching(shuffled) == result
        assert 0 < failures < 400


class TestOnePassDeactivation:
    """`scan_pairs`, behind the `relations` command, and
    `build_relation_graph` read one scan that finds the deactivating pairs
    in one pass over the edges; `pair_relation`'s per-pair scan is the
    reference, and `reference_relation_graph` builds the graph from it
    and `classify_case`, down to every edge's kind, lo, hi and origin and
    the first contradiction's pair and detail."""

    @staticmethod
    def pairwise(lts):
        n = len(lts.labels)
        return ((a, b, *pair_relation(lts, a, b))
                for a in range(n) for b in range(a + 1, n))

    @staticmethod
    def inputs():
        import pathlib
        from netsynth.oracle import random_brac_net
        from netsynth.petri import reachability_graph
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        cases = {p.stem: parse_lts(p.read_text())
                 for p in sorted(fixtures.glob("*.lts"))}
        cases.update({f"random_lts/{i}": random_lts(i, 24, 6)
                      for i in range(300)})
        cases.update({f"random_brac_net/{i}": reachability_graph(
                          random_brac_net(i), 2000) for i in range(100)})
        cases.update({f"ladder/{seed}": reachability_graph(
                          random_brac_net(seed, 6, 4), 100_000)
                      for seed in (44, 17, 38)})
        return cases

    @staticmethod
    def edge_fields(graph):
        return {pair: (e.kind, e.lo, e.hi, e.origin)
                for pair, e in graph.edges.items()}

    def test_table_equals_pairwise_reference(self):
        for lts in self.inputs().values():
            assert list(scan_pairs(lts)) == list(self.pairwise(lts))

    def test_graph_equals_pairwise_reference(self):
        kinds, first_pairs = set(), set()
        outcomes = {RelationGraph: 0, Contradiction: 0}
        for name, lts in self.inputs().items():
            got = build_relation_graph(lts)
            expected = reference_relation_graph(lts)
            assert type(got) is type(expected), name
            outcomes[type(got)] += 1
            if isinstance(expected, Contradiction):
                assert (got.labels, got.rule, got.detail) == \
                    (expected.labels, expected.rule, expected.detail), name
                first_pairs.add(got.labels)
            else:
                assert (got.names, got.nodes) == \
                    (expected.names, expected.nodes), name
                assert self.edge_fields(got) == \
                    self.edge_fields(expected), name
                kinds |= {e.kind for e in got.edges.values()}
            assert got == expected, name
        # both outcomes, contradictions at a pair after the first, and
        # every raw edge kind occur
        assert all(outcomes.values()), outcomes
        assert first_pairs - {(0, 1)}
        assert kinds == {DISJOINT, EQUIVALENT, INCLUDED, DOI}

    def test_relations_command_bytes_unchanged(self, monkeypatch, tmp_path):
        import pathlib
        import netsynth.cli
        import netsynth.relations
        from netsynth.cli import run
        fixtures = sorted((pathlib.Path(__file__).parent / "fixtures")
                          .glob("*.lts"))

        def outputs():
            out = {}
            for path in fixtures:
                target = tmp_path / f"{path.stem}.json"
                run(["relations", str(path), "--json", str(target)])
                out[path.stem] = target.read_bytes()
            return out
        got = outputs()
        for module in (netsynth.relations, netsynth.cli):
            monkeypatch.setattr(module, "scan_pairs", self.pairwise)
        assert got == outputs()



class TestRelationStagePaths:
    """The least census inputs that take case 6's disjoint branch and the
    equivalence-conflict contradiction; the source-reachability lint runs
    both, and these pin where both pipelines end."""

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_case6_disjoint_ends_in_essp(self, synthesize):
        lts = parse_lts(CASE6_DISJOINT)
        assert not lts.self_loop_labels
        b, a = lts.labels.index("b"), lts.labels.index("a")
        assert classify_case(*pair_relation(lts, a, b)) == 6
        assert build_relation_graph(lts).edges == {
            (b, a): Edge(DISJOINT, b, a)}
        report = synthesize(lts)
        assert report.outcome == "failure"
        assert report.witness == {"kind": "essp", "state": "s0",
                                  "label": "a",
                                  "systems_tried": ["essp:s0:a"]}

    @pytest.mark.parametrize("synthesize", [synthesize_wpi, synthesize_brac])
    def test_equivalence_conflict(self, synthesize):
        lts = parse_lts(EQUIVALENCE_CONFLICT)
        contradiction = relation_stage(build_relation_graph(lts),
                                       brac=synthesize is synthesize_brac)
        assert contradiction == Contradiction(
            (lts.labels.index("b"), lts.labels.index("a")),
            "equivalence-conflict",
            "equivalent labels relate differently to a")
        report = synthesize(lts)
        assert report.outcome == "failure"
        assert report.witness == {
            "kind": "contradiction", "rule": "equivalence-conflict",
            "labels": ["b", "a"],
            "detail": "equivalent labels relate differently to a"}
