import hashlib
import json
from dataclasses import replace

import pytest

from netsynth.lts import Lts, LtsError, parse_lts
from netsynth.oracle import random_brac_net
from netsynth.petri import (CapExceeded, Mismatch, PetriNet, PetriNetError,
                            classify_net, isomorphic, parse_net,
                            reachability_graph, realises, render_dot,
                            serialize_net)
from netsynth.synthesis import synthesize_brac, synthesize_wpi

from conftest import FIXTURES, load_net
from reference import fire, reference_isomorphic, w_in
from test_verification_digests import family, without_place

REACHABILITY_DIGESTS = json.loads(
    (FIXTURES / "reachability_digests.json").read_text())


def tid(net, name):
    return net.transitions.index(name)


class TestFire:
    def test_fig1_initial_fires_a(self, fig1_net):
        m = fire(fig1_net, fig1_net.m0, tid(fig1_net, "a"))
        assert m == (1, 0, 1, 1, 0)

    def test_self_loop_keeps_marking(self):
        net = parse_net("place p 1\ntransition t\narc p t\narc t p\n")
        assert fire(net, net.m0, 0) == net.m0

    def test_disabled_names_blocking_place(self, fig1_net):
        with pytest.raises(PetriNetError, match="'p5'"):
            fire(fig1_net, fig1_net.m0, tid(fig1_net, "e"))

    def test_weight_two_blocks_at_one_token(self):
        net = parse_net("place p 1\nplace q 0\ntransition t\n"
                        "arc p t 2\narc t q\n")
        with pytest.raises(PetriNetError, match="place 'p' holds 1 < 2"):
            fire(net, net.m0, 0)
        assert fire(net, (2, 0), 0) == (0, 1)

    def test_lowest_blocking_place_named(self):
        # the arc from q is listed first; the message follows place order
        net = parse_net("place p 0\nplace q 0\ntransition t\n"
                        "arc q t\narc p t\n")
        with pytest.raises(PetriNetError, match="place 'p' holds 0 < 1"):
            fire(net, net.m0, 0)


class TestReachabilityGraph:
    def test_fig1_net(self, fig1_net):
        rg = reachability_graph(fig1_net, 1000)
        assert len(rg.states) == 15
        assert len(rg.edges) == 24

    def test_cap_below_one_rejected(self, fig1_net):
        with pytest.raises(ValueError, match="at least 1"):
            reachability_graph(fig1_net, 0)

    def test_unbounded_hits_cap(self):
        net = parse_net("place p 0\ntransition t\narc t p\n")
        with pytest.raises(CapExceeded):
            reachability_graph(net, 50)

    @pytest.mark.parametrize("name, markings",
                             [("fig1-net", 15), ("brac7-net", 8)])
    def test_cap_boundary(self, name, markings):
        net = load_net(name)
        assert len(reachability_graph(net, markings).states) == markings
        with pytest.raises(CapExceeded):
            reachability_graph(net, markings - 1)

    @pytest.mark.parametrize("tokens, edges", [(1, ()), (2, ((0, 0, 0),))])
    def test_self_loop_needs_its_weight(self, tokens, edges):
        net = parse_net(f"place p {tokens}\ntransition t\n"
                        "arc p t 2\narc t p 2\n")
        rg = reachability_graph(net, 10)
        assert (len(rg.states), rg.edges) == (1, edges)

    def test_brac7_net(self, brac7_net):
        rg = reachability_graph(brac7_net, 1000)
        assert len(rg.states) == 8

    def test_deterministic_naming(self, fig1_net):
        rg1 = reachability_graph(fig1_net)
        rg2 = reachability_graph(fig1_net)
        assert rg1 == rg2
        assert rg1.states[0] == "m0"

    def test_fire_consistency(self, fig1_net):
        rg = reachability_graph(fig1_net)
        # reconstruct markings along the graph and re-check the arc deltas
        marks = {0: fig1_net.m0}
        for s, t, s2 in rg.edges:
            tt = fig1_net.transitions.index(rg.labels[t])
            m2 = fire(fig1_net, marks[s], tt)
            if s2 in marks:
                assert marks[s2] == m2
            marks[s2] = m2
            for p in range(len(fig1_net.places)):
                delta = (fig1_net.produce.get((tt, p), 0)
                         - w_in(fig1_net, p, tt))
                assert m2[p] - marks[s][p] == delta


def pinned_nets():
    """Name -> (net, cap): ``random_brac_net(0..99)`` at the roundtrip cap,
    the three scale-ladder nets, the 3,200-marking net and every ``.pn``
    fixture."""
    nets = {f"random_brac_net/{i}": (random_brac_net(i), 2000)
            for i in range(100)}
    nets.update((f"random_brac_net/{s}-6-4", (random_brac_net(s, 6, 4),
                                               100_000))
                for s in (44, 17, 38, 37))
    nets.update((f"fixture/{p.stem}", (load_net(p.stem), 100_000))
                for p in sorted(FIXTURES.glob("*.pn")))
    return nets


def graph_digest(net, cap):
    """SHA-256 of the graph's ``repr((states, labels, edges, initial))``."""
    rg = reachability_graph(net, cap)
    text = repr((rg.states, rg.labels, rg.edges, rg.initial))
    return hashlib.sha256(text.encode()).hexdigest()


class TestReachabilityPins:
    """Pins the state numbering, label order and edge order of every graph
    of ``pinned_nets()``, and so where ``CapExceeded`` would be raised."""

    def test_graphs_unchanged(self):
        expected = REACHABILITY_DIGESTS
        got = {name: graph_digest(net, cap)
               for name, (net, cap) in pinned_nets().items()}
        assert len(got) == len(expected)
        changed = sorted(k for k in got if got[k] != expected.get(k))
        assert not changed, f"reachability graphs changed: {changed}"


class TestClassify:
    def test_equal_conflict_net(self):
        classes = classify_net(load_net("ec-net"))
        assert {"EC", "WAC"} <= classes and "PLAIN" not in classes

    def test_increasing_postsets_net(self):
        classes = classify_net(load_net("wac-net"))
        assert "WAC" in classes and "WPI" not in classes

    def test_weighted_n_shape_net(self):
        classes = classify_net(load_net("wrac-net"))
        assert "WAC" in classes and "WPI" not in classes

    def test_weight_swap_flips_classes(self):
        classes = classify_net(load_net("wrac-net-swapped"))
        assert "WPI" in classes and "WAC" not in classes

    def test_fig1_net_full_flags(self, fig1_net):
        classes = classify_net(fig1_net)
        assert {"PLAIN", "RAC", "BRAC", "WPI"} <= classes
        assert not {"CF", "EC"} & classes

    def test_marked_graph(self):
        net = parse_net("place p 1\nplace q 0\ntransition t\n"
                        "transition u\narc p t\narc t q\narc q u\narc u p\n")
        assert {"MG", "CF"} <= classify_net(net)

    def test_implications_on_random_nets(self):
        for seed in range(150):
            f = classify_net(random_brac_net(seed))
            assert "BRAC" not in f or {"WPI", "AC", "PLAIN"} <= f
            assert "RAC" not in f or "BRAC" in f
            assert "EFC" not in f or "EC" in f
            assert "EC" not in f or "WAC" in f
            assert "CF" not in f or "EC" in f
            assert "MG" not in f or "CF" in f
            assert "AC" not in f or "WAC" in f


MISMATCH_CASES = [
    ("s0 a s1", "q0 b q1", Mismatch("label sets differ")),
    ("s0 a s1\ns0 b s2", "q0 a q1\nq1 b q2",
     Mismatch("enabled labels differ", (0, 0), "b")),
    ("s0 a s0", "q0 a q1\nq1 a q0",
     Mismatch("states identified differently", (0, 0), "a")),
    ("s0 a s1", "q0 a q0",
     Mismatch("target already paired", (0, 0), "a")),
    # the walk pairs every state of the left side; q2 is unreachable
    ("s0 a s1", "q0 a q1\nq2 a q2", Mismatch("state counts differ")),
    # two a edges at s0: the walk would pair s1 with q1 and accept
    ("s0 a s0\ns0 a s1", "q0 a q1", Mismatch("nondeterministic system")),
    ("s0 a s1", "q0 a q0\nq0 a q1", Mismatch("nondeterministic system")),
]


def mismatch_pair(left, right):
    return (parse_lts(f"initial s0\n{left}\n"),
            parse_lts(f"initial q0\n{right}\n"))


class TestIsomorphic:
    def test_fig1_net_matches_lts(self, fig1, fig1_net):
        rg = reachability_graph(fig1_net)
        mapping = isomorphic(fig1, rg)
        assert isinstance(mapping, dict)
        assert mapping[fig1.initial] == rg.initial
        assert len(mapping) == 15

    def test_identity(self, fig1):
        mapping = isomorphic(fig1, fig1)
        assert mapping == {s: s for s in range(len(fig1.states))}

    def test_label_mismatch(self, fig1, genx):
        assert isinstance(isomorphic(fig1, genx), Mismatch)

    def test_structural_mismatch(self):
        l1 = parse_lts("initial s0\ns0 a s1\ns1 a s0\n")
        l2 = parse_lts("initial q0\nq0 a q1\nq1 a q1\n")
        m = isomorphic(l1, l2)
        assert isinstance(m, Mismatch)

    def test_state_count_mismatch(self):
        l1 = parse_lts("initial s0\ns0 a s0\n")
        l2 = parse_lts("initial q0\nq0 a q1\nq1 a q0\n")
        assert isinstance(isomorphic(l1, l2), Mismatch)

    @pytest.mark.parametrize("left, right, expected", MISMATCH_CASES)
    def test_mismatch_reason(self, left, right, expected):
        assert isomorphic(*mismatch_pair(left, right)) == expected


def agree_with_reference(pairs):
    """The pairs, in both argument orders, on which `isomorphic` and
    `reference_isomorphic` differ, and how many pairs were checked."""
    differ, checked = [], 0
    for name, lts, other in pairs:
        for order, args in (("forward", (lts, other)),
                            ("reverse", (other, lts))):
            if isomorphic(*args) != reference_isomorphic(*args):
                differ.append((name, order))
            checked += 1
    return differ, checked


class TestIsomorphicReference:
    """`isomorphic` reads each state's out-edges; `reference_isomorphic`
    reads a (state, label) -> target map and the label masks.  Both give
    the same mapping or the same `Mismatch` on every pair."""

    def test_isomorphic_cases(self, fig1, genx, fig1_net):
        pairs = [("fig1/graph", fig1, reachability_graph(fig1_net)),
                 ("fig1/fig1", fig1, fig1), ("fig1/genx", fig1, genx)]
        pairs += [(f"case{i}", *mismatch_pair(left, right))
                  for i, (left, right, _) in enumerate(MISMATCH_CASES)]
        pairs += [("structural",
                   parse_lts("initial s0\ns0 a s1\ns1 a s0\n"),
                   parse_lts("initial q0\nq0 a q1\nq1 a q1\n")),
                  ("state count", parse_lts("initial s0\ns0 a s0\n"),
                   parse_lts("initial q0\nq0 a q1\nq1 a q0\n"))]
        assert agree_with_reference(pairs) == ([], 2 * len(pairs))

    def test_verification_family(self):
        """Every (LTS, graph to |S| + 1 markings) pair of the verification
        digest family whose graph stays within the cap."""
        def pairs():
            for base, mutant, net, lts in family():
                try:
                    graph = reachability_graph(net, len(lts.states) + 1)
                except CapExceeded:
                    continue
                yield f"{base}/{mutant}", lts, graph
        differ, checked = agree_with_reference(pairs())
        assert not differ, differ[:5]
        assert checked > 1000


class TestRealises:
    def test_fig1_net_realises_fig1_only(self, fig1, genx, fig1_net):
        assert realises(fig1_net, fig1)
        assert not realises(fig1_net, genx)

    def test_two_edges_of_one_label_are_not_realised(self):
        # the walk would follow only the last a-edge of s0 and accept;
        # the net's graph has one edge, the input two
        net = parse_net("place p 1\ntransition a\narc p a\n")
        lts = Lts(states=("s0", "s1"), labels=("a",),
                  edges=((0, 0, 0), (0, 0, 1)), initial=0)
        assert not realises(net, lts)

    def test_two_labels_of_one_name_are_not_realised(self):
        # the net would fire a twice, as each label once; no LTS has two
        # labels of one name, as a net's graph never has
        with pytest.raises(LtsError, match="names repeat"):
            Lts(states=("s0", "s1", "s2"), labels=("a", "a"),
                edges=((0, 0, 1), (1, 1, 2)), initial=0)

    @pytest.mark.parametrize("tokens", [0, 1])
    def test_transition_order_is_not_label_order(self, fig1, fig1_net,
                                                 tokens):
        # transitions in reverse label order, plus one that no label names:
        # dead without tokens in its place, fireable with one
        nt, np_ = len(fig1_net.transitions), len(fig1_net.places)
        net = PetriNet(
            fig1_net.places + ("pz",),
            tuple(reversed(fig1_net.transitions)) + ("zz",),
            {**{(p, nt - 1 - t): w for (p, t), w in fig1_net.consume.items()},
             (np_, nt): 1},
            {(nt - 1 - t, p): w for (t, p), w in fig1_net.produce.items()},
            fig1_net.m0 + (tokens,))
        assert net.transitions[:nt] != fig1.labels
        assert realises(net, fig1) == (tokens == 0)
        assert walk_agrees(net, fig1)


def tuple_graph(net, cap):
    """The reachability graph by a plain BFS over tuple markings, testing
    every transition at every marking: the reference for the kernel."""
    places = range(len(net.places))
    index = {net.m0: 0}
    order = [net.m0]
    edges, labels = [], {}
    for s, m in enumerate(order):
        for t in range(len(net.transitions)):
            if any(m[p] < net.consume.get((p, t), 0) for p in places):
                continue
            m2 = tuple(m[p] - net.consume.get((p, t), 0)
                       + net.produce.get((t, p), 0) for p in places)
            if m2 not in index:
                if len(order) >= cap:
                    raise CapExceeded(cap)
                index[m2] = len(order)
                order.append(m2)
            edges.append((s, labels.setdefault(t, len(labels)), index[m2]))
    return Lts(states=tuple(f"m{i}" for i in range(len(order))),
               labels=tuple(net.transitions[t] for t in labels),
               edges=tuple(edges), initial=0)


def outcome(graph, net, cap):
    try:
        return graph(net, cap)
    except CapExceeded as exc:
        return ("CapExceeded", exc.cap)


def walk_agrees(net, lts):
    """Whether `realises` says what `isomorphic` says of the reference
    graph explored to |S| + 1 markings (a larger graph reads as no)."""
    graph = outcome(tuple_graph, net, len(lts.states) + 1)
    expected = isinstance(graph, Lts) and \
        isinstance(isomorphic(lts, graph), dict)
    return realises(net, lts) == expected


EDGE_NETS = {
    # 2**70 tokens: fields far wider than a machine word
    "huge-tokens": PetriNet(("p", "q", "r"), ("t", "u", "v"),
                            {(0, 0): 2**69, (1, 1): 1, (2, 2): 1},
                            {(0, 1): 1, (1, 0): 2**69, (2, 2): 1},
                            (2**70, 0, 1)),
    "heavy-arcs": PetriNet(("p", "q"), ("t", "u"),
                           {(0, 0): 2**40, (1, 1): 2**40},
                           {(0, 1): 2**40, (1, 0): 2**40},
                           (3 * 2**40, 0)),
    # unbounded, with a transition of empty preset: at cap c the last
    # fired marking puts 1 + 3c on p, the most any computed marking can
    # hold, and at c = 2 and c = 10 that fills a field (7 and 31)
    "counter": PetriNet(("p", "q"), ("t", "u", "v"),
                        {(0, 1): 1, (1, 2): 1},
                        {(0, 0): 3, (1, 0): 1, (2, 1): 1}, (1, 1)),
    # the same count with a budget: a chain of seven markings
    "budget": PetriNet(("p", "b"), ("t", "u"), {(1, 0): 1, (0, 1): 1},
                       {(0, 0): 3, (1, 0): 1}, (1, 6)),
    # s has no arcs at all
    "empty-preset": PetriNet(("p", "q"), ("s", "u"), {(0, 1): 1},
                             {(1, 1): 1}, (1, 0)),
    "no-places": PetriNet((), ("a", "b"), {}, {}, ()),
}


class TestPackedKernel:
    """`reachability_graph` and `realises` against a tuple-marking BFS."""

    @pytest.mark.parametrize("name", sorted(EDGE_NETS))
    def test_same_graph_and_cap(self, name):
        net = EDGE_NETS[name]
        for cap in range(1, 12):
            assert outcome(reachability_graph, net, cap) == \
                outcome(tuple_graph, net, cap), cap

    def test_realises_on_the_edge_nets(self):
        graphs = [outcome(tuple_graph, net, 12) for net in EDGE_NETS.values()]
        for net in EDGE_NETS.values():
            for lts in graphs:
                if isinstance(lts, Lts):
                    assert walk_agrees(net, lts)

    def test_realises_on_one_step_changes(self):
        checked = 0
        for i in range(100):
            net = random_brac_net(i)
            lts = reachability_graph(net, 2000)
            variants = [without_place(net, p) for p in range(len(net.places))]
            variants += [replace(net, m0=net.m0[:p] + (x + d,)
                                 + net.m0[p + 1:])
                         for p, x in enumerate(net.m0) for d in (-1, 1)
                         if x + d >= 0]
            for variant in [net] + variants:
                assert walk_agrees(variant, lts), (i, variant)
                checked += 1
        assert checked > 1000


class TestArcRange:
    """Arc keys index ``places`` and ``transitions``; a negative or too
    large index on either end of either arc kind is rejected."""

    @pytest.mark.parametrize("consume, produce", [
        ({(-1, 0): 1}, {}), ({(2, 0): 1}, {}), ({(0, -1): 1}, {}),
        ({(0, 1): 1}, {}), ({}, {(-1, 0): 1}), ({}, {(1, 0): 1}),
        ({}, {(0, -1): 1}), ({}, {(0, 2): 1}),
    ])
    def test_unknown_endpoint_rejected(self, consume, produce):
        with pytest.raises(PetriNetError, match="outside the net"):
            PetriNet(("p", "q"), ("t",), consume, produce, (0, 1))


class TestNetChecks:
    def test_overlapping_names_rejected(self):
        with pytest.raises(PetriNetError, match="names overlap"):
            PetriNet(("x",), ("x",), {}, {}, (0,))

    @pytest.mark.parametrize("places, transitions", [
        (("p", "p"), ("a",)), (("p", "q"), ("a", "a"))],
        ids=["places", "transitions"])
    def test_repeated_names_rejected(self, places, transitions):
        with pytest.raises(PetriNetError, match="names overlap or repeat"):
            PetriNet(places, transitions, {}, {}, (0, 0))

    def test_marking_size_mismatch_rejected(self):
        with pytest.raises(PetriNetError, match="size mismatch"):
            PetriNet(("p", "q"), ("t",), {}, {}, (0,))

    @pytest.mark.parametrize("consume, produce", [
        ({(0, 0): 0}, {}), ({}, {(0, 0): -1})], ids=["consume", "produce"])
    def test_weight_not_positive_rejected(self, consume, produce):
        with pytest.raises(PetriNetError, match="must be positive"):
            PetriNet(("p",), ("t",), consume, produce, (0,))

    def test_negative_initial_tokens_rejected(self):
        # the packed kernel would borrow across fields and fire the
        # disabled t forever
        with pytest.raises(PetriNetError, match="must not be negative"):
            PetriNet(("p", "q"), ("t",), {(0, 0): 1}, {(0, 1): 1}, (-1, 0))


class TestNetFormat:
    def test_fig1_roundtrip(self, fig1_net):
        again = parse_net(serialize_net(fig1_net))
        assert again == fig1_net

    def test_empty_net_roundtrip(self):
        net = PetriNet((), (), {}, {}, ())
        assert parse_net(serialize_net(net)) == net

    def test_unknown_place_rejected(self):
        with pytest.raises(PetriNetError, match="line 3"):
            parse_net("place p 0\ntransition t\narc q t\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(PetriNetError, match="line 3"):
            parse_net("place p 0\ntransition t\narc p t -1\n")

    def test_duplicate_arc_rejected(self):
        with pytest.raises(PetriNetError, match="line 4"):
            parse_net("place p 0\ntransition t\narc p t\narc p t 2\n")

    @pytest.mark.parametrize("text, line", [
        ("place p ²\n", 1), ("place p ٣\n", 1),
        ("place p 0\ntransition t\narc p t ³\n", 3),
        ("place p 0\ntransition t\narc p t ٣\n", 3)],
        ids=["tokens-superscript", "tokens-arabic-indic",
             "weight-superscript", "weight-arabic-indic"])
    def test_non_ascii_digits_rejected(self, text, line):
        with pytest.raises(PetriNetError, match=f"line {line}"):
            parse_net(text)

    def test_duplicate_id_rejected(self):
        with pytest.raises(PetriNetError, match="line 2"):
            parse_net("place p 0\ntransition p\n")

    @pytest.mark.parametrize("text, message", [
        ("place p! 0\n", "line 1: bad name 'p!'"),
        ("place p 0\ntransition t u\n",
         "line 2: expected 'transition <name>'"),
        ("place p 0\ntransition t\narc p\n",
         "line 3: expected 'arc <from> <to> \\[weight\\]'"),
        ("place p 0\ntransition t\narc p t 1 2\n",
         "line 3: expected 'arc <from> <to> \\[weight\\]'"),
        ("place p 0\ntransition t\narc t p\narc t p 2\n",
         "line 4: duplicate arc"),
        ("place p 0\ntoken p 1\n", "line 2: unknown directive 'token'"),
    ], ids=["bad-name", "transition-fields", "arc-too-few", "arc-too-many",
            "duplicate-produce", "unknown-directive"])
    def test_parse_error_message(self, text, message):
        with pytest.raises(PetriNetError, match=message):
            parse_net(text)

    def test_weighted_roundtrip(self):
        net = load_net("wrac-net")
        again = parse_net(serialize_net(net))
        assert again == net

    @pytest.mark.parametrize("mark", ["\f", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_comment_runs_to_the_line_end(self, mark):
        """`str.splitlines` also breaks at ``mark``; the format does not,
        so the comment's tail declares nothing."""
        net = parse_net(f"place p 1  # see{mark}transition t\n")
        assert (net.places, net.transitions) == (("p",), ())

    @pytest.mark.parametrize("text, line", [
        ("place p " + "9" * 5000 + "\n", 1),
        ("place p 0\ntransition t\narc p t " + "9" * 5000 + "\n", 3),
        ("place p 0\ntransition t\narc t p " + "9" * 5000 + "\n", 3)],
        ids=["tokens", "consume-weight", "produce-weight"])
    def test_number_too_long_for_int_rejected(self, text, line):
        with pytest.raises(PetriNetError,
                           match=f"^line {line}: number of 5000 digits"):
            parse_net(text)

    def test_generated_nets_roundtrip(self):
        """The fixture nets, ``random_brac_net(0..99)`` and the nets both
        pipelines synthesise on the graphs of the latter."""
        nets = [parse_net(p.read_text())
                for p in sorted(FIXTURES.glob("*.pn"))]
        nets += [random_brac_net(i) for i in range(100)]
        for net in nets[-100:]:
            graph = reachability_graph(net)
            nets += [synthesize(graph).net
                     for synthesize in (synthesize_brac, synthesize_wpi)]
        assert len(nets) == 306
        for net in nets:
            assert parse_net(serialize_net(net)) == net


class TestDot:
    def test_fig1_shapes(self, fig1_net):
        dot = render_dot(fig1_net)
        assert dot.count("shape=circle") == 5
        assert dot.count("shape=box") == 6
        assert dot.startswith("digraph")

    def test_empty(self):
        dot = render_dot(PetriNet((), (), {}, {}, ()))
        assert dot == "digraph net {\n  rankdir=LR;\n}\n"

    def test_weight_labels(self):
        dot = render_dot(load_net("wrac-net"))
        assert 'label="4"' in dot

    def test_token_count_shown(self, fig1_net):
        dot = render_dot(fig1_net)
        assert "p1\\n2" in dot
