import dataclasses
import functools
import hashlib
import random
from fractions import Fraction
from math import gcd
from operator import add, sub
from types import SimpleNamespace

import pytest

from netsynth.lts import (Lts, LtsError, ParikhVector, ValidationReport,
                          cycle_basis, parikh_of_edge, parse_lts,
                          serialize_lts, spanning_tree, validate)
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph
from netsynth.separation import SystemContext

from census import SHAPES, census
from conftest import FIXTURES, load_lts
from reference import reachable_states, tree_parents


def names(lts, entries):
    """Label name -> count of the nonzero ``(label, count)`` entries."""
    return {lts.labels[k]: v for k, v in entries if v}


def dense(basis_vector, nlab):
    """A cycle-basis vector's sparse counts as one entry per label."""
    vec = [0] * nlab
    for k, v in basis_vector.counts:
        vec[k] = v
    return vec


def edge(lts, s, t, s2):
    return (lts.states.index(s), lts.labels.index(t), lts.states.index(s2))


def is_tree_edge(tree, edge):
    s, t, s2 = edge
    return s2 != tree.lts.initial and tree.parent.get(s2) == (s, t)


def enabled(lts):
    """Per state, the frozenset of labels with an outgoing edge."""
    out = [set() for _ in lts.states]
    for s, t, _ in lts.edges:
        out[s].add(t)
    return tuple(map(frozenset, out))


def enabling(lts):
    """Per label, the frozenset of states with an outgoing edge of it."""
    out = [set() for _ in lts.labels]
    for s, t, _ in lts.edges:
        out[t].add(s)
    return tuple(map(frozenset, out))


def chords(tree):
    """The non-tree edges, in edge order: the reference enumeration reduced
    chord by chord against `cycle_basis`."""
    return [e for e in tree.lts.edges if not is_tree_edge(tree, e)]


def one_edge_removed(seeds):
    """Each graph of ``random_brac_net(seed)`` less one of its edges, with
    the edge removed."""
    for seed in seeds:
        graph = reachability_graph(random_brac_net(seed))
        for k, e in enumerate(graph.edges):
            yield Lts(graph.states, graph.labels,
                      graph.edges[:k] + graph.edges[k + 1:],
                      graph.initial), e


class TestParse:
    def test_fig1_shape(self, fig1):
        assert len(fig1.states) == 15
        assert len(fig1.edges) == 24
        assert sorted(fig1.labels) == list("abcdef")
        assert fig1.states[fig1.initial] == "s0"

    def test_single_state(self):
        lts = parse_lts("initial s0\n")
        assert lts.states == ("s0",)
        assert lts.edges == ()

    def test_nondeterministic_input_parses(self):
        lts = parse_lts("initial s0\ns0 a s1\ns0 a s2\n")
        assert len(lts.edges) == 2
        report = validate(lts)
        assert not report.deterministic
        assert report.nondeterministic_witness is not None

    def test_first_appearance_order(self):
        lts = parse_lts("initial q\nq b r\nr a q\n")
        assert lts.states == ("q", "r")
        assert lts.labels == ("b", "a")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(LtsError, match="line 3"):
            parse_lts("initial s0\ns0 a s1\ns0 a s1\n")

    def test_missing_initial_rejected(self):
        with pytest.raises(LtsError, match="initial"):
            parse_lts("s0 a s1\n")

    def test_duplicate_initial_rejected(self):
        with pytest.raises(LtsError, match="line 2"):
            parse_lts("initial s0\ninitial s1\n")

    @pytest.mark.parametrize("line", ["initial", "initial s0 a s1"])
    def test_malformed_initial_rejected(self, line):
        with pytest.raises(LtsError,
                           match="line 2: malformed initial header"):
            parse_lts(f"s0 a s1\n{line}\n")

    def test_bad_name_rejected(self):
        with pytest.raises(LtsError, match="line 2"):
            parse_lts("initial s0\ns0 a! s1\n")

    def test_syntax_error_has_line_number(self):
        with pytest.raises(LtsError, match="line 3"):
            parse_lts("initial s0\ns0 a s1\ns1 b\n")

    def test_roundtrip(self, fig1):
        # states named like the header keyword, as source and as target
        named_initial = parse_lts("initial s0\ns0 a initial\n"
                                  "initial b s0\ninitial c initial\n")
        for lts in (fig1, named_initial):
            assert parse_lts(serialize_lts(lts)) == lts

    def test_comments_ignored(self):
        text = "# header\ninitial s0  # trailing\ns0 a s1\n"
        lts = parse_lts(text)
        assert len(lts.edges) == 1

    @pytest.mark.parametrize("mark", ["\f", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_comment_runs_to_the_line_end(self, mark):
        """`str.splitlines` also breaks at ``mark``; the format does not,
        so the comment's tail is no edge."""
        lts = parse_lts(f"initial s0  # see{mark}s0 a s1\ns0 b s0\n")
        assert named_edges(lts) == [("s0", "b", "s0")]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_error_line_counts_only_line_ends(self, end):
        text = end.join(["initial s0", "s0 a s1 # \x85\u2028\f", "",
                         "s1 b\x1cs0", "s1 c"]) + end
        with pytest.raises(LtsError, match="^line 5: "):
            parse_lts(text)


def named_edges(lts):
    return [(lts.states[s], lts.labels[t], lts.states[s2])
            for s, t, s2 in lts.edges]


class TestInputRoundTrip:
    """The one-edge-removed and one-edge-repeated variants of
    ``random_lts(0..299, 24, 6)`` and of the graphs of
    ``random_brac_net(0..99)``, through `serialize_lts` and `parse_lts`.

    The text names states and labels only as they appear, so a valid
    variant comes back with the same names, initial state and named edges
    in order, but not always in the same index order; and an invalid one
    may come back equal, as an unreachable state keeps its edges.  So
    `validate` does not decide whether the round trip is the identity.
    """

    def test_variants(self):
        graphs = [g for name, g in basis_graphs().items()
                  if name.startswith(("random_lts/", "random_brac_net/"))]
        variants = valid = reordered = invalid_equal = 0
        for g in graphs:
            for k in range(len(g.edges)):
                variants += 1
                repeated = Lts(g.states, g.labels,
                               g.edges[:k + 1] + g.edges[k:], g.initial)
                with pytest.raises(LtsError,
                                   match=f"^line {k + 3}: duplicate edge"):
                    parse_lts(serialize_lts(repeated))
                lts = Lts(g.states, g.labels, g.edges[:k] + g.edges[k + 1:],
                          g.initial)
                again = parse_lts(serialize_lts(lts))
                if not validate(lts).ok:
                    invalid_equal += again == lts
                    continue
                valid += 1
                assert again.states[again.initial] == lts.states[lts.initial]
                assert set(again.states) == set(lts.states)
                assert set(again.labels) == set(lts.labels)
                assert named_edges(again) == named_edges(lts)
                reordered += again != lts
        assert (variants, valid, reordered, invalid_equal) == \
            (8587, 6249, 1763, 876)


class TestValidate:
    def test_fig1_clean(self, fig1):
        report = validate(fig1)
        assert report.deterministic and report.reachable
        assert report.self_loop_labels == frozenset()

    def test_case6a_self_loops(self, case6a):
        report = validate(case6a)
        loops = {case6a.labels[t] for t in report.self_loop_labels}
        assert loops == {"c"}

    def test_orphan_state(self):
        lts = parse_lts("initial s0\ns0 a s1\ns9 a s9\n")
        report = validate(lts)
        assert not report.reachable
        assert [lts.states[s] for s in report.unreachable_states] == ["s9"]

    def test_label_on_no_edge(self):
        lts = Lts(states=("s0", "s1"), labels=("a", "b", "c"),
                  edges=((0, 0, 1), (1, 1, 0)), initial=0)
        report = validate(lts)
        assert report.deterministic and report.reachable
        assert report.unused_labels == ("c",) and not report.ok
        assert report == reference_validate(lts)
        with pytest.raises(LtsError, match="^label 'c' is on no edge$"):
            report.raise_if_invalid()

    def test_label_on_no_edge_beside_two_edges_of_one_label(self):
        # s0's -1 mask sets every bit; its edges still leave b unused
        lts = Lts(states=("s0", "s1"), labels=("a", "b"),
                  edges=((0, 0, 0), (0, 0, 1)), initial=0)
        report = validate(lts)
        assert report.unused_labels == ("b",) and not report.deterministic
        assert report == reference_validate(lts)
        with pytest.raises(LtsError, match="deterministic and reachable"):
            report.raise_if_invalid()

    def test_one_edge_removed(self):
        """On the graphs of ``random_brac_net(0..29)`` less one edge, a
        label is reported unused exactly when that edge was its only one."""
        unused = 0
        for lts, (_, t, _) in one_edge_removed(range(30)):
            report = validate(lts)
            alone = all(e[1] != t for e in lts.edges)
            assert report.unused_labels == \
                ((lts.labels[t],) if alone else ()), lts
            assert report == reference_validate(lts)
            unused += alone
        assert unused > 0


def edge_orders(lts, seed):
    """``lts`` with its edges reversed, then with them shuffled by
    ``seed``."""
    shuffled = list(lts.edges)
    random.Random(seed).shuffle(shuffled)
    return [dataclasses.replace(lts, edges=edges)
            for edges in (lts.edges[::-1], tuple(shuffled))]


def without_state(lts, s):
    """``lts`` with every edge into or out of ``s`` dropped."""
    return dataclasses.replace(lts, edges=tuple(
        e for e in lts.edges if s not in (e[0], e[2])))


class TestReachabilityIgnoresEdgeOrder:
    """`validate` reaches states in one forward pass over the edge list
    and searches `Lts.out_edges` only when that pass leaves a state
    unreached; in any edge order its report is the reference's, whose
    reachability is a BFS over the edges (`reference.reachable_states`).
    """

    @staticmethod
    def check(lts, seed):
        """Checks ``lts`` and its `edge_orders`; returns on how many of
        the three `validate` searched the out-edges."""
        searched = 0
        report = validate(lts)
        for variant in [lts] + edge_orders(lts, seed):
            assert validate(variant) == report == \
                reference_validate(variant), variant
            searched += "out_edges" in vars(variant)
        return searched

    def test_census(self):
        lts_count = searched = 0
        for shape in SHAPES:
            for lts in census(*shape):
                searched += self.check(lts, lts_count)
                lts_count += 1
                # numbered in BFS order, an edge list sorted by source
                # state reaches every state in the forward pass
                assert "out_edges" not in vars(lts)
        assert lts_count == 21464
        assert searched > 0

    def test_random_lts_less_a_state(self):
        """``random_lts(0..99, 24, 6)`` less each state but the initial
        one in turn: the state dropped is never reached."""
        removed = searched = 0
        for seed in range(100):
            lts = random_lts(seed, 24, 6)
            for s in range(len(lts.states)):
                if s == lts.initial:
                    continue
                less = without_state(lts, s)
                searched += self.check(less, seed)
                assert s in validate(less).unreachable_states
                removed += 1
        assert removed == 1096 and searched > 0

    def test_reachable_after_a_later_edge(self):
        # s1's edge out comes before the edge into s1
        lts = parse_lts("initial s0\ns1 b s2\ns0 a s1\n")
        report = validate(lts)
        assert report.reachable and "out_edges" in vars(lts)
        assert report == reference_validate(lts)


class TestNames:
    @pytest.mark.parametrize("states, labels", [
        (("s0", "s0"), ("a", "b")),
        (("s0", "s1"), ("a", "a")),
    ])
    def test_repeated_names_rejected(self, states, labels):
        with pytest.raises(LtsError, match="state or label names repeat"):
            Lts(states=states, labels=labels, edges=((0, 0, 1), (1, 1, 0)),
                initial=0)

    def test_a_state_may_share_a_label_name(self):
        lts = Lts(states=("a", "b"), labels=("a", "b"),
                  edges=((0, 0, 1), (1, 1, 0)), initial=0)
        assert validate(lts).ok


class TestLabelMasks:
    def test_masks_are_the_enabled_labels(self, fig1):
        assert fig1.label_masks == tuple(sum(1 << a for a in labels)
                                         for labels in enabled(fig1))

    def test_two_edges_of_one_label_read_minus_one(self):
        lts = Lts(states=("s0", "s1"), labels=("a", "b"),
                  edges=((0, 0, 0), (0, 0, 1), (1, 1, 0)), initial=0)
        assert lts.label_masks == (-1, 2)


class TestLtsMasks:
    """`Lts.label_masks` and `Lts.state_masks` against frozensets built
    here from the edges."""

    @staticmethod
    def check(lts):
        degree = [0] * len(lts.states)
        for s, _, _ in lts.edges:
            degree[s] += 1
        assert lts.label_masks == tuple(
            sum(1 << a for a in labels) if len(labels) == d else -1
            for labels, d in zip(enabled(lts), degree))
        assert lts.state_masks == tuple(sum(1 << s for s in states)
                                        for states in enabling(lts))

    def test_generated_graphs(self):
        for lts in basis_graphs().values():
            self.check(lts)

    def test_two_edges_of_one_label(self):
        lts = Lts(states=("s0", "s1", "s2"), labels=("a", "b"),
                  edges=((0, 0, 1), (0, 1, 2), (0, 0, 2), (1, 1, 0)),
                  initial=0)
        self.check(lts)
        assert lts.label_masks == (-1, 2, 0)
        assert lts.state_masks == (1, 3)

    def test_identical_repeated_edge(self):
        lts = Lts(states=("s0", "s1"), labels=("a",),
                  edges=((0, 0, 1), (0, 0, 1)), initial=0)
        self.check(lts)
        assert lts.label_masks == (-1, 0)
        assert lts.state_masks == (1,)

    def test_label_on_no_edge(self):
        lts = Lts(states=("s0", "s1"), labels=("a", "b", "c"),
                  edges=((0, 2, 1), (1, 0, 0)), initial=0)
        self.check(lts)
        assert lts.label_masks == (4, 1)
        assert lts.state_masks == (2, 0, 1)

    def test_self_loops(self):
        lts = parse_lts("initial s0\ns0 a s0\ns0 b s1\ns1 b s1\n")
        self.check(lts)
        assert lts.label_masks == (3, 2)
        assert lts.state_masks == (1, 3)

    def test_masks_wider_than_a_machine_word(self):
        # 150 states in a ring, one label per state, plus chords of the
        # labels 64 apart: state and label bits beyond 64 and 128
        n = 150
        edges = [(s, s, (s + 1) % n) for s in range(n)]
        edges += [(s, (s + 64) % n, (s + 7) % n) for s in range(0, n, 3)]
        lts = Lts(states=tuple(f"s{i}" for i in range(n)),
                  labels=tuple(f"a{i}" for i in range(n)),
                  edges=tuple(edges), initial=0)
        self.check(lts)
        assert lts.label_masks[130] == 1 << 130
        assert lts.label_masks[141] == 1 << 141 | 1 << 55
        assert lts.state_masks[55] == 1 << 55 | 1 << 141
        assert max(lts.state_masks).bit_length() == n


TABLES = ("out_edges", "label_masks", "state_masks", "self_loop_labels")
MASK_TABLES = TABLES[1:]


def one_table(lts, name):
    """One `Lts` table by its own definition, from the edges alone."""
    edges, states = lts.edges, range(len(lts.states))
    if name == "out_edges":
        return tuple(tuple(e for e in edges if e[0] == s) for s in states)
    if name == "label_masks":
        out = one_table(lts, "out_edges")
        return tuple(-1 if len({t for _, t, _ in es}) < len(es)
                     else sum(1 << t for _, t, _ in es) for es in out)
    if name == "state_masks":
        return tuple(sum({1 << s for s, t, _ in edges if t == a})
                     for a in range(len(lts.labels)))
    return frozenset(t for s, t, s2 in edges if s == s2)


def filled_tables(lts):
    """The names of the tables an `Lts` holds already."""
    return [name for name in TABLES if name in vars(lts)]


class TestOnePassTables:
    """`Lts` fills its three mask tables in one pass, on the first read of
    any, and `out_edges` alone, on its first read; each must equal its
    own one-table definition, and neither making nor copying an `Lts` may
    build one."""

    CASES = {
        "identical repeated edge": Lts(
            states=("s0", "s1"), labels=("a", "b"),
            edges=((0, 0, 1), (0, 0, 1), (1, 1, 0)), initial=0),
        "one label to two targets": Lts(
            states=("s0", "s1", "s2"), labels=("a", "b"),
            edges=((0, 0, 1), (0, 1, 2), (0, 0, 2), (2, 1, 0)),
            initial=0),
        "self-loop": Lts(
            states=("s0", "s1"), labels=("a", "b", "c"),
            edges=((0, 0, 0), (0, 1, 1), (1, 2, 1), (1, 0, 0)),
            initial=0),
        "unreachable state": Lts(
            states=("s0", "s1", "s2"), labels=("a", "b"),
            edges=((0, 0, 1), (1, 1, 0), (2, 0, 0)), initial=0),
    }

    @staticmethod
    def check(lts, first):
        assert filled_tables(lts) == []
        getattr(lts, first)
        if first == "out_edges":
            assert filled_tables(lts) == ["out_edges"]
            lts.state_masks
        else:
            assert filled_tables(lts) == list(MASK_TABLES)
            lts.out_edges
        assert filled_tables(lts) == list(TABLES)
        for name in TABLES:
            assert getattr(lts, name) == one_table(lts, name), name
        assert isinstance(lts.self_loop_labels, frozenset)
        assert all(type(getattr(lts, name)) is tuple for name in TABLES[:3])
        assert all(type(es) is tuple for es in lts.out_edges)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("first", TABLES)
    def test_built_cases(self, name, first):
        self.check(dataclasses.replace(self.CASES[name]), first)

    def test_built_cases_are_what_they_say(self):
        cases = self.CASES
        assert cases["identical repeated edge"].label_masks[0] == -1
        assert cases["one label to two targets"].label_masks[0] == -1
        assert cases["self-loop"].self_loop_labels == {0, 2}
        assert validate(cases["unreachable state"]).unreachable_states \
            == (2,)

    def test_random_lts(self):
        for i in range(300):
            # the generator reads the tables of the LTS it returns
            self.check(dataclasses.replace(random_lts(i, 24, 6)),
                       TABLES[i % len(TABLES)])

    def test_making_or_copying_builds_no_table(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s0\ns1 c s1\n")
        assert filled_tables(lts) == []
        assert validate(lts).ok
        # its edges list an edge into each state before one out of it
        assert filled_tables(lts) == list(MASK_TABLES)
        copy = dataclasses.replace(lts)
        assert copy == lts and filled_tables(copy) == []
        made = Lts(states=lts.states, labels=lts.labels, edges=lts.edges,
                   initial=lts.initial)
        assert filled_tables(made) == []


class TestSpanningTree:
    def test_fig1_depth_one(self, fig1):
        tree = spanning_tree(fig1)
        s1 = fig1.states.index("s1")
        s3 = fig1.states.index("s3")
        a = fig1.labels.index("a")
        b = fig1.labels.index("b")
        assert tree.parent[s1] == (fig1.initial, a)
        assert tree.parent[s3] == (fig1.initial, b)

    def test_single_state_empty(self):
        tree = spanning_tree(parse_lts("initial s0\n"))
        assert tree.parent == {}

    def test_unreachable_raises(self):
        lts = parse_lts("initial s0\ns1 a s1\n")
        with pytest.raises(LtsError, match="unreachable"):
            spanning_tree(lts)

    def test_genx_equal_parikh_at_separation_pair(self, genx):
        # the Parikh difference that makes the state pair unsolvable
        tree = spanning_tree(genx)
        s3 = genx.states.index("s3")
        s7 = genx.states.index("s7")
        assert tree.parikh[s3] == tree.parikh[s7]

    def test_tiebreak_prefers_smaller_source(self):
        # both s1 and s2 reach s3 at depth 2; s1 must win
        lts = parse_lts("initial s0\ns0 a s1\ns0 b s2\ns2 a s3\ns1 b s3\n")
        tree = spanning_tree(lts)
        s3 = lts.states.index("s3")
        assert tree.parent[s3][0] == lts.states.index("s1")

    def test_tiebreak_prefers_smaller_label_at_one_source(self):
        # s0 reaches s1 by b, then by a, the smaller label
        lts = parse_lts("initial s0\ns1 a s0\ns0 b s1\ns0 a s1\n")
        tree = spanning_tree(lts)
        assert tree.parent[1] == (0, lts.labels.index("a"))

    def test_parents_in_three_edge_orders(self):
        """Each parent is the smallest (source, label) one level up, on
        ``random_lts(0..299, 24, 6)`` with its edges as given, reversed
        and shuffled."""
        rng = random.Random(50)
        for i in range(300):
            lts = random_lts(i, 24, 6)
            shuffled = list(lts.edges)
            rng.shuffle(shuffled)
            for edges in (lts.edges, lts.edges[::-1], tuple(shuffled)):
                order = Lts(lts.states, lts.labels, edges, lts.initial)
                assert spanning_tree(order).parent == tree_parents(order), i


class TestParikh:
    def test_fig1_s9(self, fig1):
        tree = spanning_tree(fig1)
        vec = tree.parikh[fig1.states.index("s9")]
        assert names(fig1, enumerate(vec)) == {"a": 2, "c": 2}

    def test_initial_zero(self, fig1):
        tree = spanning_tree(fig1)
        assert tree.parikh[fig1.initial] == (0,) * len(fig1.labels)

    def test_fig1_s7(self, fig1):
        tree = spanning_tree(fig1)
        vec = tree.parikh[fig1.states.index("s7")]
        assert names(fig1, enumerate(vec)) == {"a": 2, "d": 1, "e": 1}

    def test_fig1_chord_zero(self, fig1):
        tree = spanning_tree(fig1)
        vec = parikh_of_edge(tree, edge(fig1, "s7", "c", "s11"))
        assert not any(vec)

    def test_fig1_chord_bc(self, fig1):
        tree = spanning_tree(fig1)
        vec = parikh_of_edge(tree, edge(fig1, "s4", "b", "s1"))
        assert names(fig1, enumerate(vec)) == {"b": 1, "c": 1}

    def test_tree_edges_zero(self):
        for name, lts, tree in basis_trees():
            zero = (0,) * len(lts.labels)
            for e in lts.edges:
                if is_tree_edge(tree, e):
                    assert parikh_of_edge(tree, e) == zero, name

    def test_walk_identity_on_random_walks(self, fig1):
        # psi_E(walk) computed edge-wise equals psi(s1) + psi(word) - psi(s2)
        tree = spanning_tree(fig1)
        nlab = len(fig1.labels)
        rng = random.Random(7)
        for _ in range(50):
            s = fig1.initial
            total = (0,) * nlab
            word = [0] * nlab
            for _ in range(rng.randint(1, 12)):
                out = fig1.out_edges[s]
                if not out:
                    break
                e = rng.choice(sorted(out))
                total = tuple(map(add, total, parikh_of_edge(tree, e)))
                word[e[1]] += 1
                s = e[2]
            expected = tuple(map(sub, map(add, tree.parikh[fig1.initial],
                                          word), tree.parikh[s]))
            assert total == expected


@functools.cache
def basis_graphs():
    """Name -> LTS: the fixtures, ``random_lts(0..299, 24, 6)``, the graphs
    of ``random_brac_net(0..99)`` and the three scale-ladder nets."""
    graphs = {f"fixture/{p.stem}": parse_lts(p.read_text())
              for p in sorted(FIXTURES.glob("*.lts"))}
    graphs.update((f"random_lts/{i}", random_lts(i, 24, 6))
                  for i in range(300))
    graphs.update((f"random_brac_net/{i}",
                   reachability_graph(random_brac_net(i), 100_000))
                  for i in range(100))
    graphs.update((f"ladder/{s}",
                   reachability_graph(random_brac_net(s, 6, 4), 100_000))
                  for s in (44, 17, 38))
    return graphs


@functools.cache
def large_graphs():
    """Name -> LTS: the graphs of ``random_brac_net(37, 6, 4)`` (3,200
    markings) and ``random_brac_net(0, 8, 4)`` (11,520 markings)."""
    return {f"large/{seed}x{rings}":
            reachability_graph(random_brac_net(seed, rings, 4), 100_000)
            for seed, rings in ((37, 6), (0, 8))}


def basis_trees():
    """``(name, lts, spanning tree)`` for every graph of ``basis_graphs()``."""
    for name, lts in basis_graphs().items():
        yield name, lts, spanning_tree(lts)


class TestDenseParikh:
    """Every Parikh vector is a tuple with one count per label."""

    def test_one_entry_per_label(self):
        for name, lts, tree in basis_trees():
            assert len(tree.parikh) == len(lts.states), name
            assert all(type(vec) is tuple and len(vec) == len(lts.labels)
                       for vec in tree.parikh), name

    def test_counts_of_the_tree_walk(self):
        for name, lts, tree in basis_trees():
            for s, vec in enumerate(tree.parikh):
                walk = [0] * len(lts.labels)
                while s != lts.initial:
                    s, t = tree.parent[s]
                    walk[t] += 1
                assert list(vec) == walk, name


def in_span(basis, vec):
    """Whether the dense ``vec`` is a rational combination of an echelon
    ``basis``."""
    target = [Fraction(x) for x in vec]
    for b in basis:
        row = [Fraction(x) for x in dense(b, len(vec))]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None or target[lead] == 0:
            continue
        factor = target[lead] / row[lead]
        target = [t - factor * r for t, r in zip(target, row)]
    return all(t == 0 for t in target)


def reference_basis(tree):
    """The chord-by-chord scan: every chord of ``chords(tree)``, repeats
    included, reduced into a fraction-free echelon basis in edge order."""
    def primitive(vec):
        g = gcd(*vec)
        return [x // g for x in vec] if g > 1 else list(vec)

    nlab = len(tree.lts.labels)
    rows = {}
    for chord in chords(tree):
        if len(rows) == nlab:
            break
        vec = list(parikh_of_edge(tree, chord))
        for p, row in rows.items():
            if vec[p]:
                vec = primitive([row[p] * x - vec[p] * y
                                 for x, y in zip(vec, row)])
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        vec = primitive([-x for x in vec] if vec[lead] < 0 else vec)
        for p, row in rows.items():
            if row[lead]:
                rows[p] = primitive([vec[lead] * x - row[lead] * y
                                     for x, y in zip(row, vec)])
        rows[lead] = vec
    return [ParikhVector(tuple((k, x) for k, x in enumerate(rows[p]) if x))
            for p in sorted(rows)]


def assert_matches_reference(lts, name=""):
    """`cycle_basis` equals `reference_basis`; returns the basis."""
    tree = spanning_tree(lts)
    basis = cycle_basis(lts, tree)
    assert basis == reference_basis(tree), name
    return basis


# SHA-256 over ``basis_graphs()`` of every ``[v.counts for v in basis]``
BASIS_DIGEST = \
    "3c6588c30993022c238a5b0b8fb8968f2da9f5221d5ef1b694b10b04ce6cad74"

# the same over ``large_graphs()``, ranks 40 and 44
LARGE_BASIS_DIGEST = \
    "4ede7cecbd7adc43916d251d6d8a1b055ab0b3af40391c07507bf2d43db5c229"


def basis_digest(graphs):
    """SHA-256 over ``graphs`` of every name and ``[v.counts for v in
    basis]``, one line each."""
    h = hashlib.sha256()
    for name, lts in graphs.items():
        basis = cycle_basis(lts, spanning_tree(lts))
        h.update(f"{name} {[v.counts for v in basis]}\n".encode())
    return h.hexdigest()


class TestCycleBasis:
    def test_fig1(self, fig1):
        tree = spanning_tree(fig1)
        basis = cycle_basis(fig1, tree)
        got = sorted(tuple(sorted(names(fig1, v.counts).items()))
                     for v in basis)
        assert got == [(("a", 1), ("d", 1), ("f", 1)), (("b", 1), ("c", 1))]

    def test_acyclic_empty(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\n")
        tree = spanning_tree(lts)
        assert cycle_basis(lts, tree) == []

    def test_case6b(self, case6b):
        tree = spanning_tree(case6b)
        basis = cycle_basis(case6b, tree)
        got = sorted(tuple(sorted(names(case6b, v.counts).items()))
                     for v in basis)
        assert got == [(("a", 1), ("b", 1)), (("c", 1),)]

    def test_every_cycle_in_span(self):
        # random cycles of fig1 must be rational combinations of the basis
        fig1 = load_lts("fig1")
        tree = spanning_tree(fig1)
        basis = cycle_basis(fig1, tree)
        nlab = len(fig1.labels)
        rng = random.Random(3)
        for _ in range(30):
            # random walk until we revisit a state: that suffix is a cycle
            s = fig1.initial
            seen = {s: (0,) * nlab}
            acc = [0] * nlab
            cycle = None
            for _ in range(60):
                e = rng.choice(sorted(fig1.out_edges[s]))
                acc[e[1]] += 1
                s = e[2]
                if s in seen:
                    cycle = tuple(map(sub, acc, seen[s]))
                    break
                seen[s] = tuple(acc)
            assert cycle is not None
            assert in_span(basis, cycle)

    def test_deterministic(self, fig1):
        tree = spanning_tree(fig1)
        assert cycle_basis(fig1, tree) == cycle_basis(fig1, tree)

    @pytest.mark.parametrize("family", ["random_lts", "random_brac_net"])
    def test_canonical_form(self, family):
        """Coprime rows with a positive leading entry, in reduced echelon
        form, spanning every chord."""
        graphs = [lts for name, lts in basis_graphs().items()
                  if name.startswith(family + "/")]
        for lts in graphs:
            nlab = len(lts.labels)
            tree = spanning_tree(lts)
            basis = cycle_basis(lts, tree)
            rows = [dense(v, nlab) for v in basis]
            assert all(any(row) for row in rows)
            leads = [next(k for k, x in enumerate(row) if x) for row in rows]
            assert all(a < b for a, b in zip(leads, leads[1:]))
            for row, lead in zip(rows, leads):
                assert row[lead] > 0 and gcd(*row) == 1
                assert all(row[k] == 0 for k in leads if k != lead)
            for chord in chords(tree):
                assert in_span(basis, parikh_of_edge(tree, chord))

    def test_basis_unchanged(self):
        """Pins the exact vectors and their order, which every system's
        cycle rows follow."""
        assert basis_digest(basis_graphs()) == BASIS_DIGEST

    def test_large_basis_unchanged(self):
        """The same pin at 3,200 and 11,520 markings, where tens of
        thousands of chords give a few dozen distinct vectors."""
        assert basis_digest(large_graphs()) == LARGE_BASIS_DIGEST


def ring(n):
    """One label ``a`` around ``n`` states; the back chord counts +n."""
    return parse_lts("initial s0\n" + "".join(
        f"s{i} a s{(i + 1) % n}\n" for i in range(n)))


def joined_chains(k):
    """An ``a`` chain and a ``b`` chain of length ``k`` from the initial
    state, and a ``c`` edge from the end of the first to the end of the
    second: the one chord counts +k a, -k b and +1 c."""
    def name(label, i):
        return f"{label}{i}" if i else "s0"

    lines = ["initial s0"]
    for label in "ab":
        lines += [f"{name(label, i)} {label} {name(label, i + 1)}"
                  for i in range(k)]
    lines.append(f"a{k} c b{k}")
    return parse_lts("\n".join(lines) + "\n")


class TestChordKeys:
    """`cycle_basis` reduces each distinct chord vector once, found by a
    packed integer key with fields of ``|S|.bit_length() + 1`` bits."""

    def test_matches_reference_scan(self):
        for name, lts in basis_graphs().items():
            assert_matches_reference(lts, name)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 255, 256, 257])
    def test_ring_chord_at_state_count(self, n):
        # the field of the back chord holds +|S|, the largest value it can
        assert assert_matches_reference(ring(n)) == \
            [ParikhVector(((0, 1),))]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 127, 128])
    def test_chord_with_both_signs(self, k):
        lts = joined_chains(k)
        a, b, c = (lts.labels.index(x) for x in "abc")
        assert len(lts.states) == 2 * k + 1
        assert assert_matches_reference(lts) == \
            [ParikhVector(tuple(sorted(((a, k), (b, -k), (c, 1)))))]

    @pytest.mark.parametrize("n", [3, 7, 255])
    def test_key_keeps_a_sign_bit(self, n):
        # with fields of n.bit_length() bits the chords (n, 0) and (-1, 1)
        # would both key as n; only the second gives the label b
        lts = parse_lts(serialize_lts(ring(n)) + "s0 b s1\n")
        assert assert_matches_reference(lts) == \
            [ParikhVector(((0, 1),)), ParikhVector(((1, 1),))]

    def test_zero_chord(self):
        lts = parse_lts("initial s0\ns0 a s1\ns0 b s2\ns1 b s3\ns2 a s3\n")
        tree = spanning_tree(lts)
        assert [parikh_of_edge(tree, e) for e in chords(tree)] == [(0, 0)]
        assert assert_matches_reference(lts) == []

    def test_self_loops_only(self):
        lts = parse_lts("initial s0\ns0 a s0\ns0 b s0\n")
        assert assert_matches_reference(lts) == \
            [ParikhVector(((0, 1),)), ParikhVector(((1, 1),))]

    def test_edge_order_invariant(self):
        """Shuffled edges give the same tree, which picks by (source,
        label), and so the same basis."""
        graphs = [lts for name, lts in basis_graphs().items()
                  if name.startswith("ladder/")]
        graphs += [random_lts(i, 24, 6) for i in range(50)]
        for i, lts in enumerate(graphs):
            edges = list(lts.edges)
            random.Random(i).shuffle(edges)
            shuffled = Lts(lts.states, lts.labels, tuple(edges), lts.initial)
            tree = spanning_tree(lts)
            tree2 = spanning_tree(shuffled)
            assert tree2.parent == tree.parent
            assert cycle_basis(shuffled, tree2) == cycle_basis(lts, tree)


def reference_validate(lts):
    """`validate` as a pair scan over every edge, reading no mask."""
    witness = None
    seen = {}
    for e in lts.edges:
        key = (e[0], e[1])
        if key in seen:
            witness = (seen[key], e)
            break
        seen[key] = e
    reached = reachable_states(lts)
    unreachable = tuple(s for s in range(len(lts.states)) if s not in reached)
    used = {t for _, t, _ in lts.edges}
    return ValidationReport(
        deterministic=witness is None, nondeterministic_witness=witness,
        reachable=not unreachable, unreachable_states=unreachable,
        unused_labels=tuple(name for t, name in enumerate(lts.labels)
                            if t not in used),
        self_loop_labels=frozenset(t for s, t, s2 in lts.edges if s == s2))


def reference_tree(lts):
    """The BFS tree with each state's out-edges sorted by label, and
    tuple Parikh vectors only: ``(lts, parent, parikh)``, enough for
    `parikh_of_edge` and `reference_basis`."""
    parent = {}
    parikh = {lts.initial: (0,) * len(lts.labels)}
    frontier = [lts.initial]
    while frontier:
        discovered = {}
        for s in sorted(frontier):
            for _, t, s2 in sorted(lts.out_edges[s], key=lambda e: e[1]):
                if s2 in parikh:
                    continue
                if s2 not in discovered or (s, t) < discovered[s2]:
                    discovered[s2] = (s, t)
        for s2, (p, t) in discovered.items():
            vec = list(parikh[p])
            vec[t] += 1
            parikh[s2] = tuple(vec)
        parent.update(discovered)
        frontier = sorted(discovered)
    return SimpleNamespace(lts=lts, parent=parent,
                           parikh=tuple(parikh[s]
                                        for s in range(len(lts.states))))


def assert_front_end_matches_reference(lts, name=""):
    """`validate`, `spanning_tree` and `cycle_basis` equal the references
    and the context's keys are the edges' sources and labels; returns the
    report and, for a reachable LTS, the tree and context."""
    report = validate(lts)
    assert report == reference_validate(lts), name
    if not report.reachable:
        return report, None, None
    tree, ref = spanning_tree(lts), reference_tree(lts)
    assert tree.parent == ref.parent, name
    assert tree.parikh == ref.parikh, name
    basis = cycle_basis(lts, tree)
    assert basis == reference_basis(ref), name
    ctx = SystemContext(lts, tree, basis)
    assert ctx.key_states == tuple(s for s, _, _ in lts.edges), name
    assert ctx.key_labels == tuple(t for _, t, _ in lts.edges), name
    return report, tree, ctx


def path(edges):
    """One label ``a`` along a path of ``edges`` edges."""
    return parse_lts("initial s0\n" + "".join(
        f"s{i} a s{i + 1}\n" for i in range(edges)))


class TestFrontEndReference:
    """`validate` reads `Lts.label_masks`, `spanning_tree` leaves the
    out-edges unsorted and packs the Parikh vectors, and `cycle_basis`
    keys on the packed ints; the results are those of the references
    above, and `SystemContext` takes every edge as a key."""

    def test_generated_graphs(self):
        for name, lts in basis_graphs().items():
            assert_front_end_matches_reference(lts, name)

    def test_packed_is_the_parikh_vector(self):
        for name, lts, tree in basis_trees():
            w = len(lts.states).bit_length() + 1
            assert tree.unit == tuple(1 << (w * t)
                                      for t in range(len(lts.labels))), name
            assert tree.packed == tuple(sum(c << (w * t)
                                            for t, c in enumerate(vec))
                                        for vec in tree.parikh), name

    def test_repeated_identical_edge(self):
        # a repeated edge is two edges of one label at a state: a -1 mask
        # means exactly "not deterministic"
        lts = Lts(states=("s0", "s1"), labels=("a",),
                  edges=((0, 0, 1), (0, 0, 1)), initial=0)
        report, _, ctx = assert_front_end_matches_reference(lts)
        assert lts.label_masks[0] == -1
        assert not report.deterministic and not report.ok
        assert report.nondeterministic_witness == ((0, 0, 1), (0, 0, 1))
        assert ctx.key_states == (0, 0)
        with pytest.raises(LtsError):
            report.raise_if_invalid()

    def test_witness_above_the_lowest_state(self):
        # s0 has two b edges, but s1's two a edges come first in edge order
        lts = parse_lts("initial s0\ns0 c s1\ns1 a s2\ns1 a s0\n"
                        "s0 b s1\ns0 b s2\n")
        report, _, _ = assert_front_end_matches_reference(lts)
        assert lts.label_masks[:2] == (-1, -1)
        assert report.nondeterministic_witness == (
            edge(lts, "s1", "a", "s2"), edge(lts, "s1", "a", "s0"))

    def test_out_edges_in_falling_label_order(self):
        # s0 lists c, b, a; s1 is reached by c and by a, and a wins
        lts = Lts(states=("s0", "s1", "s2"), labels=("a", "b", "c"),
                  edges=((0, 2, 1), (0, 1, 2), (0, 0, 1), (1, 1, 2),
                         (2, 2, 0)), initial=0)
        _, tree, _ = assert_front_end_matches_reference(lts)
        assert tree.parent == {1: (0, 0), 2: (0, 1)}

    def test_states_sharing_a_parikh_vector(self):
        # s3 and s4 are both reached by a and b, so their c edges give
        # two equal edge rows; no net's graph has such a pair
        lts = parse_lts("initial s0\ns0 a s1\ns0 b s2\ns1 b s3\ns2 a s4\n"
                        "s3 c s5\ns4 c s6\n")
        _, tree, ctx = assert_front_end_matches_reference(lts)
        s3, s4 = lts.states.index("s3"), lts.states.index("s4")
        assert tree.parikh[s3] == tree.parikh[s4]
        assert tree.packed[s3] == tree.packed[s4]
        c = lts.labels.index("c")
        assert [s for s, t in zip(ctx.key_states, ctx.key_labels)
                if t == c] == [s3, s4]
        assert len(ctx.key_states) == len(lts.edges)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8])
    def test_one_label_path(self, k):
        # 2^k states, the fewest with fields of k + 2 bits; the last
        # state's count, 2^k - 1, is the largest a tree walk reaches
        lts = path(2 ** k - 1)
        _, tree, ctx = assert_front_end_matches_reference(lts)
        assert tree.packed == tuple(range(2 ** k))
        assert ctx.key_states == tuple(range(2 ** k - 1))
