import functools
import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from netsynth.lts import (LtsError, ParikhVector, cycle_basis,
                          parikh_of_edge, parse_lts, serialize_lts,
                          spanning_tree, validate)
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph

from conftest import FIXTURES, load_lts


def names(lts, vec):
    return {lts.labels[k]: v for k, v in vec.counts}


def edge(lts, s, t, s2):
    return (lts.states.index(s), lts.labels.index(t), lts.states.index(s2))


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

    def test_bad_name_rejected(self):
        with pytest.raises(LtsError, match="line 2"):
            parse_lts("initial s0\ns0 a! s1\n")

    def test_syntax_error_has_line_number(self):
        with pytest.raises(LtsError, match="line 3"):
            parse_lts("initial s0\ns0 a s1\ns1 b\n")

    def test_roundtrip(self, fig1):
        again = parse_lts(serialize_lts(fig1))
        assert again == fig1

    def test_comments_ignored(self):
        text = "# header\ninitial s0  # trailing\ns0 a s1\n"
        lts = parse_lts(text)
        assert len(lts.edges) == 1


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


class TestParikh:
    def test_fig1_s9(self, fig1):
        tree = spanning_tree(fig1)
        vec = tree.parikh[fig1.states.index("s9")]
        assert names(fig1, vec) == {"a": 2, "c": 2}

    def test_initial_zero(self, fig1):
        tree = spanning_tree(fig1)
        assert tree.parikh[fig1.initial].is_zero()

    def test_fig1_s7(self, fig1):
        tree = spanning_tree(fig1)
        vec = tree.parikh[fig1.states.index("s7")]
        assert names(fig1, vec) == {"a": 2, "d": 1, "e": 1}

    def test_fig1_chord_zero(self, fig1):
        tree = spanning_tree(fig1)
        vec = parikh_of_edge(tree, edge(fig1, "s7", "c", "s11"))
        assert vec.is_zero()

    def test_fig1_chord_bc(self, fig1):
        tree = spanning_tree(fig1)
        vec = parikh_of_edge(tree, edge(fig1, "s4", "b", "s1"))
        assert names(fig1, vec) == {"b": 1, "c": 1}

    def test_tree_edges_zero(self, fig1):
        tree = spanning_tree(fig1)
        for e in fig1.edges:
            if tree.is_tree_edge(e):
                assert parikh_of_edge(tree, e).is_zero()

    def test_walk_identity_on_random_walks(self, fig1):
        # psi_E(walk) computed edge-wise equals psi(s1) + psi(word) - psi(s2)
        tree = spanning_tree(fig1)
        rng = random.Random(7)
        for _ in range(50):
            s = fig1.initial
            total = ParikhVector()
            word = ParikhVector()
            for _ in range(rng.randint(1, 12)):
                out = fig1.out_edges[s]
                if not out:
                    break
                e = rng.choice(sorted(out))
                total = total + parikh_of_edge(tree, e)
                word = word + ParikhVector.unit(e[1])
                s = e[2]
            expected = (tree.parikh[fig1.initial] + word
                        - tree.parikh[s])
            assert total == expected


class TestParikhVectorAlgebra:
    @given(st.dictionaries(st.integers(0, 5), st.integers(-4, 4)),
           st.dictionaries(st.integers(0, 5), st.integers(-4, 4)))
    def test_add_sub_inverse(self, d1, d2):
        v1, v2 = ParikhVector.of(d1), ParikhVector.of(d2)
        assert (v1 + v2) - v2 == v1

    @given(st.dictionaries(st.integers(0, 5), st.integers(-4, 4)))
    def test_leq_reflexive_lneq_irreflexive(self, d):
        v = ParikhVector.of(d)
        assert v.leq(v)
        assert not v.lneq(v)

    def test_componentwise(self):
        v1 = ParikhVector.of({0: 1, 1: 1})
        v2 = ParikhVector.of({0: 2, 1: 1})
        assert v1.leq(v2) and v1.lneq(v2) and not v2.leq(v1)


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


def in_span(basis, vec, nlab):
    """Whether ``vec`` is a rational combination of an echelon ``basis``."""
    target = [Fraction(vec.to_dict().get(k, 0)) for k in range(nlab)]
    for b in basis:
        row = [Fraction(b.to_dict().get(k, 0)) for k in range(nlab)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None or target[lead] == 0:
            continue
        factor = target[lead] / row[lead]
        target = [t - factor * r for t, r in zip(target, row)]
    return all(t == 0 for t in target)


# SHA-256 over ``basis_graphs()`` of every ``[v.counts for v in basis]``
BASIS_DIGEST = \
    "3c6588c30993022c238a5b0b8fb8968f2da9f5221d5ef1b694b10b04ce6cad74"


class TestCycleBasis:
    def test_fig1(self, fig1):
        tree = spanning_tree(fig1)
        basis = cycle_basis(fig1, tree)
        got = sorted(tuple(sorted(names(fig1, v).items())) for v in basis)
        assert got == [(("a", 1), ("d", 1), ("f", 1)), (("b", 1), ("c", 1))]

    def test_acyclic_empty(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\n")
        tree = spanning_tree(lts)
        assert cycle_basis(lts, tree) == []

    def test_case6b(self, case6b):
        tree = spanning_tree(case6b)
        basis = cycle_basis(case6b, tree)
        got = sorted(tuple(sorted(names(case6b, v).items())) for v in basis)
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
            seen = {s: ParikhVector()}
            acc = ParikhVector()
            cycle = None
            for _ in range(60):
                e = rng.choice(sorted(fig1.out_edges[s]))
                acc = acc + ParikhVector.unit(e[1])
                s = e[2]
                if s in seen:
                    cycle = acc - seen[s]
                    break
                seen[s] = acc
            assert cycle is not None
            assert in_span(basis, cycle, nlab)

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
            rows = [[v.to_dict().get(k, 0) for k in range(nlab)]
                    for v in basis]
            assert all(any(row) for row in rows)
            leads = [next(k for k, x in enumerate(row) if x) for row in rows]
            assert all(a < b for a, b in zip(leads, leads[1:]))
            for row, lead in zip(rows, leads):
                assert row[lead] > 0 and gcd(*row) == 1
                assert all(row[k] == 0 for k in leads if k != lead)
            for chord in tree.chords():
                assert in_span(basis, parikh_of_edge(tree, chord), nlab)

    def test_basis_unchanged(self):
        """Pins the exact vectors and their order, which every system's
        cycle rows follow."""
        h = hashlib.sha256()
        for name, lts in basis_graphs().items():
            basis = cycle_basis(lts, spanning_tree(lts))
            h.update(f"{name} {[v.counts for v in basis]}\n".encode())
        assert h.hexdigest() == BASIS_DIGEST
