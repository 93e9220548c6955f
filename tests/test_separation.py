import itertools
import random
from fractions import Fraction

import pytest

from netsynth.linsys import (LinearSystem, Row, make_row, solve_integer,
                             solve_rational)
from netsynth.lts import Lts, cycle_basis, parse_lts, spanning_tree
from netsynth.relations import (DOI, EQUIVALENT, build_relation_graph,
                                quotient_by_equivalence, strengthen_brac,
                                strengthen_wpi)
from netsynth.separation import (ESSP, Region, SSP, SystemContext,
                                 brac_block_systems,
                                 brac_ssp_system_freechoice,
                                 essp_system_wpi, normalize_region,
                                 region_to_place, ssp_system_wpi,
                                 StatePartition)

from conftest import margin_row
from reference import (OracleBound, assignment, brute_force_region,
                       context_keys, enumerate_separation_problems, evaluate,
                       parikh_marks, satisfied_by, state_pairs)


def stage(lts, brac=False):
    tree = spanning_tree(lts)
    ctx = SystemContext(lts, tree, cycle_basis(lts, tree))
    graph, _ = quotient_by_equivalence(build_relation_graph(lts))
    graph = strengthen_wpi(graph)
    if brac:
        graph = strengthen_brac(graph)
    return ctx, graph


def enabled(lts):
    """Per state, the set of labels with an outgoing edge."""
    out = [set() for _ in lts.states]
    for s, t, _ in lts.edges:
        out[s].add(t)
    return out


def sid(lts, name):
    return lts.states.index(name)


def lid(lts, name):
    return lts.labels.index(name)


def region_of(lts, mapping):
    b = [0] * len(lts.labels)
    f = [0] * len(lts.labels)
    for name, w in mapping.get("b", {}).items():
        b[lid(lts, name)] = w
    for name, w in mapping.get("f", {}).items():
        f[lid(lts, name)] = w
    return Region.over(spanning_tree(lts), mapping.get("r0", 0), tuple(b),
                       tuple(f))


def assignment_of(ctx, region):
    values = [Fraction(0)] * len(ctx.names)
    values[0] = Fraction(region.r0)  # column 0 is R0
    for t in range(len(ctx.lts.labels)):
        values[ctx.bvar[t]] = Fraction(region.b[t])
        values[ctx.fvar[t]] = Fraction(region.f[t])
    return values


class TestEnumerate:
    def test_fig1_contains_known_problems(self, fig1):
        problems = enumerate_separation_problems(fig1)
        assert SSP(sid(fig1, "s4"), sid(fig1, "s5")) in problems
        assert ESSP(sid(fig1, "s13"), lid(fig1, "a")) in problems

    def test_genx_contains_unsolvable_pair(self, genx):
        problems = enumerate_separation_problems(genx)
        assert SSP(sid(genx, "s3"), sid(genx, "s7")) in problems
        assert ESSP(sid(genx, "s2"), lid(genx, "b")) in problems

    def test_single_state_empty(self):
        assert enumerate_separation_problems(parse_lts("initial s0\n")) == []

    def test_ssps_before_essps_in_index_order(self, case6a):
        problems = enumerate_separation_problems(case6a)
        ssps = [p for p in problems if isinstance(p, SSP)]
        assert problems[:len(ssps)] == ssps
        assert ssps == sorted(ssps, key=lambda p: (p.s1, p.s2))

    def test_state_pairs_stream_every_pair_in_index_order(self, case6a):
        pairs = state_pairs(case6a)
        assert iter(pairs) is pairs  # a generator, not a stored list
        n = len(case6a.states)
        assert list(pairs) == [SSP(i, j) for i, j
                               in itertools.combinations(range(n), 2)]


def pooled_regions(lts):
    """Every region the WPI and the BRAC pipeline solve on ``lts``, in the
    order first solved."""
    import netsynth.synthesis
    seen = []
    real_region = netsynth.synthesis._region

    def region(ctx, system):
        found = real_region(ctx, system)
        if found is not None:
            seen.append(found)
        return found
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netsynth.synthesis, "_region", region)
        netsynth.synthesis.synthesize_wpi(lts)
        netsynth.synthesis.synthesize_brac(lts)
    return list(dict.fromkeys(seen))


def grouped(lts, regions):
    """The states grouped by their tuple of marks, ordered by first
    state."""
    groups = {}
    for s in range(len(lts.states)):
        groups.setdefault(tuple(r.marks[s] for r in regions), []).append(s)
    return list(groups.values())


class TestStatePartition:
    """The partition's stream of state pairs against the reference
    `state_pairs`, while the pipelines' own regions are pooled mid-walk."""

    @staticmethod
    def stream_inputs():
        from test_report_digests import family_inputs
        for family in ("fixture", "random_lts", "random_brac_net"):
            for name, text in family_inputs(family).items():
                yield name, parse_lts(text)

    @staticmethod
    def walk(lts, regions, before, reference=False):
        """Pool ``regions[:before]``, then walk the partition's stream (or
        with ``reference`` the reference pairs) through the pool check and
        pool the next region after every pair left; returns the pairs
        left, the partition and the pool.  Where the stream reaches a new
        state, its blocks are checked against the states grouped by the
        pooled regions' marks."""
        partition = StatePartition(len(lts.states))
        pool = list(regions[:before])
        rest = iter(regions[before:])
        left = []
        state = None
        for pair in state_pairs(lts) if reference else partition.pairs(pool):
            if not reference and pair.s1 != state:
                state = pair.s1
                assert partition.blocks == grouped(lts, pool)
            if any(r.solves(pair) for r in pool):
                continue
            left.append(pair)
            region = next(rest, None)
            if region is not None:
                pool.append(region)
        return left, partition, pool

    def test_stream_leaves_the_reference_pairs(self):
        pooled = 0
        for name, lts in self.stream_inputs():
            regions = pooled_regions(lts)
            pooled += bool(regions)
            for before in sorted({0, len(regions) // 2}):
                got, partition, pool = self.walk(lts, regions, before)
                want, _, _ = self.walk(lts, regions, before, reference=True)
                assert got == want, (name, before)
                assert partition.blocks == grouped(lts, pool)
        assert pooled >= 20

    def test_blocks_group_states_by_marks(self, fig1):
        regions = pooled_regions(fig1)
        partition = StatePartition(len(fig1.states))
        pairs = list(partition.pairs(regions))
        assert partition.blocks == grouped(fig1, regions)
        assert pairs == [
            SSP(i, j) for i, j in itertools.combinations(
                range(len(fig1.states)), 2)
            if all(r.marks[i] == r.marks[j] for r in regions)]


class TestEsspSystemWpi:
    def test_fig1_s13_a_admits_published_region(self, fig1):
        ctx, graph = stage(fig1)
        essp = ESSP(sid(fig1, "s13"), lid(fig1, "a"))
        system = essp_system_wpi(ctx, graph, essp)
        region = region_of(fig1, {"r0": 2, "b": {"a": 1}, "f": {"f": 1}})
        assert satisfied_by(system, assignment_of(ctx, region))
        assert solve_rational(system).feasible

    def test_rows_homogeneous_apart_from_margin(self, fig1):
        ctx, graph = stage(fig1)
        essp = ESSP(sid(fig1, "s13"), lid(fig1, "a"))
        system = essp_system_wpi(ctx, graph, essp)
        assert [(r.tag, r.rel, r.const) for r in system.rows if r.const] \
            == [("essp:s13:a", "<=", -1)]

    def test_genx_generic_rows_already_infeasible(self, genx):
        # no relation rows at all: the generic system holds the conflict
        tree = spanning_tree(genx)
        basis = cycle_basis(genx, tree)
        ctx = SystemContext(genx, tree, basis)
        essp = ESSP(sid(genx, "s2"), lid(genx, "b"))
        system = ctx.system([ctx.essp_row(essp)] + list(ctx.base_rows()))
        assert solve_rational(system).status == "infeasible"

    def test_empty_cycle_basis_system(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\n")
        ctx, graph = stage(lts)
        assert ctx.basis == []
        system = essp_system_wpi(ctx, graph,
                                 ESSP(sid(lts, "s0"), lid(lts, "b")))
        assert not any(r.tag.startswith("cycle") for r in system.rows)
        assert solve_rational(system).feasible


class TestSspSystemWpi:
    def test_fig1_s4_s5_admits_published_region(self, fig1):
        # the published region consumes d, so it lives in the d-keyed system
        ctx, graph = stage(fig1)
        ssp = SSP(sid(fig1, "s4"), sid(fig1, "s5"))
        system = ssp_system_wpi(ctx, graph, ssp, lid(fig1, "d"), ">")
        region = region_of(fig1, {"r0": 0, "f": {"a": 1}, "b": {"d": 1}})
        assert satisfied_by(system, assignment_of(ctx, region))
        assert solve_rational(system).feasible
        # some keyed system solves the pair; first feasible key wins
        solved = [fig1.labels[rep] for rep in sorted(graph.classes)
                  if any(solve_rational(
                      ssp_system_wpi(ctx, graph, ssp, rep, sign)).feasible
                      for sign in ("<", ">"))]
        assert "d" in solved

    def test_genx_pair_infeasible_for_every_label_and_sign(self, genx):
        tree = spanning_tree(genx)
        basis = cycle_basis(genx, tree)
        ctx = SystemContext(genx, tree, basis)
        ssp = SSP(sid(genx, "s3"), sid(genx, "s7"))
        for t in range(len(genx.labels)):
            for sign in ("<", ">"):
                system = ctx.system([ctx.ssp_row(ssp, sign)]
                                    + list(ctx.base_rows()))
                assert solve_rational(system).status == "infeasible"

    def test_equal_parikh_infeasible(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\ns0 b s3\ns3 a s4\n")
        ctx, graph = stage(lts)
        s2, s4 = sid(lts, "s2"), sid(lts, "s4")
        assert ctx.tree.parikh[s2] == ctx.tree.parikh[s4]
        for sign in ("<", ">"):
            system = ssp_system_wpi(ctx, graph, SSP(s2, s4), 0, sign)
            assert not solve_rational(system).feasible


# labels first appear as t10, t2, t1: index order is not name order
UNSORTED_LABELS = """initial s0
s0 t10 s1
s0 t2 s2
s1 t2 s3
s2 t10 s3
s3 t1 s0
"""


class TestRelationRows:
    """Relation rows read resolved edges: disjoint or included only."""

    def test_doi_edge_refused(self, case6b):
        ctx, graph = stage(case6b)
        c, b = lid(case6b, "c"), lid(case6b, "b")
        assert graph.edge(c, b).kind == DOI
        for label in (c, b):
            with pytest.raises(ValueError, match="not doi"):
                ctx.relation_rows(graph, label)
        below = ctx.relation_rows(graph.resolved([(c, b)], [(c, b)]), c)
        disjoint = ctx.relation_rows(graph.resolved([(c, b)]), c)
        assert [r.tag for r in below] == ["disjoint:a", "below:b"]
        assert [r.tag for r in disjoint] == ["disjoint:a", "disjoint:b"]

    def test_equivalent_edge_refused(self):
        # a and b are enabled at the same states: equivalent until the
        # graph is quotiented
        lts = parse_lts("initial s0\ns0 a s1\ns0 b s1\ns1 c s0\n")
        tree = spanning_tree(lts)
        ctx = SystemContext(lts, tree, cycle_basis(lts, tree))
        graph = build_relation_graph(lts)
        assert graph.edge(0, 1).kind == EQUIVALENT
        with pytest.raises(ValueError, match="not equivalent at b"):
            ctx.relation_rows(graph, lid(lts, "a"))
        quotiented, _ = quotient_by_equivalence(graph)
        assert [r.tag for r in ctx.relation_rows(quotiented, 0)] == \
            ["tie:b", "disjoint:c"]


class TestSolutionsAreRegions:
    def test_every_feasible_system_yields_valid_region(self, fig1):
        from netsynth.linsys import dump_lp, lift_homogeneous_to_integer
        from netsynth.separation import solution_to_region
        for lts in (fig1, parse_lts(UNSORTED_LABELS)):
            ctx, graph = stage(lts)
            for essp in (p for p in enumerate_separation_problems(lts)
                         if isinstance(p, ESSP)):
                if graph.rep[essp.label] != essp.label:
                    continue
                system = essp_system_wpi(ctx, graph, essp)
                sol = solve_rational(system)
                assert sol.feasible
                lifted = lift_homogeneous_to_integer(sol, system)
                region = solution_to_region(lifted, ctx.tree)
                assert region.is_valid(lts)
                assert region.solves(essp)
            text = dump_lp(system, ctx.names).splitlines()
            assert text[1].startswith("r1: 1 R0 ")
            assert text[-1] == "vars: " + " ".join(
                ["R0"] + [f"B_{x}" for x in lts.labels]
                + [f"F_{x}" for x in lts.labels])


class TestBracBlockSystems:
    def test_fig1_ba_block(self, fig1):
        ctx, graph = stage(fig1, brac=True)
        b, a = lid(fig1, "b"), lid(fig1, "a")
        sys1, sys2 = brac_block_systems(ctx, graph, (b, a))
        sol1 = solve_integer(sys1)
        sol2 = solve_integer(sys2)
        assert sol1.feasible and sol2.feasible
        # shared place consumed by both labels, private only by the wide one
        bb, ba = ctx.bvar[b], ctx.bvar[a]
        assert assignment(sol1)[bb] == 1 and assignment(sol1)[ba] == 1
        assert assignment(sol2)[ba] == 1 and assignment(sol2)[bb] == 0

    def test_fig1_cd_block(self, fig1):
        ctx, graph = stage(fig1, brac=True)
        c, d = lid(fig1, "c"), lid(fig1, "d")
        sys1, sys2 = brac_block_systems(ctx, graph, (c, d))
        assert solve_integer(sys1).feasible
        assert solve_integer(sys2).feasible

    def test_block_without_private_problems_trivially_feasible(self):
        # wide label enabled wherever the narrow one is: no private rows
        lts = parse_lts("initial s0\ns0 a s1\ns0 b s2\ns1 a s2\n")
        ctx, graph = stage(lts, brac=True)
        a, b = lid(lts, "a"), lid(lts, "b")
        pair = (b, a) if (b, a) in graph.included_edges() else (a, b)
        _, sys2 = brac_block_systems(ctx, graph, pair)
        margins = [r for r in sys2.rows if r.tag.startswith("essp:")]
        wide = pair[1]
        expected = [s for s, labels in enumerate(enabled(lts))
                    if wide not in labels and pair[0] in labels]
        assert len(margins) == len(expected)

    def test_non_self_loop_narrow_label_produce_pinned(self, fig1):
        ctx, graph = stage(fig1, brac=True)
        b, a = lid(fig1, "b"), lid(fig1, "a")
        sys1, _ = brac_block_systems(ctx, graph, (b, a))
        sol = solve_integer(sys1)
        assert assignment(sol)[ctx.fvar[b]] == 0

    def test_self_loop_narrow_label_produce_free(self, brac7):
        ctx, graph = stage(brac7, brac=True)
        c, e = lid(brac7, "c"), lid(brac7, "e")
        sys1, _ = brac_block_systems(ctx, graph, (c, e))
        sol = solve_integer(sys1)
        assert sol.feasible
        # the self-loop keeps the shared place's count: consume = produce
        values = assignment(sol)
        assert values[ctx.fvar[c]] == values[ctx.bvar[c]] == 1


class TestBracFreechoice:
    def test_fig1_s4_s5_solvable_by_some_label(self, fig1):
        ctx, graph = stage(fig1, brac=True)
        ssp = SSP(sid(fig1, "s4"), sid(fig1, "s5"))
        feasible = []
        for rep in sorted(graph.classes):
            for sign in ("<", ">"):
                system = brac_ssp_system_freechoice(ctx, graph, ssp, rep,
                                                    sign)
                if solve_integer(system).feasible:
                    feasible.append((fig1.labels[rep], sign))
        assert feasible

    def test_choice_involved_labels_cannot_consume(self, fig1):
        ctx, graph = stage(fig1, brac=True)
        ssp = SSP(sid(fig1, "s4"), sid(fig1, "s5"))
        a = lid(fig1, "a")
        system = brac_ssp_system_freechoice(ctx, graph, ssp, a, ">")
        sol = solve_integer(system)
        if sol.feasible:
            for name in "abcd":
                assert assignment(sol)[ctx.bvar[lid(fig1, name)]] == 0

    def test_equal_parikh_infeasible_for_all_labels(self, genx):
        # relations on this system contradict, so build a plain graph
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\ns0 b s3\ns3 a s4\n")
        ctx, graph = stage(lts, brac=True)
        ssp = SSP(sid(lts, "s2"), sid(lts, "s4"))
        for rep in sorted(graph.classes):
            for sign in ("<", ">"):
                system = brac_ssp_system_freechoice(ctx, graph, ssp, rep,
                                                    sign)
                assert not solve_integer(system).feasible


class TestRegionToPlace:
    def test_mapping(self, fig1):
        region = region_of(fig1, {"r0": 2, "b": {"a": 1}, "f": {"f": 1}})
        place = region_to_place(region)
        assert place.tokens == 2
        assert place.consume[lid(fig1, "a")] == 1
        assert place.produce[lid(fig1, "f")] == 1

    def test_zero_region(self, fig1):
        region = region_of(fig1, {})
        place = region_to_place(region)
        assert place.tokens == 0
        assert not any(place.consume) and not any(place.produce)

    def test_normalize_drops_surplus_tokens(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s0\n")
        region = region_of(lts, {"r0": 3, "b": {"a": 1}, "f": {"b": 1}})
        slim = normalize_region(region, lts)
        assert slim.r0 == 1
        assert slim.is_valid(lts)

    def test_normalize_keeps_needed_tokens(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s0\n")
        region = region_of(lts, {"r0": 1, "b": {"a": 1}, "f": {"b": 1}})
        assert normalize_region(region, lts) == region


def fixture_regions():
    """(lts, region) for every region of every fixture report, under both
    pipelines."""
    import pathlib
    from netsynth.synthesis import synthesize_brac, synthesize_wpi
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.lts")):
        lts = parse_lts(path.read_text())
        for synthesize in (synthesize_wpi, synthesize_brac):
            for region in synthesize(lts).regions:
                yield lts, region


def oracle_regions():
    """(lts, region) for every problem the brute-force oracle solves on
    small random systems."""
    from netsynth.oracle import random_lts
    for seed in range(8):
        lts = random_lts(seed, 5, 3)
        for problem in enumerate_separation_problems(lts):
            region = brute_force_region(lts, problem, OracleBound(2))
            if region is not None:
                yield lts, region


class TestRegionMarks:
    def check(self, pairs):
        count = 0
        for lts, region in pairs:
            assert len(region.marks) == len(lts.states)
            assert region.marks[lts.initial] == region.r0
            assert region.is_valid(lts)
            count += 1
        assert count > 0

    def test_fixture_report_regions(self):
        self.check(fixture_regions())

    def test_oracle_regions(self):
        self.check(oracle_regions())

    def test_marks_follow_every_edge(self, fig1):
        region = region_of(fig1, {"r0": 2, "b": {"a": 1}, "f": {"f": 1}})
        for s, t, s2 in fig1.edges:
            assert region.marks[s2] == \
                region.marks[s] - region.b[t] + region.f[t]

    def test_initial_count_must_match_marks(self, fig1):
        region = region_of(fig1, {"r0": 2, "b": {"a": 1}, "f": {"f": 1}})
        assert region.is_valid(fig1)
        assert not region._replace(r0=3).is_valid(fig1)
        assert not region._replace(marks=region.marks[1:]).is_valid(fig1)


@pytest.fixture(scope="module")
def marks_inputs():
    """(context, regions) for the 100 roundtrip graphs, with their WPI
    regions, and for the 300-marking ladder graph
    ``random_brac_net(44, 6, 4)``, with its BRAC regions."""
    from netsynth.oracle import random_brac_net
    from netsynth.petri import reachability_graph
    from netsynth.synthesis import synthesize_brac, synthesize_wpi
    runs = [(reachability_graph(random_brac_net(i), 2000), synthesize_wpi)
            for i in range(100)]
    ladder = reachability_graph(random_brac_net(44, 6, 4), 100_000)
    assert len(ladder.states) == 300
    runs.append((ladder, synthesize_brac))
    out = []
    for lts, synthesize in runs:
        tree = spanning_tree(lts)
        report = synthesize(lts)
        assert report.ok
        out.append((SystemContext(lts, tree, cycle_basis(lts, tree)),
                    report.regions))
    return out


class TestMarksAlongTheTree:
    """`Region.over` and `SystemContext.holds` sum the counts along the
    tree; `parikh_marks` and `satisfied_by` compute them without it."""

    def test_region_over_is_the_parikh_formula(self, marks_inputs):
        rng = random.Random(37)
        checked = 0
        for ctx, regions in marks_inputs:
            n = len(ctx.lts.labels)
            points = [(r.r0, r.b, r.f) for r in regions]
            for _ in range(5):
                points.append((rng.randint(-3, 5),
                               tuple(rng.randint(-2, 4) for _ in range(n)),
                               tuple(rng.randint(-2, 4) for _ in range(n))))
            for r0, b, f in points:
                region = Region.over(ctx.tree, r0, b, f)
                assert region.marks == parikh_marks(ctx.tree, r0, b, f)
                assert (region.r0, region.b, region.f) == (r0, b, f)
                checked += 1
        assert checked > 600

    @staticmethod
    def points(ctx, regions, rng):
        """``(num, den)`` at the regions, at regions moved off them, and at
        random points, every entry nonnegative."""
        n = len(ctx.lts.labels)
        for region in regions[:3]:
            num = [region.r0, *region.b, *region.f]
            yield num, 1
            den = rng.randint(2, 4)
            yield [v * den for v in num], den
            # one token fewer, or a consume and produce weight more:
            # the effect and so the cycle rows stay, edge rows may break
            if num[0] > 0:
                yield [num[0] - 1, *num[1:]], 1
            t = rng.randrange(n)
            moved = list(num)
            moved[1 + t] += 1
            moved[1 + n + t] += 1
            yield moved, 1
            moved = [v * den for v in num]
            moved[rng.randrange(len(num))] += 1
            yield moved, den
        for _ in range(2):
            yield [rng.randint(0, 3) for _ in range(2 * n + 1)], \
                rng.randint(1, 3)

    def test_holds_agrees_with_fraction_check(self, marks_inputs):
        rng = random.Random(37)
        verdicts = set()
        for ctx, regions in marks_inputs:
            system = ctx.system([ctx])
            cycles = [r for r in ctx.base_rows() if r.rel == "="]
            for num, den in self.points(ctx, regions, rng):
                values = [Fraction(v, den) for v in num]
                got = ctx.holds(num, den)
                assert got == satisfied_by(system, values)
                if all(evaluate(r, values) for r in cycles):
                    verdicts.add(got)
        # points that keep the cycle rows are judged on their marks
        assert verdicts == {True, False}


def small_context():
    """Labels a, b: R0 in column 0, B in 1..2, F in 3..4; four edge keys
    and the one cycle a+2b."""
    lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\ns2 a s3\ns3 b s1\n")
    tree = spanning_tree(lts)
    return SystemContext(lts, tree, cycle_basis(lts, tree))


class TestContextBlock:
    """The context as the block of base rows that `linsys` splices in."""

    def test_rows_written_out(self):
        ctx = small_context()
        rows = ctx.base_rows()
        assert rows == (
            make_row({0: 1, 1: -1}, ">=", 0, "edge:s0:a"),
            make_row({0: 1, 1: -1, 2: -1, 3: 1}, ">=", 0, "edge:s1:b"),
            make_row({0: 1, 1: -2, 2: -1, 3: 1, 4: 1}, ">=", 0,
                     "edge:s2:a"),
            make_row({0: 1, 1: -2, 2: -2, 3: 2, 4: 1}, ">=", 0,
                     "edge:s3:b"),
            make_row({1: -1, 2: -2, 3: 1, 4: 2}, "=", 0, "cycle:0"))
        assert len(ctx) == 5 and ctx.copies == 6
        assert ctx.base_rows() is rows
        assert ctx.dual_columns() is ctx.dual_columns()
        assert small_context().base_rows() is not rows
        # equal (column, coefficient) pairs are one object
        assert rows[3].coeffs[0] is rows[0].coeffs[0]
        assert rows[4].coeffs[2] is rows[2].coeffs[3]

    def test_system_smaller_than_block_rejected(self):
        with pytest.raises(ValueError, match="block over 5 columns"):
            LinearSystem(4, (small_context(),))

    def test_rows_view(self):
        ctx = small_context()
        first = make_row({0: 1}, "<=", 3, "first")
        last = make_row({2: 1}, ">=", 1, "last")
        sys_ = ctx.system([first, ctx, last])
        assert sys_.rows.parts == (first, ctx, last)
        assert len(sys_.rows) == 7
        assert list(sys_.rows) == [first, *ctx.base_rows(), last]

    def test_holds_matches_fraction_check(self):
        ctx = small_context()
        sys_ = ctx.system([ctx])
        rng = random.Random(7)
        verdicts = set()
        for _ in range(400):
            den = rng.randint(1, 3)
            num = [rng.randint(0, 4) for _ in range(5)]
            got = sys_.holds(num, den)
            assert got == satisfied_by(sys_, [Fraction(v, den) for v in num])
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_solves_like_the_written_rows(self):
        ctx = small_context()
        extra = (margin_row({0: 1}, "<", 2), make_row({3: 1}, ">=", 1))
        for zero_one in (frozenset(), frozenset({1, 2, 3, 4})):
            spliced = LinearSystem(5, (extra[0], ctx, extra[1]), zero_one)
            written = LinearSystem(5, tuple(spliced.rows), zero_one)
            for solve in (solve_rational, solve_integer):
                a, b = solve(spliced), solve(written)
                assert (a.status, a.pivots, assignment(a)) == \
                    (b.status, b.pivots, assignment(b))
                assert a.feasible


class TestBaseBlock:
    """Systems hold their context as the one block of base rows.

    The block is checked against the same rows written out as `Row`s:
    the integer witness check (`LinearSystem.holds`) against the Fraction
    check `satisfied_by`, and the spliced dual tableau against the one the
    written-out rows give.
    """

    BUILDERS = ("essp_system_wpi", "ssp_system_wpi", "brac_block_systems",
                "brac_ssp_system_freechoice")

    @classmethod
    def pipeline_systems(cls, per_kind=2):
        """The first ``per_kind`` systems of each kind that both pipelines
        build on the fixtures and the graphs of random_brac_net(0..9)."""
        import pathlib
        import netsynth.synthesis
        from netsynth.oracle import random_brac_net
        from netsynth.petri import reachability_graph
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        inputs = [parse_lts(p.read_text())
                  for p in sorted(fixtures.glob("*.lts"))]
        inputs += [reachability_graph(random_brac_net(i), 100_000)
                   for i in range(10)]
        systems = []
        originals = {name: getattr(netsynth.synthesis, name)
                     for name in cls.BUILDERS}

        def wrap(builder):
            built = []

            def build(*args, **kwargs):
                result = builder(*args, **kwargs)
                if len(built) < per_kind:
                    built.append(result)
                    systems.extend(result if isinstance(result, tuple)
                                   else (result,))
                return result
            return build
        for lts in inputs:
            for pipeline in ("wpi", "brac"):
                for name, builder in originals.items():
                    setattr(netsynth.synthesis, name, wrap(builder))
                try:
                    getattr(netsynth.synthesis,
                            "synthesize_" + pipeline)(lts)
                finally:
                    for name, builder in originals.items():
                        setattr(netsynth.synthesis, name, builder)
        return systems

    @staticmethod
    def written_out(system):
        from netsynth.linsys import LinearSystem
        return LinearSystem(system.columns, tuple(system.rows),
                            system.zero_one)

    def test_every_pipeline_system_holds_the_block(self):
        systems = self.pipeline_systems()
        assert len(systems) > 50
        for system in systems:
            blocks = [p for p in system.rows.parts if not isinstance(p, Row)]
            assert len(blocks) == 1
            assert type(blocks[0]) is SystemContext
            assert len(system.rows) == len(system.rows.parts) - 1 \
                + len(blocks[0].base_rows())

    def test_holds_agrees_with_fraction_check(self):
        from math import lcm
        verdicts = []
        for system in self.pipeline_systems():
            sol = (solve_integer(system) if system.zero_one
                   else solve_rational(system))
            if not sol.feasible:
                continue
            den = lcm(*(v.denominator for v in assignment(sol)))
            num = [int(v * den) for v in assignment(sol)]
            points = [num]
            for j in range(len(num)):
                for step in (1, -1):
                    moved = list(num)
                    moved[j] += step
                    points.append(moved)
            for point in points:
                got = system.holds(point, den)
                assert got == satisfied_by(
                    system, [Fraction(v, den) for v in point])
                verdicts.append(got)
            assert system.holds(num, den)
        # moving one coordinate breaks some rows and keeps others
        assert True in verdicts and False in verdicts

    def test_spliced_tableau_is_the_written_one(self):
        from netsynth.linsys import _Simplex
        for system in self.pipeline_systems(per_kind=1):
            spliced, written = _Simplex(system), \
                _Simplex(self.written_out(system))
            n = spliced.n_rows
            assert len(spliced.tableau) == len(written.tableau) == n + 1
            assert spliced.tableau[:n] == written.tableau[:n]
            assert spliced.tableau[n] == written.tableau[n]  # the objective
            assert spliced.basis == written.basis
            sol = solve_rational(system)
            ref = solve_rational(self.written_out(system))
            assert (sol.status, sol.pivots, assignment(sol)) == \
                (ref.status, ref.pivots, assignment(ref))

    BRANCHES = (make_row({0: 1}, ">=", 1, tag="branch-up"),
                make_row({1: 1}, "<=", 0, tag="branch-down"))

    @classmethod
    def solve_nodes(cls, system):
        """Solve ``system`` and two branch nodes of it, each twice, and a
        0/1 system by branch-and-bound; every solve must find the same
        tableau costs and verdict as the first, and leave the appended
        branch rows as they were."""
        import copy
        from netsynth.linsys import LinearSystem, _Simplex
        for extra in ((), cls.BRANCHES[:1], cls.BRANCHES):
            kept = copy.deepcopy(extra)
            node = LinearSystem(system.columns, system.rows.parts + extra,
                                system.zero_one)
            simplex = _Simplex(node)
            # the objective, the costs, is the tableau's last row
            costs = list(simplex.tableau[simplex.n_rows])
            simplex.solve()
            assert simplex.pivots > 0
            assert _Simplex(node).tableau[simplex.n_rows] == costs
            first = solve_rational(node)
            again = solve_rational(node)
            assert (first.status, first.pivots, assignment(first)) == \
                (again.status, again.pivots, assignment(again))
            assert extra == kept
        if system.zero_one:  # branch-and-bound passes its own rows
            solve_integer(system)

    def test_solves_leave_shared_inputs_unchanged(self):
        """Pivots update tableau rows in place.  Solving several systems
        of one context must change neither the context's cached dual
        columns nor the costs a simplex builds nor the branch rows
        appended as parts of a node system; nor may solving a system, or
        a branch node of it, change another system of the same graph
        that holds the same relation `Row` objects."""
        import itertools
        from netsynth.linsys import dump_lp
        by_context = {}
        for system in self.pipeline_systems(per_kind=4):
            ctx, = (p for p in system.rows.parts if not isinstance(p, Row))
            by_context.setdefault(id(ctx), (ctx, []))[1].append(system)
        ctx, systems = max(by_context.values(), key=lambda e: len(e[1]))
        assert len(systems) >= 6
        for system in systems:
            self.solve_nodes(system)
        fresh = SystemContext(ctx.lts, ctx.tree, ctx.basis)
        assert ctx.dual_columns() == fresh.dual_columns()

        pairs = []
        for ctx, group in by_context.values():
            for a, b in itertools.combinations(group, 2):
                shared = [r for r in a.rows.parts if isinstance(r, Row)
                          and any(r is q for q in b.rows.parts)]
                if shared:
                    assert {r.tag.split(":")[0] for r in shared} <= \
                        {"tie", "disjoint"}
                    pairs.append((ctx.names, a, b))
        assert len(pairs) >= 10
        for names, a, b in pairs:
            dumps = dump_lp(a, names), dump_lp(b, names)
            for system in (a, b):
                self.solve_nodes(system)
                assert (dump_lp(a, names), dump_lp(b, names)) == dumps

    def test_extension_keeps_the_block(self, fig1):
        ctx, graph = stage(fig1, brac=True)
        system = essp_system_wpi(ctx, graph, ESSP(0, 1), zero_one=True)
        extended = ctx.system(
            system.rows.parts + (ctx.ssp_row(SSP(0, 1), "<"),),
            zero_one=True)
        assert any(p is ctx for p in extended.rows.parts)
        assert len(extended.rows) == len(system.rows) + 1
        assert list(extended.rows)[:-1] == list(system.rows)
        assert list(extended.rows)[-1].tag == "ssp:s0:s1"
        assert list(system.rows)[1] == ctx.base_rows()[0]
        assert all(isinstance(r, Row) for r in system.rows)


class TestContextKeys:
    """`SystemContext` takes every edge as a key, in edge order.  Edges of
    one label from states with one tree vector give equal edge rows, whose
    repeated dual columns move no pivot: `context_keys`, which keeps the
    first edge of each (tree vector, label), gives the same solves."""

    @staticmethod
    def check(lts):
        """Assert that the context's keys are the edge columns; return
        whether `context_keys` repeats a key of them."""
        tree = spanning_tree(lts)
        ctx = SystemContext(lts, tree, cycle_basis(lts, tree))
        assert ctx.key_states == tuple(s for s, _, _ in lts.edges)
        assert ctx.key_labels == tuple(t for _, t, _ in lts.edges)
        return len(context_keys(lts, tree)[0]) < len(lts.edges)

    def test_census(self):
        # no two states of a census LTS share a tree vector
        from census import SHAPES, census
        assert not any(self.check(lts) for shape in SHAPES
                       for lts in census(*shape))

    def test_random_lts_in_three_edge_orders(self):
        from netsynth.oracle import random_lts
        rng = random.Random(50)
        repeated = 0
        for i in range(300):
            lts = random_lts(i, 24, 6)
            shuffled = list(lts.edges)
            rng.shuffle(shuffled)
            for edges in (lts.edges, lts.edges[::-1], tuple(shuffled)):
                repeated += self.check(Lts(lts.states, lts.labels,
                                           edges, lts.initial))
        assert repeated > 0

    def test_roundtrip_and_ladder_graphs_key_every_edge(self):
        # the state equation makes a reachability graph's tree vectors
        # distinct, so no key repeats
        from netsynth.oracle import random_brac_net
        from netsynth.petri import reachability_graph
        nets = [random_brac_net(i) for i in range(100)]
        nets += [random_brac_net(s, 6, 4) for s in (44, 17, 38)]
        for net in nets:
            lts = reachability_graph(net, 100_000)
            tree = spanning_tree(lts)
            assert len(set(tree.packed)) == len(tree.packed)
            assert not self.check(lts)

    def test_repeated_label_at_a_state(self):
        """`Lts` takes two edges of one label at a state, which `validate`
        reports; the tree vectors stay distinct, both edges are keys, and
        `context_keys` makes the repeated (state, label) one key."""
        for edges in (((0, 0, 1), (0, 0, 0), (1, 1, 0)),
                      ((0, 0, 1), (1, 1, 0), (0, 0, 1))):
            lts = Lts(("s0", "s1"), ("a", "b"), edges, 0)
            tree = spanning_tree(lts)
            assert len(set(tree.packed)) == 2
            assert self.check(lts)
            assert context_keys(lts, tree) == ((0, 1), (0, 1))

    def test_repeated_keys_leave_every_solve_unchanged(self, monkeypatch):
        """Every solve, branch-and-bound nodes included, of a context with
        a repeated (tree vector, label) key gives the status, witness and
        pivots of the same parts over a twin context keyed by
        `context_keys`."""
        import netsynth.linsys
        import netsynth.synthesis
        from netsynth.oracle import random_lts
        solve = netsynth.linsys.solve_rational
        twins = {}  # id -> (context, twin); the context keeps its id unique
        compared = []

        def twin_of(ctx):
            if id(ctx) not in twins:
                keys = context_keys(ctx.lts, ctx.tree)
                twin = None
                if keys != (ctx.key_states, ctx.key_labels):
                    twin = SystemContext(ctx.lts, ctx.tree, ctx.basis)
                    twin.key_states, twin.key_labels = keys
                    twin.copies = len(keys[0]) + 2 * len(ctx.basis)
                twins[id(ctx)] = ctx, twin
            return twins[id(ctx)][1]

        def compare(system):
            solution = solve(system)
            ctx, = (p for p in system.rows.parts if not isinstance(p, Row))
            twin = twin_of(ctx)
            if twin is not None:
                parts = tuple(twin if p is ctx else p
                              for p in system.rows.parts)
                compared.append((solution, solve(LinearSystem(
                    system.columns, parts, system.zero_one))))
            return solution
        monkeypatch.setattr(netsynth.linsys, "solve_rational", compare)
        monkeypatch.setattr(netsynth.synthesis, "solve_rational", compare)
        for i in range(3000):
            lts = random_lts(i, 24, 6)
            netsynth.synthesis.synthesize_brac(lts)
            netsynth.synthesis.synthesize_wpi(lts)
        assert len(compared) >= 40
        for solution, twin in compared:
            assert solution == twin
