"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import contextlib
import itertools
import json
import random
import time

from netsynth.cli import run
from netsynth.linsys import (LinearSystem, lift_homogeneous_to_integer,
                             make_row, solve_integer, solve_rational)
from netsynth.lts import cycle_basis, spanning_tree
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import (PetriNet, classify_net, isomorphic, parse_net,
                            reachability_graph)
from netsynth.relations import (Contradiction, Edge, INCLUDED,
                                build_relation_graph,
                                quotient_by_equivalence, strengthen_brac,
                                strengthen_wpi)
from netsynth.separation import ESSP, SSP, SystemContext, essp_system_wpi
from netsynth.synthesis import synthesize_brac, synthesize_wpi

from conftest import FIXTURES, load_lts, load_net, margin_row
from reference import (OracleBound, assignment, brute_force_region,
                       enumerate_separation_problems, satisfied_by, w_in)


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def fx(name: str) -> str:
    return str(FIXTURES / name)


def consume_vector(net: PetriNet, label: str):
    t = net.transitions.index(label)
    return tuple(w_in(net, p, t) for p in range(len(net.places)))


def test_criterion_1_fig1_end_to_end(tmp_path):
    with criterion(1, "fig1 synthesises to a verified BRAC net in time"):
        out = tmp_path / "out.pn"
        report_path = tmp_path / "r.json"
        start = time.monotonic()
        code = run(["synth", fx("fig1.lts"), "--class", "brac",
                    "-o", str(out), "--report", str(report_path)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        net = parse_net(out.read_text())
        rg = reachability_graph(net)
        assert len(rg.states) == 15 and len(rg.edges) == 24
        assert isinstance(isomorphic(load_lts("fig1"), rg), dict)
        assert {"BRAC", "WPI"} <= classify_net(net)
        payload = json.loads(report_path.read_text())
        assert payload["verification"]["isomorphic"]


def test_criterion_2_fig1_relation_table(capsys):
    with criterion(2, "fig1 relation table matches exactly"):
        code = run(["relations", fx("fig1.lts")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        got = {}
        for entry in payload["pairs"]:
            key = frozenset((entry["a"], entry["b"]))
            if entry["kind"] == "equiv":
                got[key] = "equiv"
            elif entry["kind"] == "interleave":
                got[key] = "interleave"
            else:
                wide = entry["a"] if entry["kind"] == "a_gtr_b" \
                    else entry["b"]
                got[key] = f"{wide}_above"
        expected = {frozenset(p): "interleave"
                    for p in itertools.combinations("abcdef", 2)}
        expected[frozenset("ef")] = "equiv"
        expected[frozenset("ab")] = "a_above"
        expected[frozenset("cd")] = "d_above"
        assert got == expected


def test_criterion_3_genx_negative(tmp_path):
    with criterion(3, "genx fails with a genuine witness; generic systems "
                      "infeasible"):
        for target in ("wpi", "brac"):
            report_path = tmp_path / f"{target}.json"
            code = run(["synth", fx("genx.lts"), "--class", target,
                        "--report", str(report_path)])
            assert code == 1
            payload = json.loads(report_path.read_text())
            witness = payload["witness"]
            if witness["kind"] == "contradiction":
                assert set(witness["labels"]) == {"a", "b"}
            elif witness["kind"] == "ssp":
                assert set(witness["states"]) == {"s3", "s7"}
            else:
                assert (witness["state"], witness["label"]) == ("s2", "b")
        genx = load_lts("genx")
        tree = spanning_tree(genx)
        ctx = SystemContext(genx, tree, cycle_basis(genx, tree))
        essp = ESSP(genx.states.index("s2"), genx.labels.index("b"))
        system = ctx.system([ctx.essp_row(essp)] + list(ctx.base_rows()))
        assert not solve_rational(system).feasible
        ssp = SSP(genx.states.index("s3"), genx.states.index("s7"))
        for sign in ("<", ">"):
            system = ctx.system([ctx.ssp_row(ssp, sign)]
                                + list(ctx.base_rows()))
            assert not solve_rational(system).feasible


def test_criterion_4_case6_dichotomy():
    with criterion(4, "self-loop dichotomy: disjoint for case6a, included "
                      "for case6b, opposites infeasible"):
        case6a = load_lts("case6a")
        rep_a = synthesize_wpi(case6a)
        assert rep_a.ok
        wb = consume_vector(rep_a.net, "b")
        wc = consume_vector(rep_a.net, "c")
        assert all(x == 0 or y == 0 for x, y in zip(wb, wc))

        case6b = load_lts("case6b")
        rep_b = synthesize_wpi(case6b)
        assert rep_b.ok
        wb = consume_vector(rep_b.net, "b")
        wc = consume_vector(rep_b.net, "c")
        assert all(x <= y for x, y in zip(wc, wb)) and wc != wb

        # forcing inclusion on case6a contradicts the block structure:
        # the self-loop already sits strictly below another label
        graph, _ = quotient_by_equivalence(build_relation_graph(case6a))
        forced = graph.copy()
        c = case6a.labels.index("c")
        b = case6a.labels.index("b")
        forced.set_edge(c, b, Edge(INCLUDED, c, b, "forced"))
        outcome = strengthen_brac(forced)
        assert isinstance(outcome, Contradiction)

        # forcing disjointness on case6b leaves the self-loop's event
        # separation without any region
        graph, _ = quotient_by_equivalence(build_relation_graph(case6b))
        graph = strengthen_wpi(graph)
        tree = spanning_tree(case6b)
        ctx = SystemContext(case6b, tree, cycle_basis(case6b, tree))
        c = case6b.labels.index("c")
        b = case6b.labels.index("b")
        essp = ESSP(case6b.states.index("s0"), c)
        system = essp_system_wpi(ctx, graph.resolved([(c, b)]), essp)
        assert not solve_rational(system).feasible
        system = essp_system_wpi(ctx, graph.resolved([(c, b)], [(c, b)]),
                                 essp)
        assert solve_rational(system).feasible


def test_criterion_5_brac7_forced_inclusion(tmp_path):
    with criterion(5, "brac7 synthesises with the forced preset inclusion"):
        report_path = tmp_path / "r.json"
        out = tmp_path / "out.pn"
        code = run(["synth", fx("brac7.lts"), "--class", "brac",
                    "-o", str(out), "--report", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert ["c", "e"] in payload["inclusion_candidates"]
        assert payload["matching"] == {"c": "e"}
        net = parse_net(out.read_text())
        wc = consume_vector(net, "c")
        we = consume_vector(net, "e")
        assert all(x <= y for x, y in zip(wc, we)) and wc != we
        assert "BRAC" in classify_net(net)


def _random_general_net(seed: int) -> PetriNet:
    rng = random.Random(seed)
    np_ = rng.randint(1, 4)
    nt = rng.randint(1, 4)
    consume = {}
    produce = {}
    for p in range(np_):
        for t in range(nt):
            if rng.random() < 0.4:
                consume[(p, t)] = rng.randint(1, 3)
            if rng.random() < 0.4:
                produce[(t, p)] = rng.randint(1, 3)
    return PetriNet(places=tuple(f"p{i}" for i in range(np_)),
                    transitions=tuple(f"t{i}" for i in range(nt)),
                    consume=consume, produce=produce,
                    m0=tuple(rng.randint(0, 2) for _ in range(np_)))


def test_criterion_6_class_predicates():
    with criterion(6, "class predicates and inclusion implications hold"):
        assert "EC" in classify_net(load_net("ec-net"))
        middle = classify_net(load_net("wac-net"))
        assert "WAC" in middle and "WPI" not in middle
        weighted_n = classify_net(load_net("wrac-net"))
        assert "WAC" in weighted_n and "WPI" not in weighted_n
        swapped = classify_net(load_net("wrac-net-swapped"))
        assert "WPI" in swapped and "WAC" not in swapped
        for seed in range(1000):
            net = random_brac_net(seed) if seed % 2 else \
                _random_general_net(seed)
            f = classify_net(net)
            assert "BRAC" not in f or {"WPI", "AC"} <= f
            assert "RAC" not in f or "BRAC" in f
            assert "EFC" not in f or {"EC", "PLAIN"} <= f
            assert "EC" not in f or "WAC" in f
            assert "CF" not in f or "EC" in f
            assert "MG" not in f or "CF" in f
            assert "AC" not in f or "WAC" in f


def test_criterion_7_lp_sanity():
    with criterion(7, "intro system splits rationals from integers; "
                      "lifting exact on 500 unit-margin systems"):
        x, y = 0, 1
        intro = LinearSystem(2, (
            make_row({x: 1, y: -1}, "<=", -1),
            make_row({x: -1}, "<=", 0),
            make_row({x: 1, y: 1}, "<=", 2),
            make_row({x: -4}, "<=", -2)))
        from fractions import Fraction
        sol = solve_rational(intro)
        assert sol.feasible
        assert satisfied_by(intro, (Fraction(1, 2), Fraction(3, 2)))
        assert solve_integer(intro).status == "infeasible"

        rng = random.Random(99)
        lifted = 0
        for _ in range(500):
            nvar = rng.randint(1, 5)
            rows = tuple(
                margin_row({j: rng.randint(-3, 3) for j in range(nvar)},
                           rng.choice(["<=", ">=", "=", "<", ">"]), 0)
                for _ in range(rng.randint(1, 6)))
            system = LinearSystem(nvar, rows)
            sol = solve_rational(system)
            if not sol.feasible:
                continue
            out = lift_homogeneous_to_integer(sol, system)
            assert all(v.denominator == 1 for v in assignment(out))
            assert satisfied_by(system, assignment(out))
            lifted += 1
        assert lifted >= 100


def test_criterion_8_oracle_equivalence():
    with criterion(8, "solver and brute-force oracle agree on 200 random "
                      "systems within a minute"):
        start = time.monotonic()
        problems_checked = 0
        for seed in range(200):
            lts = random_lts(seed, 8, 4)
            tree = spanning_tree(lts)
            ctx = SystemContext(lts, tree, cycle_basis(lts, tree))
            for problem in enumerate_separation_problems(lts):
                problems_checked += 1
                found = brute_force_region(lts, problem, OracleBound(3))
                if isinstance(problem, ESSP):
                    systems = [ctx.system([ctx.essp_row(problem)]
                                          + list(ctx.base_rows()))]
                else:
                    systems = [ctx.system([ctx.ssp_row(problem, sign)]
                                          + list(ctx.base_rows()))
                               for sign in ("<", ">")]
                feasible = any(solve_rational(s).feasible for s in systems)
                if problems_checked % 10 == 0:
                    # homogeneous but for the margin: integers must agree
                    integer = any(solve_integer(s).feasible for s in systems)
                    assert integer == feasible, (seed, problem)
                if found is not None:
                    assert feasible, (seed, problem)
                if not feasible:
                    assert found is None, (seed, problem)
        elapsed = time.monotonic() - start
        assert problems_checked > 1000
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_9_brac_roundtrip():
    with criterion(9, "100 random BRAC nets round-trip through synthesis"):
        start = time.monotonic()
        for seed in range(100):
            net = random_brac_net(seed)
            rg = reachability_graph(net, 2000)
            report = synthesize_brac(rg)
            assert report.ok, (seed, report.witness)
            assert report.verification.ok, seed
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
