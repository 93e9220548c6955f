import os
import pathlib
import subprocess
import sys

import pytest

from netsynth.linsys import solve_rational
from netsynth.lts import cycle_basis, parse_lts, spanning_tree, validate
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import classify_net, reachability_graph
from netsynth.separation import ESSP, SSP, SystemContext
from netsynth.synthesis import synthesize_brac, verify_solution

from reference import (OracleBound, brute_force_region,
                       enumerate_separation_problems)


def test_import_does_not_load_numpy():
    # numpy is a test dependency only: the brute-force oracle in
    # tests/reference.py imports it when called
    src = pathlib.Path(__file__).parents[1] / "src"
    code = ("import sys, netsynth, netsynth.cli; "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr


class TestBruteForce:
    def test_genx_essp_unsolvable(self, genx):
        essp = ESSP(genx.states.index("s2"), genx.labels.index("b"))
        assert brute_force_region(genx, essp, OracleBound(3)) is None

    def test_small_ssp_solved(self):
        lts = parse_lts("initial s0\ns0 a s1\ns1 b s2\n")
        region = brute_force_region(lts, SSP(0, 1), OracleBound(1))
        assert region is not None
        assert region.solves(SSP(0, 1))

    def test_lexicographically_first(self):
        lts = parse_lts("initial s0\ns0 a s1\n")
        region = brute_force_region(lts, ESSP(1, 0), OracleBound(2))
        # smallest region disabling the label after one firing
        assert region.r0 == 1 and region.b == (1,) and region.f == (0,)

    def test_guard(self):
        lines = ["initial s0"] + [f"s{i} a{j} s{i+1}"
                                  for i in range(12) for j in range(6)]
        lts = parse_lts("\n".join(lines))
        with pytest.raises(ValueError, match="guard"):
            brute_force_region(lts, SSP(0, 1), OracleBound(3))

    def test_agreement_with_generic_systems(self):
        for seed in range(12):
            lts = random_lts(seed, 6, 3)
            tree = spanning_tree(lts)
            basis = cycle_basis(lts, tree)
            ctx = SystemContext(lts, tree, basis)
            for problem in enumerate_separation_problems(lts):
                found = brute_force_region(lts, problem, OracleBound(3))
                if isinstance(problem, ESSP):
                    rows = [ctx.essp_row(problem)] + list(ctx.base_rows())
                    feasible = solve_rational(ctx.system(rows)).feasible
                else:
                    feasible = any(
                        solve_rational(ctx.system(
                            [ctx.ssp_row(problem, sign)]
                            + list(ctx.base_rows()))).feasible
                        for sign in ("<", ">"))
                if found is not None:
                    assert feasible
                if not feasible:
                    assert found is None


class TestRandomLts:
    def test_seed_determinism(self):
        assert random_lts(1) == random_lts(1)

    def test_seeds_differ(self):
        assert random_lts(1) != random_lts(2)

    def test_always_valid(self):
        for seed in range(60):
            report = validate(random_lts(seed))
            assert report.ok

    def test_respects_bounds(self):
        for seed in range(30):
            lts = random_lts(seed, 5, 2)
            assert len(lts.states) <= 5
            assert len(lts.labels) <= 2


class TestRandomBracNet:
    def test_seed_determinism(self):
        assert random_brac_net(7) == random_brac_net(7)

    def test_always_brac_and_plain(self):
        for seed in range(60):
            assert {"BRAC", "PLAIN"} <= classify_net(random_brac_net(seed))

    def test_reachability_graph_small(self):
        for seed in range(60):
            rg = reachability_graph(random_brac_net(seed), 2000)
            assert 1 <= len(rg.states) <= 2000

    def test_roundtrip_sample(self):
        for seed in (0, 5, 9):
            net = random_brac_net(seed)
            rg = reachability_graph(net, 2000)
            report = synthesize_brac(rg)
            assert report.ok
            assert verify_solution(report.net, rg, "brac").ok
