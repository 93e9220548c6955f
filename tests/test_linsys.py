import hashlib
import json
import operator
import pathlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from netsynth import linsys
from netsynth.linsys import (FEASIBLE, INFEASIBLE, RELATIONS, LinearSystem,
                             Row, _LEQ_COPIES, dump_lp,
                             lift_homogeneous_to_integer, make_row,
                             solve_integer, solve_rational)
from netsynth.oracle import random_brac_net, random_lts
from netsynth.petri import reachability_graph
from netsynth.synthesis import synthesize_brac, synthesize_wpi

from conftest import margin_row, rewrite_record
from reference import assignment, integer_row, satisfied_by

PIVOT_RECORD = pathlib.Path(__file__).parent / "fixtures" / \
    "pivot_digests.json"
STATE_RECORD = pathlib.Path(__file__).parent / "fixtures" / \
    "simplex_state_digests.json"


def system(rows, variables=None, zero_one=()):
    """Build from name-keyed rows; column j is ``variables[j]``.  A strict
    row is written as its unit margin (`margin_row`)."""
    if variables is None:
        variables = sorted({v for coeffs, _, _ in rows for v in coeffs})
    col = {v: j for j, v in enumerate(variables)}
    built = tuple(margin_row({col[v]: c for v, c in coeffs.items()}, rel,
                             const)
                  for coeffs, rel, const in rows)
    return LinearSystem(len(variables), built,
                        frozenset(col[v] for v in zero_one))


# x+1 <= y <= x+y <= 2 <= 4x: rationally solvable, no integer solutions
INTRO = system([
    ({"x": 1, "y": -1}, "<=", -1),
    ({"x": -1}, "<=", 0),
    ({"x": 1, "y": 1}, "<=", 2),
    ({"x": -4}, "<=", -2),
], variables=("x", "y"))


class TestMakeRow:
    """`make_row` takes integer rows; `integer_row` (tests/reference.py)
    scales a rational row to integers first, for the tests' rational
    systems."""

    def test_rational_row_scaled_by_lcm(self):
        row = integer_row({0: Fraction(1, 2), 1: Fraction(-2, 3)}, "<=",
                          Fraction(1, 3))
        assert row.coeffs == ((0, 3), (1, -4))
        assert (row.rel, row.const) == ("<=", 2)

    @pytest.mark.parametrize("rel", ["<", ">", "!="])
    def test_strict_and_disequality_refused(self, rel):
        assert RELATIONS == ("<=", "=", ">=")
        with pytest.raises(ValueError, match="unknown relation"):
            make_row({0: 1}, rel, 0)

    @pytest.mark.parametrize("coeffs,const", [
        ({2: 3, 0: -1, 1: 0}, 4),
        ({0: Fraction(4, 2), 1: Fraction(-3)}, Fraction(6, 3)),
        ({0: True, 1: 2}, False),
        ({0: 5, 1: Fraction(-1)}, 2),
    ])
    def test_integer_input_keeps_scale_one(self, coeffs, const):
        row = integer_row(coeffs, ">=", const)
        # not multiplied: the row as given
        assert row.const == const
        assert row.coeffs == tuple((j, c) for j, c in sorted(coeffs.items())
                                   if c)
        entries = [row.const] + [x for pair in row.coeffs for x in pair]
        assert all(type(x) is int for x in entries)
        # the same row given in integers
        assert row == make_row({j: int(c) for j, c in coeffs.items()},
                               ">=", int(const))

    def test_scaled_row_agrees_with_rational_row(self):
        # the unscaled row is evaluated here, apart from linsys
        ops = {"<=": operator.le, "=": operator.eq, ">=": operator.ge}
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for _ in range(3)]
            const = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            rel = rng.choice(RELATIONS)
            sys_ = LinearSystem(3, (integer_row(dict(enumerate(coeffs)),
                                                rel, const),))
            for _ in range(4):
                x = [Fraction(rng.randint(0, 4), rng.randint(1, 2))
                     for _ in range(3)]
                truth = ops[rel](sum(c * v for c, v in zip(coeffs, x)),
                                 const)
                assert satisfied_by(sys_, x) == truth
                assert sys_.holds([int(v * 2) for v in x], 2) == truth
                seen.add(truth)
        assert seen == {True, False}


class TestRational:
    def test_intro_example_feasible(self):
        sol = solve_rational(INTRO)
        assert sol.feasible
        assert satisfied_by(INTRO, assignment(sol))
        # the half-integral witness is a valid solution of this system
        assert satisfied_by(INTRO, (Fraction(1, 2), Fraction(3, 2)))  # x, y

    def test_empty_system(self):
        sol = solve_rational(LinearSystem(0, ()))
        assert sol.feasible and assignment(sol) == ()

    def test_contradictory_bounds(self):
        sys_ = system([({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)])
        assert solve_rational(sys_).status == INFEASIBLE

    def test_strict_feasible(self):
        sys_ = system([({"x": 1, "y": -1}, "<", 0)])
        sol = solve_rational(sys_)
        assert sol.feasible
        assert assignment(sol)[0] < assignment(sol)[1]  # x < y

    def test_strict_on_zero_infeasible(self):
        sys_ = system([({"x": 1}, "<", 0)])
        assert solve_rational(sys_).status == INFEASIBLE

    def test_constant_strict_row(self):
        # a disequality split can produce rows without variables
        sys_ = system([({}, "<", 0)], variables=("x",))
        assert solve_rational(sys_).status == INFEASIBLE

    def test_disequality_rejected(self):
        # a row built past make_row still meets the simplex's check
        sys_ = LinearSystem(1, (Row(((0, 1),), "!=", 0),))
        with pytest.raises(ValueError, match="unknown relation '!='"):
            solve_rational(sys_)

    def test_degenerate_rows_terminate(self):
        rows = [({"x1": 1, "x2": 1}, "<=", 0),
                ({"x1": 1, "x2": -1}, "<=", 0),
                ({"x1": -1, "x3": 1}, "<=", 0),
                ({"x1": 1, "x3": 1}, "<=", 0),
                ({"x2": 1, "x3": -1}, "<", 0)]
        sol = solve_rational(system(rows))
        assert sol.status == INFEASIBLE
        assert sol.pivots < 100

    def test_witness_resubstitutes_on_random_systems(self):
        rng = random.Random(11)
        feasible = 0
        for _ in range(120):
            nvar = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = {j: rng.randint(-3, 3) for j in range(nvar)}
                rel = rng.choice(["<=", ">=", "=", "<", ">"])
                rows.append(margin_row(coeffs, rel, rng.randint(-4, 4)))
            sys_ = LinearSystem(nvar, tuple(rows))
            sol = solve_rational(sys_)
            if sol.feasible:
                feasible += 1
                assert satisfied_by(sys_, assignment(sol))
        assert feasible > 10


class TestEliminate:
    """`_Simplex._pivot`'s row update against the rational one it stands
    for, ``row/den - (a/den) * pivot_row/pivot``, on a hand-built
    tableau: the pivot row, a row with 0 in the pivot column, and the
    updated row, which stands for a constraint or the objective."""

    @staticmethod
    def check(row, den, pivot_row, pivot, a):
        """Pivot at the appended column, which holds ``pivot`` in the pivot
        row and ``a`` in ``row``; return ``row`` as updated."""
        k = len(row)
        expected = [Fraction(x, den) - Fraction(a, den) * Fraction(y, pivot)
                    for x, y in zip(row, pivot_row)] + [0]
        untouched = [3] * k + [0]
        tableau = [pivot_row + [pivot], list(untouched), row + [a]]
        simplex = object.__new__(linsys._Simplex)
        simplex.tableau, simplex.den = tableau, [5, 2, den]
        simplex.basis, simplex.pivots = [None] * 3, 0
        simplex._pivot(0, k, [(0, pivot), (2, a)])
        assert (simplex.basis[0], simplex.pivots) == (k, 1)
        assert tableau[:2] == [pivot_row + [pivot], untouched]
        assert simplex.den[:2] == [pivot, 2]
        new_den = simplex.den[2]
        assert new_den > 0
        assert [Fraction(x, new_den) for x in tableau[2]] == expected
        assert gcd(new_den, *tableau[2]) == 1
        return tableau[2]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("den", [1, 6])
    @pytest.mark.parametrize("pivot", [1, 4])
    def test_matches_fraction_reference(self, pivot, den, sign):
        rng = random.Random(f"{pivot} {den} {sign}")
        for _ in range(100):
            n = rng.randint(1, 12)
            pivot_row = [rng.choice((0, 0, rng.randint(-6, 6)))
                         for _ in range(n)]
            row = [rng.randint(-9, 9) for _ in range(n)]
            self.check(row, den, pivot_row, pivot, sign * rng.randint(1, 7))

    @pytest.mark.parametrize("pivot, den", [(1, 1), (1, 4), (3, 1), (3, 4)])
    def test_empty_support(self, pivot, den):
        # the pivot row is 0 off the pivot column
        row = self.check([2, 0, -6, 4], den, [0, 0, 0, 0], pivot, -5)
        assert row == ([1, 0, -3, 2, 0] if den == 4 else [2, 0, -6, 4, 0])


class TestLifting:
    def test_halves_scale_to_integers(self):
        sys_ = system([({"B_a": 2, "F_f": -2}, "=", 0),
                       ({"B_a": -1}, "<", 0)])
        sol = solve_rational(sys_)
        from netsynth.linsys import Solution
        # three halves of the witness, so that it still meets B_a >= 1
        halved = Solution(FEASIBLE, tuple(3 * v for v in sol.num),
                          2 * sol.den)
        assert satisfied_by(sys_, assignment(halved))
        assert any(v.denominator == 2 for v in assignment(halved))
        lifted = lift_homogeneous_to_integer(halved, sys_)
        assert all(v.denominator == 1 for v in assignment(lifted))
        assert satisfied_by(sys_, assignment(lifted))

    def test_integer_solution_unchanged(self):
        sys_ = system([({"x": 1, "y": -1}, "=", 0)])
        sol = solve_rational(sys_)
        lifted = lift_homogeneous_to_integer(sol, sys_)
        assert assignment(lifted) == assignment(sol)

    def test_rejects_inhomogeneous(self):
        sol = solve_rational(INTRO)
        with pytest.raises(ValueError, match="homogeneous"):
            lift_homogeneous_to_integer(sol, INTRO)

    @pytest.mark.parametrize("rel, const, zero_one, refused", [
        ("<=", -1, (), False), (">=", 1, (), False), ("=", 0, (), False),
        ("<=", 1, (), True), (">=", -1, (), True), ("=", 1, (), True),
        ("=", -1, (), True), ("<=", -1, ("x",), True)])
    def test_lifts_only_rows_that_survive_scaling(self, rel, const,
                                                  zero_one, refused):
        sys_ = system([({"x": 2, "y": -3}, rel, const)], zero_one=zero_one)
        sol = solve_rational(sys_)
        assert sol.feasible
        if refused:
            with pytest.raises(ValueError, match="homogeneous"):
                lift_homogeneous_to_integer(sol, sys_)
        else:
            lifted = lift_homogeneous_to_integer(sol, sys_)
            assert satisfied_by(sys_, assignment(lifted))

    def test_random_homogeneous_lift_property(self):
        rng = random.Random(23)
        lifted_count = 0
        for _ in range(100):
            nvar = rng.randint(1, 5)
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = {j: rng.randint(-3, 3) for j in range(nvar)}
                rows.append(margin_row(coeffs,
                                       rng.choice(["<=", ">=", "=", "<"]), 0))
            sys_ = LinearSystem(nvar, tuple(rows))
            sol = solve_rational(sys_)
            if not sol.feasible:
                # homogeneous: integers cannot do better than rationals
                assert solve_integer(sys_).status != FEASIBLE
                continue
            lifted = lift_homogeneous_to_integer(sol, sys_)
            assert satisfied_by(sys_, assignment(lifted))
            assert all(v.denominator == 1
                       for v in assignment(lifted))
            lifted_count += 1
        assert lifted_count > 20


class TestInteger:
    def test_intro_example_integer_infeasible(self):
        assert solve_integer(INTRO).status == INFEASIBLE

    def test_zero_one_flags(self):
        sys_ = system([({"B_a": 1}, ">=", 1),
                       ({"F_a": 1, "B_a": -1}, "=", 0)],
                      zero_one=("B_a", "F_a"))
        sol = solve_integer(sys_)
        assert sol.feasible
        assert assignment(sol) == (1, 1)  # B_a, F_a

    def test_strict_rows_integerized(self):
        sys_ = system([({"x": 1}, "<", 3), ({"x": 1}, ">", 1)])
        assert [(r.rel, r.const) for r in sys_.rows] == \
            [("<=", 2), (">=", 2)]
        sol = solve_integer(sys_)
        assert assignment(sol)[0] == 2

    def test_branching_down_first(self):
        # both 1 and 2 work; the down branch must win
        sys_ = system([({"x": 2}, ">=", 3), ({"x": 1}, "<=", 2)])
        sol = solve_integer(sys_)
        assert assignment(sol)[0] == 2

    def test_zero_one_column_branched_first(self, monkeypatch):
        # r = 3/2 and b = 1/2 at the root; r comes first in column order
        sys_ = system([({"r": 2}, "=", 3), ({"b": 2}, "=", 1)],
                      variables=("r", "b"), zero_one=("b",))
        real = solve_rational
        solved = []

        def record(s):
            solved.append(s)
            return real(s)
        monkeypatch.setattr("netsynth.linsys.solve_rational", record)
        assert solve_integer(sys_).status == INFEASIBLE
        assert assignment(real(solved[0])) == (Fraction(3, 2), Fraction(1, 2))
        branch = solved[1].rows.parts[-1]
        assert branch.tag.startswith("branch-") and branch.coeffs == ((1, 1),)

    def test_bound_rows_end_an_unbounded_search(self):
        # 3x - 3y = 1 admits rationals but no integers; without the bound
        # rows the search need not end
        sys_ = system([({"x": 3, "y": -3}, "=", 1), ({"x": 1}, "<=", 5),
                       ({"y": 1}, "<=", 5)])
        assert solve_integer(sys_).status == INFEASIBLE

    def test_pivot_limit_ends_a_runaway_search(self, monkeypatch):
        # without the bound rows node k takes about k/2 pivots, so 5,000
        # pivots end the search near node 100; past 300 nodes the tripwire
        # fails the test rather than let a search that does not stop run on
        class Tripwire(Exception):
            pass
        real = solve_rational
        nodes = []

        def count_node(s):
            nodes.append(s)
            if len(nodes) > 300:
                raise Tripwire
            return real(s)
        monkeypatch.setattr("netsynth.linsys.solve_rational", count_node)
        monkeypatch.setattr("netsynth.linsys._MAX_PIVOTS", 5_000)
        with pytest.raises(RuntimeError, match="^pivot limit exceeded$"):
            solve_integer(system([({"x": 3, "y": -3}, "=", 1)]))
        assert 50 < len(nodes) < 200

    def test_contradictory_bounds_integer_infeasible(self):
        sys_ = system([({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)])
        assert solve_integer(sys_).status == INFEASIBLE


class TestExhaustiveCrossCheck:
    def test_binary_systems_against_enumeration(self):
        # ground truth by enumerating every 0/1 assignment
        rng = random.Random(5)
        agree_feasible = agree_infeasible = 0
        for _ in range(200):
            nvar = rng.randint(1, 4)
            rows = tuple(
                margin_row({j: rng.randint(-2, 2) for j in range(nvar)},
                           rng.choice(["<=", ">=", "=", "<", ">"]),
                           rng.randint(-2, 2))
                for _ in range(rng.randint(1, 5)))
            sys_ = LinearSystem(nvar, rows, frozenset(range(nvar)))
            truth = any(
                satisfied_by(sys_, tuple(Fraction(bits >> i & 1)
                                        for i in range(nvar)))
                for bits in range(1 << nvar))
            got = solve_integer(sys_)
            assert got.feasible == truth
            if truth:
                agree_feasible += 1
                assert satisfied_by(sys_, assignment(got))
            else:
                agree_infeasible += 1
        assert agree_feasible > 30 and agree_infeasible > 30


class TestDump:
    def test_format(self):
        sys_ = system([({"B_a": 1, "F_a": -1}, "<=", 0)],
                      zero_one=("B_a",))
        text = dump_lp(sys_, ("B_a", "F_a"))
        assert text.splitlines()[0] == "min 0"
        assert "r1: 1 B_a -1 F_a <= 0" in text
        assert "binary: B_a" in text

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            LinearSystem(1, (make_row({1: 1}, "<=", 0),))


class TestPivotSequence:
    """Pins every solve's ``(status, pivots, assignment)`` on seeded systems.

    With exact arithmetic and Bland's rule, a rewrite of how the tableau is
    built must not change a single pivot.  The report digests never see
    pivot counts, so this is the guard for them.  Strict rows are drawn
    and written as unit margins (`margin_row`).  The digests are in
    ``fixtures/pivot_digests.json``; ``PYTHONPATH=src python
    tests/test_linsys.py`` rewrites it.
    """

    FAMILIES = {
        # family -> (seed, relations, constants, every column 0/1,
        #            coefficients and constants rational, sparse)
        "weak": (1, ("<=", ">="), (-4, 4), False, False, False),
        "strict": (2, ("<=", ">=", "<", ">"), (-4, 4), False, False, False),
        "equality": (3, ("<=", ">=", "="), (-4, 4), False, False, False),
        "zero-one": (4, ("<=", ">=", "=", "<", ">"), (-2, 2), True, False,
                     False),
        "homogeneous": (5, ("<=", ">=", "=", "<", ">"), (0, 0), False,
                        False, False),
        "rational": (6, ("<=", ">=", "=", "<", ">"), (-3, 3), False, True,
                     False),
        # wide systems of rows with 2-3 nonzeros, so that most tableau
        # entries are zero and pivots other than 1 and row denominators
        # above 1 both occur
        "sparse": (7, ("<=", ">=", "=", "<", ">"), (0, 3), False, True,
                   True),
    }
    # the side on which a sparse row's constant moves off the hidden point
    LOOSE = {"<=": 1, "<": 1, "=": 0, ">=": -1, ">": -1}

    @staticmethod
    def systems(family):
        """The family's 60 seeded systems, in order."""
        seed, rels, (lo, hi), binary, rational, sparse = \
            TestPivotSequence.FAMILIES[family]
        rng = random.Random(seed)

        def number(lo, hi):
            if rational:
                return Fraction(rng.randint(lo, hi), rng.randint(1, 4))
            return rng.randint(lo, hi)

        for _ in range(60):
            if sparse:
                # each row holds at a hidden point with a slack drawn from
                # the constants' range, towards its loose side; a strict
                # row with slack 0 makes that point fail
                nvar = rng.randint(10, 14)
                point = [number(0, 3) for _ in range(nvar)]
                rows = []
                for _ in range(rng.randint(20, 40)):
                    coeffs = {j: rng.choice((-1, 1)) * number(1, 3)
                              for j in rng.sample(range(nvar),
                                                  rng.randint(2, 3))}
                    rel = rng.choice(rels)
                    value = sum(c * point[j] for j, c in coeffs.items())
                    rows.append(margin_row(
                        coeffs, rel,
                        value + TestPivotSequence.LOOSE[rel] * number(lo, hi)))
            else:
                nvar = rng.randint(1, 6)
                rows = tuple(
                    margin_row({j: number(-3, 3) for j in range(nvar)},
                               rng.choice(rels), number(lo, hi))
                    for _ in range(rng.randint(1, 8)))
            yield LinearSystem(nvar, rows,
                               frozenset(range(nvar)) if binary
                               else frozenset())

    # family -> the systems whose integer search needs bound rows to end
    BOUNDED = {"rational": (12, 52)}

    @staticmethod
    def solves(family):
        """Solve each of the family's systems over the rationals, then in
        integers; a system of `BOUNDED` is solved in integers with the
        rows ``x_j <= 16`` appended."""
        bounded = TestPivotSequence.BOUNDED.get(family, ())
        for i, sys_ in enumerate(TestPivotSequence.systems(family)):
            yield solve_rational(sys_)
            if i in bounded:
                sys_ = LinearSystem(sys_.columns, sys_.rows.parts + tuple(
                    make_row({j: 1}, "<=", 16, tag="bound")
                    for j in range(sys_.columns)), sys_.zero_one)
            yield solve_integer(sys_)

    @staticmethod
    def digest(family):
        h = hashlib.sha256()
        for sol in TestPivotSequence.solves(family):
            values = " ".join(map(str, assignment(sol) or ()))
            h.update(f"{sol.status} {sol.pivots} {values}\n".encode())
        return h.hexdigest()

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_pivots_unchanged(self, family):
        expected = json.loads(PIVOT_RECORD.read_text())
        assert self.digest(family) == expected[family]


class TestFarkasRay:
    """Every infeasible verdict carries a Farkas ray of its rows.

    The simplex stops infeasible when the first negative reduced cost, in
    column k, has no positive entry in its column.  Raising column k then
    moves along the ray ``y = L e_k - sum_i tableau[i][k] (L / den[i])
    e_basis[i]`` of the dual cone, ``L = lcm(den)``.  Its first ``n_y``
    entries must satisfy ``y >= 0``, ``M^T y >= 0`` and ``b.y < 0`` over
    the written-out rows ``M z <= b``, which no ``z >= 0`` can then meet.
    The check multiplies in plain integers and uses no solver code.
    """

    @staticmethod
    def record(monkeypatch):
        """Patch the simplex so that each infeasible solve appends
        ``(system, ray)``; return that list."""
        rays = []

        class Recorded(linsys._Simplex):
            def __init__(self, system):
                super().__init__(system)
                self.system = system

            def solve(self):
                witness = super().solve()
                if witness is None:
                    rays.append((self.system, TestFarkasRay.ray(self)))
                return witness
        monkeypatch.setattr(linsys, "_Simplex", Recorded)
        return rays

    @staticmethod
    def ray(simplex):
        """The ray; the objective is the tableau's last row."""
        n = simplex.n_rows
        objective, rows, dens = \
            simplex.tableau[n], simplex.tableau[:n], simplex.den[:n]
        k = next(k for k, c in enumerate(objective) if c < 0)
        column = [row[k] for row in rows]
        assert all(a <= 0 for a in column)
        scale = lcm(*dens)
        y = [0] * len(objective)
        y[k] = scale
        for a, basic, den in zip(column, simplex.basis, dens, strict=True):
            y[basic] -= a * (scale // den)
        return y[:simplex.n_y]

    @staticmethod
    def certifies(system, y):
        """Whether y >= 0, M^T y >= 0 and b.y < 0 over the rows: each
        row's copies by `_LEQ_COPIES`, then x_j <= 1 per sorted 0/1
        column."""
        rows = [({j: sign * c for j, c in row.coeffs}, sign * row.const)
                for row in system.rows for sign in _LEQ_COPIES[row.rel]]
        rows += [({j: 1}, 1) for j in sorted(system.zero_one)]
        combined = [0] * system.columns
        for (coeffs, _), weight in zip(rows, y, strict=True):
            for j, c in coeffs.items():
                combined[j] += weight * c
        return (min(y, default=0) >= 0 and min(combined, default=0) >= 0
                and sum(weight * b for (_, b), weight in zip(rows, y)) < 0)

    @pytest.mark.parametrize("family", list(TestPivotSequence.FAMILIES))
    def test_families(self, monkeypatch, family):
        rays = self.record(monkeypatch)
        list(TestPivotSequence.solves(family))
        assert rays
        for sys_, y in rays:
            assert self.certifies(sys_, y)

    def test_pipelines(self, monkeypatch):
        rays = self.record(monkeypatch)
        for seed in range(60):
            lts = random_lts(seed, 24, 6)
            synthesize_wpi(lts)
            synthesize_brac(lts)
        # the context block and BRAC's 0/1 branch-and-bound roots occur
        assert any(not isinstance(p, Row)
                   for sys_, _ in rays for p in sys_.rows.parts)
        assert any(sys_.zero_one for sys_, _ in rays)
        for sys_, y in rays:
            assert self.certifies(sys_, y)

    def test_rejects_a_wrong_ray(self):
        # x >= 1 and x <= 0: the ray (1, 1) certifies, (1, 0) does not
        sys_ = system([({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)])
        assert self.certifies(sys_, [1, 1])
        assert not self.certifies(sys_, [1, 0])
        assert not self.certifies(sys_, [2, 1])


class TestFinalState:
    """Pins every simplex solve's final state on the systems both pipelines
    solve: on the graphs of ``random_brac_net(0..99)`` at the roundtrip
    cap, and on ``random_lts(0..99, 24, 6)``.

    A state is the constraint rows and their denominators, the objective
    row and its denominator, the basis and the pivot count.  The objective
    is read as ``obj`` over ``obj_den`` where the simplex keeps it apart,
    else as the tableau's last row, so the digest does not depend on
    where the objective is kept.  Every branch-and-bound node is a solve.
    The digests are in ``fixtures/simplex_state_digests.json``;
    ``PYTHONPATH=src python tests/test_linsys.py`` rewrites it.
    """

    FAMILIES = ("roundtrip", "random_lts")

    @staticmethod
    def inputs(family):
        if family == "roundtrip":
            return [reachability_graph(random_brac_net(i), 2000)
                    for i in range(100)]
        return [random_lts(seed, 24, 6) for seed in range(100)]

    @staticmethod
    def state(simplex):
        n = simplex.n_rows
        if hasattr(simplex, "obj"):
            objective, obj_den = simplex.obj, simplex.obj_den
        else:
            objective, obj_den = simplex.tableau[n], simplex.den[n]
        return (simplex.tableau[:n], simplex.den[:n], objective, obj_den,
                simplex.basis, simplex.pivots)

    @staticmethod
    def digests(family):
        """``"<family>/<pipeline>"`` -> ``{"solves", "sha256"}``."""
        hashes, solves = {}, []

        class Recorded(linsys._Simplex):
            def solve(self):
                witness = super().solve()
                hashes[pipeline].update(
                    f"{TestFinalState.state(self)}\n".encode())
                solves.append(pipeline)
                return witness
        original = linsys._Simplex
        linsys._Simplex = Recorded
        try:
            for lts in TestFinalState.inputs(family):
                for pipeline, synthesize in (("wpi", synthesize_wpi),
                                             ("brac", synthesize_brac)):
                    hashes.setdefault(pipeline, hashlib.sha256())
                    synthesize(lts)
        finally:
            linsys._Simplex = original
        return {f"{family}/{pipeline}": {"solves": solves.count(pipeline),
                                         "sha256": h.hexdigest()}
                for pipeline, h in hashes.items()}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_final_states_unchanged(self, family):
        expected = json.loads(STATE_RECORD.read_text())
        got = self.digests(family)
        assert got == {k: v for k, v in expected.items()
                       if k.startswith(family + "/")}


if __name__ == "__main__":
    rewrite_record(PIVOT_RECORD, {
        family: TestPivotSequence.digest(family)
        for family in TestPivotSequence.FAMILIES})
    rewrite_record(STATE_RECORD, {
        key: value for family in TestFinalState.FAMILIES
        for key, value in TestFinalState.digests(family).items()})
