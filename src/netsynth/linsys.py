"""Exact rational linear systems and solvers.

Systems mix weak, strict, equality and (caller-split) disequality rows over
nonnegative variables.  Rational feasibility is decided by an exact simplex
over `fractions.Fraction`; strict rows are handled by maximising one shared
slack.  Homogeneous solutions lift to integers by denominator clearing, and a
0/1-aware branch-and-bound gives bounded integer feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Iterable, Mapping, Optional

Rational = Fraction

RELATIONS = ("<=", "<", "=", ">=", ">", "!=")

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
CAP_EXCEEDED = "cap-exceeded"

# Bland's rule guarantees termination; this only guards against solver bugs.
_MAX_PIVOTS = 2_000_000


@dataclass(frozen=True)
class Row:
    """One linear constraint ``sum(coef * var) rel const``."""

    coeffs: tuple[tuple[str, Fraction], ...]
    rel: str
    const: Fraction
    tag: str = ""

    def evaluate(self, assignment: Mapping[str, Fraction]) -> bool:
        lhs = sum((c * assignment.get(v, Fraction(0)) for v, c in self.coeffs),
                  Fraction(0))
        if self.rel == "<=":
            return lhs <= self.const
        if self.rel == "<":
            return lhs < self.const
        if self.rel == "=":
            return lhs == self.const
        if self.rel == ">=":
            return lhs >= self.const
        if self.rel == ">":
            return lhs > self.const
        if self.rel == "!=":
            return lhs != self.const
        raise ValueError(f"unknown relation {self.rel!r}")


def make_row(coeffs: Mapping[str, int | Fraction], rel: str,
             const: int | Fraction = 0, tag: str = "") -> Row:
    if rel not in RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items()
                         if Fraction(c) != 0))
    return Row(items, rel, Fraction(const), tag)


@dataclass(frozen=True)
class LinearSystem:
    """Inequality system over nonnegative variables.

    ``zero_one`` flags variables additionally bounded to {0, 1}; the bound
    rows are materialised by the solvers, not stored.
    """

    variables: tuple[str, ...]
    rows: tuple[Row, ...]
    zero_one: frozenset[str] = frozenset()

    def __post_init__(self):
        declared = set(self.variables)
        for row in self.rows:
            for v, _ in row.coeffs:
                if v not in declared:
                    raise ValueError(f"row {row.tag!r} references "
                                     f"undeclared variable {v!r}")

    @property
    def homogeneous(self) -> bool:
        return all(r.const == 0 for r in self.rows) and not self.zero_one

    def satisfied_by(self, assignment: Mapping[str, Fraction]) -> bool:
        if any(assignment.get(v, Fraction(0)) < 0 for v in self.variables):
            return False
        if any(not (0 <= assignment.get(v, Fraction(0)) <= 1)
               for v in self.zero_one):
            return False
        return all(r.evaluate(assignment) for r in self.rows)

    def violated_rows(self, assignment: Mapping[str, Fraction]) -> list[Row]:
        return [r for r in self.rows if not r.evaluate(assignment)]


@dataclass
class Solution:
    status: str
    assignment: Optional[dict[str, Fraction]] = None
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def dump_lp(system: LinearSystem) -> str:
    """Debug dump in an LP-like line format (documented, not versioned)."""
    out = ["min 0"]
    for i, row in enumerate(system.rows, 1):
        terms = " ".join(f"{c} {v}" for v, c in row.coeffs) or "0"
        tag = f"  # {row.tag}" if row.tag else ""
        out.append(f"r{i}: {terms} {row.rel} {row.const}{tag}")
    if system.zero_one:
        out.append("binary: " + " ".join(sorted(system.zero_one)))
    out.append("vars: " + " ".join(system.variables))
    return "\n".join(out)


_DELTA = "__delta__"


def _leq_form(system: LinearSystem,
              extra_rows: Iterable[Row] = ()) -> tuple[list[str], list[list[Fraction]], list[Fraction], bool]:
    """Rewrite to ``M z <= b`` with z >= 0.

    Strict rows receive a shared slack variable maximised by the solver;
    a feasible strict system is one where the slack optimum is positive.
    """
    rows = list(system.rows) + list(extra_rows)
    has_strict = any(r.rel in ("<", ">") for r in rows)
    variables = list(system.variables) + ([_DELTA] if has_strict else [])
    index = {v: i for i, v in enumerate(variables)}
    nvar = len(variables)

    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def emit(coeffs, const, strict=False):
        dense = [Fraction(0)] * nvar
        for v, c in coeffs:
            dense[index[v]] += c
        if strict:
            dense[index[_DELTA]] += 1
        matrix.append(dense)
        rhs.append(const)

    for row in rows:
        if row.rel == "!=":
            raise ValueError("split '!=' rows before solving")
        if row.rel == "<=":
            emit(row.coeffs, row.const)
        elif row.rel == ">=":
            emit([(v, -c) for v, c in row.coeffs], -row.const)
        elif row.rel == "=":
            emit(row.coeffs, row.const)
            emit([(v, -c) for v, c in row.coeffs], -row.const)
        elif row.rel == "<":
            emit(row.coeffs, row.const, strict=True)
        elif row.rel == ">":
            emit([(v, -c) for v, c in row.coeffs], -row.const, strict=True)
    for v in sorted(system.zero_one):
        emit([(v, Fraction(1))], Fraction(1))
    if has_strict:
        emit([(_DELTA, Fraction(1))], Fraction(1))
    return variables, matrix, rhs, has_strict


class _Simplex:
    """Primal simplex (Bland's rule) over exact rationals.

    The many-row feasibility problem ``max delta, M z <= b, z >= 0`` is
    solved through its dual ``min b.y, M^T y >= c, y >= 0`` whose row count
    equals the (small) variable count; the primal witness is read off the
    reduced costs of the surplus columns.
    """

    def __init__(self, matrix, rhs, objective):
        # D rows: one per primal variable; D columns: y per primal row,
        # then surplus, then artificials where the rhs (= c) is positive.
        self.n_rows = len(objective)
        self.n_y = len(matrix)
        self.pivots = 0
        ncols = self.n_y + self.n_rows
        tableau = []
        basis = []
        art_cols: dict[int, int] = {}
        for j in range(self.n_rows):
            row = [matrix[i][j] for i in range(self.n_y)]
            surplus = [Fraction(0)] * self.n_rows
            surplus[j] = Fraction(-1)
            row += surplus
            cj = objective[j]
            if cj == 0:
                # Negate so the surplus column is the identity column.
                row = [-x for x in row]
                row[self.n_y + j] = Fraction(1)
                basis.append(self.n_y + j)
            else:
                art_cols[j] = ncols
                ncols += 1
                basis.append(art_cols[j])
            row.append(abs(cj))
            tableau.append(row)
        for j, col in art_cols.items():
            for i, row in enumerate(tableau):
                while len(row) <= ncols:
                    row.insert(len(row) - 1, Fraction(0))
                row[col] = Fraction(1 if i == j else 0)
        self.tableau = tableau
        self.basis = basis
        self.ncols = ncols
        self.artificial = set(art_cols.values())
        self.rhs_dual = rhs  # objective coefficients of the y columns

    def _objective_row(self, costs):
        obj = list(costs) + [Fraction(0)]
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if cb != 0:
                row = self.tableau[i]
                for k in range(self.ncols + 1):
                    obj[k] -= cb * row[k]
        return obj

    def _pivot(self, obj, r, k):
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        row = self.tableau[r]
        piv = row[k]
        self.tableau[r] = [x / piv for x in row]
        row = self.tableau[r]
        for i in range(self.n_rows):
            if i != r and self.tableau[i][k] != 0:
                f = self.tableau[i][k]
                self.tableau[i] = [a - f * b
                                   for a, b in zip(self.tableau[i], row)]
        if obj[k] != 0:
            f = obj[k]
            for idx in range(self.ncols + 1):
                obj[idx] -= f * row[idx]
        self.basis[r] = k

    def _drive_out_artificials(self, obj):
        for r in range(self.n_rows):
            if self.basis[r] in self.artificial:
                row = self.tableau[r]
                for k in range(self.ncols):
                    if k not in self.artificial and row[k] != 0:
                        self._pivot(obj, r, k)
                        break
                # A fully zero row is a redundant constraint; the basic
                # artificial stays at level zero and never re-enters.

    def _run(self, obj, forbidden):
        while True:
            enter = -1
            for k in range(self.ncols):
                if k in forbidden:
                    continue
                if obj[k] < 0:
                    enter = k
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(self.n_rows):
                a = self.tableau[i][enter]
                if a > 0:
                    ratio = self.tableau[i][-1] / a
                    key = (ratio, self.basis[i])
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(obj, leave, enter)

    def solve(self):
        """Return (status, optimum, primal_witness)."""
        if self.artificial:
            costs = [Fraction(0)] * self.ncols
            for c in self.artificial:
                costs[c] = Fraction(1)
            obj = self._objective_row(costs)
            status = self._run(obj, forbidden=set())
            if status != "optimal" or -obj[-1] != 0:
                return INFEASIBLE, None, None
            self._drive_out_artificials(obj)
        costs = [Fraction(0)] * self.ncols
        for j in range(self.n_y):
            costs[j] = self.rhs_dual[j]
        obj = self._objective_row(costs)
        status = self._run(obj, forbidden=self.artificial)
        if status == "unbounded":
            return INFEASIBLE, None, None
        optimum = -obj[-1]
        witness = [obj[self.n_y + j] for j in range(self.n_rows)]
        return FEASIBLE, optimum, witness


def solve_rational(system: LinearSystem, extra_rows: Iterable[Row] = ()) -> Solution:
    """Exact rational feasibility of a (possibly strict) system.

    Strict rows are feasible iff the shared strictness slack admits a
    positive optimum; the returned witness always re-substitutes cleanly.
    """
    variables, matrix, rhs, has_strict = _leq_form(system, extra_rows)
    if not matrix:
        return Solution(FEASIBLE, {v: Fraction(0) for v in system.variables})
    objective = [Fraction(0)] * len(variables)
    if has_strict:
        objective[-1] = Fraction(1)
    simplex = _Simplex(matrix, rhs, objective)
    status, optimum, witness = simplex.solve()
    if status != FEASIBLE:
        return Solution(INFEASIBLE, pivots=simplex.pivots)
    if has_strict and optimum <= 0:
        return Solution(INFEASIBLE, pivots=simplex.pivots)
    assignment = {v: witness[i] for i, v in enumerate(variables)
                  if v != _DELTA}
    for v in system.variables:
        assignment.setdefault(v, Fraction(0))
    extra = list(extra_rows)
    if not _check(system, assignment, extra):
        raise AssertionError("simplex witness failed re-substitution")
    return Solution(FEASIBLE, assignment, pivots=simplex.pivots)


def _check(system: LinearSystem, assignment, extra_rows) -> bool:
    if not system.satisfied_by(assignment):
        return False
    return all(r.evaluate(assignment) for r in extra_rows)


def lift_homogeneous_to_integer(solution: Solution,
                                system: LinearSystem) -> Solution:
    """Scale a rational solution of a homogeneous system to integers.

    All relations are preserved under positive scaling when every constant
    term is zero; the lifted assignment is re-verified by substitution.
    """
    if not system.homogeneous:
        raise ValueError("system is not homogeneous")
    if not solution.feasible or solution.assignment is None:
        raise ValueError("can only lift a feasible solution")
    scale = lcm(*(v.denominator for v in solution.assignment.values()), 1)
    lifted = {k: v * scale for k, v in solution.assignment.items()}
    if any(v.denominator != 1 for v in lifted.values()):
        raise AssertionError("lifted solution is not integral")
    if not system.satisfied_by(lifted):
        raise AssertionError("lifted solution failed re-substitution")
    return Solution(FEASIBLE, lifted, pivots=solution.pivots)


def integerize_strict(system: LinearSystem) -> LinearSystem:
    """Rewrite strict rows for integer search: ``< c`` becomes ``<= c-1``.

    Only sound when all coefficients and constants are integral, which every
    synthesis system satisfies.
    """
    rows = []
    for row in system.rows:
        if any(c.denominator != 1 for _, c in row.coeffs) or \
                row.const.denominator != 1:
            raise ValueError("integerize requires integral rows")
        if row.rel == "<":
            rows.append(Row(row.coeffs, "<=", row.const - 1, row.tag))
        elif row.rel == ">":
            rows.append(Row(row.coeffs, ">=", row.const + 1, row.tag))
        else:
            rows.append(row)
    return LinearSystem(system.variables, tuple(rows), system.zero_one)


def solve_integer(system: LinearSystem, cap: int = 10 ** 9) -> Solution:
    """Integer feasibility by branch-and-bound on the rational relaxation.

    0/1-flagged variables carry their bounds already; remaining variables
    are branched on fractional relaxation values, down-branch first, in
    variable order.  Branches pushing a lower bound beyond ``cap`` are
    pruned; if the search ends infeasible after such pruning the result is
    reported as cap-exceeded rather than infeasible.
    """
    system = integerize_strict(system)
    stack: list[tuple[Row, ...]] = [()]
    capped = False
    pivots = 0
    nodes = 0
    while stack:
        bounds = stack.pop()
        nodes += 1
        if nodes > 200_000:
            raise RuntimeError("branch-and-bound node limit exceeded")
        relax = solve_rational(system, extra_rows=bounds)
        pivots += relax.pivots
        if not relax.feasible:
            continue
        values = relax.assignment
        if values is None:
            raise AssertionError("feasible relaxation without a witness")
        frac_var = None
        for v in system.variables:
            if values[v].denominator != 1:
                frac_var = v
                break
        if frac_var is None:
            return Solution(FEASIBLE, dict(values), pivots=pivots)
        value = values[frac_var]
        lo = Fraction(floor(value))
        hi = Fraction(ceil(value))
        up = bounds + (make_row({frac_var: 1}, ">=", hi, tag="branch-up"),)
        down = bounds + (make_row({frac_var: 1}, "<=", lo, tag="branch-down"),)
        if hi > cap:
            capped = True
        else:
            stack.append(up)
        stack.append(down)  # popped first: down-branch explored first
    if capped:
        return Solution(CAP_EXCEEDED, pivots=pivots)
    return Solution(INFEASIBLE, pivots=pivots)
