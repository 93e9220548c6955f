"""Exact rational linear systems and solvers.

Systems mix weak, strict, equality and (caller-split) disequality rows over
nonnegative variables.  Variables are plain column positions: a row holds
``(column, coefficient)`` pairs and a solution is one value per column, so
the solver never sees a variable name (``dump_lp`` takes names only to
print).  Rational feasibility is decided by an exact simplex over
`fractions.Fraction`; strict rows are handled by maximising one shared
slack.  Homogeneous solutions lift to integers by denominator clearing, and a
0/1-aware branch-and-bound gives bounded integer feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Iterable, Mapping, Optional, Sequence

Rational = Fraction

RELATIONS = ("<=", "<", "=", ">=", ">", "!=")

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
CAP_EXCEEDED = "cap-exceeded"

# Bland's rule guarantees termination; this only guards against solver bugs.
_MAX_PIVOTS = 2_000_000


@dataclass(frozen=True)
class Row:
    """One linear constraint ``sum(coef * x[column]) rel const``."""

    coeffs: tuple[tuple[int, Fraction], ...]
    rel: str
    const: Fraction
    tag: str = ""

    def evaluate(self, values: Sequence[Fraction]) -> bool:
        lhs = sum((c * values[j] for j, c in self.coeffs), Fraction(0))
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


def make_row(coeffs: Mapping[int, int | Fraction], rel: str,
             const: int | Fraction = 0, tag: str = "") -> Row:
    if rel not in RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    items = tuple(sorted((j, Fraction(c)) for j, c in coeffs.items()
                         if c != 0))
    return Row(items, rel, Fraction(const), tag)


@dataclass(frozen=True)
class LinearSystem:
    """Inequality system over ``columns`` nonnegative variables.

    ``zero_one`` flags columns additionally bounded to {0, 1}; the bound
    rows are materialised by the solvers, not stored.
    """

    columns: int
    rows: tuple[Row, ...]
    zero_one: frozenset[int] = frozenset()

    def __post_init__(self):
        for row in self.rows:
            for j, _ in row.coeffs:
                if not 0 <= j < self.columns:
                    raise ValueError(f"row {row.tag!r} references "
                                     f"undeclared column {j}")

    @property
    def homogeneous(self) -> bool:
        return all(r.const == 0 for r in self.rows) and not self.zero_one

    def satisfied_by(self, values: Sequence[Fraction]) -> bool:
        if any(v < 0 for v in values):
            return False
        if any(values[j] > 1 for j in self.zero_one):
            return False
        return all(r.evaluate(values) for r in self.rows)


@dataclass
class Solution:
    status: str
    assignment: Optional[tuple[Fraction, ...]] = None  # one value per column
    pivots: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def dump_lp(system: LinearSystem, names: Sequence[str]) -> str:
    """Debug dump in an LP-like line format (documented, not versioned).

    ``names[j]`` is printed for column ``j``.
    """
    out = ["min 0"]
    for i, row in enumerate(system.rows, 1):
        terms = " ".join(f"{c} {names[j]}" for j, c in row.coeffs) or "0"
        tag = f"  # {row.tag}" if row.tag else ""
        out.append(f"r{i}: {terms} {row.rel} {row.const}{tag}")
    if system.zero_one:
        out.append("binary: " + " ".join(names[j]
                                         for j in sorted(system.zero_one)))
    out.append("vars: " + " ".join(names))
    return "\n".join(out)


def _leq_form(system: LinearSystem, rows: Sequence[Row]) \
        -> tuple[list[list[Fraction]], list[Fraction], bool]:
    """Rewrite ``rows`` and the 0/1 bounds to ``M z <= b`` with z >= 0.

    Strict rows receive a shared slack variable, the last column, maximised
    by the solver; a feasible strict system is one where the slack optimum
    is positive.
    """
    has_strict = any(r.rel in ("<", ">") for r in rows)
    nvar = system.columns + has_strict

    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def emit(coeffs, const, strict=False):
        dense = [Fraction(0)] * nvar
        for j, c in coeffs:
            dense[j] += c
        if strict:
            dense[-1] += 1
        matrix.append(dense)
        rhs.append(const)

    for row in rows:
        if row.rel == "!=":
            raise ValueError("split '!=' rows before solving")
        if row.rel == "<=":
            emit(row.coeffs, row.const)
        elif row.rel == ">=":
            emit([(j, -c) for j, c in row.coeffs], -row.const)
        elif row.rel == "=":
            emit(row.coeffs, row.const)
            emit([(j, -c) for j, c in row.coeffs], -row.const)
        elif row.rel == "<":
            emit(row.coeffs, row.const, strict=True)
        elif row.rel == ">":
            emit([(j, -c) for j, c in row.coeffs], -row.const, strict=True)
    for j in sorted(system.zero_one):
        emit([(j, Fraction(1))], Fraction(1))
    if has_strict:
        emit([(nvar - 1, Fraction(1))], Fraction(1))
    return matrix, rhs, has_strict


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
    extra = tuple(extra_rows)
    matrix, rhs, has_strict = _leq_form(system, system.rows + extra)
    if not matrix:
        return Solution(FEASIBLE, (Fraction(0),) * system.columns)
    objective = [Fraction(0)] * len(matrix[0])
    if has_strict:
        objective[-1] = Fraction(1)
    simplex = _Simplex(matrix, rhs, objective)
    status, optimum, witness = simplex.solve()
    if status != FEASIBLE:
        return Solution(INFEASIBLE, pivots=simplex.pivots)
    if has_strict and optimum <= 0:
        return Solution(INFEASIBLE, pivots=simplex.pivots)
    values = tuple(witness[:system.columns])
    if not (system.satisfied_by(values)
            and all(r.evaluate(values) for r in extra)):
        raise AssertionError("simplex witness failed re-substitution")
    return Solution(FEASIBLE, values, pivots=simplex.pivots)


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
    scale = lcm(*(v.denominator for v in solution.assignment), 1)
    lifted = tuple(v * scale for v in solution.assignment)
    if any(v.denominator != 1 for v in lifted):
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
    return LinearSystem(system.columns, tuple(rows), system.zero_one)


def solve_integer(system: LinearSystem, cap: int = 10 ** 9) -> Solution:
    """Integer feasibility by branch-and-bound on the rational relaxation.

    0/1-flagged variables carry their bounds already; remaining variables
    are branched on fractional relaxation values, down-branch first, in
    column order.  Branches pushing a lower bound beyond ``cap`` are
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
        frac = next((j for j, v in enumerate(values) if v.denominator != 1),
                    None)
        if frac is None:
            return Solution(FEASIBLE, values, pivots=pivots)
        lo = Fraction(floor(values[frac]))
        hi = Fraction(ceil(values[frac]))
        up = bounds + (make_row({frac: 1}, ">=", hi, tag="branch-up"),)
        down = bounds + (make_row({frac: 1}, "<=", lo, tag="branch-down"),)
        if hi > cap:
            capped = True
        else:
            stack.append(up)
        stack.append(down)  # popped first: down-branch explored first
    if capped:
        return Solution(CAP_EXCEEDED, pivots=pivots)
    return Solution(INFEASIBLE, pivots=pivots)
