"""Exact rational linear systems and solvers.

Systems mix weak and equality rows over nonnegative variables; there is
no strict or ``!=`` row (`netsynth.separation` builds each strict row as
a unit margin).  Variables are plain column positions: a row holds
``(column, coefficient)`` pairs and a solution is one value per column, so
the solver never sees a variable name (``dump_lp`` takes names only to
print).  Rows are integral.

Rows that many systems share can be one block, kept in compact form;
a system holds its rows and blocks in order (`Rows`), which still reads
as every row.

Rational feasibility is decided by an exact integer-tableau simplex that
reads the rows straight into its dual tableau, a block's cached columns
spliced in, and runs one phase.  The dual is homogeneous, so the tableau
holds no right-hand side and there is no ratio test: the leaving row is
the least basic column with a positive entry.  The objective is the
tableau's last row, and one loop updates every row a pivot changes, in
place; unless the pivot entry is not 1 and scales them, it changes them
only where the pivot row is nonzero.  A solution is integer
numerators over one positive denominator, re-substituted into the rows
before it is returned.  Solutions of a system whose rows survive scaling
up lift to integers by dividing out the gcd, and a 0/1-aware
branch-and-bound decides integer feasibility; it branches on the
first fractional 0/1 column, then on the other columns in column order;
its root is the system itself, and each other node the whole system
with the node's bound rows appended.  Each solver returns a proved
verdict, feasible or infeasible, or raises at its pivot limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, count
from math import gcd
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

_OPERATORS = {"<=": operator.le, "=": operator.eq, ">=": operator.ge}
RELATIONS = tuple(_OPERATORS)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# x -> x < 0, to find Bland's entering column at C speed
_NEGATIVE = (0).__gt__

# The pivot limit of a simplex and of an integer search over all its nodes;
# it ends a search over an unbounded column.  5x the tests' largest search.
_MAX_PIVOTS = 200_000


class Row(NamedTuple):
    """One linear constraint ``sum(coef * x[column]) rel const``.

    Coefficients and constant are integers.
    """

    coeffs: tuple[tuple[int, int], ...]
    rel: str
    const: int
    tag: str = ""

    def holds(self, num: Sequence[int], den: int) -> bool:
        """Whether the row holds at ``x[j] = num[j] / den``, ``den > 0``."""
        lhs = sum(c * num[j] for j, c in self.coeffs)
        return _OPERATORS[self.rel](lhs, self.const * den)


def make_row(coeffs: Mapping[int, int], rel: str, const: int = 0,
             tag: str = "") -> Row:
    """The row ``coeffs rel const``, its zero coefficients dropped."""
    if rel not in RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    return Row(tuple(sorted((j, c) for j, c in coeffs.items() if c != 0)),
               rel, const, tag)


class Rows:
    """A system's parts in order (``parts``), read as every row.

    A part that is not a `Row` is a block: homogeneous rows that many
    systems share, over its first ``columns`` columns.  It has
    ``len`` rows, ``base_rows()`` writes them out as `Row`s, ``copies``
    is their simplex copy count (`_LEQ_COPIES`), ``dual_columns()`` maps
    a column to its entries in those copies' dual-tableau columns, and
    ``holds(num, den)`` checks them all.  Only iterating builds a block's
    rows.
    """

    def __init__(self, parts: Iterable):
        self.parts = tuple(parts)

    def __len__(self) -> int:
        return sum(1 if isinstance(p, Row) else len(p) for p in self.parts)

    def __iter__(self):
        for part in self.parts:
            yield from (part,) if isinstance(part, Row) else part.base_rows()


@dataclass(frozen=True)
class LinearSystem:
    """Inequality system over ``columns`` nonnegative variables.

    ``rows`` (`Row`s and blocks) is stored as `Rows`.  ``zero_one``
    flags columns additionally bounded to {0, 1}; the bound rows are
    materialised by the solvers, not stored.
    """

    columns: int
    rows: Rows
    zero_one: frozenset[int] = frozenset()

    def __post_init__(self):
        if not isinstance(self.rows, Rows):
            object.__setattr__(self, "rows", Rows(self.rows))
        for part in self.rows.parts:
            if not isinstance(part, Row):
                if part.columns > self.columns:
                    raise ValueError(f"a block over {part.columns} columns "
                                     f"in a system of {self.columns}")
                continue
            for j, _ in part.coeffs:
                if not 0 <= j < self.columns:
                    raise ValueError(f"row {part.tag!r} references "
                                     f"undeclared column {j}")

    def holds(self, num: Sequence[int], den: int) -> bool:
        """Whether every row and bound holds at ``x[j] = num[j] / den``."""
        return (all(v >= 0 for v in num)
                and all(num[j] <= den for j in self.zero_one)
                and all(p.holds(num, den) for p in self.rows.parts))


class Solution(NamedTuple):
    """A verdict and, when feasible, the witness ``x[j] = num[j] / den``:
    one integer numerator per column over one denominator ``den > 0``."""

    status: str
    num: Optional[tuple[int, ...]] = None
    den: int = 1
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


# How the simplex reads each relation: one copy per sign, each the primal
# row ``sign * coeffs <= sign * const``.  ``=`` gives two copies.
_LEQ_COPIES = {"<=": (1,), ">=": (-1,), "=": (1, -1)}


class _Simplex:
    """Primal simplex (Bland's rule) on an exact integer tableau.

    The many-row feasibility problem ``M z <= b, z >= 0`` is solved
    through its dual ``min b.y, M^T y >= 0, y >= 0`` whose row count
    equals the (small) variable count.  The dual's constraints are
    homogeneous, a cone, so the tableau has no right-hand side and no
    objective value.  The simplex walks bases of that cone until no
    reduced cost is negative, which means the rows are feasible and the
    primal witness is read off the reduced costs of the surplus columns,
    or until the entering column has no positive entry, which means they
    are infeasible.  Every pivot is degenerate, so there is no ratio test:
    among the rows with a positive entry in the entering column, the one
    whose basic column is least leaves.  ``M`` is never built: each
    row's integer ``(column, coef)`` pairs are written straight into the
    tableau, a block's cached columns spliced in, giving the same tableau.
    Every dual row is negated, so that its surplus column is an identity
    column and starts the basis.  Surplus columns cost 0, so the objective
    row starts as the cost vector ``b`` and one phase suffices.  Rows must
    be weak or equalities.

    The tableau has ``n_rows + 1`` rows: one per primal variable, then
    the objective.  Row ``i`` holds the integers ``tableau[i]`` over one
    positive denominator ``den[i]`` (fraction-free pivoting after
    Edmonds, 1967).  A pivot entry is always positive; a pivot keeps the
    pivot row's integers and makes that entry its denominator.  Rows with
    a zero in the entering column are not touched.  One loop updates
    every other row, the objective included, in place: it multiplies the
    row by the pivot entry only when that is not 1, changes it only at the
    pivot row's nonzero positions (its support, listed once per pivot),
    and divides by the gcd of its entries and denominator only when the
    denominator is above 1.  That gives the same integers as
    cross-multiplying every entry.  The entering column is read once per
    pivot: one pass over the rows lists its nonzero entries, which give
    both the leaving row and the rows to update.  The objective's entry
    there is negative, so it never leaves.
    """

    def __init__(self, system: LinearSystem):
        # (dual column, row, sign) per copy; a block takes the next
        # block.copies columns
        copies, blocks, m = [], [], 0
        for part in system.rows.parts:
            if not isinstance(part, Row):
                blocks.append((m, part))
                m += part.copies
                continue
            if part.rel not in _LEQ_COPIES:
                raise ValueError(f"unknown relation {part.rel!r}")
            for sign in _LEQ_COPIES[part.rel]:
                copies.append((m, part, sign))
                m += 1
        zero_one = sorted(system.zero_one)
        # D rows: one per primal variable, then the objective; D columns:
        # y per primal row (the copies, then the 0/1 bounds), then surplus.
        self.n_rows = n = system.columns
        first_bound = m
        self.n_y = m = m + len(zero_one)
        self.pivots = 0
        tableau = [[0] * (m + n) for _ in range(n + 1)]
        costs = tableau[n]  # b on the y columns
        for i, row, sign in copies:
            for j, c in row.coeffs:
                tableau[j][i] -= sign * c
            costs[i] = sign * row.const
        # a block's rows are homogeneous, so their costs stay 0
        for i, block in blocks:
            for j, entries in block.dual_columns().items():
                tableau[j][i:i + block.copies] = entries
        for i, j in enumerate(zero_one, first_bound):
            tableau[j][i] = -1
            costs[i] = 1
        for j in range(n):
            tableau[j][m + j] = 1
        self.basis = [m + j for j in range(n)]
        self.tableau = tableau
        self.den = [1] * (n + 1)

    def _pivot(self, r, k, column):
        """Pivot on row ``r`` at column ``k``; ``column`` lists ``(i, a)``
        for every row ``i``, the objective included, whose entry ``a`` in
        column ``k`` is nonzero."""
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        tableau, den = self.tableau, self.den
        pivot_row = tableau[r]
        piv = den[r] = pivot_row[k]
        support = list(compress(range(len(pivot_row)), pivot_row))
        for i, a in column:
            if i == r:
                continue
            # row/d - (a/d) * pivot_row/piv, over one denominator
            row, d = tableau[i], den[i]
            if piv != 1:
                row[:] = [piv * x for x in row]
                d *= piv
            for j in support:
                row[j] -= a * pivot_row[j]
            if d > 1:
                g = gcd(d, *row)
                if g > 1:
                    row[:] = [x // g for x in row]
                    d //= g
            den[i] = d
        self.basis[r] = k

    def solve(self):
        """Return the primal witness as ``(numerators, denominator)``, or
        None if the rows are infeasible (the dual is unbounded)."""
        tableau, basis, n = self.tableau, self.basis, self.n_rows
        obj = tableau[n]
        while True:
            enter = next(compress(count(), map(_NEGATIVE, obj)), -1)
            if enter < 0:
                return obj[self.n_y:], self.den[n]
            column = [(i, a) for i, row in enumerate(tableau)
                      if (a := row[enter])]
            leave = min((i for i, a in column if a > 0),
                        key=basis.__getitem__, default=-1)
            if leave < 0:
                return None
            self._pivot(leave, enter, column)


def solve_rational(system: LinearSystem) -> Solution:
    """Exact rational feasibility of a system.

    The witness is re-substituted into the rows before it is returned.
    """
    simplex = _Simplex(system)
    witness = simplex.solve()
    if witness is None:
        return Solution(INFEASIBLE, pivots=simplex.pivots)
    num, den = tuple(witness[0]), witness[1]
    if not system.holds(num, den):
        raise AssertionError("simplex witness failed re-substitution")
    return Solution(FEASIBLE, num, den, simplex.pivots)


def lift_homogeneous_to_integer(solution: Solution,
                                system: LinearSystem) -> Solution:
    """Scale a rational solution to integers.

    Every row must survive scaling by an integer k >= 1: each simplex copy
    ``s * a.x <= s * c`` needs ``s * c <= 0``, as in a homogeneous row or
    a unit margin ``a.x <= -1``, and no column may be 0/1.  Dividing the
    numerators by their gcd with the denominator gives the least such
    integer multiple; it is re-verified by substitution.
    """
    if system.zero_one or any(
            sign * p.const > 0 for p in system.rows.parts
            if isinstance(p, Row) for sign in _LEQ_COPIES[p.rel]):
        raise ValueError("system is not homogeneous apart from margins")
    if not solution.feasible or solution.num is None:
        raise ValueError("can only lift a feasible solution")
    g = gcd(solution.den, *solution.num)
    lifted = tuple(v // g for v in solution.num)
    if not system.holds(lifted, 1):
        raise AssertionError("lifted solution failed re-substitution")
    return Solution(FEASIBLE, lifted, 1, solution.pivots)


def solve_integer(system: LinearSystem) -> Solution:
    """Integer feasibility by branch-and-bound on the rational relaxation.

    0/1-flagged variables carry their bounds already.  A node branches on
    the first fractional 0/1 column, else on the first fractional other
    column, down-branch first.  The root node solves ``system`` itself;
    each other node is the whole system with its bound rows appended.
    The result is a proved verdict.  A search over an unbounded column
    need not end: the pivot limit stops it unless a row bounds the column.
    """
    parts = system.rows.parts
    order = sorted(system.zero_one) + [j for j in range(system.columns)
                                       if j not in system.zero_one]
    stack: list[tuple[Row, ...]] = [()]
    pivots = 0
    while stack:
        bounds = stack.pop()
        relax = solve_rational(LinearSystem(
            system.columns, parts + bounds, system.zero_one)
            if bounds else system)
        pivots += relax.pivots
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        if not relax.feasible:
            continue
        num, den = relax.num, relax.den
        frac = next((j for j in order if num[j] % den), None)
        if frac is None:
            return Solution(FEASIBLE, tuple(v // den for v in num), 1, pivots)
        lo = num[frac] // den
        up = bounds + (make_row({frac: 1}, ">=", lo + 1, tag="branch-up"),)
        down = bounds + (make_row({frac: 1}, "<=", lo, tag="branch-down"),)
        stack += up, down  # down popped first: down-branch explored first
    return Solution(INFEASIBLE, pivots=pivots)
