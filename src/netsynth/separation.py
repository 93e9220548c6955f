"""Separation problems, their inequality systems, and regions.

A region (R, B, F) assigns token counts to states and consume/produce
weights to labels such that every edge fires like a Petri net place.  State
separation demands different counts for two states, event separation
demands an insufficient count where a label is disabled.  Both become
linear systems over R(s0), B and F, expressed through spanning-tree Parikh
vectors: one edge row R(s) >= B_a per edge s -a->, and one zero-effect
row per cycle-basis vector.  These base rows are the same in every
system, so `SystemContext` keeps them once, one (state, label) key per
edge over the Parikh table, and is itself the block every system holds;
no pipeline builds them as `Row` objects.  A repeated tree vector gives
a repeated row, which moves no pivot.
`SystemContext` alone fixes which column holds which variable;
`solution_to_region` reads a solution vector back in the same layout.  A
`Region` stores R at every state, computed once when it is made, so
checking whether it solves a problem or fires consistently needs no tree.
The counts of a region, and those of a witness the context checks, are
summed along the tree, R(s) = R(parent) + F_t - B_t, in O(|S|).

WPI systems add, relative to one label, comparability rows from the
relation graph.  A tie row depends only on the equivalence classes, and a
disjoint row ``B_rep = 0`` only on its label, so the context builds the
tie rows once per classes table and each disjoint row once per label,
and every system holds the same `Row` objects; only the label's included
rows are built per system.  BRAC systems bound B and F to {0, 1} and pin
whole blocks.

No region separates two states whose Parikh difference lies in the
cycle span (`SystemContext.separable`), so the pipelines build no
system for such a pair.

Separation is strict: an event separation needs R(s) < B_a, a state
separation R(s1) != R(s2), which the pipelines split into its two signs.
Each such row is built as a unit margin: R(s) - B_a <= -1, and
R(s1) - R(s2) <= -1 or >= 1.  A WPI system is homogeneous apart from its
margin, so any solution of the strict rows, scaled up, meets it.  A BRAC
system is solved in integers, where an integer row's unit margin and its
strict form hold at the same points.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import ge, itemgetter, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from netsynth.linsys import LinearSystem, Row, Solution, make_row
from netsynth.lts import Lts, ParikhVector, SpanningTree, echelon_reduce
from netsynth.petri import PlaceSpec
from netsynth.relations import DISJOINT, INCLUDED, RelationGraph


@dataclass(frozen=True)
class SSP:
    """Two distinct states that must map to different markings."""

    s1: int
    s2: int


@dataclass(frozen=True)
class ESSP:
    """A state together with a label it does not enable."""

    state: int
    label: int


SeparationProblem = SSP | ESSP


def _tree_marks(tree: SpanningTree, r0: int,
               effect: Sequence[int]) -> list[int]:
    """R(s) = r0 + psi(s).effect at every state s, as R(parent) +
    effect[t] along each tree edge (parent, t) into s: O(|S|), as
    `SpanningTree.parent` lists every parent before its children."""
    marks = [r0] * len(tree.packed)
    for s, (p, t) in tree.parent.items():
        marks[s] = marks[p] + effect[t]
    return marks


class Region(NamedTuple):
    """A region (R, B, F): the count R(s) at every state in ``marks``, and
    consume weights B and produce weights F per label.  ``r0`` is R at the
    initial state."""

    r0: int
    b: tuple[int, ...]
    f: tuple[int, ...]
    marks: tuple[int, ...]

    @classmethod
    def over(cls, tree: SpanningTree, r0: int, b: tuple[int, ...],
             f: tuple[int, ...]) -> Region:
        """The region with initial count ``r0``: R(s) = r0 + psi(s).(F - B)
        along the tree walk to every state s (`_tree_marks`)."""
        return cls(r0, b, f,
                   tuple(_tree_marks(tree, r0, list(map(sub, f, b)))))

    def is_valid(self, lts: Lts) -> bool:
        """Re-simulate every edge: counts stay consistent and nonnegative."""
        marks, b, f = self.marks, self.b, self.f
        if len(marks) != len(lts.states) or marks[lts.initial] != self.r0 \
                or min(marks) < 0:
            return False
        return all(marks[s] >= b[t] and marks[s2] == marks[s] - b[t] + f[t]
                   for s, t, s2 in lts.edges)

    def solves(self, problem: SeparationProblem) -> bool:
        if isinstance(problem, SSP):
            return self.marks[problem.s1] != self.marks[problem.s2]
        return self.marks[problem.state] < self.b[problem.label]


class StatePartition:
    """The states in blocks that are equal on every region's marks.

    States in different blocks are separated by some region, so only the
    pairs inside one block may still need one.  Each new region refines
    the blocks in one pass over the states (Paige and Tarjan, "Three
    partition refinement algorithms", SIAM J. Comput. 16(6), 1987).
    """

    def __init__(self, states: int):
        self._block = [0] * states
        self.blocks = [list(range(states))]

    def split(self, marks: Sequence[int]) -> None:
        """Split every block by ``marks``; each block stays sorted."""
        parts: dict[tuple[int, int], list[int]] = {}
        for s, key in enumerate(zip(self._block, marks)):
            parts.setdefault(key, []).append(s)
        self.blocks = list(parts.values())
        for b, states in enumerate(self.blocks):
            for s in states:
                self._block[s] = b

    def pairs(self, regions: Sequence[Region]) -> Iterator[SSP]:
        """Each pair (i, j), i < j, in index order, whose states share a
        block when the walk reaches i.  ``regions`` may grow during the
        walk: before each i the blocks are split by every region appended
        since the last split.  A region appended while i's pairs are walked
        splits from i + 1 on, so the caller checks those pairs against it."""
        split = 0
        for i in range(len(self._block)):
            for region in regions[split:]:
                self.split(region.marks)
            split = len(regions)
            block = self.blocks[self._block[i]]
            for j in block[bisect_right(block, i):]:
                yield SSP(i, j)


class SystemContext:
    """Shared row material for all systems over one LTS and tree.

    Owns the column layout of every system it builds: column 0 is R0,
    columns 1..n are B and n+1..2n are F, each in label index order.
    ``names`` spells the columns out for ``dump_lp``.  The context is also
    the block of base rows that every system holds (see `linsys.Rows`):
    one edge row R(s) >= B_t per ``(state, label)`` key, over the tree's
    Parikh table, then one zero-effect row per cycle-basis vector.  Every
    edge is a key; a repeated tree vector repeats a row, whose dual column
    Bland's rule never enters before its twin's, so it moves no pivot.
    """

    def __init__(self, lts: Lts, tree: SpanningTree,
                 basis: list[ParikhVector]):
        self.lts = lts
        self.tree = tree
        self.basis = basis
        n = len(lts.labels)
        self.bvar = tuple(range(1, n + 1))
        self.fvar = tuple(range(n + 1, 2 * n + 1))
        self.names = ("R0",) + tuple(f"B_{x}" for x in lts.labels) \
            + tuple(f"F_{x}" for x in lts.labels)
        self.columns = len(self.names)
        self.key_states = tuple(map(itemgetter(0), lts.edges))
        self.key_labels = tuple(map(itemgetter(1), lts.edges))
        # simplex copies: one per >= row, two per = row
        self.copies = len(self.key_states) + 2 * len(basis)
        self._rows: Optional[tuple[Row, ...]] = None
        self._dual: Optional[dict[int, list[int]]] = None
        # tie rows by classes table, B_rep = 0 rows by label
        self._ties: dict[tuple, tuple[Row, ...]] = {}
        self._zero: dict[int, Row] = {}

    def __len__(self) -> int:
        return len(self.key_states) + len(self.basis)

    def _effect_coeffs(self, entries: Iterable[tuple[int, int]],
                       coeffs: dict[int, int]) -> dict[int, int]:
        """Write ``count * (F - B)`` of every nonzero ``(label, count)``
        entry into ``coeffs``, whose B and F columns must be unset."""
        for label, count in entries:
            if count:
                coeffs[self.fvar[label]] = count
                coeffs[self.bvar[label]] = -count
        return coeffs

    def _key_coeffs(self, state: int, label: int) -> dict[int, int]:
        """R(state) - B_label: R0 + psi(state).(F - B) - B_label."""
        coeffs = self._effect_coeffs(enumerate(self.tree.parikh[state]),
                                     {0: 1})
        bvar = self.bvar[label]
        coeffs[bvar] = coeffs.get(bvar, 0) - 1
        return coeffs

    def base_rows(self) -> tuple[Row, ...]:
        """The base rows as `make_row` builds them, sharing equal
        ``(column, coefficient)`` pairs.  Built on first call and kept;
        systems hold the context instead."""
        if self._rows is None:
            shared: dict[tuple[int, int], tuple[int, int]] = {}
            self._rows = tuple(
                Row(tuple(shared.setdefault(p, p)
                          for p in sorted(coeffs.items()) if p[1]),
                    rel, 0, tag)
                for coeffs, rel, tag in self._lhs())
        return self._rows

    def _lhs(self) -> Iterator[tuple[dict[int, int], str, str]]:
        """Each base row's coefficients, relation and tag, in order."""
        states, labels = self.lts.states, self.lts.labels
        for s, t in zip(self.key_states, self.key_labels):
            yield (self._key_coeffs(s, t), ">=",
                   f"edge:{states[s]}:{labels[t]}")
        for i, gamma in enumerate(self.basis):
            yield self._effect_coeffs(gamma.counts, {}), "=", f"cycle:{i}"

    def dual_columns(self) -> dict[int, list[int]]:
        """Column -> its entries in the dual tableau, as `linsys` writes
        the base rows' copies.  Built on first call and kept."""
        if self._dual is None:
            keys = len(self.key_states)
            at = list(map(self.tree.parikh.__getitem__, self.key_states))
            produce = [list(c) for c in zip(*at)]
            consume = [[-x for x in c] for c in produce]
            for k, t in enumerate(self.key_labels):
                consume[t][k] -= 1
            for gamma in self.basis:
                counts = dict(gamma.counts)
                for t in range(len(self.bvar)):
                    c = counts.get(t, 0)
                    produce[t] += (-c, c)
                    consume[t] += (c, -c)
            self._dual = {0: [1] * keys + [0] * (self.copies - keys),
                          **dict(zip(self.bvar, consume)),
                          **dict(zip(self.fvar, produce))}
        return self._dual

    def holds(self, num: Sequence[int], den: int) -> bool:
        """Whether every base row holds at ``x = num / den``.  The rows
        are homogeneous, so this needs only ``num``, and R(s) once per
        state, along the tree."""
        effect = [num[f] - num[b] for b, f in zip(self.bvar, self.fvar)]
        if any(sum(c * effect[t] for t, c in gamma.counts)
               for gamma in self.basis):
            return False
        marks = _tree_marks(self.tree, num[0], effect)
        consumed = [num[b] for b in self.bvar]
        return all(map(ge, map(marks.__getitem__, self.key_states),
                       map(consumed.__getitem__, self.key_labels)))

    def essp_row(self, essp: ESSP) -> Row:
        """R(s) - B_a <= -1: the unit margin of R(s) < B_a."""
        return make_row(self._key_coeffs(essp.state, essp.label), "<=", -1,
                        tag=f"essp:{self.lts.states[essp.state]}:"
                            f"{self.lts.labels[essp.label]}")

    def ssp_tag(self, ssp: SSP) -> str:
        """``ssp:<s1>:<s2>``, the tag of ``ssp``'s margin rows."""
        return f"ssp:{self.lts.states[ssp.s1]}:{self.lts.states[ssp.s2]}"

    def ssp_row(self, ssp: SSP, sign: str) -> Row:
        """The unit margin of R(s1) - R(s2) ``sign`` 0: ``delta <= -1``
        for ``"<"`` and ``delta >= 1`` for ``">"``."""
        if sign not in ("<", ">"):
            raise ValueError("sign must be '<' or '>'")
        rel, const = ("<=", -1) if sign == "<" else (">=", 1)
        parikh = self.tree.parikh
        delta = map(sub, parikh[ssp.s1], parikh[ssp.s2])
        return make_row(self._effect_coeffs(enumerate(delta), {}), rel, const,
                        tag=self.ssp_tag(ssp))

    def separable(self, ssp: SSP) -> bool:
        """Whether psi(s1) - psi(s2) lies outside the rational span of the
        cycle basis, by `echelon_reduce` against its rows.  Inside it no
        region of any net separates the pair, as R(s1) - R(s2) =
        (psi(s1) - psi(s2)).(F - B) and F - B is zero on every cycle
        vector: every system holding the cycle rows and a margin of the
        pair is infeasible (Badouel, Bernardinello and Darondeau, "Petri
        Net Synthesis", Springer 2015)."""
        n = len(self.lts.labels)
        rows = []
        for gamma in self.basis:
            row = [0] * n
            for t, c in gamma.counts:
                row[t] = c
            rows.append((gamma.counts[0][0], row))
        parikh = self.tree.parikh
        return any(echelon_reduce(
            list(map(sub, parikh[ssp.s1], parikh[ssp.s2])), rows))

    def class_tie_rows(self, graph: RelationGraph) -> tuple[Row, ...]:
        """Equal consume weights inside every equivalence class.

        Equivalent labels admit identical presets in any solution, and the
        net assembly relies on it, so the tie is imposed in every system;
        its rows are built once per classes table.
        """
        classes = tuple(sorted(graph.classes.items()))
        if classes not in self._ties:
            self._ties[classes] = tuple(
                make_row({self.bvar[m]: 1, self.bvar[rep]: -1}, "=", 0,
                         tag=f"tie:{self.lts.labels[m]}")
                for rep, members in classes for m in members if m != rep)
        return self._ties[classes]

    def relation_rows(self, graph: RelationGraph, label: int) -> list[Row]:
        """Comparability rows of all labels against ``label``'s class.

        Disjoint classes consume nothing, included classes compare consume
        weights towards the key; any other edge (doi, equivalent) raises
        ``ValueError``: quotient ``graph`` and resolve its doi edges first.
        """
        key = graph.rep[label]
        bkey = self.bvar[key]
        rows = list(self.class_tie_rows(graph))
        for rep in graph.nodes:
            if rep == key:
                continue
            edge = graph.edge(key, rep)
            brep = self.bvar[rep]
            if edge.kind == DISJOINT:
                if rep not in self._zero:
                    self._zero[rep] = make_row(
                        {brep: 1}, "=", 0,
                        tag=f"disjoint:{self.lts.labels[rep]}")
                rows.append(self._zero[rep])
            elif edge.kind != INCLUDED:
                raise ValueError(f"relation rows need resolved edges, not "
                                 f"{edge.kind} at {graph.names[rep]}")
            elif edge.lo == key:
                rows.append(make_row({bkey: 1, brep: -1}, "<=", 0,
                                     tag=f"below:{self.lts.labels[rep]}"))
            else:
                rows.append(make_row({brep: 1, bkey: -1}, "<=", 0,
                                     tag=f"above:{self.lts.labels[rep]}"))
        return rows

    def system(self, rows: Iterable[Row | SystemContext],
               zero_one: bool = False) -> LinearSystem:
        flags = frozenset(self.bvar + self.fvar) if zero_one else frozenset()
        return LinearSystem(self.columns, rows, flags)


def essp_system_wpi(ctx: SystemContext, graph: RelationGraph, essp: ESSP,
                    zero_one: bool = False) -> LinearSystem:
    """Event separation system with comparability rows at the ESSP label.

    All rows but the unit margin are homogeneous, so a rational solution
    lifts to integers.  With ``zero_one`` (BRAC) B and F are bounded to
    {0, 1} and the system is solved in integers, not lifted.
    """
    return ctx.system([ctx.essp_row(essp), ctx,
                       *ctx.relation_rows(graph, essp.label)], zero_one)


def ssp_system_wpi(ctx: SystemContext, graph: RelationGraph, ssp: SSP,
                   label: int, sign: str) -> LinearSystem:
    """State separation system keyed to one candidate label and sign.

    The disequality over the Parikh difference is split by the caller into
    its two signs, each built as a unit margin.
    """
    return ctx.system([ctx.ssp_row(ssp, sign), ctx,
                       *ctx.relation_rows(graph, label)])


def _fix(column: int, value: int, tag: str) -> Row:
    return make_row({column: 1}, "=", value, tag=tag)


def _block_system(ctx: SystemContext, consumers: list[int],
                  no_produce: list[int], label: int,
                  states: list[int]) -> LinearSystem:
    """0/1 place consumed by exactly ``consumers``, disabling ``label``.

    ``no_produce`` labels get a zero produce weight; ``states`` are those
    where the place must be short of ``label``'s consume weight.
    """
    names = ctx.lts.labels
    rows = [_fix(ctx.bvar[m], 1, f"block:B:{names[m]}") for m in consumers]
    rows += [_fix(ctx.fvar[m], 0, f"block:F:{names[m]}")
             for m in no_produce]
    rows += [_fix(ctx.bvar[t], 0, f"outside:{names[t]}")
             for t in range(len(names)) if t not in consumers]
    rows += [ctx.essp_row(ESSP(s, label)) for s in states]
    rows.append(ctx)
    return ctx.system(rows, zero_one=True)


def brac_block_systems(ctx: SystemContext, graph: RelationGraph,
                       pair: tuple[int, int]) \
        -> tuple[LinearSystem, LinearSystem]:
    """The two systems of an asymmetric choice block for ``pair=(lo, hi)``.

    The first describes the shared place: it is the whole preset of the
    ``lo`` block, so one region must solve every event separation problem of
    ``lo`` at once.  The second describes the private place of the ``hi``
    block, which must handle exactly the ``hi`` problems at states still
    enabling ``lo``.  Weights are 0/1 bounded.  The shared place's produce
    weight is pinned to zero for every member of ``lo``'s class that is not
    a self-loop label, since such a member must strictly consume; a
    self-loop member produces what it consumes, so it is left free.
    """
    lts = ctx.lts
    lo, hi = pair
    lo_members = graph.classes[graph.rep[lo]]
    hi_members = graph.classes[graph.rep[hi]]
    masks = list(enumerate(lts.label_masks))
    shared = _block_system(
        ctx, sorted(set(lo_members) | set(hi_members)),
        [m for m in lo_members if m not in lts.self_loop_labels], lo,
        [s for s, mask in masks if not mask >> lo & 1])
    private = _block_system(
        ctx, hi_members, [], hi,
        [s for s, mask in masks
         if mask >> lo & 1 and not mask >> hi & 1])
    return shared, private


def brac_ssp_system_freechoice(ctx: SystemContext, graph: RelationGraph,
                               ssp: SSP, label: int, sign: str) \
        -> LinearSystem:
    """State separation through a free-choice place.

    The place may only be consumed by one equivalence class, and by none at
    all if that class takes part in an asymmetric choice.  ``graph`` is
    resolved, so a matched doi edge is such a choice.
    """
    names = ctx.lts.labels
    key = graph.rep[label]
    members = set(graph.classes[key])
    involved = {x for pair in graph.included_edges() for x in pair}
    rows = [ctx.ssp_row(ssp, sign)]
    rows += ctx.class_tie_rows(graph)
    rows += [_fix(ctx.bvar[t], 0, f"outside:{names[t]}")
             for t in range(len(names)) if t not in members]
    if key in involved:
        rows.append(_fix(ctx.bvar[key], 0, f"choice-free:{names[key]}"))
    rows.append(ctx)
    return ctx.system(rows, zero_one=True)


def solution_to_region(solution: Solution, tree: SpanningTree) -> Region:
    """Read an integral solution in `SystemContext`'s layout into a region
    over ``tree``."""
    num, den = solution.num, solution.den
    if num is None:
        raise ValueError("an infeasible solution has no region")
    for j, v in enumerate(num):
        if v % den:
            raise ValueError(f"non-integral value in column {j}: {v}/{den}")
    values = [v // den for v in num]
    n = len(tree.lts.labels)
    return Region.over(tree, values[0], tuple(values[1:n + 1]),
                       tuple(values[n + 1:2 * n + 1]))


def normalize_region(region: Region, lts: Lts) -> Region:
    """Drop surplus tokens when every edge stays enabled.

    Subtracting the least count keeps every separation answer but may
    disable an edge; the region is then returned as it is.  No pipeline
    calls it: a solved region has least count 0 or a tight edge row.
    """
    shift = min(region.marks)
    if shift <= 0:
        return region
    candidate = Region(region.r0 - shift, region.b, region.f,
                       tuple(m - shift for m in region.marks))
    if candidate.is_valid(lts):
        return candidate
    return region


def region_to_place(region: Region) -> PlaceSpec:
    """A region becomes a place: initial tokens ``r0``, arcs from B and F."""
    return PlaceSpec(tokens=region.r0, consume=region.b, produce=region.f)
