"""Reference implementations that tests check the package against.

No CLI command and no pipeline runs these, so they live with the tests,
which import this module the way they import ``conftest``.  Each is
checked against, or stands in for, a part of ``src/netsynth``:

- `pair_relation` scans the edges and the (state, label) -> target map of
  one label pair and returns its `PairRelation`; it is the reference for
  `netsynth.relations.scan_pairs`, which finds every pair from the label
  and state masks in one pass.  `reference_relation_graph` builds the
  relation graph pair by pair from it and `classify_case`, a
  `PairRelation` and an `Edge` per pair; it is the reference for
  `netsynth.relations.build_relation_graph`.
- `evaluate` and `satisfied_by` check a row and a system in Fractions,
  without the integer re-substitution (`netsynth.linsys.Row.holds`,
  `LinearSystem.holds`) that `solve_rational` and `solve_integer` use.
- `assignment` reads a `netsynth.linsys.Solution` witness as Fractions.
- `integer_row` scales a row with rational coefficients or constant by
  the lcm of its denominators and builds it with
  `netsynth.linsys.make_row`, which takes integers only; the tests' rational
  systems, the pivot families among them, are built through it.
- `parikh_marks` computes R(s) = r0 + psi(s).(F - B) from each state's
  Parikh vector, O(|S|·|labels|); `netsynth.separation.Region.over` and
  `SystemContext.holds` sum R(parent) + F_t - B_t along the tree instead.
- `cycle_span` reduces the Parikh vector of every edge, in Fractions, to
  the reduced row echelon form of the cycle span, and `in_cycle_span`
  tests a state pair's Parikh difference against it; it is the reference
  for `netsynth.separation.SystemContext.separable`, which reduces the
  difference against the integer rows of `netsynth.lts.cycle_basis`.
- `context_keys` keeps the first edge of each distinct (packed Parikh
  vector of its source, label) pair, for any LTS;
  `netsynth.separation.SystemContext` takes every edge as a key instead.
  It keys the twin context of tests/test_separation.py's repeated-key
  test, which solves each system of a context that repeats a key over
  that twin too and expects the same solution.
- `fire` fires one transition on a tuple marking, naming the first
  blocking place; `netsynth.petri.reachability_graph` and `realises` fire
  through the packed kernel instead.  `w_in` is a consume weight.
- `state_pairs` streams every state pair; `netsynth.separation.StatePartition`
  yields only the pairs no pooled region separates.
- `enumerate_separation_problems` lists every separation problem of an LTS,
  the problems the pipelines' regions must solve.
- `reachable_states` is a breadth-first search over a successor map built
  from the edges; `netsynth.lts.validate` takes one forward pass over the
  edge list and searches `Lts.out_edges` only when that pass leaves a
  state unreached.
- `tree_parents` gives each state the smallest (source, label) of the
  edges into it from the states one step nearer the initial state;
  `netsynth.lts.spanning_tree` walks the BFS frontier in ascending order
  and compares labels only at the same source.
- `reference_isomorphic` pairs two systems by a walk that looks each
  successor up in a (state, label) -> target map and each state's labels
  up in its label mask; `netsynth.petri.isomorphic` reads the out-edges.
- `brute_force_region` enumerates every bounded (r0, B, F) triple directly
  against the region axioms, independently of any inequality system, so
  the systems of `netsynth.separation.SystemContext` and the pipelines'
  verdicts are cross-checked against it.  It alone needs numpy, a test
  dependency only, and imports it when first called.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from netsynth.linsys import LinearSystem, Row, Solution, make_row
from netsynth.lts import Lts, SpanningTree, spanning_tree
from netsynth.petri import Marking, Mismatch, PetriNet, PetriNetError
from netsynth.relations import (A_GTR_B, B_GTR_A, DISJOINT, DOI, EQUIV,
                                EQUIVALENT, INCLUDED, INTERLEAVE,
                                Contradiction, Edge, RelationGraph,
                                classify_case)
from netsynth.separation import ESSP, Region, SSP, SeparationProblem

_OPERATORS = {"<=": operator.le, "=": operator.eq, ">=": operator.ge}


class PairRelation(NamedTuple):
    """Enabledness kind plus deactivation flag of an ordered label pair."""

    kind: str
    merge: bool


def pair_relation(lts: Lts, a: int, b: int) -> PairRelation:
    """Enabledness relation and deactivation flag of labels ``a`` and ``b``.

    Computed by a direct scan of the edges and the (state, label) ->
    target map, with no mask.
    """
    if a == b:
        raise ValueError("pair relation requires two distinct labels")
    succ = {(s, t): s2 for s, t, s2 in lts.edges}
    ea = {s for s, t, _ in lts.edges if t == a}
    eb = {s for s, t, _ in lts.edges if t == b}
    if ea == eb:
        kind = EQUIV
    elif ea < eb:
        kind = A_GTR_B
    elif eb < ea:
        kind = B_GTR_A
    else:
        kind = INTERLEAVE
    merge = any((succ[(s, b)], a) not in succ or (succ[(s, a)], b) not in succ
                for s in ea & eb)
    return PairRelation(kind, merge)


def reference_relation_graph(lts: Lts) -> RelationGraph | Contradiction:
    """The raw relation graph of ``lts``, pair by pair in index order.

    Each pair gets its `pair_relation` and its `classify_case` case; the
    first case-1 pair is the contradiction, and every other case gives
    the pair's edge.
    """
    loops = {t for s, t, s2 in lts.edges if s == s2}
    n = len(lts.labels)
    edges: dict[tuple[int, int], Edge] = {}
    for a in range(n):
        for b in range(a + 1, n):
            rel = pair_relation(lts, a, b)
            case = classify_case(rel.kind, rel.merge)
            # in cases 5 and 6, the label enabled in more states, and the
            # other
            wide, narrow = (b, a) if rel.kind == A_GTR_B else (a, b)
            if case == 1:
                return Contradiction((a, b), "deactivating-interleave",
                                     f"labels {lts.labels[a]} and "
                                     f"{lts.labels[b]} deactivate each "
                                     "other but are enabled independently")
            if case == 2:
                edges[(a, b)] = Edge(DISJOINT, a, b)
            elif case in (3, 4):
                edges[(a, b)] = Edge(EQUIVALENT, a, b)
            elif case == 5:
                edges[(a, b)] = Edge(INCLUDED, wide, narrow)
            elif wide in loops:
                edges[(a, b)] = Edge(DOI, wide, narrow)
            else:
                edges[(a, b)] = Edge(DISJOINT, a, b)
    return RelationGraph(lts.labels, tuple(range(n)), edges)


def evaluate(row: Row, values: Sequence[Fraction]) -> bool:
    """Whether ``row`` holds at ``values``, in Fractions."""
    if row.rel not in _OPERATORS:
        raise ValueError(f"unknown relation {row.rel!r}")
    lhs = sum((c * values[j] for j, c in row.coeffs), Fraction(0))
    return _OPERATORS[row.rel](lhs, row.const)


def satisfied_by(system: LinearSystem, values: Sequence[Fraction]) -> bool:
    """Whether ``values`` satisfy the system, in Fractions.

    It does not use the integer re-substitution the solver uses
    (`LinearSystem.holds`), so tests can check the solver against it.
    """
    if any(v < 0 for v in values):
        return False
    if any(values[j] > 1 for j in system.zero_one):
        return False
    return all(evaluate(r, values) for r in system.rows)


def integer_row(coeffs: Mapping[int, int | Fraction], rel: str,
                const: int | Fraction = 0, tag: str = "") -> Row:
    """`make_row` of the row ``coeffs rel const`` times the lcm of its
    denominators; every entry of the row is an ``int``."""
    values = {j: Fraction(c) for j, c in coeffs.items() if c != 0}
    const = Fraction(const)
    scale = lcm(const.denominator, *(c.denominator for c in values.values()))
    return make_row({j: int(c * scale) for j, c in values.items()}, rel,
                    int(const * scale), tag)


def assignment(solution: Solution) -> Optional[tuple[Fraction, ...]]:
    """The witness as Fractions, one per column."""
    if solution.num is None:
        return None
    return tuple(Fraction(v, solution.den) for v in solution.num)


def parikh_marks(tree: SpanningTree, r0: int, b: Sequence[int],
                 f: Sequence[int]) -> tuple[int, ...]:
    """R(s) = r0 + psi(s).(F - B) at every state s, from the Parikh
    vectors of ``tree``."""
    effect = tuple(map(operator.sub, f, b))
    return tuple(r0 + sum(map(operator.mul, psi, effect))
                 for psi in tree.parikh)


def cycle_span(lts: Lts, tree: SpanningTree) -> list[list[Fraction]]:
    """The span of the vectors psi(s) + 1_t - psi(s') of every edge
    s -t-> s', in reduced row echelon form with unit pivots, in Fractions.
    Every edge is reduced, not only the first with each vector."""
    rows: list[list[Fraction]] = []
    for s, t, s2 in lts.edges:
        vec = [Fraction(x - y) for x, y in zip(tree.parikh[s],
                                                tree.parikh[s2])]
        vec[t] += 1
        vec = _reduce(rows, vec)
        pivot = next((k for k, x in enumerate(vec) if x), None)
        if pivot is None:
            continue
        vec = [x / vec[pivot] for x in vec]
        rows[:] = [[x - row[pivot] * y for x, y in zip(row, vec)]
                   for row in rows]
        rows.append(vec)
    return rows


def _reduce(rows: list[list[Fraction]],
            vec: Sequence[Fraction]) -> list[Fraction]:
    """``vec`` less its combination of the unit pivots of ``rows``."""
    vec = list(vec)
    for row in rows:
        pivot = next(k for k, x in enumerate(row) if x)
        vec = [x - vec[pivot] * y for x, y in zip(vec, row)]
    return vec


def in_cycle_span(lts: Lts, tree: SpanningTree, ssp: SSP,
                  span: Optional[list[list[Fraction]]] = None) -> bool:
    """Whether psi(s1) - psi(s2) lies in `cycle_span`, which ``span`` may
    hold already; the reference for `SystemContext.separable`, its
    negation."""
    if span is None:
        span = cycle_span(lts, tree)
    delta = [Fraction(x - y) for x, y in zip(tree.parikh[ssp.s1],
                                              tree.parikh[ssp.s2])]
    return not any(_reduce(span, delta))


def context_keys(lts: Lts, tree: SpanningTree) \
        -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The states and labels of the edges that are the first with their
    (``tree.packed`` of the source, label) pair, in edge order."""
    first: dict[tuple[int, int], int] = {}
    for s, t, _ in lts.edges:
        first.setdefault((tree.packed[s], t), s)
    return tuple(first.values()), tuple(t for _, t in first)


def w_in(net: PetriNet, p: int, t: int) -> int:
    """The weight of the arc from place ``p`` to transition ``t``, or 0."""
    return net.consume.get((p, t), 0)


def fire(net: PetriNet, m: Marking, t: int) -> Marking:
    """Fire transition ``t``; raises naming the first blocking place."""
    out = []
    for p, x in enumerate(m):
        w = net.consume.get((p, t), 0)
        if x < w:
            raise PetriNetError(
                f"transition {net.transitions[t]!r} not enabled: place "
                f"{net.places[p]!r} holds {x} < {w}")
        out.append(x - w + net.produce.get((t, p), 0))
    return tuple(out)


def reachable_states(lts: Lts) -> set[int]:
    """The states a breadth-first search from the initial state reaches,
    reading no table of the `Lts`."""
    succ: dict[int, list[int]] = {}
    for s, _, s2 in lts.edges:
        succ.setdefault(s, []).append(s2)
    reached = {lts.initial}
    queue = [lts.initial]
    for s in queue:
        for s2 in succ.get(s, ()):
            if s2 not in reached:
                reached.add(s2)
                queue.append(s2)
    return reached


def tree_parents(lts: Lts) -> dict[int, tuple[int, int]]:
    """Every state but the initial one -> the smallest ``(source,
    label)`` of its edges from the states at one step less BFS depth."""
    depth = {lts.initial: 0}
    level = {lts.initial}
    while level:
        nxt = set()
        for s, _, s2 in lts.edges:
            if s in level and s2 not in depth:
                depth[s2] = depth[s] + 1
                nxt.add(s2)
        level = nxt
    return {s2: min((s, t) for s, t, s3 in lts.edges
                    if s3 == s2 and depth.get(s) == depth[s2] - 1)
            for s2 in depth if s2 != lts.initial}


def reference_isomorphic(lts: Lts, other: Lts) -> dict[int, int] | Mismatch:
    """The forced bijection, or the first divergence, by a parallel
    breadth-first walk that follows a (state, label) -> target map."""
    def labels_at(system: Lts, s: int) -> set[str]:
        mask = system.label_masks[s]
        return {name for t, name in enumerate(system.labels) if mask >> t & 1}

    if -1 in lts.label_masks or -1 in other.label_masks:
        return Mismatch("nondeterministic system")
    if set(lts.labels) != set(other.labels):
        return Mismatch("label sets differ")
    succ1 = {(s, t): s2 for s, t, s2 in lts.edges}
    succ2 = {(s, t): s2 for s, t, s2 in other.edges}
    mapping = {lts.initial: other.initial}
    paired = {other.initial}
    queue = [(lts.initial, other.initial)]
    head = 0
    index = {name: i for i, name in enumerate(lts.labels)}
    relabel = {name: i for i, name in enumerate(other.labels)}
    while head < len(queue):
        s1, s2 = queue[head]
        head += 1
        en1, en2 = labels_at(lts, s1), labels_at(other, s2)
        if en1 != en2:
            diff = sorted((en1 ^ en2))[0]
            return Mismatch("enabled labels differ", (s1, s2), diff)
        for name in sorted(en1):
            n1 = succ1[(s1, index[name])]
            n2 = succ2[(s2, relabel[name])]
            if n1 in mapping:
                if mapping[n1] != n2:
                    return Mismatch("states identified differently",
                                    (s1, s2), name)
            elif n2 in paired:
                return Mismatch("target already paired", (s1, s2), name)
            else:
                mapping[n1] = n2
                paired.add(n2)
                queue.append((n1, n2))
    if len(mapping) != len(lts.states) or len(mapping) != len(other.states):
        return Mismatch("state counts differ")
    return mapping


def state_pairs(lts: Lts) -> Iterator[SSP]:
    """Every unordered state pair as an SSP, in index order."""
    n = len(lts.states)
    for i in range(n):
        for j in range(i + 1, n):
            yield SSP(i, j)


def enumerate_separation_problems(lts: Lts) -> list[SeparationProblem]:
    """All SSPs (unordered state pairs) then all ESSPs, in index order."""
    problems: list[SeparationProblem] = list(state_pairs(lts))
    labels = range(len(lts.labels))
    for s, mask in enumerate(lts.label_masks):
        problems += [ESSP(s, t) for t in labels if not mask >> t & 1]
    return problems


@dataclass(frozen=True)
class OracleBound:
    """Inclusive bound on r0, B and F entries during exhaustive search."""

    max_value: int = 3

    def __post_init__(self):
        if self.max_value < 1:
            raise ValueError("max_value must be at least 1")


@lru_cache(maxsize=16)
def _weight_table(lts: Lts, max_value: int):
    """All bounded weight vectors that form a region of ``lts``.

    Returns (b, f, pot, r0_min, valid, tree): per enumerated row the
    consume/produce vectors, the token offset of every state, the smallest
    admissible initial count, and whether some initial count up to the
    bound makes the row a region.
    """
    import numpy as np

    ns, nl = len(lts.states), len(lts.labels)
    if ns * nl > 64:
        raise ValueError("oracle guard: too large, |S|*|Labels| > 64")
    vals = max_value + 1
    combos = vals ** (2 * nl)
    if combos > 5_000_000:
        raise ValueError("oracle guard: weight enumeration too large")
    tree = spanning_tree(lts)

    digits = np.arange(combos, dtype=np.int64)
    bf = np.empty((combos, 2 * nl), dtype=np.int64)
    for k in range(2 * nl):
        bf[:, k] = (digits // vals ** (2 * nl - 1 - k)) % vals
    b = bf[:, :nl]
    f = bf[:, nl:]
    d = f - b

    psi = np.array(tree.parikh, dtype=np.int64)
    pot = d @ psi.T  # per-row token offset of every state

    consistent = np.ones(combos, dtype=bool)
    r0_min = np.zeros(combos, dtype=np.int64)
    np.maximum(r0_min, -pot.min(axis=1), out=r0_min)
    for s, t, s2 in lts.edges:
        consistent &= pot[:, s2] == pot[:, s] + d[:, t]
        np.maximum(r0_min, b[:, t] - pot[:, s], out=r0_min)
    valid = consistent & (r0_min <= max_value)
    return b, f, pot, r0_min, valid, tree


def brute_force_region(lts: Lts, problem: SeparationProblem,
                       bound: OracleBound = OracleBound()) \
        -> Optional[Region]:
    """Exhaustively search for a region solving ``problem``.

    Enumerates all weight vectors up to the bound, keeps those consistent
    with every edge and nonnegative everywhere, and returns the first
    solving region in lexicographic (r0, B, F) order, or None.
    """
    import numpy as np

    b, f, pot, r0_min, valid, tree = _weight_table(lts, bound.max_value)
    if isinstance(problem, SSP):
        ok = valid & (pot[:, problem.s1] != pot[:, problem.s2])
    else:
        ok = valid & (r0_min < b[:, problem.label] - pot[:, problem.state])
    if not ok.any():
        return None
    rows = np.flatnonzero(ok)
    best = rows[np.lexsort((rows, r0_min[rows]))[0]]
    region = Region.over(tree, int(r0_min[best]),
                         tuple(int(x) for x in b[best]),
                         tuple(int(x) for x in f[best]))
    if not (region.is_valid(lts) and region.solves(problem)):
        raise AssertionError("weight table yielded a non-solving region")
    return region
