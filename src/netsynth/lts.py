"""Labelled transition systems: parsing, validation, spanning trees with
their Parikh vectors, and cycle bases.

An `Lts` fills its tables in two lazy passes over its edges: the bit
masks and self-loop labels, and the out-edges.  Validation reads no
out-edges unless its forward pass leaves a state unreached.

A Parikh vector is a dense tuple of ints with one entry per label, in label
order: the label counts of a tree walk, or their difference along an edge.

The `.lts` text format (lexed by `_lines` and `_check_name`, as `.pn` is):
one `initial <state>` header, one `<src> <label> <dst>` line per edge;
states and labels are declared implicitly, in first-appearance order.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd
from operator import itemgetter, not_, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

_NAME = re.compile(r"[A-Za-z0-9_]+")
_LINE_END = re.compile(r"\r\n|\r|\n")


class LtsError(ValueError):
    """Raised for malformed `.lts` input or precondition violations."""


def _lines(text: str) -> Iterator[tuple]:
    """``(lineno, line, fields)`` for each line of ``text`` that holds
    more than a ``#`` comment, with the comment cut off and the line
    stripped.  A line ends only at ``\n``, ``\r\n`` or ``\r``."""
    for lineno, raw in enumerate(_LINE_END.split(text), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def _check_name(name: str, lineno: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``name`` matches ``[A-Za-z0-9_]+``."""
    if not _NAME.fullmatch(name):
        raise error(f"line {lineno}: bad name {name!r}")


class ParikhVector(NamedTuple):
    """A cycle-basis vector: its nonzero ``(label, count)`` entries in label
    order.  Entries may be negative."""

    counts: tuple[tuple[int, int], ...]


class _Table(str):
    """A mask table's name; as an `Lts` class attribute, the descriptor
    whose first read fills the mask tables into the instance's dict."""

    def __get__(self, lts, owner=None):
        if lts is None:
            return self
        lts._fill_tables()
        return vars(lts)[self]


@dataclass(frozen=True)
class Lts:
    """Finite labelled transition system with an initial state.

    States, labels and edges are interned to dense indices in
    first-appearance order; all iteration is in index order.  No two
    states and no two labels share a name.  Instances are immutable and
    safe to share.  Its mask tables (`_fill_tables`) are filled on the
    first read of any, and `out_edges` on its own first read, never when
    an instance is made or copied.
    """

    states: tuple[str, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]
    initial: int

    def __post_init__(self):
        n, m = len(self.states), len(self.labels)
        if len(set(self.states)) < n or len(set(self.labels)) < m:
            raise LtsError("state or label names repeat")
        if not (0 <= self.initial < n):
            raise LtsError("initial state out of range")
        for s, t, s2 in self.edges:
            if not (0 <= s < n and 0 <= s2 < n and 0 <= t < m):
                raise LtsError(f"edge ({s},{t},{s2}) out of range")

    label_masks = _Table("label_masks")
    state_masks = _Table("state_masks")
    self_loop_labels = _Table("self_loop_labels")

    def _fill_tables(self) -> None:
        """Fill the three mask tables in one pass over the edges.

        ``label_masks[s]`` is the sum of ``1 << a`` over the labels ``a``
        leaving ``s``, or -1 where two of its edges share a label; bit
        ``a`` stands for label ``a``.  ``state_masks[a]`` is the sum of
        ``1 << s`` over the states ``s`` enabling ``a``.
        ``self_loop_labels`` holds the labels of the edges ``s [a> s``.
        A state's edges share a label exactly when its mask has fewer
        bits than it has edges, so the edges are counted per state only
        when the masks' bits sum to less than the edge count.
        """
        labels = [0] * len(self.states)
        states = [0] * len(self.labels)
        loops = set()
        for s, t, s2 in self.edges:
            labels[s] |= 1 << t
            states[t] |= 1 << s
            if s == s2:
                loops.add(t)
        if sum(map(int.bit_count, labels)) < len(self.edges):
            counts = Counter(map(itemgetter(0), self.edges))
            labels = [m if m.bit_count() == counts[s] else -1
                      for s, m in enumerate(labels)]
        vars(self).update(label_masks=tuple(labels),
                          state_masks=tuple(states),
                          self_loop_labels=frozenset(loops))

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """``out_edges[s]`` holds the edges leaving ``s``, in edge order."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.states]
        for e in self.edges:
            out[e[0]].append(e)
        return tuple(map(tuple, out))


class ValidationReport(NamedTuple):
    deterministic: bool
    nondeterministic_witness: Optional[tuple[tuple[int, int, int],
                                             tuple[int, int, int]]]
    reachable: bool
    unreachable_states: tuple[int, ...]
    unused_labels: tuple[str, ...]
    self_loop_labels: frozenset[int]

    @property
    def ok(self) -> bool:
        return self.deterministic and self.reachable and not self.unused_labels

    def raise_if_invalid(self) -> None:
        """Raise `LtsError` unless the LTS is deterministic and reachable
        and every label is on an edge."""
        if not (self.deterministic and self.reachable):
            raise LtsError("LTS must be deterministic and reachable")
        if self.unused_labels:
            raise LtsError(f"label {self.unused_labels[0]!r} is on no edge")


class SpanningTree(NamedTuple):
    """BFS spanning tree with per-state Parikh vectors of the tree walks.

    ``parent`` maps every non-initial state to its (parent, label) tree
    edge, in BFS order, so every parent comes before its children;
    following parents always reaches the initial state.
    ``parikh[s]`` counts, per label, the edges of the tree walk from the
    initial state to ``s``.  ``packed[s]`` is ``parikh[s]`` as one int,
    the sum of ``count * unit[t]``, where ``unit[t] = 1 << w*t`` gives
    each label a field of ``w = |S|.bit_length() + 1`` bits.  Sums and
    differences of packed vectors pack their vectors too, and while every
    entry lies in [-(|S|-1), |S|], as |S| < 2^(w-1), equal ints mean
    equal vectors and 0 means the zero vector.
    """

    lts: Lts
    parent: dict[int, tuple[int, int]]
    parikh: tuple[tuple[int, ...], ...]
    packed: tuple[int, ...]
    unit: tuple[int, ...]


def parse_lts(text: str) -> Lts:
    """Parse the `.lts` line format.

    Raises `LtsError` with a line number on syntax errors, duplicate edges
    and missing/duplicate `initial` headers.
    """
    state_ids: dict[str, int] = {}
    label_ids: dict[str, int] = {}
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    initial: Optional[int] = None

    def intern(table: dict[str, int], name: str, lineno: int) -> int:
        if name not in table:  # a name in the table has passed the check
            _check_name(name, lineno, LtsError)
            table[name] = len(table)
        return table[name]

    for lineno, line, parts in _lines(text):
        # an edge may leave a state named "initial"; only a line of two
        # fields is the header
        if len(parts) == 2 and parts[0] == "initial":
            if initial is not None:
                raise LtsError(f"line {lineno}: duplicate initial header")
            initial = intern(state_ids, parts[1], lineno)
        elif len(parts) == 3:
            src = intern(state_ids, parts[0], lineno)
            lab = intern(label_ids, parts[1], lineno)
            dst = intern(state_ids, parts[2], lineno)
            edge = (src, lab, dst)
            if edge in seen:
                raise LtsError(f"line {lineno}: duplicate edge {line!r}")
            seen.add(edge)
            edges.append(edge)
        elif parts[0] == "initial":
            raise LtsError(f"line {lineno}: malformed initial header")
        else:
            raise LtsError(f"line {lineno}: expected 'src label dst'")
    if initial is None:
        raise LtsError("missing 'initial <state>' header")
    return Lts(states=tuple(state_ids),
               labels=tuple(label_ids),
               edges=tuple(edges),
               initial=initial)


def serialize_lts(lts: Lts) -> str:
    lines = [f"initial {lts.states[lts.initial]}"]
    for s, t, s2 in lts.edges:
        lines.append(f"{lts.states[s]} {lts.labels[t]} {lts.states[s2]}")
    return "\n".join(lines) + "\n"


def validate(lts: Lts) -> ValidationReport:
    """Check determinism, reachability and that every label is on an edge;
    collect self-loop labels.

    Findings are reported, never raised.
    """
    witness = None
    # a -1 mask marks two edges of one label at a state, repeated or not;
    # the witness is the first such pair in edge order
    if -1 in lts.label_masks:
        seen: dict[tuple[int, int], tuple[int, int, int]] = {}
        for e in lts.edges:
            key = (e[0], e[1])
            if key in seen:
                witness = (seen[key], e)
                break
            seen[key] = e
    n = len(lts.states)
    reached = [False] * n
    reached[lts.initial] = True
    # reaches each state on a path whose edges the list holds in order
    for s, _, s2 in lts.edges:
        if reached[s]:
            reached[s2] = True
    if not all(reached):
        # a BFS from the states reached appends each state once, when reached
        order = list(compress(range(n), reached))
        for s in order:
            for _, _, s2 in lts.out_edges[s]:
                if not reached[s2]:
                    reached[s2] = True
                    order.append(s2)
    unreachable = tuple(compress(range(n), map(not_, reached)))
    return ValidationReport(
        deterministic=witness is None,
        nondeterministic_witness=witness,
        reachable=not unreachable,
        unreachable_states=unreachable,
        # a label on no edge has no enabling state
        unused_labels=tuple(compress(lts.labels,
                                     map(not_, lts.state_masks))),
        self_loop_labels=lts.self_loop_labels,
    )


def spanning_tree(lts: Lts) -> SpanningTree:
    """BFS spanning tree from the initial state.

    Among candidate edges into a newly discovered state, the one with the
    smallest (source index, label index) wins, so the tree and everything
    derived from it is reproducible.
    """
    n = len(lts.states)
    w = n.bit_length() + 1
    unit = tuple(1 << (w * t) for t in range(len(lts.labels)))
    parent: dict[int, tuple[int, int]] = {}
    parikh: list[Optional[tuple[int, ...]]] = [None] * n
    packed = [0] * n
    parikh[lts.initial] = (0,) * len(lts.labels)
    frontier = [lts.initial]
    while frontier:
        discovered: dict[int, tuple[int, int]] = {}
        for s in frontier:
            for _, t, s2 in lts.out_edges[s]:
                if parikh[s2] is not None:
                    continue
                # the frontier ascends: only the same source can win
                d = discovered.get(s2)
                if d is None or (d[0] == s and t < d[1]):
                    discovered[s2] = (s, t)
        for s2, (p, t) in discovered.items():
            vec = list(parikh[p])
            vec[t] += 1
            parikh[s2] = tuple(vec)
            packed[s2] = packed[p] + unit[t]
        parent.update(discovered)
        frontier = sorted(discovered)
    missing = [s for s, vec in enumerate(parikh) if vec is None]
    if missing:
        raise LtsError(f"unreachable state {lts.states[missing[0]]!r}; "
                       "validate the LTS first")
    return SpanningTree(lts=lts, parent=parent, parikh=tuple(parikh),
                        packed=tuple(packed), unit=unit)


def parikh_of_edge(tree: SpanningTree,
                   edge: tuple[int, int, int]) -> tuple[int, ...]:
    """``psi(s) + 1t - psi(s')`` for the edge ``s [t> s'``, one entry per
    label.

    Tree edges evaluate to the zero vector; chord entries may be negative.
    """
    s, t, s2 = edge
    vec = list(map(sub, tree.parikh[s], tree.parikh[s2]))
    vec[t] += 1
    return tuple(vec)


def _primitive(vec: Sequence[int]) -> Sequence[int]:
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else vec


def echelon_reduce(vec: Sequence[int],
                   rows: Iterable[tuple[int, Sequence[int]]]) \
        -> Sequence[int]:
    """``vec`` reduced against reduced echelon ``rows``, each a (pivot
    column, dense row) pair with a positive pivot that the other rows are
    zero at: each pivot is cleared by cross-multiplication, without
    fractions, and the result divided by its gcd.  It is zero exactly
    when ``vec`` lies in the rational span of the rows."""
    for p, row in rows:
        a = vec[p]
        if a:
            vec = _primitive([row[p] * x - a * y for x, y in zip(vec, row)])
    return vec


def cycle_basis(lts: Lts, tree: SpanningTree) -> list[ParikhVector]:
    """Integer basis of the span of all chord Parikh vectors.

    Only the first edge with each distinct Parikh vector is reduced.  To
    find it, the edge ``s [t> s'`` is keyed by ``psi(s) + 1t - psi(s')``
    packed as in `SpanningTree.packed`: every field of the key lies in
    [-(|S|-1), |S|], so equal keys mean equal vectors, and the key is 0
    exactly for the zero vector, as on every tree edge.

    Each new vector is inserted into an integer echelon basis keyed by pivot
    column, without fractions (after Edmonds, 1967): it is reduced against
    every pivot by `echelon_reduce`, and a nonzero remainder becomes a
    new row whose pivot the same step eliminates from the rows there.  Every
    row is divided by its gcd, with its pivot positive.  The rows are the
    reduced row echelon form of the span, which is canonical, as coprime
    integer vectors, in pivot order; skipping repeated vectors therefore
    leaves them unchanged.  Size is at most the number of labels, where the
    scan stops; every cycle of the LTS has a Parikh vector in the span.
    Each row is returned as a `ParikhVector` of its nonzero entries.
    """
    nlab = len(lts.labels)
    packed, unit = tree.packed, tree.unit
    seen = {0}
    rows: dict[int, Sequence[int]] = {}  # pivot column -> row, pivot > 0
    for edge in lts.edges:
        if len(rows) == nlab:
            break
        s, t, s2 = edge
        key = packed[s] + unit[t] - packed[s2]
        if key in seen:
            continue
        seen.add(key)
        vec = echelon_reduce(parikh_of_edge(tree, edge), rows.items())
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        if vec[lead] < 0:
            vec = [-x for x in vec]
        vec = _primitive(vec)
        for p, row in rows.items():
            rows[p] = echelon_reduce(row, [(lead, vec)])
        rows[lead] = vec
    return [ParikhVector(tuple((k, x) for k, x in enumerate(rows[p]) if x))
            for p in sorted(rows)]
