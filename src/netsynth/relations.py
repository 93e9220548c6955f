"""Label relations over an LTS and the preset-relation calculus.

For every label pair the enabledness relation (equivalent / one-implies-the-
other / mutually non-implying) combines with the deactivation property into
six cases that fix the preset relation of the two transitions in any
comparable-preset net: identical, properly included, disjoint, or, for
self-loops, an unresolved "disjoint or included" (doi) edge.  One scan
classifies every pair straight from the LTS's label and state masks and
one disabled mask per label (`scan_pairs`); `build_relation_graph` reads
it and stops at the first pair that is enabled independently and
deactivating (case 1), before it builds any edge.

Triangle rules then strengthen doi edges: some configurations force
disjointness, some force inclusion, and some are contradictory, failing the
synthesis outright.  Targeting block-reduced asymmetric choice adds rules:
no label may sit on two inclusion edges, a doi edge at an inclusion-incident
label means disjointness, and the front edge of a doi chain means
disjointness.  Residual doi edges are settled by feasibility probing plus a
maximum bipartite matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional

from netsynth.lts import Lts

# pair kinds (enabledness relation of an ordered pair)
EQUIV = "equiv"
A_GTR_B = "a_gtr_b"
B_GTR_A = "b_gtr_a"
INTERLEAVE = "interleave"

# graph edge kinds per unordered pair
EQUIVALENT = "equivalent"
DISJOINT = "disjoint"
INCLUDED = "included"   # preset of lo strictly below preset of hi
DOI = "doi"             # lo is a self-loop; disjoint from hi or below it

ORIGINAL = "original"
STRENGTHENED = "strengthened"

# oriented codes of a pair (x, c) as seen from x
_NONE = 0
_INC_TO = 1     # x included in c
_INC_FROM = 2   # c included in x
_DOI_TO = 3     # doi(x, c)
_DOI_FROM = 4   # doi(c, x)

_CONTRA = "contra"

# Triangle rule table over a doi edge (lo, hi) and a third label c, keyed by
# (code of (lo, c), code of (hi, c)).  Entries: (config number, action,
# needs_original_solid), where the action is the doi edge's new kind or
# _CONTRA.  Deactivation-based rules (17, 22, 23) only fire when the solid
# edge at lo arose from an actual merge pair; otherwise the conclusion
# re-emerges from the triangles that produced the strengthened edge.
_TRIANGLE: dict[tuple[int, int], tuple[int, Optional[str], bool]] = {
    (_NONE, _NONE): (1, None, False),
    (_INC_TO, _NONE): (2, DISJOINT, False),
    (_INC_FROM, _NONE): (3, DISJOINT, False),
    (_DOI_TO, _NONE): (4, None, False),
    (_DOI_FROM, _NONE): (5, None, False),
    (_NONE, _INC_TO): (6, DISJOINT, False),
    (_INC_TO, _INC_TO): (7, None, False),
    (_INC_FROM, _INC_TO): (8, _CONTRA, False),
    (_DOI_TO, _INC_TO): (9, None, False),
    (_DOI_FROM, _INC_TO): (10, _CONTRA, False),
    (_NONE, _INC_FROM): (11, None, False),
    (_INC_TO, _INC_FROM): (12, INCLUDED, False),
    (_INC_FROM, _INC_FROM): (13, INCLUDED, False),
    (_DOI_TO, _INC_FROM): (14, None, False),
    (_DOI_FROM, _INC_FROM): (15, None, False),
    (_NONE, _DOI_TO): (16, None, False),
    (_INC_TO, _DOI_TO): (17, DISJOINT, True),
    (_INC_FROM, _DOI_TO): (18, _CONTRA, False),
    (_DOI_TO, _DOI_TO): (19, None, False),
    (_DOI_FROM, _DOI_TO): (20, _CONTRA, False),
    (_NONE, _DOI_FROM): (21, None, False),
    (_INC_TO, _DOI_FROM): (22, _CONTRA, True),
    (_INC_FROM, _DOI_FROM): (23, _CONTRA, True),
    (_DOI_TO, _DOI_FROM): (24, None, False),
    (_DOI_FROM, _DOI_FROM): (25, None, False),
}


class Contradiction(NamedTuple):
    """Witness that no target-class net can solve the LTS."""

    labels: tuple[int, ...]
    rule: str
    detail: str = ""


class Edge(NamedTuple):
    kind: str
    lo: int
    hi: int
    origin: str = ORIGINAL


@dataclass
class RelationGraph:
    """Preset relations between (representative) labels.

    ``edges`` maps each unordered pair (i < j) to its edge; ``rep`` maps
    every original label to its equivalence-class representative and
    ``classes`` lists class members per representative.  Copies share
    ``rep`` and ``classes``, which are never edited.
    """

    names: tuple[str, ...]
    nodes: tuple[int, ...]
    edges: dict[tuple[int, int], Edge]
    rep: dict[int, int] = field(default_factory=dict)
    classes: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.rep:
            self.rep = {n: n for n in self.nodes}
        if not self.classes:
            self.classes = {n: (n,) for n in self.nodes}

    def copy(self) -> "RelationGraph":
        return RelationGraph(self.names, self.nodes, dict(self.edges),
                             self.rep, self.classes)

    def edge(self, a: int, b: int) -> Edge:
        return self.edges[(a, b) if a < b else (b, a)]

    def set_edge(self, a: int, b: int, edge: Edge) -> None:
        self.edges[(a, b) if a < b else (b, a)] = edge

    def resolved(self, doi_pairs: Iterable[tuple[int, int]],
                 included: Iterable[tuple[int, int]] = ()) -> RelationGraph:
        """A copy with each doi edge ``(lo, hi)`` of ``doi_pairs`` made
        `INCLUDED` if it is in ``included``, else `DISJOINT`."""
        included = set(included)
        g = self.copy()
        for lo, hi in doi_pairs:
            kind = INCLUDED if (lo, hi) in included else DISJOINT
            g.set_edge(lo, hi, Edge(kind, lo, hi, STRENGTHENED))
        return g

    def code_from(self, x: int, c: int) -> int:
        """Oriented relation code of the pair (x, c) as seen from x."""
        e = self.edge(x, c)
        if e.kind == DISJOINT:
            return _NONE
        if e.kind == INCLUDED:
            return _INC_TO if e.lo == x else _INC_FROM
        if e.kind == DOI:
            return _DOI_TO if e.lo == x else _DOI_FROM
        raise ValueError(f"unexpected edge kind {e.kind} between "
                         f"{self.names[x]} and {self.names[c]}")

    def doi_edges(self) -> list[tuple[int, int]]:
        """Doi edges as (lo, hi) pairs, sorted; lo is the self-loop."""
        return sorted((e.lo, e.hi) for e in self.edges.values()
                      if e.kind == DOI)

    def included_edges(self) -> list[tuple[int, int]]:
        """Inclusion edges as (lo, hi) pairs, sorted."""
        return sorted((e.lo, e.hi) for e in self.edges.values()
                      if e.kind == INCLUDED)


def classify_case(kind: str, merge: int) -> int:
    """The case number 1..6 of a pair's enabledness kind and deactivation
    flag."""
    if kind == INTERLEAVE:
        return 1 if merge else 2
    if kind == EQUIV:
        return 3 if merge else 4
    return 5 if merge else 6


def scan_pairs(lts: Lts) -> Iterator[tuple[int, int, str, int]]:
    """Every label pair ``(a, b)``, ``a < b``, in index order, as
    ``(a, b, kind, merge)`` over a deterministic LTS: the enabledness
    kind, and ``merge`` 1 if one label deactivates the other, else 0.

    The deactivations come from one pass over the edges, made before the
    first pair: an edge ``s [a> s'`` disables the labels of
    ``label_masks[s]`` missing from ``label_masks[s']``, ORed into the
    mask ``disabled[a]``.  The kind compares the two labels'
    ``state_masks``, the sets of states enabling them.
    """
    masks = lts.label_masks
    n = len(lts.labels)
    disabled = [0] * n
    for s, a, s2 in lts.edges:
        disabled[a] |= masks[s] & ~masks[s2]
    states = lts.state_masks
    for a in range(n):
        ea, off = states[a], disabled[a]
        for b in range(a + 1, n):
            eb = states[b]
            if ea == eb:
                kind = EQUIV
            elif not ea & ~eb:
                kind = A_GTR_B
            elif not eb & ~ea:
                kind = B_GTR_A
            else:
                kind = INTERLEAVE
            yield a, b, kind, off >> b & 1 or disabled[b] >> a & 1


def build_relation_graph(lts: Lts) -> RelationGraph | Contradiction:
    """Derive the preset-relation edge for every label pair.

    Deactivating non-comparable labels (case 1) are an immediate
    contradiction: the scan stops at the first such pair, before any edge
    is built.  In case 6 the more broadly enabled label must be a
    self-loop for the unresolved doi edge to exist; otherwise the presets
    are disjoint.  The pairs come from `scan_pairs`.
    """
    pairs = []
    for pair in scan_pairs(lts):
        a, b, kind, merge = pair
        if merge and kind == INTERLEAVE:
            return Contradiction((a, b), "deactivating-interleave",
                                 f"labels {lts.labels[a]} and "
                                 f"{lts.labels[b]} deactivate each other "
                                 "but are enabled independently")
        pairs.append(pair)
    loops = lts.self_loop_labels
    edges: dict[tuple[int, int], Edge] = {}
    for a, b, kind, merge in pairs:
        if kind == INTERLEAVE:  # case 2
            edges[(a, b)] = Edge(DISJOINT, a, b)
        elif kind == EQUIV:  # cases 3 and 4
            edges[(a, b)] = Edge(EQUIVALENT, a, b)
        else:
            # x > y means x is enabled strictly less often; ``wide`` is
            # the more broadly enabled label of the two
            wide, narrow = (b, a) if kind == A_GTR_B else (a, b)
            if merge:  # case 5: wide has the smaller preset, lo
                edges[(a, b)] = Edge(INCLUDED, wide, narrow)
            elif wide in loops:  # case 6
                edges[(a, b)] = Edge(DOI, wide, narrow)
            else:
                edges[(a, b)] = Edge(DISJOINT, a, b)
    return RelationGraph(lts.labels, tuple(range(len(lts.labels))), edges)


# the member codes (`RelationGraph.code_from`) of a class pair (x, c) that
# reconcile -> the reconciled edge's kind and whether c is its lo
_COMPATIBLE = {
    frozenset({_NONE}): (DISJOINT, False),
    frozenset({_NONE, _DOI_TO}): (DISJOINT, False),
    frozenset({_NONE, _DOI_FROM}): (DISJOINT, False),
    frozenset({_NONE, _DOI_TO, _DOI_FROM}): (DISJOINT, False),
    frozenset({_INC_TO}): (INCLUDED, False),
    frozenset({_INC_TO, _DOI_TO}): (INCLUDED, False),
    frozenset({_INC_FROM}): (INCLUDED, True),
    frozenset({_INC_FROM, _DOI_FROM}): (INCLUDED, True),
    frozenset({_DOI_TO}): (DOI, False),
    frozenset({_DOI_FROM}): (DOI, True),
}


def quotient_by_equivalence(graph: RelationGraph) \
        -> tuple[RelationGraph, dict[int, int]] | Contradiction:
    """Collapse equivalence classes to one representative each.

    Equivalent labels are enabled at the same states, so the equivalence
    edges form cliques: each label is rooted at its least equivalent
    label, and edges that are not transitive raise ``ValueError``.

    Within a class, members must relate identically to every outside label
    once their doi edges are strengthened towards any resolved member edge;
    irreconcilable member edges are a contradiction.  A member carrying an
    inclusion edge is preferred as representative so deactivation
    arguments stay applicable.

    ``graph`` is the raw graph of `build_relation_graph`, and only read;
    the quotient's edges are the reconciled edges of representative pairs.
    """
    ties = sorted(pair for pair, e in graph.edges.items()
                  if e.kind == EQUIVALENT)
    least = {n: n for n in graph.nodes}
    for a, b in ties:
        least[b] = min(least[b], a)
    classes: dict[int, list[int]] = {}
    for n in graph.nodes:
        classes.setdefault(least[n], []).append(n)
    if any(least[a] != least[b] for a, b in ties) or len(ties) != sum(
            len(m) * (len(m) - 1) // 2 for m in classes.values()):
        raise ValueError("equivalence edges are not transitive")

    on_inclusion = {x for pair in graph.included_edges() for x in pair}
    reps: dict[int, int] = {}
    by_rep: dict[int, tuple[int, ...]] = {}
    for root, members in sorted(classes.items()):
        rep = min((m for m in members if m in on_inclusion), default=root)
        for m in members:
            reps[m] = rep
        by_rep[rep] = tuple(sorted(members))
    roots = sorted(by_rep)

    # reconcile member edges towards every outside class
    edges: dict[tuple[int, int], Edge] = {}
    for ra, rb in combinations(roots, 2):
        combo = frozenset(graph.code_from(x, y)
                          for x in by_rep[ra] for y in by_rep[rb])
        if combo not in _COMPATIBLE:
            return Contradiction(
                (ra, rb), "equivalence-conflict",
                "equivalent labels relate differently to "
                f"{graph.names[rb]}")
        kind, flip = _COMPATIBLE[combo]
        lo, hi = (rb, ra) if flip else (ra, rb)
        edges[(ra, rb)] = Edge(kind, lo, hi)

    return RelationGraph(graph.names, tuple(roots), edges, reps,
                         {r: by_rep[r] for r in roots}), dict(reps)


def _triangles(g: RelationGraph) \
        -> Iterator[tuple[int, int, int, int, str]]:
    """Applicable triangle rules as ``(lo, hi, c, config, action)``.

    Doi edges, then third labels, are scanned in index order.
    """
    for lo, hi in g.doi_edges():
        for c in g.nodes:
            if c in (lo, hi):
                continue
            key = (g.code_from(lo, c), g.code_from(hi, c))
            config, action, needs_original = _TRIANGLE[key]
            if action is None:
                continue
            if needs_original and g.edge(lo, c).origin != ORIGINAL:
                continue
            yield lo, hi, c, config, action


def _strengthen(graph: RelationGraph, brac: bool) -> RelationGraph | Contradiction:
    """Apply one rule per round until none applies.

    A round checks, under ``brac``, that no label sits on two inclusions;
    then it scans the triangles once, returning the first contradiction or
    else applying the first resolution.  Only when no triangle resolves
    does a BRAC doi rule apply: a doi edge touching an inclusion, then the
    front edge of a doi chain, becomes disjoint.
    """
    g = graph.copy()
    while True:
        incident: dict[int, tuple[int, int]] = {}
        for lo, hi in g.included_edges() if brac else ():
            for x in (lo, hi):
                if x in incident and incident[x] != (lo, hi):
                    return Contradiction(
                        (x,) + incident[x] + (lo, hi), "shared-inclusion",
                        f"label {g.names[x]} sits on two preset inclusions, "
                        "impossible with one- or two-place presets")
                incident[x] = (lo, hi)
        first = None
        for lo, hi, c, config, action in _triangles(g):
            if action == _CONTRA:
                return Contradiction((lo, hi, c), f"triangle-{config}",
                                     f"doi edge {g.names[lo]}->"
                                     f"{g.names[hi]} with third label "
                                     f"{g.names[c]}")
            first = first or (lo, hi, action)
        if first is not None:
            lo, hi, action = first
            g.set_edge(lo, hi, Edge(action, lo, hi, STRENGTHENED))
            continue
        doi = g.doi_edges() if brac else []
        has_outgoing = {lo for lo, _ in doi}
        pair = next(((lo, hi) for lo, hi in doi
                     if lo in incident or hi in incident), None) or \
            next(((lo, hi) for lo, hi in doi if hi in has_outgoing), None)
        if pair is None:
            return g
        g.set_edge(*pair, Edge(DISJOINT, *pair, STRENGTHENED))


def strengthen_wpi(graph: RelationGraph) -> RelationGraph | Contradiction:
    """Fixpoint of the triangle rules on a quotiented graph.

    Contradictory configurations are reported before any resolution is
    applied; resolutions scan doi edges, then third labels, in index order.
    The deactivation-based rules skip strengthened edges, so indirect
    conclusions re-emerge over further iterations.
    """
    return _strengthen(graph, brac=False)


def strengthen_brac(graph: RelationGraph) -> RelationGraph | Contradiction:
    """WPI strengthening plus the block-structure rules.

    Two inclusion edges sharing a label contradict; a doi edge touching an
    inclusion-incident label resolves to disjointness, as does the front
    edge of every doi chain.
    """
    return _strengthen(graph, brac=True)


class MatchingFailure(NamedTuple):
    unmatched: tuple[int, ...]


def resolve_inclusion_matching(candidates: Iterable[tuple[int, int]]) \
        -> dict[int, int] | MatchingFailure:
    """Pick one inclusion target per self-loop label by a maximum matching.

    ``candidates`` holds pairs (self-loop label, feasible target).  The
    assignment must cover every left label and give each target at most
    one label.  Kuhn's augmenting paths take the left labels in index
    order, each with one depth-first search over its targets in index
    order, so the maximum matching found is deterministic; the labels whose
    search fails are reported, in index order.
    """
    adj: dict[int, list[int]] = {}
    for a, b in sorted(set(candidates)):
        adj.setdefault(a, []).append(b)
    owner: dict[int, int] = {}  # target -> the label matched to it

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if v not in owner or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    unmatched = tuple(u for u in sorted(adj) if not augment(u, set()))
    if unmatched:
        return MatchingFailure(unmatched)
    return dict(sorted((u, v) for v, u in owner.items()))
