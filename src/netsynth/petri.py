"""Petri nets: firing, bounded reachability graphs, structural class
predicates, LTS isomorphism and realisation, text format and dot
rendering.

`reachability_graph` and `realises` fire through one kernel, `_kernel`,
that packs a marking into one int (Lamport, CACM 18(8), 1975): place p
holds a field of w bits at bit p·w, topped by a guard bit.  Both fire
only from the first ``depth`` markings of a breadth-first walk (``cap``
and |S|), the k-th of which lies at most k firings from m0.  With g the
largest positive effect of a transition on a place, w =
bound.bit_length() + 1 for bound = max(max(m0) + depth·g, largest arc
weight).  Only enabled transitions fire, so no field goes negative or
past bound < 2^(w-1), and firing t is ``m + eff[t]`` (the state
equation; Murata 1989).  With every guard bit set (``guards``),
subtracting a packed preset ``need[u]`` borrows across no field, so u is
enabled iff ``((m | guards) - need[u]) & guard[u] == guard[u]``.  A
marking reached by t keeps its parent's enabled mask but at ``hit[t]``,
the transitions whose preset meets a place t changes; only those are
tested again (Wolf, ICATPN 2007).

The `.pn` text format, lexed as `.lts` is: `place <name> <tokens>`,
`transition <name>`, `arc <from> <to> [weight]` with the direction inferred
from the endpoint kinds and a default weight of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import NamedTuple, Optional, Sequence

from netsynth.lts import Lts, _check_name, _lines

_DIGITS = frozenset("0123456789")  # str.isdigit also takes "²" and "٣"

Marking = tuple[int, ...]


class PetriNetError(Exception):
    """Malformed `.pn` input or an inconsistent `PetriNet`."""


class CapExceeded(Exception):
    """Reachability graph generation hit the marking cap."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} reachable markings")
        self.cap = cap


@dataclass(frozen=True)
class PetriNet:
    """Initially marked net with weighted arcs.

    ``consume[(p, t)]`` and ``produce[(t, p)]`` hold positive arc weights
    (absent pairs weigh zero); ids are unique across places and
    transitions; initial token counts are nonnegative.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    consume: dict[tuple[int, int], int]
    produce: dict[tuple[int, int], int]
    m0: Marking

    def __post_init__(self):
        names = self.places + self.transitions
        if len(set(names)) < len(names):
            raise PetriNetError("place and transition names overlap or "
                                "repeat")
        if len(self.m0) != len(self.places):
            raise PetriNetError("initial marking size mismatch")
        for w in list(self.consume.values()) + list(self.produce.values()):
            if w <= 0:
                raise PetriNetError("arc weights must be positive")
        if any(k < 0 for k in self.m0):
            raise PetriNetError("initial token counts must not be negative")
        np_, nt = len(self.places), len(self.transitions)
        for p, t in list(self.consume) + [(p, t) for t, p in self.produce]:
            if not (0 <= p < np_ and 0 <= t < nt):
                raise PetriNetError(f"arc between place {p} and transition "
                                    f"{t} is outside the net")


def _kernel(net: PetriNet, order: Sequence[int], depth: int):
    """Packed firing of ``net`` up to ``depth`` firings from m0, with mask
    bit ``i`` for transition ``order[i]`` (no transition twice): the
    packed m0, its enabled mask, the packed effects in bit order, and
    ``after(m, en, i)``, the mask of ``m`` reached by bit ``i`` from a
    marking whose mask is ``en``."""
    consume, produce = net.consume, net.produce
    g = max([0] + [x - consume.get((p, t), 0)
                   for (t, p), x in produce.items()])
    bound = max([max(net.m0, default=0) + depth * g,
                 *consume.values(), *produce.values()])
    w = bound.bit_length() + 1
    unit = [1 << (p * w) for p in range(len(net.places))]
    bit = {t: i for i, t in enumerate(order)}
    need, guard, eff = [0] * len(order), [0] * len(order), [0] * len(order)
    consumers, changes = [[] for _ in unit], [[] for _ in order]
    for (p, t), x in consume.items():
        i = bit[t]
        need[i] += x * unit[p]
        guard[i] += unit[p] << (w - 1)
        consumers[p].append(i)
        if produce.get((t, p)) != x:
            changes[i].append(p)
    for (t, p), x in produce.items():
        eff[bit[t]] += x * unit[p]
        if consume.get((p, t)) != x:
            changes[bit[t]].append(p)
    eff = [e - x for e, x in zip(eff, need)]
    tests = [(1 << i, x, y) for i, (x, y) in enumerate(zip(need, guard))]
    guards = sum(unit) << (w - 1)
    # per bit i the tests of hit[i]; the entry past the last bit holds
    # every test, for m0
    hits = [[tests[j] for j in {j for p in ps for j in consumers[p]}]
            for ps in changes] + [tests]

    def after(m: int, en: int, i: int) -> int:
        m |= guards
        for b, need_b, guard_b in hits[i]:
            if (m - need_b) & guard_b == guard_b:
                en |= b
            else:
                en &= ~b
        return en

    m0 = sum([x * u for x, u in zip(net.m0, unit)])
    return m0, after(m0, 0, len(order)), eff, after


def reachability_graph(net: PetriNet, cap: int = 100_000) -> Lts:
    """Breadth-first marking exploration up to ``cap`` distinct markings.

    States are named m0, m1, ... in discovery order, making the result
    stable for isomorphism checks; labels are the transitions that actually
    fire, in first-firing order.  Each marking fires its enabled
    transitions in index order.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    m0, en0, eff, after = _kernel(net, range(len(net.transitions)), cap)
    index = {m0: 0}
    order = [m0]
    enabled = [en0]
    edges: list[tuple[int, int, int]] = []
    labels: dict[int, int] = {}
    # ``order`` grows while it is walked, so ``s`` is the BFS head
    for s, m in enumerate(order):
        en = rest = enabled[s]
        while rest:
            t = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            m2 = m + eff[t]
            s2 = index.get(m2)
            if s2 is None:
                if len(order) >= cap:
                    raise CapExceeded(cap)
                s2 = index[m2] = len(order)
                order.append(m2)
                enabled.append(after(m2, en, t))
            edges.append((s, labels.setdefault(t, len(labels)), s2))
    return Lts(states=tuple(f"m{i}" for i in range(len(order))),
               labels=tuple(net.transitions[t] for t in labels),
               edges=tuple(edges),
               initial=0)


def _comparable(u: Sequence[int], v: Sequence[int]) -> bool:
    return all(a <= b for a, b in zip(u, v)) or \
        all(a >= b for a, b in zip(u, v))


def classify_net(net: PetriNet) -> frozenset[str]:
    """The names of the classes ``net`` is in (PLAIN, MG, CF, EC, EFC,
    WPI, WAC, AC, RAC, BRAC), each predicate evaluated by direct
    quantification.

    Marked graphs follow the standard definition: plain with at most one
    consumer and one producer per place.
    """
    np_, nt = len(net.places), len(net.transitions)
    col = [[0] * np_ for _ in range(nt)]
    row = [[0] * nt for _ in range(np_)]
    tpre: list[set[int]] = [set() for _ in range(nt)]
    ppost: list[set[int]] = [set() for _ in range(np_)]
    for (p, t), w in net.consume.items():
        col[t][p] = row[p][t] = w
        tpre[t].add(p)
        ppost[p].add(t)

    plain = all(w <= 1 for w in net.consume.values()) and \
        all(w <= 1 for w in net.produce.values())
    cf = all(len(ppost[p]) <= 1 for p in range(np_))
    mg = plain and cf and len({p for _, p in net.produce}) == len(net.produce)

    ec = wpi = True
    for t in range(nt):
        for u in range(t + 1, nt):
            if tpre[t] & tpre[u]:
                if col[t] != col[u]:
                    ec = False
                if not _comparable(col[t], col[u]):
                    wpi = False
    efc = ec and plain

    def n_block(p: int, q: int) -> bool:
        # postset of p is t-block T1, q additionally feeds T1 and owns T2
        t1 = ppost[p]
        t2 = ppost[q] - t1
        if not t1 <= ppost[q]:
            return False
        return all(tpre[t] == {p, q} for t in t1) and \
            all(tpre[t] == {q} for t in t2)

    wac = True
    rac = brac = plain
    for p in range(np_):
        for q in range(p + 1, np_):
            if not ppost[p] & ppost[q]:
                continue
            if not _comparable(row[p], row[q]):
                wac = False
            a = len(ppost[p]) == 1 and len(ppost[q]) <= 2 and \
                frozenset().union(*(tpre[t] for t in ppost[q])) == {p, q}
            b = len(ppost[q]) == 1 and len(ppost[p]) <= 2 and \
                frozenset().union(*(tpre[t] for t in ppost[p])) == {p, q}
            if not (a or b):
                rac = False
            if not (ppost[p] == ppost[q] or n_block(p, q) or n_block(q, p)):
                brac = False
    ac = wac and plain
    return frozenset(name for name, held in zip(
        ("PLAIN", "MG", "CF", "EC", "EFC", "WPI", "WAC", "AC", "RAC", "BRAC"),
        (plain, mg, cf, ec, efc, wpi, wac, ac, rac, brac)) if held)


class Mismatch(NamedTuple):
    """First divergence found while pairing two transition systems."""

    reason: str
    state_pair: Optional[tuple[int, int]] = None
    label: Optional[str] = None


def isomorphic(lts: Lts, other: Lts) -> dict[int, int] | Mismatch:
    """Forced bijection between two deterministic reachable systems.

    A parallel breadth-first walk from the initial states either yields the
    unique candidate bijection or the first divergent (state, label).  At
    each state pair the out-edges of either side give one ``{label name:
    target}`` dict.  A system with two edges of one label at a state (a
    -1 label mask) is a mismatch, since such a dict keeps only one of them.
    """
    if -1 in lts.label_masks or -1 in other.label_masks:
        return Mismatch("nondeterministic system")
    if set(lts.labels) != set(other.labels):
        return Mismatch("label sets differ")
    mapping = {lts.initial: other.initial}
    paired = {other.initial}
    queue = [(lts.initial, other.initial)]
    # ``queue`` grows while it is walked
    for s1, s2 in queue:
        next1 = {lts.labels[t]: n for _, t, n in lts.out_edges[s1]}
        next2 = {other.labels[t]: n for _, t, n in other.out_edges[s2]}
        if next1.keys() != next2.keys():
            return Mismatch("enabled labels differ", (s1, s2),
                            min(next1.keys() ^ next2.keys()))
        for name in sorted(next1):
            n1, n2 = next1[name], next2[name]
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


def realises(net: PetriNet, lts: Lts) -> bool:
    """Whether the reachability graph of ``net`` is isomorphic to ``lts``,
    decided by firing the net along ``lts``, without building the graph.

    A breadth-first walk from the initial state gives each state the
    marking its first tree edge fires to, starting from ``m0``.  The walk
    fails when a transition's enabledness at a state's marking differs
    from the state's labels, when a successor marking differs from the one
    its state already holds, when two states get the same marking, when a
    state is never reached, when a label has no transition of that name
    or labels no edge, or when a state has two edges of one label.  A walk that passes is the isomorphism: the net then
    reaches exactly the assigned markings (Badouel, Bernardinello and
    Darondeau, "Petri Net Synthesis", Springer 2015).
    """
    by_name = {name: t for t, name in enumerate(net.transitions)}
    fires = [by_name.get(name) for name in lts.labels]
    wanted = lts.label_masks
    # a label on no edge leaves a bit of the masks' union unset, and a
    # state with two edges of one label (mask -1) makes the union -1
    used = reduce(or_, wanted, 0)
    if None in fires or used < 0 or used.bit_count() < len(fires):
        return False
    unnamed = [t for t in range(len(net.transitions)) if t not in fires]
    m0, en0, eff, after = _kernel(net, fires + unnamed, len(lts.states))
    marking: list[Optional[int]] = [None] * len(lts.states)
    enabled = [0] * len(lts.states)
    marking[lts.initial], enabled[lts.initial] = m0, en0
    seen = {m0}
    queue = [lts.initial]
    # ``queue`` grows while it is walked
    for s in queue:
        m, en = marking[s], enabled[s]
        if en != wanted[s]:
            return False
        for _, a, s2 in lts.out_edges[s]:
            m2 = m + eff[a]
            if marking[s2] is None:
                if m2 in seen:
                    return False
                marking[s2], enabled[s2] = m2, after(m2, en, a)
                seen.add(m2)
                queue.append(s2)
            elif marking[s2] != m2:
                return False
    return len(queue) == len(lts.states)


class PlaceSpec(NamedTuple):
    """One net place: tokens plus per-label consume/produce weights."""

    tokens: int
    consume: tuple[int, ...]
    produce: tuple[int, ...]


def net_from_regions(labels: tuple[str, ...],
                     places: list[PlaceSpec]) -> PetriNet:
    """Assemble a net with one transition per label and one place per spec."""
    consume: dict[tuple[int, int], int] = {}
    produce: dict[tuple[int, int], int] = {}
    names = []
    for i, spec in enumerate(places):
        names.append(f"p{i + 1}")
        for t, w in enumerate(spec.consume):
            if w > 0:
                consume[(i, t)] = w
        for t, w in enumerate(spec.produce):
            if w > 0:
                produce[(t, i)] = w
    return PetriNet(places=tuple(names), transitions=tuple(labels),
                    consume=consume, produce=produce,
                    m0=tuple(spec.tokens for spec in places))


def _number(digits: str, lineno: int) -> int:
    """``digits``, ASCII digits only, as an int; one longer than `int`
    converts raises `PetriNetError`."""
    try:
        return int(digits)
    except ValueError:
        raise PetriNetError(f"line {lineno}: number of {len(digits)} "
                            "digits is too long") from None


def parse_net(text: str) -> PetriNet:
    """Parse the `.pn` line format; errors carry line numbers."""
    places: dict[str, int] = {}
    tokens: list[int] = []
    transitions: dict[str, int] = {}
    consume: dict[tuple[int, int], int] = {}
    produce: dict[tuple[int, int], int] = {}

    def new_id(name: str, lineno: int) -> str:
        _check_name(name, lineno, PetriNetError)
        if name in places or name in transitions:
            raise PetriNetError(f"line {lineno}: duplicate id {name!r}")
        return name

    for lineno, _, parts in _lines(text):
        kind = parts[0]
        if kind == "place":
            if len(parts) != 3 or not set(parts[2]) <= _DIGITS:
                raise PetriNetError(f"line {lineno}: expected "
                                    "'place <name> <tokens>'")
            places[new_id(parts[1], lineno)] = len(places)
            tokens.append(_number(parts[2], lineno))
        elif kind == "transition":
            if len(parts) != 2:
                raise PetriNetError(f"line {lineno}: expected "
                                    "'transition <name>'")
            transitions[new_id(parts[1], lineno)] = len(transitions)
        elif kind == "arc":
            if len(parts) not in (3, 4):
                raise PetriNetError(f"line {lineno}: expected "
                                    "'arc <from> <to> [weight]'")
            digits = parts[3] if len(parts) == 4 else "1"
            weight = _number(digits, lineno) if set(digits) <= _DIGITS else 0
            if weight < 1:
                raise PetriNetError(f"line {lineno}: bad weight {digits!r}")
            src, dst = parts[1], parts[2]
            if src in places and dst in transitions:
                arcs, key = consume, (places[src], transitions[dst])
            elif src in transitions and dst in places:
                arcs, key = produce, (transitions[src], places[dst])
            else:
                raise PetriNetError(f"line {lineno}: arc endpoints must be "
                                    "one known place and one known "
                                    "transition")
            if key in arcs:
                raise PetriNetError(f"line {lineno}: duplicate arc")
            arcs[key] = weight
        else:
            raise PetriNetError(f"line {lineno}: unknown directive "
                                f"{kind!r}")
    return PetriNet(places=tuple(places), transitions=tuple(transitions),
                    consume=consume, produce=produce, m0=tuple(tokens))


def serialize_net(net: PetriNet) -> str:
    lines = []
    for p, name in enumerate(net.places):
        lines.append(f"place {name} {net.m0[p]}")
    for name in net.transitions:
        lines.append(f"transition {name}")
    for (p, t), w in sorted(net.consume.items()):
        suffix = f" {w}" if w != 1 else ""
        lines.append(f"arc {net.places[p]} {net.transitions[t]}{suffix}")
    for (t, p), w in sorted(net.produce.items()):
        suffix = f" {w}" if w != 1 else ""
        lines.append(f"arc {net.transitions[t]} {net.places[p]}{suffix}")
    return "\n".join(lines) + "\n"


def render_dot(net: PetriNet) -> str:
    """Graphviz digraph: circles for places (with token counts), boxes for
    transitions, weight labels on arcs heavier than one."""
    out = ["digraph net {", "  rankdir=LR;"]
    for p, name in enumerate(net.places):
        label = name if net.m0[p] == 0 else f"{name}\\n{net.m0[p]}"
        out.append(f'  "{name}" [shape=circle, label="{label}"];')
    for name in net.transitions:
        out.append(f'  "{name}" [shape=box];')
    for (p, t), w in sorted(net.consume.items()):
        attr = f' [label="{w}"]' if w > 1 else ""
        out.append(f'  "{net.places[p]}" -> "{net.transitions[t]}"{attr};')
    for (t, p), w in sorted(net.produce.items()):
        attr = f' [label="{w}"]' if w > 1 else ""
        out.append(f'  "{net.transitions[t]}" -> "{net.places[p]}"{attr};')
    out.append("}")
    return "\n".join(out) + "\n"
