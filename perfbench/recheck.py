"""Independent re-check of a synthesised net against its input LTS.

Nothing here calls netsynth: the net is fired over the LTS by a small
simulation of its own, and the target class is tested straight from its
definition.  The benchmark uses this in place of `verify_solution`, which
is part of the code under test.
"""

from __future__ import annotations

from typing import Optional


def _arcs(net):
    """Per transition: its preset as (place, weight) pairs and its effect."""
    nplaces = len(net.places)
    pre = [[] for _ in net.transitions]
    effect = [[0] * nplaces for _ in net.transitions]
    for (p, t), w in net.consume.items():
        pre[t].append((p, w))
        effect[t][p] -= w
    for (t, p), w in net.produce.items():
        effect[t][p] += w
    return pre, effect


def net_matches_lts(net, lts) -> Optional[str]:
    """None if the reachability graph of ``net`` is isomorphic to ``lts``.

    Walks the LTS from its initial state with the net's initial marking.
    At every state the enabled transitions must be exactly the labels the
    state enables, and the state-to-marking map must stay a function and
    stay injective.  Since the LTS is reachable, this covers every
    reachable marking, so the two graphs are isomorphic.
    """
    if sorted(net.transitions) != sorted(lts.labels):
        return "transition names differ from the LTS labels"
    pre, effect = _arcs(net)
    by_name = {name: t for t, name in enumerate(net.transitions)}
    label_to_t = [by_name[name] for name in lts.labels]
    out = [[] for _ in lts.states]
    for s, a, s2 in lts.edges:
        out[s].append((label_to_t[a], s2))
    marking = {lts.initial: tuple(net.m0)}
    owner = {tuple(net.m0): lts.initial}
    queue = [lts.initial]
    for s in queue:
        m = marking[s]
        fires = {t for t in range(len(net.transitions))
                 if all(m[p] >= w for p, w in pre[t])}
        if fires != {t for t, _ in out[s]}:
            return f"state {lts.states[s]}: enabled transitions differ"
        for t, s2 in out[s]:
            m2 = tuple(x + d for x, d in zip(m, effect[t]))
            if s2 in marking:
                if marking[s2] != m2:
                    return (f"state {lts.states[s2]} reached with two "
                            "markings")
                continue
            if m2 in owner:
                return (f"states {lts.states[owner[m2]]} and "
                        f"{lts.states[s2]} share a marking")
            marking[s2] = m2
            owner[m2] = s2
            queue.append(s2)
    if len(marking) != len(lts.states):
        return "some LTS states were not reached"
    return None


def _postsets(net):
    post = [set() for _ in net.places]
    pre = [set() for _ in net.transitions]
    for p, t in net.consume:
        post[p].add(t)
        pre[t].add(p)
    return post, pre


def _comparable(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v)) or \
        all(a >= b for a, b in zip(u, v))


def class_problem(net, target: str) -> Optional[str]:
    """None if ``net`` lies in ``target`` ("wpi" or "brac").

    wpi: transitions sharing an input place consume componentwise
    comparable amounts.  brac: the net is plain, and any two places with a
    common output transition either have the same output transitions or
    form a two-block asymmetric choice, where one place feeds block T1 only
    together with the other, which alone feeds a second block T2.
    """
    post, pre = _postsets(net)
    if target == "wpi":
        consume = [tuple(net.consume.get((p, t), 0)
                         for p in range(len(net.places)))
                   for t in range(len(net.transitions))]
        for t in range(len(net.transitions)):
            for u in range(t + 1, len(net.transitions)):
                if pre[t] & pre[u] and not _comparable(consume[t],
                                                       consume[u]):
                    return (f"{net.transitions[t]} and "
                            f"{net.transitions[u]} share a place with "
                            "incomparable presets")
        return None
    if target != "brac":
        raise ValueError(f"unknown target class {target!r}")
    weights = list(net.consume.values()) + list(net.produce.values())
    if any(w != 1 for w in weights):
        return "net is not plain"

    def two_blocks(p: int, q: int) -> bool:
        t1, t2 = post[p], post[q] - post[p]
        return t1 <= post[q] and all(pre[t] == {p, q} for t in t1) and \
            all(pre[t] == {q} for t in t2)

    for p in range(len(net.places)):
        for q in range(p + 1, len(net.places)):
            if post[p] & post[q] and post[p] != post[q] and \
                    not two_blocks(p, q) and not two_blocks(q, p):
                return (f"places {net.places[p]} and {net.places[q]} "
                        "share transitions outside any block")
    return None
