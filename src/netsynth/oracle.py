"""Deterministic random instance generators for tests and benchmarks.

`random_lts` builds a reachable, deterministic LTS; `random_brac_net`
composes free-choice blocks and N-shaped asymmetric choice blocks into
token-conservative rings, keeping reachability graphs small and the class
membership guaranteed by construction.  Both are deterministic per seed.
"""

from __future__ import annotations

import random

from netsynth.lts import Lts, parse_lts, validate
from netsynth.petri import PetriNet, classify_net


def random_lts(seed: int, max_states: int = 8, max_labels: int = 4) -> Lts:
    """Deterministic random LTS, always reachable and deterministic.

    A reachability backbone connects every state to an earlier one, then
    spare (state, label) slots get random extra edges.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    nl = rng.randint(1, max_labels)
    label_names = [chr(ord("a") + i) for i in range(nl)]
    used: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, int]] = []
    for i in range(1, n):
        # states 0..i-1 use i - 1 of their i * nl slots, so one is free
        slots = [(j, l) for j in range(i) for l in range(nl)
                 if (j, l) not in used]
        j, l = rng.choice(slots)
        used[(j, l)] = i
        edges.append((j, l, i))
    for s in range(n):
        for l in range(nl):
            if (s, l) not in used and rng.random() < 0.3:
                target = rng.randrange(n)
                used[(s, l)] = target
                edges.append((s, l, target))
    lines = ["initial s0"] + [f"s{s} {label_names[l]} s{t}"
                              for s, l, t in edges]
    lts = parse_lts("\n".join(lines))
    if not validate(lts).ok:
        raise AssertionError("generated LTS is not deterministic and "
                             "reachable")
    return lts


def random_brac_net(seed: int, max_rings: int = 2,
                    max_stages: int = 4) -> PetriNet:
    """Deterministic random block-reduced asymmetric choice net.

    Each ring circulates one token wave through free-choice and asymmetric
    choice stages; self-loop transitions idle on the shared place of a
    choice, and some producers may underfill the next stage, creating
    branches that stall.  Every output is plain, classifies as BRAC and has
    a small reachability graph.
    """
    rng = random.Random(seed)
    place_names: list[str] = []
    tokens: list[int] = []
    trans_names: list[str] = []
    consume: dict[tuple[int, int], int] = {}
    produce: dict[tuple[int, int], int] = {}

    def new_place(initial: int = 0) -> int:
        place_names.append(f"p{len(place_names)}")
        tokens.append(initial)
        return len(place_names) - 1

    def new_transition() -> int:
        trans_names.append(f"t{len(trans_names)}")
        return len(trans_names) - 1

    for _ in range(rng.randint(1, max_rings)):
        nstages = rng.randint(2, max_stages)
        stages = []
        for _ in range(nstages):
            if rng.random() < 0.4:
                q = new_place()
                x = new_place()
                stages.append(("ac", q, x))
            else:
                entry = [new_place() for _ in range(rng.randint(1, 2))]
                stages.append(("fc", entry))
        for i, stage in enumerate(stages):
            nxt = stages[(i + 1) % nstages]
            targets = [nxt[1], nxt[2]] if nxt[0] == "ac" else list(nxt[1])
            if stage[0] == "fc":
                entry = stage[1]
                ntr = rng.randint(1, 3)
                for j in range(ntr):
                    t = new_transition()
                    for p in entry:
                        consume[(p, t)] = 1
                    # occasionally underfill a following asymmetric choice
                    if nxt[0] == "ac" and ntr > 1 and j == ntr - 1 \
                            and rng.random() < 0.4:
                        produce[(t, nxt[1])] = 1
                    else:
                        for p in targets:
                            produce[(t, p)] = 1
            else:
                _, q, x = stage
                for _ in range(rng.randint(1, 2)):
                    u = new_transition()
                    consume[(q, u)] = 1
                    produce[(u, q)] = 1
                for _ in range(rng.randint(1, 2)):
                    w = new_transition()
                    consume[(q, w)] = 1
                    consume[(x, w)] = 1
                    for p in targets:
                        produce[(w, p)] = 1
        first = stages[0]
        marked = [first[1], first[2]] if first[0] == "ac" else first[1]
        for p in marked:
            tokens[p] = 1

    net = PetriNet(places=tuple(place_names), transitions=tuple(trans_names),
                   consume=consume, produce=produce, m0=tuple(tokens))
    if not {"BRAC", "PLAIN"} <= classify_net(net):
        raise AssertionError("generated net is not plain BRAC")
    return net
