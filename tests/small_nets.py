"""Round-trip small nets through both pipelines.

A net's reachability graph is, by construction, the graph of a net in the
net's own class, so every failure on it is a false "synthesis impossible"
unless a documented limit explains it.  `distinct_graphs` keeps each
reachability graph once, with the classes of the nets behind it;
`round_trip` runs `synthesize_brac` on each graph of a BRAC net and
`synthesize_wpi` on each graph of a WPI net, checks that every success
verifies, and returns the failures.

`test_small_nets.py` runs every plain net with 2 places and 3
transitions (`exhaustive_nets`).  The sampled families of larger shapes
(`SAMPLED_FAMILIES`, seed 7) take about 45 s, so tier-1 does not run
them; this file prints, per family and pipeline, the distinct graphs and
the failures by witness kind:

    PYTHONPATH=src python tests/small_nets.py [--draws N]
"""

from __future__ import annotations

import argparse
import collections
import itertools
import random
import time
from typing import Iterable, Iterator

from netsynth.lts import Lts
from netsynth.petri import (CapExceeded, PetriNet, classify_net,
                            reachability_graph)
from netsynth.synthesis import (SynthesisReport, synthesize_brac,
                                synthesize_wpi, verify_solution)

PIPELINES = {"brac": synthesize_brac, "wpi": synthesize_wpi}
MAX_MARKINGS = 40

# name -> (places, transitions, largest arc weight, largest initial count)
SAMPLED_FAMILIES = {
    "3p3t-w1-m1": (3, 3, 1, 1),
    "3p3t-w1-m2": (3, 3, 1, 2),
    "3p3t-w2-m2": (3, 3, 2, 2),
    "3p4t-w1-m1": (3, 4, 1, 1),
    "4p3t-w1-m2": (4, 3, 1, 2),
    "4p4t-w1-m1": (4, 4, 1, 1),
}
SEED = 7


def net_of(consume: Iterable[Iterable[int]],
           produce: Iterable[Iterable[int]], m0: Iterable[int]) -> PetriNet:
    """The net whose transition ``t`` takes ``consume[t][p]`` tokens from
    and puts ``produce[t][p]`` tokens on place ``p``."""
    consume, produce, m0 = list(consume), list(produce), tuple(m0)
    return PetriNet(
        tuple(f"p{p}" for p in range(len(m0))),
        tuple(f"t{t}" for t in range(len(consume))),
        {(p, t): w for t, ws in enumerate(consume)
         for p, w in enumerate(ws) if w},
        {(t, p): w for t, ws in enumerate(produce)
         for p, w in enumerate(ws) if w},
        m0)


def exhaustive_nets(places: int, transitions: int,
                    max_tokens: int) -> Iterator[PetriNet]:
    """Every plain net of the shape, with 0 to ``max_tokens`` initial
    tokens on each place."""
    vectors = list(itertools.product((0, 1), repeat=places))
    for m0 in itertools.product(range(max_tokens + 1), repeat=places):
        for arcs in itertools.product(vectors, repeat=2 * transitions):
            yield net_of(arcs[0::2], arcs[1::2], m0)


def sampled_nets(places: int, transitions: int, max_weight: int,
                 max_tokens: int, draws: int,
                 rng: random.Random) -> Iterator[PetriNet]:
    """``draws`` nets of the shape, each weight and initial count drawn
    uniformly."""
    def vector(top: int) -> list[int]:
        return [rng.randint(0, top) for _ in range(places)]

    for _ in range(draws):
        consume = [vector(max_weight) for _ in range(transitions)]
        produce = [vector(max_weight) for _ in range(transitions)]
        yield net_of(consume, produce, vector(max_tokens))


def graph_key(lts: Lts) -> tuple:
    """Equal for two reachability graphs exactly when they are the same
    graph: markings and transitions in discovery order."""
    return lts.labels, lts.edges, len(lts.states)


def distinct_graphs(nets: Iterable[PetriNet]) \
        -> tuple[int, dict[tuple, tuple[Lts, set[str]]]]:
    """The number of nets in which every transition fires within
    `MAX_MARKINGS` reachable markings, and their reachability graphs,
    each once: graph key -> (graph, pipelines of the nets behind it)."""
    kept = 0
    graphs: dict[tuple, tuple[Lts, set[str]]] = {}
    for net in nets:
        try:
            lts = reachability_graph(net, MAX_MARKINGS)
        except CapExceeded:
            continue
        if len(lts.labels) < len(net.transitions):
            continue
        kept += 1
        held = classify_net(net)
        _, classes = graphs.setdefault(graph_key(lts), (lts, set()))
        classes.update(name for name in PIPELINES if name.upper() in held)
    return kept, graphs


def witness_kind(report: SynthesisReport) -> str:
    return report.witness["kind"] if report.witness else report.outcome


def round_trip(graphs: dict[tuple, tuple[Lts, set[str]]]) \
        -> dict[str, list[tuple[Lts, SynthesisReport]]]:
    """Per pipeline, the graphs it failed on, with their reports.  Raises
    if a synthesised net does not verify."""
    failures: dict[str, list[tuple[Lts, SynthesisReport]]] = {
        name: [] for name in PIPELINES}
    for lts, classes in graphs.values():
        for name in sorted(classes):
            report = PIPELINES[name](lts)
            if not report.ok:
                failures[name].append((lts, report))
            elif not verify_solution(report.net, lts, name).ok:
                raise RuntimeError(f"{name} net does not verify on\n"
                                   f"{lts.edges}")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--draws", type=int, default=60_000,
                        help="nets drawn per family")
    args = parser.parse_args()
    print(f"seed {SEED}, {args.draws} draws a family, at most "
          f"{MAX_MARKINGS} markings")
    for family, shape in SAMPLED_FAMILIES.items():
        start = time.perf_counter()
        rng = random.Random(f"{SEED} {family}")
        kept, graphs = distinct_graphs(
            sampled_nets(*shape, args.draws, rng))
        failures = round_trip(graphs)
        for name in PIPELINES:
            total = sum(name in classes for _, classes in graphs.values())
            kinds = collections.Counter(witness_kind(report)
                                        for _, report in failures[name])
            print(f"{family}  {name:4}  nets {kept}  graphs {total}  "
                  f"failures {len(failures[name])}  "
                  f"{dict(sorted(kinds.items()))}")
        print(f"{family}  {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
